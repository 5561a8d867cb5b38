"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either trivially forced, frozen from an independent
brute-force computation, or cross-checked against the coordinate-expansion
oracle inside the test itself.  All arithmetic is exact; the stated time
budgets are asserted.
"""
import random
import time

from rumer.bijection import psi, psi_section
from rumer.brackets import BracketPolynomial, parse, straighten
from rumer.counting import (
    compositions,
    even_triangle,
    n_recurrence,
    rho_closed,
    rho_product,
    rho_sum_over_compositions,
)
from rumer.diagrams import (
    RumerDiagram,
    enumerate_rumer,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes,
    is_rumer,
)
from rumer.oracle import (
    GENERATORS,
    UnimodularMatrix,
    act,
    expand,
    rank_of_span,
)


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_two_vertex_counts():
    start = time.perf_counter()
    bad = [m for m in range(0, 51) if rho_closed(2, m) != 1]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    report(1, ok, f"rho(2,m)=1 for m=0..50, {elapsed:.3f}s")


def test_criterion_2_four_counting_routes_agree():
    start = time.perf_counter()
    mismatches = []
    for n in range(2, 7):
        for m in range(0, 4):
            counts = {
                "formula": rho_closed(n, m),
                "recurrence": rho_sum_over_compositions(n, m),
                "enumerate": len(enumerate_rumer(n, m)),
            }
            if n >= 3:
                counts["product"] = rho_product(n, m)
            if len(set(counts.values())) != 1:
                mismatches.append((n, m, counts))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    report(2, ok, f"(n,m) grid 2..6 x 0..3 agreed, {elapsed:.2f}s; mismatches={mismatches}")


def test_criterion_3_spot_values_against_enumeration():
    expected = {(3, 1): 3, (4, 1): 6, (3, 2): 6, (4, 2): 20}
    expected.update({(n, 0): 1 for n in range(1, 7)})
    bad = []
    for (n, m), value in sorted(expected.items()):
        enumerated = len(enumerate_rumer(n, m))
        if not (enumerated == rho_closed(n, m) == value):
            bad.append((n, m, enumerated))
    report(3, not bad, f"spot values vs brute-force enumeration; bad={bad}")


def test_criterion_4_catalan_cross_check():
    start = time.perf_counter()
    catalan = [1, 2, 5, 14, 42]
    bad = []
    for m in range(1, 6):
        ones = (1,) * (2 * m)
        recurrence = n_recurrence(ones)
        enumerated = len(enumerate_rumer_by_multidegree(ones))
        if not (recurrence == enumerated == catalan[m - 1]):
            bad.append((m, recurrence, enumerated))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    report(4, ok, f"all-ones recurrence = matchings = 1,2,5,14,42, {elapsed:.2f}s; bad={bad}")


def _criterion_5_grid():
    cells = [(n, m) for n in range(1, 5) for m in range(0, 4)]
    cells += [(5, m) for m in range(0, 3)]
    return cells


def test_criterion_5_straighten_and_basis_ranks():
    start = time.perf_counter()
    failures = []
    for n, m in _criterion_5_grid():
        rumer_expansions = [
            expand(BracketPolynomial.monomial(n, d.edges)) for d in enumerate_rumer(n, m)
        ]
        rho = rho_closed(n, m)
        if not (rank_of_span(rumer_expansions) == len(rumer_expansions) == rho):
            failures.append((n, m, "rumer rank"))
        all_expansions = []
        for scheme in enumerate_valence_schemes(n, m):
            poly = BracketPolynomial.monomial(n, scheme.edges)
            reference = expand(poly)
            all_expansions.append(reference)
            flat = straighten(poly)
            if expand(flat) != reference:
                failures.append((n, m, f"expansion mismatch at {scheme}"))
            if any(not is_rumer(mono) for mono in flat.terms):
                failures.append((n, m, f"crossing term from {scheme}"))
        if rank_of_span(all_expansions) != rho:
            failures.append((n, m, "full rank"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(5, ok, f"straightening + exact ranks on n<=4,m<=3 and n=5,m<=2, "
                  f"{elapsed:.2f}s; failures={failures}")


def test_criterion_6_quadratic_identity_straightens_to_zero():
    from itertools import combinations

    start = time.perf_counter()
    bad = []
    for a, b, c, d in combinations(range(1, 7), 4):
        identity = parse(f"[{a},{b}][{c},{d}] - [{a},{c}][{b},{d}] + [{a},{d}][{b},{c}]", 6)
        if not straighten(identity).is_zero():
            bad.append((a, b, c, d))
    elapsed = time.perf_counter() - start
    report(6, not bad and elapsed < 5.0,
           f"all {15} four-subsets of [1,6] vanish, {elapsed:.2f}s; bad={bad}")


def test_criterion_7_invariance_under_unimodular_action():
    rng = random.Random(20250808)
    matrices = list(GENERATORS)
    for _ in range(20):
        sigma = UnimodularMatrix.identity()
        for _ in range(rng.randint(2, 6)):
            gen = rng.choice(GENERATORS)
            sigma = sigma @ (gen.inverse() if rng.random() < 0.5 else gen)
        matrices.append(sigma)
    bad = []
    for n in range(1, 5):
        for m in range(0, 3):
            for scheme in enumerate_valence_schemes(n, m):
                f = expand(BracketPolynomial.monomial(n, scheme.edges))
                for sigma in matrices:
                    if act(sigma, f) != f:
                        bad.append((scheme.to_text(), sigma))
    report(7, not bad, f"{len(matrices)} matrices fix every monomial with n<=4, m<=2; bad={bad}")


def test_criterion_8_merge_bijection_round_trip():
    start = time.perf_counter()
    bad = []
    for parts in range(2, 7):
        for total in range(0, 9):  # odd totals have no diagrams; the loop is vacuous there
            for d in compositions(total, parts):
                m_n, m_n1 = d[-2], d[-1]
                prefix = d[:-2]
                for diagram in enumerate_rumer_by_multidegree(d):
                    merged = psi(diagram)
                    in_union = (
                        is_rumer(merged.scheme)
                        and even_triangle(m_n, m_n1, merged.mu_n)
                        and merged.scheme.multidegree() == prefix + (merged.mu_n,)
                    )
                    if not in_union:
                        bad.append((d, diagram.to_text(), "image outside union"))
                        continue
                    back = psi_section(RumerDiagram(merged.scheme), m_n, m_n1)
                    if back != diagram:
                        bad.append((d, diagram.to_text(), "round trip failed"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    report(8, ok, f"merge/section round trip over sums<=8 on <=6 vertices, "
                  f"{elapsed:.2f}s; bad={bad[:3]}")


def test_criterion_9_straighten_preserves_multidegree():
    bad = []
    for n, m in _criterion_5_grid():
        for scheme in enumerate_valence_schemes(n, m):
            degrees = scheme.multidegree()
            flat = straighten(BracketPolynomial.monomial(n, scheme.edges))
            for mono in flat.terms:
                if mono.multidegree() != degrees:
                    bad.append((scheme.to_text(), str(mono)))
    report(9, not bad, f"termwise multidegree preserved over the criterion-5 grid; bad={bad[:3]}")
