"""Coordinate expansion, group action, and exact rank computation."""
import random
import tracemalloc
from fractions import Fraction
from math import prod

import pytest

import rumer.brackets
import rumer.oracle
from rumer.brackets import BracketPolynomial, parse
from rumer.counting import compositions, n_recurrence, rho_closed
from rumer.diagrams import (
    ValenceScheme,
    _diagram,
    enumerate_rumer,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes,
    enumerate_valence_schemes_by_multidegree,
    is_rumer,
)
from rumer.oracle import (
    GENERATORS,
    UnimodularMatrix,
    XPolynomial,
    act,
    basis_ok,
    expand,
    rank_of_span,
    variable_index,
    verify_basis,
)
from rumer.sparse import combine


def x(n, vertex, component):
    return XPolynomial.variable(n, vertex, component)


class TestXPolynomial:
    def test_constructor_collects_and_drops_zeros(self):
        n = 1
        key = (1, 0)
        p = XPolynomial(n, [(key, 2), (key, -2)])
        assert p.is_zero()

    def test_arithmetic(self):
        n = 2
        a = x(n, 1, 1)
        b = x(n, 2, 2)
        assert (a + b) - b == a
        assert (a * b).terms == {(1, 0, 0, 1): 1}
        assert (2 * a).terms == {(1, 0, 0, 0): 2}
        assert (a - a).is_zero()

    def test_length_validation(self):
        with pytest.raises(ValueError):
            XPolynomial(2, {(1, 0): 1})

    def test_other_polynomial_type_rejected(self):
        # a bracket polynomial and a coordinate polynomial on the same n do
        # not mix; this used to return a bracket polynomial with a tuple key
        bracket_poly, coordinate_poly = parse("[1,2]", 2), XPolynomial.constant(2, 3)
        with pytest.raises(TypeError):
            bracket_poly + coordinate_poly
        with pytest.raises(TypeError):
            coordinate_poly - bracket_poly

    def test_non_integral_values_rejected(self):
        a = x(1, 1, 1)
        with pytest.raises(TypeError):
            XPolynomial(1, {(1, 0): 0.9})
        with pytest.raises(TypeError):
            XPolynomial(1, {(0.5, 0): 1})
        with pytest.raises(TypeError):
            a * 2.5
        with pytest.raises(TypeError):
            2.5 * a
        assert (a * 3).terms == (3 * a).terms == {(1, 0): 3}

    def test_variable_index_layout(self):
        assert variable_index(1, 1) == 0
        assert variable_index(1, 2) == 1
        assert variable_index(3, 1) == 4


class TestExpand:
    def test_single_bracket(self):
        f = expand(parse("[1,2]", 2))
        assert f.terms == {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}

    def test_empty_monomial_is_one(self):
        f = expand(BracketPolynomial.monomial(3, ()))
        assert f.terms == {(0,) * 6: 1}

    def test_quadratic_identity_vanishes(self):
        f = expand(parse("[1,2][3,4] - [1,3][2,4] + [1,4][2,3]", 4))
        assert f.is_zero()

    def test_degree_is_twice_factor_count(self):
        f = expand(parse("[1,2][2,3][1,3]", 3))
        assert all(sum(e) == 6 for e in f.terms)


def bracket_product(n, edges):
    """The expansion of a bracket monomial by XPolynomial arithmetic alone."""
    product = XPolynomial.constant(n, 1)
    for i, j in edges:
        product = product * (x(n, i, 1) * x(n, j, 2) - x(n, i, 2) * x(n, j, 1))
    return product


@pytest.mark.parametrize("seed", range(6))
def test_expand_matches_xpolynomial_products(seed):
    """expand sorts the monomials and shares their prefixes' products, on
    integer-coded monomials; the reference multiplies XPolynomials one
    bracket at a time.  The draws mix bond counts, repeat chords up to six
    times and reuse prefixes."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    terms = {}
    for _ in range(rng.randint(1, 8)):
        edges = [rng.choice(chords) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:
            edges += [rng.choice(chords)] * rng.randint(1, 3)
        terms[ValenceScheme(n, edges)] = rng.choice([-2, -1, 1, 3, 2**70])
    poly = BracketPolynomial(n, terms)
    reference = XPolynomial.zero(n)
    for mono, coeff in poly.terms.items():
        reference = reference + coeff * bracket_product(n, mono.edges)
    assert expand(poly) == reference


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 5))
def test_rumer_leads_are_distinct_with_coefficient_one(n, m):
    """The certificate the block check's Rumer rank relies on, checked on the
    full-coordinate expansions instead of the dehomogenized rows: in each
    multidegree block the Rumer diagrams' lexicographic leading terms are
    distinct, each with coefficient 1."""
    for d in compositions(2 * m, n):
        leads = []
        for diagram in enumerate_rumer_by_multidegree(d):
            terms = expand(BracketPolynomial.monomial(n, diagram.edges)).terms
            lead = max(terms)
            assert terms[lead] == 1, diagram
            leads.append(lead)
        assert len(set(leads)) == len(leads), d


def block_position(d, evec):
    """The digit position, in the block of multidegree d, of a monomial given
    by its full-coordinate exponent vector: x2 = 1, x1^(n) = 1, and x1^(v)
    weighs the product of d_u + 1 over v < u < n."""
    n = len(d)
    return sum(
        evec[variable_index(v, 1)] * prod(d[u - 1] + 1 for u in range(v + 1, n))
        for v in range(1, n)
    )


def block_terms(d, edges):
    """expand's terms of one bracket monomial, projected into its block."""
    terms = expand(BracketPolynomial.monomial(len(d), edges)).terms
    return {block_position(d, evec): c for evec, c in terms.items()}


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 5))
def test_block_codes_are_one_to_one(n, m):
    """Setting x2 = 1 and x1^(n) = 1 loses nothing inside a block: the digit
    positions of the block's rows are exactly as many as its
    full-coordinate monomials."""
    width = m + 2
    for d in compositions(2 * m, n):
        schemes = enumerate_valence_schemes_by_multidegree(d)
        rows = rumer.oracle._block_rows(d, width, [s.edges for s in schemes])
        keys = {key for row in rows for key in rumer.oracle._digits(row, width)}
        full = {e for s in schemes for e in expand(BracketPolynomial.monomial(n, s.edges)).terms}
        assert len(keys) == len(full), d


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(0, 5))
def test_block_rows_decode_to_the_projected_expansion(n, m):
    """Every block row, at the narrowest width that holds its coefficients,
    decodes to expand's terms projected to x2 = 1 and x1^(n) = 1, and the
    lead read off the integer is the decoded map's largest key and its
    coefficient."""
    width = m + 2  # a row's coefficients are at most 2^m < 2^(width-1)
    for d in compositions(2 * m, n):
        schemes = enumerate_valence_schemes_by_multidegree(d)
        rows = rumer.oracle._block_rows(d, width, [s.edges for s in schemes])
        for scheme, row in zip(schemes, rows):
            terms = rumer.oracle._digits(row, width)
            assert terms == block_terms(d, scheme.edges), scheme
            top = max(terms)
            assert rumer.oracle._lead(row, width) == (top, terms[top]), scheme
            assert rumer.oracle._lead(-row, width) == (top, -terms[top]), scheme
    assert rumer.oracle._lead(0, width) is None


def test_lead_and_digits_at_the_coefficient_bound():
    """Balanced digits of size up to 2^(width-1) - 1, of either sign, at
    every position decode back, and the top one is the lead."""
    width, big = 4, 7
    for digits in [(big, -big, big), (-big, big, -big), (1, -big), (-1, big), (big, 0, 0, -1)]:
        row = sum(c << width * k for k, c in enumerate(digits))
        assert rumer.oracle._digits(row, width) == {k: c for k, c in enumerate(digits) if c}
        assert rumer.oracle._lead(row, width) == (len(digits) - 1, digits[-1])


class TestUnimodular:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 0, 0, 2)
        with pytest.raises(ValueError):
            UnimodularMatrix(0, 1, 1, 0)  # determinant -1

    def test_inverse_and_product(self):
        sigma = UnimodularMatrix(2, 3, 1, 2)
        assert sigma @ sigma.inverse() == UnimodularMatrix.identity()


def random_unimodular(rng, steps=6):
    sigma = UnimodularMatrix.identity()
    for _ in range(steps):
        gen = rng.choice(GENERATORS)
        if rng.random() < 0.5:
            gen = gen.inverse()
        sigma = sigma @ gen
    return sigma


class TestAct:
    def test_identity_fixes_everything(self):
        f = expand(parse("[1,2][1,3]", 3))
        assert act(UnimodularMatrix.identity(), f) == f

    def test_shear_fixes_bracket_expansion(self):
        f = expand(parse("[1,2]", 2))
        assert act(UnimodularMatrix(1, 1, 0, 1), f) == f

    def test_shear_on_a_single_variable(self):
        # inverse of ((1,1),(0,1)) is ((1,-1),(0,1)): x1 picks up -x2
        f = x(1, 1, 1)
        assert act(UnimodularMatrix(1, 1, 0, 1), f) == f - x(1, 1, 2)

    def test_generators_fix_all_small_monomials(self):
        for n in range(2, 5):
            for m in range(0, 3):
                for scheme in enumerate_valence_schemes(n, m):
                    f = expand(BracketPolynomial.monomial(n, scheme.edges))
                    for sigma in GENERATORS:
                        assert act(sigma, f) == f, (scheme, sigma)

    def test_action_law_on_sampled_matrices(self):
        rng = random.Random(7)
        f = expand(parse("[1,3][2,3]", 3)) + x(3, 1, 1) * x(3, 2, 2)
        for _ in range(10):
            sigma = random_unimodular(rng)
            tau = random_unimodular(rng)
            assert act(sigma @ tau, f) == act(sigma, act(tau, f))

    def test_degree_preserved(self):
        f = expand(parse("[1,2][1,2]", 2))
        g = act(UnimodularMatrix(1, 0, 1, 1), f)

        def total_degree(p):
            return max((sum(e) for e in p.terms), default=0)

        assert total_degree(g) == total_degree(f) == 4


def reference_rank(polys):
    """Dense Gaussian elimination over the rationals, columns in any order."""
    columns = sorted({e for p in polys for e in p.terms})
    rows = [[Fraction(p.terms.get(e, 0)) for e in columns] for p in polys]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_rows(rng, n, count):
    """Sparse integer polynomials of mixed degree, with zero, duplicate,
    scaled and combined rows, and coefficients above 2**64."""
    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            evec = tuple(rng.randint(0, 2) for _ in range(2 * n))
            terms[evec] = rng.choice([-1, 1]) * rng.choice(
                [1, 2, 3, 7, 2**64 + 13, 3**50]
            )
        return XPolynomial(n, terms)

    rows = [random_poly() for _ in range(count)]
    for _ in range(count // 2):
        p, q = rng.choice(rows), rng.choice(rows)
        kind = rng.randrange(4)
        if kind == 0:
            rows.append(XPolynomial.zero(n))
        elif kind == 1:
            rows.append(p)
        elif kind == 2:
            rows.append(rng.choice([-1, 5, 2**70]) * p)
        else:
            rows.append(rng.randint(-9, 9) * p + (2**65 + 1) * q)
    return rows


class TestRank:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_rational_reference(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 2])
        rows = random_rows(rng, n, rng.randint(1, 30))
        expected = reference_rank(rows)
        assert rank_of_span(rows) == expected
        for _ in range(3):
            rng.shuffle(rows)
            assert rank_of_span(rows) == expected

    def test_reference_sees_dependence(self):
        f, g = x(2, 1, 1), x(2, 2, 2)
        assert reference_rank([f, g, f + 3 * g]) == 2
        assert reference_rank([f * f, f * g, g * g, f]) == 4

    def test_mixed_vertex_counts_rejected(self):
        with pytest.raises(ValueError):
            rank_of_span([x(1, 1, 1), x(2, 1, 1)])

    def test_single_polynomial(self):
        assert rank_of_span([expand(parse("[1,2]", 2))]) == 1

    def test_empty_and_zero(self):
        assert rank_of_span([]) == 0
        assert rank_of_span([XPolynomial.zero(2)]) == 0

    def test_duplicates_do_not_inflate(self):
        f = expand(parse("[1,2]", 2))
        assert rank_of_span([f, f, 3 * f]) == 1

    def test_all_single_brackets_independent(self):
        fs = [expand(BracketPolynomial.monomial(4, s.edges)) for s in enumerate_valence_schemes(4, 1)]
        assert len(fs) == 6
        assert rank_of_span(fs) == 6

    def test_one_relation_among_two_bond_schemes(self):
        fs = [expand(BracketPolynomial.monomial(4, s.edges)) for s in enumerate_valence_schemes(4, 2)]
        assert len(fs) == 21
        assert rank_of_span(fs) == 20

    def test_invariant_under_permutation_and_scaling(self):
        fs = [expand(BracketPolynomial.monomial(4, s.edges)) for s in enumerate_valence_schemes(4, 2)]
        rng = random.Random(3)
        shuffled = fs[:]
        rng.shuffle(shuffled)
        scaled = [rng.choice([1, -2, 5, 7]) * f for f in shuffled]
        assert rank_of_span(scaled) == rank_of_span(fs) == 20

    def test_monomial_span_matches_dimension_formula(self):
        for n in range(2, 5):
            for m in range(0, 3):
                fs = [
                    expand(BracketPolynomial.monomial(n, s.edges))
                    for s in enumerate_valence_schemes(n, m)
                ]
                assert rank_of_span(fs) == rho_closed(n, m), (n, m)


def running_rank(rows):
    """The rank after each row, inserted one by one into one echelon form."""
    pivots = {}
    ranks = []
    for row in rows:
        rumer.oracle._insert(pivots, row.terms)
        ranks.append(len(pivots))
    return ranks


class TestRunningRank:
    """verify_basis reads both ranks off one echelon form: the rank after the
    Rumer rows is rumer_rank and the final rank is full_rank."""

    def rows(self, rng):
        """The expansions of the Rumer diagrams of (4, 3), then those of the
        other schemes with a dependent row in each multidegree block, a zero
        row, and a row whose terms lie in two blocks, shuffled."""
        rumer_rows = [expand(BracketPolynomial.monomial(4, D.edges)) for D in enumerate_rumer(4, 3)]
        blocks = [
            [expand(BracketPolynomial.monomial(4, s.edges)) for s in schemes]
            for schemes in map(enumerate_valence_schemes_by_multidegree, compositions(6, 4))
            if schemes
        ]
        rest = [f for block in blocks for f in block if f not in rumer_rows]
        rest += [rng.choice([-3, 2**70]) * block[0] + block[-1] for block in blocks]
        rest.append(XPolynomial.zero(4))
        rest.append(rest[0] + XPolynomial(4, {(6, 0, 0, 0, 0, 0, 0, 0): 1}))
        rng.shuffle(rumer_rows)
        rng.shuffle(rest)
        return rumer_rows, rest

    @pytest.mark.parametrize("seed", [5, 6])
    def test_checkpoint_and_final_rank(self, seed):
        rumer_rows, rest = self.rows(random.Random(seed))
        rows = rumer_rows + rest
        ranks = running_rank(rows)
        assert len(ranks) == len(rows)
        at_checkpoint = ranks[len(rumer_rows) - 1]
        assert at_checkpoint == rank_of_span(rumer_rows) == reference_rank(rumer_rows)
        assert at_checkpoint == len(rumer_rows) == rho_closed(4, 3)
        assert ranks[-1] == rank_of_span(rows) == reference_rank(rows)
        assert ranks[-1] == rho_closed(4, 3) + 1  # the two-block row adds (x1^(1))^6

    @pytest.mark.parametrize("seed", range(6))
    def test_every_prefix_matches_rational_reference(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng, rng.choice([1, 2]), rng.randint(1, 12))
        ranks = running_rank(rows)
        assert ranks == [reference_rank(rows[:k]) for k in range(1, len(rows) + 1)]

    def test_empty(self):
        assert running_rank([]) == []
        assert running_rank([XPolynomial.zero(2)]) == [0]
        assert rank_of_span([]) == 0

    def test_rows_are_not_modified(self):
        rows = random_rows(random.Random(9), 2, 12)
        before = [dict(row.terms) for row in rows]
        running_rank(rows)
        assert [row.terms for row in rows] == before


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(0, 4))
def test_each_multidegree_block_has_full_rank(n, m):
    for d in compositions(2 * m, n):
        fs = [
            expand(BracketPolynomial.monomial(n, s.edges))
            for s in enumerate_valence_schemes_by_multidegree(d)
        ]
        assert rank_of_span(fs) == n_recurrence(d) == len(enumerate_rumer_by_multidegree(d)), d


def patch_rows(monkeypatch, change):
    """Patch both expansion routines, the block coder that the basis check
    reads (_block_rows) and the term-map one behind expand (_expansions), so
    that each row, as a term map, is change(edges, terms, real): real(edges)
    gives any edge list's true row in the same keys.  Within a block both
    keep the lexicographic order of monomials, so min and max pick the same
    monomial in either."""
    expansions, block_rows = rumer.oracle._expansions, rumer.oracle._block_rows

    def patched_expansions(edge_lists, x1, x2):
        def real(edges):
            return next(expansions([edges], x1, x2))

        edge_lists = list(edge_lists)
        for edges, terms in zip(edge_lists, expansions(edge_lists, x1, x2)):
            yield change(edges, terms, real)

    def patched_block_rows(d, width, edge_lists):
        def real(edges):
            return rumer.oracle._digits(next(block_rows(d, width, [edges])), width)

        edge_lists = list(edge_lists)
        for edges, row in zip(edge_lists, block_rows(d, width, edge_lists)):
            terms = change(edges, rumer.oracle._digits(row, width), real)
            yield sum(c << width * k for k, c in terms.items())

    monkeypatch.setattr(rumer.oracle, "_expansions", patched_expansions)
    monkeypatch.setattr(rumer.oracle, "_block_rows", patched_block_rows)


class TestVerifyBasis:
    def test_four_two(self):
        report = verify_basis(4, 2)
        assert report["rumer_count"] == 20
        assert report["rumer_rank"] == 20
        assert report["full_rank"] == 20
        assert report["rho"] == 20
        assert report["straighten_failures"] == []
        assert basis_ok(report)

    def test_two_three(self):
        report = verify_basis(2, 3)
        assert report["rumer_rank"] == report["rho"] == 1
        assert basis_ok(report)

    def test_three_zero(self):
        report = verify_basis(3, 0)
        assert report["full_rank"] == 1
        assert basis_ok(report)

    def test_rumer_rank_is_read_after_the_rumer_rows(self):
        """A Rumer diagram missing from the list lowers rumer_rank only: its
        scheme still enters full_rank among the other schemes' rows."""
        diagrams = enumerate_rumer(4, 2)
        blocks = rumer.oracle._multidegree_blocks(diagrams[1:], enumerate_valence_schemes(4, 2))
        report = rumer.oracle._verify_basis(4, 2, blocks, rumer.oracle._new_stats())
        assert (report["rumer_count"], report["rumer_rank"], report["full_rank"]) == (19, 19, 20)
        assert not basis_ok(report)

    def test_duplicate_rumer_diagram(self):
        """A Rumer diagram listed twice is counted twice but adds no rank."""
        diagrams = enumerate_rumer(4, 2)
        blocks = rumer.oracle._multidegree_blocks(
            diagrams + diagrams[:1], enumerate_valence_schemes(4, 2)
        )
        report = rumer.oracle._verify_basis(4, 2, blocks, rumer.oracle._new_stats())
        assert (report["rumer_count"], report["rumer_rank"], report["full_rank"]) == (21, 20, 20)
        assert report["straighten_failures"] == []
        assert not basis_ok(report)

    def test_crossing_scheme_listed_as_a_diagram(self, straighten_each):
        """The Rumer list is not trusted to be non-crossing: a crossing scheme
        listed as a diagram and left as it is by the straightener is still
        reported as a crossing term, and its shared lead fails the count."""
        crossing = ValenceScheme(4, ((1, 3), (2, 4)))
        real = rumer.brackets.straighten
        straighten_each(lambda poly: poly if poly == parse("[1,3][2,4]", 4) else real(poly))
        diagrams = enumerate_rumer(4, 2) + [_diagram(crossing)]
        blocks = rumer.oracle._multidegree_blocks(diagrams, enumerate_valence_schemes(4, 2))
        report = rumer.oracle._verify_basis(4, 2, blocks, rumer.oracle._new_stats())
        assert (report["rumer_count"], report["rumer_rank"], report["full_rank"]) == (21, 20, 20)
        assert report["straighten_failures"] == [
            {"scheme": "n=4; (1,3)(2,4)", "reason": "crossing term [1,3][2,4]"}
        ]

    def test_corrupted_expansion_term(self, monkeypatch, straighten_each):
        """One wrong coefficient in one scheme's expansion: its row leaves the
        span of the Rumer rows, and its straightened output no longer matches.
        Both expansion routines are patched, so the block's integer rows and
        the full-coordinate expand both see the wrong coefficient."""
        crossing = ((1, 3), (2, 4))

        def corrupt(edges, terms, real):
            if edges == crossing:
                terms = combine([*terms.items(), (min(terms), 1)])
            return terms

        patch_rows(monkeypatch, corrupt)
        report = verify_basis(4, 2)
        assert (report["rumer_rank"], report["full_rank"], report["rho"]) == (20, 21, 20)
        assert report["straighten_failures"] == [
            {"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}
        ]
        assert not basis_ok(report)

        # a second case: straighten raises on that scheme, which certifies
        # nothing, so its row is still ranked
        def straighten(poly):
            if poly == parse("[1,3][2,4]", 4):
                raise RuntimeError("no basis today")
            return rumer.brackets.straighten(poly)

        straighten_each(straighten)
        report = verify_basis(4, 2)
        assert (report["rumer_rank"], report["full_rank"], report["rho"]) == (20, 21, 20)
        assert report["straighten_failures"] == [
            {"scheme": "n=4; (1,3)(2,4)", "reason": "straighten raised: no basis today"}
        ]

    def test_scheme_list_missing_an_exchange_child(self):
        """A block whose scheme list lacks an exchange child fails the
        crossing scheme that needs it, and the sweep goes on."""
        missing = ValenceScheme(4, ((1, 2), (3, 4)))
        schemes = [s for s in enumerate_valence_schemes(4, 2) if s != missing]
        blocks = rumer.oracle._multidegree_blocks(enumerate_rumer(4, 2), schemes)
        report = rumer.oracle._verify_basis(4, 2, blocks, rumer.oracle._new_stats())
        assert report["straighten_failures"] == [
            {
                "scheme": "n=4; (1,3)(2,4)",
                "reason": "straighten raised: exchanging (1,3) and (2,4) in [1,3][2,4] "
                "gives [1,2][3,4], which is not a scheme of the block",
            }
        ]
        assert (report["rumer_rank"], report["full_rank"]) == (20, 20)

    def test_straightened_term_missing_from_the_scheme_list(self, monkeypatch, straighten_each):
        """A straightened term of the block's multidegree that is in neither
        list has no row of the block: it is expanded on its own, multiplies
        back, and only the ranks fall back to elimination."""
        twin = ((1, 2), (3, 4))
        real = rumer.oracle._block_rows
        calls = []

        def record(d, width, edge_lists):
            edge_lists = list(edge_lists)
            calls.append(edge_lists)
            return real(d, width, edge_lists)

        monkeypatch.setattr(rumer.oracle, "_block_rows", record)
        straighten_each(rumer.brackets.straighten)
        diagrams = [d for d in enumerate_rumer(4, 2) if d.edges != twin]
        schemes = [s for s in enumerate_valence_schemes(4, 2) if s.edges != twin]
        blocks = rumer.oracle._multidegree_blocks(diagrams, schemes)
        report = rumer.oracle._verify_basis(4, 2, blocks, rumer.oracle._new_stats())
        assert (report["rumer_count"], report["rumer_rank"]) == (19, 19)
        assert (report["full_rank"], report["rho"]) == (20, 20)
        assert report["straighten_failures"] == []
        assert [edge_lists for edge_lists in calls if twin in edge_lists] == [[twin]]

    @pytest.mark.parametrize(
        "target,full_rank,failures",
        [
            # the crossing scheme's output sums the corrupted Rumer row
            (
                ((1, 2), (3, 4)),
                21,
                [{"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}],
            ),
            # a block with no crossing scheme: every output multiplies back, so
            # only the lead coefficient shows the fault, and the corrupted row
            # is still a basis of its block
            (((1, 2), (1, 2)), 20, []),
        ],
    )
    def test_lead_coefficient_two_falls_back_to_exact_ranks(
        self, monkeypatch, target, full_rank, failures
    ):
        """A Rumer row whose lead coefficient is 2 is no unit pivot: its block
        is ranked by elimination, whose ranks are those of the corrupted rows."""
        def corrupt(edges, terms, real):
            return {**terms, max(terms): 2} if edges == target else terms

        patch_rows(monkeypatch, corrupt)
        schemes = enumerate_valence_schemes(4, 2)
        rows = {s: expand(BracketPolynomial.monomial(4, s.edges)) for s in schemes}
        lead = max(rows[ValenceScheme(4, target)].terms)
        assert rows[ValenceScheme(4, target)].terms[lead] == 2
        rumer_rows = [rows[d] for d in enumerate_rumer(4, 2)]
        stats = rumer.oracle._new_stats()
        blocks = rumer.oracle._multidegree_blocks(enumerate_rumer(4, 2), rows)
        report = rumer.oracle._verify_basis(4, 2, blocks, stats)
        assert (stats["blocks"], stats["fallback_blocks"]) == (19, 1)
        assert report["rumer_rank"] == reference_rank(rumer_rows) == 20
        assert report["full_rank"] == reference_rank(list(rows.values())) == full_rank
        assert report["straighten_failures"] == failures

    def test_repeated_lead_falls_back_to_exact_ranks(self, monkeypatch):
        """Two different Rumer rows with one lead: with no crossing scheme in
        the list to multiply back, only the repeated lead shows that the
        diagram count may overstate the rows' rank."""
        twin = ((1, 2), (3, 4))

        def corrupt(edges, terms, real):
            if edges == ((1, 4), (2, 3)):
                terms = real(twin)
                terms = combine([*terms.items(), (min(terms), 1)])
            return terms

        patch_rows(monkeypatch, corrupt)
        schemes = [s for s in enumerate_valence_schemes(4, 2) if is_rumer(s)]
        rows = [expand(BracketPolynomial.monomial(4, s.edges)) for s in schemes]
        stats = rumer.oracle._new_stats()
        blocks = rumer.oracle._multidegree_blocks(enumerate_rumer(4, 2), schemes)
        report = rumer.oracle._verify_basis(4, 2, blocks, stats)
        assert (stats["blocks"], stats["fallback_blocks"]) == (19, 1)
        assert report["rumer_rank"] == report["full_rank"] == reference_rank(rows) == 20

    def test_difference_at_the_coefficient_bound_is_a_mismatch(
        self, monkeypatch, straighten_each
    ):
        """A multiply-back difference whose one coefficient is the bound
        (S + 1) 2^m, S the largest output's coefficient sum, is reported.
        The crossing scheme's output is 3 times [1,2][3,4], so S = 3, and
        the rows, of coefficients at most 2^m = 4, are 4 for [1,2][3,4] and
        y - 4 for [1,3][2,4], y the digit base: the difference is 16 - y,
        which a digit width of 4 would read as the integer 0."""
        twin, crossing = ((1, 2), (3, 4)), ((1, 3), (2, 4))
        real = rumer.oracle._block_rows

        def rows(d, width, edge_lists):
            edge_lists = list(edge_lists)
            for edges, row in zip(edge_lists, real(d, width, edge_lists)):
                if d == (1, 1, 1, 1) and edges in (twin, crossing):
                    row = 4 if edges == twin else (1 << width) - 4
                yield row

        monkeypatch.setattr(rumer.oracle, "_block_rows", rows)
        straighten = rumer.brackets.straighten
        straighten_each(
            lambda poly: parse("3*[1,2][3,4]", 4) if poly == parse("[1,3][2,4]", 4)
            else straighten(poly)
        )
        report = verify_basis(4, 2)
        assert report["straighten_failures"] == [
            {"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}
        ]

    def test_large_output_coefficients_verify(self):
        """The central block of (4,14) straightens to outputs whose
        coefficients sum to 128 in size: the digits widen with them, and
        the block still passes with no elimination."""
        d = (7, 7, 7, 7)
        diagrams = enumerate_rumer_by_multidegree(d)
        schemes = enumerate_valence_schemes_by_multidegree(d)
        outputs, _ = rumer.brackets._normal_forms(schemes)
        assert max(sum(map(abs, terms.values())) for terms in outputs) == 128
        stats = rumer.oracle._new_stats()
        rumer_rank, full_rank, failures = rumer.oracle._check_block(d, diagrams, schemes, stats)
        assert rumer_rank == full_rank == len(diagrams) == n_recurrence(d)
        assert (failures, stats["fallback_blocks"]) == ([], 0)

    def test_rumer_expansions_are_independent(self):
        fs = [
            expand(BracketPolynomial.monomial(5, d.edges)) for d in enumerate_rumer(5, 2)
        ]
        assert rank_of_span(fs) == len(fs) == rho_closed(5, 2)


def test_verify_basis_holds_little_beyond_the_rumer_expansions():
    """verify_basis holds one multidegree block's rows at a time: its traced
    peak at (5, 4) stays within 1.6 times the size of that cell's Rumer
    expansions built alone."""

    def rumer_expansions():
        return [expand(BracketPolynomial.monomial(5, d.edges)) for d in enumerate_rumer(5, 4)]

    def traced_peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = fn()
            size, peak = tracemalloc.get_traced_memory()
            return kept, size - base, peak - base
        finally:
            tracemalloc.stop()

    expansions, size, _ = traced_peak(rumer_expansions)
    assert len(expansions) == rho_closed(5, 4)
    del expansions
    report, _, peak = traced_peak(lambda: verify_basis(5, 4))
    assert basis_ok(report)
    assert peak < 1.6 * size, (peak, size)


class TestBrokenStraightenerIsCaught:
    """A broken straightener's output no longer multiplies back to the
    scheme's row, or it names a term outside the block's Rumer diagrams, so
    each block it breaks is ranked by elimination; every fault must be
    reported under the same reasons as before."""

    N, M = 4, 2

    def broken(self, straighten_each, mutate):
        real = rumer.brackets.straighten
        straighten_each(lambda poly: mutate(real(poly)))
        report = verify_basis(self.N, self.M)
        assert not basis_ok(report)
        return report["straighten_failures"]

    def test_flipped_coefficient(self, straighten_each):
        def flip(flat):
            terms = dict(flat.terms)
            first = min(terms, key=lambda mono: mono.edges)
            terms[first] = -terms[first]
            return BracketPolynomial(flat.n, terms)

        failures = self.broken(straighten_each, flip)
        assert len(failures) == 21  # every scheme of (4, 2)
        assert {f["reason"] for f in failures} == {"expansion mismatch"}
        assert failures[0] == {"scheme": "n=4; (1,2)(1,2)", "reason": "expansion mismatch"}

    def test_dropped_term(self, straighten_each):
        def drop(flat):
            terms = dict(flat.terms)
            if len(terms) > 1:
                del terms[min(terms, key=lambda mono: mono.edges)]
            return BracketPolynomial(flat.n, terms)

        failures = self.broken(straighten_each, drop)
        # only the crossing scheme straightens to more than one term
        assert failures == [{"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}]

    def test_added_crossing_term(self, straighten_each):
        crossing = parse("[1,3][2,4]", self.N)
        failures = self.broken(straighten_each, lambda flat: flat + crossing)
        # outside its own block the crossing term is of another multidegree,
        # which the full coordinates expand, so the sum no longer matches
        assert failures[:2] == [
            {"scheme": "n=4; (1,2)(1,2)", "reason": "expansion mismatch"},
            {"scheme": "n=4; (1,2)(1,2)", "reason": "crossing term [1,3][2,4]"},
        ]
        assert {"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"} in failures

    def test_added_term_of_another_multidegree(self, straighten_each):
        other = parse("[3,4][3,4]", self.N)  # a Rumer diagram of the cell
        failures = self.broken(straighten_each, lambda flat: flat + other)
        assert failures[:2] == [
            {"scheme": "n=4; (1,2)(1,2)", "reason": "expansion mismatch"},
            {"scheme": "n=4; (1,2)(1,2)", "reason": "multidegree changed in [3,4][3,4]"},
        ]
        assert all("crossing" not in f["reason"] for f in failures)

        # a second case: terms of one other multidegree that cancel in the
        # expansion are each named, with no mismatch outside their own block
        zero = parse("[1,3][2,4] - [1,2][3,4] - [1,4][2,3]", self.N)
        failures = self.broken(straighten_each, lambda flat: flat + zero)
        named = [
            "crossing term [1,3][2,4]",
            "multidegree changed in [1,2][3,4]",
            "multidegree changed in [1,4][2,3]",
        ]
        assert failures[:3] == [{"scheme": "n=4; (1,2)(1,2)", "reason": r} for r in named]
        # in that block the sum is a crossing term plus a Rumer diagram
        assert {"scheme": "n=4; (1,2)(3,4)", "reason": named[0]} in failures
        assert len(failures) == 18 * 3 + 3  # 18 schemes outside the block, 3 in it
        assert {f["reason"] for f in failures} == set(named)

    def test_added_term_of_another_bond_count(self, straighten_each):
        other = parse("[1,2]", self.N)  # not in the cell: expanded directly
        failures = self.broken(straighten_each, lambda flat: flat + other)
        assert failures[:2] == [
            {"scheme": "n=4; (1,2)(1,2)", "reason": "expansion mismatch"},
            {"scheme": "n=4; (1,2)(1,2)", "reason": "multidegree changed in [1,2]"},
        ]

        # a second case: more bonds than the cell, so more than any digit of
        # a block's codes holds; it is still expanded, in the full coordinates
        other = BracketPolynomial.monomial(self.N, [(1, 2)] * 5)
        failures = self.broken(straighten_each, lambda flat: flat + other)
        reasons = ["expansion mismatch", "multidegree changed in [1,2][1,2][1,2][1,2][1,2]"]
        assert failures[:2] == [{"scheme": "n=4; (1,2)(1,2)", "reason": r} for r in reasons]
        assert len(failures) == 2 * 21  # both reasons for every scheme of (4, 2)
        assert {f["reason"] for f in failures} == set(reasons)

    def test_raising_straightener(self, straighten_each):
        def fail(flat):
            raise RuntimeError("no basis today")

        failures = self.broken(straighten_each, fail)
        assert len(failures) == 21
        assert failures[0] == {"scheme": "n=4; (1,2)(1,2)", "reason": "straighten raised: no basis today"}
