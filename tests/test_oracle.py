"""Coordinate expansion, group action, and exact rank computation."""
import random
import tracemalloc
from fractions import Fraction
from math import prod

import pytest

import rumer.brackets
import rumer.oracle
from rumer.brackets import BracketPolynomial, parse, straighten
from rumer.counting import compositions, n_recurrence, rho_closed
from rumer.diagrams import (
    ValenceScheme,
    _diagram,
    enumerate_rumer,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes,
    enumerate_valence_schemes_by_multidegree,
    first_crossing,
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
        assert repr(a * b + b) == "XPolynomial(n=2, 2 terms)"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            XPolynomial(2, {(1, 0): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            XPolynomial(1, {(1, -1): 1})

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
        with pytest.raises(ValueError, match="component must be 1 or 2"):
            variable_index(1, 3)
        with pytest.raises(ValueError, match="vertex must be positive"):
            variable_index(0, 1)


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

    def test_crossing_scheme_listed_as_a_diagram(self, monkeypatch):
        """The Rumer list is not trusted to be non-crossing: a crossing scheme
        listed as a diagram shares its lead, which fails the count.  With an
        exchange that leaves it as it is, it is also reported, as an
        exchange that does not lower the weight."""
        crossing = ValenceScheme(4, ((1, 3), (2, 4)))
        diagrams = enumerate_rumer(4, 2) + [_diagram(crossing)]
        for keep, failures in [
            (False, []),
            (True, [{
                "scheme": "n=4; (1,3)(2,4)",
                "reason": "exchanging (1,3) and (2,4) in [1,3][2,4] leaves weight 8, not less than 8",
            }]),
        ]:
            if keep:
                monkeypatch.setattr(rumer.brackets, "_exchange", lambda e, f: ((e, f),))
            blocks = rumer.oracle._multidegree_blocks(diagrams, enumerate_valence_schemes(4, 2))
            report = rumer.oracle._verify_basis(4, 2, blocks, rumer.oracle._new_stats())
            assert (report["rumer_count"], report["rumer_rank"], report["full_rank"]) == (21, 20, 20)
            assert report["straighten_failures"] == failures

    def test_corrupted_expansion_term(self, monkeypatch):
        """One wrong coefficient in one scheme's expansion: its row leaves the
        span of the Rumer rows, and no longer is the sum of its exchange
        children's rows.
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

        # a second case: that scheme's exchange leaves the block, which
        # certifies nothing, so its row is still ranked
        monkeypatch.setattr(
            rumer.oracle, "_children", lambda scheme, e, f: [ValenceScheme(4, [(1, 2)])]
        )
        report = verify_basis(4, 2)
        assert (report["rumer_rank"], report["full_rank"], report["rho"]) == (20, 21, 20)
        assert report["straighten_failures"] == [{
            "scheme": "n=4; (1,3)(2,4)",
            "reason": "exchanging (1,3) and (2,4) in [1,3][2,4] gives [1,2], "
            "which is not a scheme of the block",
        }]

    def test_scheme_list_missing_an_exchange_child(self):
        """A block whose scheme list lacks a crossing exchange child fails the
        crossing scheme that needs it, and the sweep goes on.  (A Rumer child
        missing from the scheme list is still a listed diagram, whose row is
        a Rumer row.)"""
        missing = ValenceScheme(6, ((1, 5), (2, 4), (3, 6)))
        schemes = [s for s in enumerate_valence_schemes(6, 3) if s != missing]
        blocks = rumer.oracle._multidegree_blocks(enumerate_rumer(6, 3), schemes)
        report = rumer.oracle._verify_basis(6, 3, blocks, rumer.oracle._new_stats())
        assert report["straighten_failures"] == [
            {
                "scheme": "n=6; (1,4)(2,5)(3,6)",
                "reason": "exchanging (1,4) and (2,5) in [1,4][2,5][3,6] "
                "gives [1,5][2,4][3,6], which is not a scheme of the block",
            }
        ]
        assert report["rumer_rank"] == report["full_rank"] == rho_closed(6, 3)

    def test_straightened_term_missing_from_the_scheme_list(self, monkeypatch):
        """An exchange child of the block's multidegree that is in neither
        list has no row of the block and is not expanded on its own: its
        parent fails, and the ranks fall back to elimination."""
        twin = ((1, 2), (3, 4))
        real = rumer.oracle._block_rows
        calls = []

        def record(d, width, edge_lists):
            edge_lists = list(edge_lists)
            calls.append(edge_lists)
            return real(d, width, edge_lists)

        monkeypatch.setattr(rumer.oracle, "_block_rows", record)
        diagrams = [d for d in enumerate_rumer(4, 2) if d.edges != twin]
        schemes = [s for s in enumerate_valence_schemes(4, 2) if s.edges != twin]
        blocks = rumer.oracle._multidegree_blocks(diagrams, schemes)
        stats = rumer.oracle._new_stats()
        report = rumer.oracle._verify_basis(4, 2, blocks, stats)
        assert (report["rumer_count"], report["rumer_rank"]) == (19, 19)
        assert (report["full_rank"], report["rho"]) == (20, 20)
        assert report["straighten_failures"] == [{
            "scheme": "n=4; (1,3)(2,4)",
            "reason": "exchanging (1,3) and (2,4) in [1,3][2,4] gives [1,2][3,4], "
            "which is not a scheme of the block",
        }]
        assert [edge_lists for edge_lists in calls if twin in edge_lists] == []
        assert stats["fallback_blocks"] == 1

    def test_block_missing_a_child_fails_its_parents_only(self):
        """Without one exchange child, only the crossing schemes whose own
        exchange gives it fail; a scheme whose children pass is certified by
        them, however far down its straightening would reach the missing
        one.  The check does not raise."""
        removed = ValenceScheme(6, [(1, 2), (3, 4), (5, 6)])
        d = (1,) * 6
        diagrams = [s for s in enumerate_rumer_by_multidegree(d) if s != removed]
        schemes = [s for s in enumerate_valence_schemes_by_multidegree(d) if s != removed]
        pairs = [first_crossing(s) for s in schemes]
        parents = {
            s for s, pair in zip(schemes, pairs)
            if pair is not None and removed in rumer.brackets._children(s, *pair)
        }
        stats = rumer.oracle._new_stats()
        rumer_rank, full_rank, failures = rumer.oracle._check_block(
            d, diagrams, schemes, pairs, stats
        )
        assert stats["rewrites"] == 10  # 15 perfect matchings, 5 of them Rumer diagrams
        assert {s for s, _ in failures} == parents
        assert ValenceScheme(6, [(1, 3), (2, 4), (5, 6)]) in parents and len(parents) < 10
        for _, reason in failures:
            assert reason.endswith("gives [1,2][3,4][5,6], which is not a scheme of the block")
        assert (rumer_rank, full_rank, stats["fallback_blocks"]) == (4, 5, 1)

    @pytest.mark.parametrize(
        "target,full_rank,failures",
        [
            # with the crossing scheme listed, its exchange sums the corrupted
            # Rumer row as well
            (
                ((1, 2), (3, 4)),
                21,
                [{"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}],
            ),
            # with only the Rumer schemes listed, the block of (1,1,1,1) has
            # two schemes and nothing to exchange: only the lead coefficient
            # of 2 sends it to elimination
            (((1, 2), (3, 4)), 20, []),
        ],
    )
    def test_lead_coefficient_two_falls_back_to_exact_ranks(
        self, monkeypatch, target, full_rank, failures
    ):
        """A Rumer row whose lead coefficient is 2 is no unit pivot: its block
        is ranked by elimination, whose ranks are those of the corrupted
        rows.  The crossing scheme [1,3][2,4] is listed only in the case whose
        failure it is."""
        def corrupt(edges, terms, real):
            return {**terms, max(terms): 2} if edges == target else terms

        patch_rows(monkeypatch, corrupt)
        schemes = [s for s in enumerate_valence_schemes(4, 2) if failures or is_rumer(s)]
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

    def test_one_scheme_block_builds_no_row(self, monkeypatch):
        """A block whose only scheme is its only Rumer diagram builds no row:
        its rank is read off the nonzero product of i - j over its edges, so
        a corrupted row coder never reaches it.  At (4, 2) only the three
        schemes of the block of (1,1,1,1) are coded, and no block falls back
        to elimination."""
        coded = set()

        def corrupt(edges, terms, real):
            coded.add(edges)
            return {**terms, max(terms): 2} if edges == ((1, 2), (1, 2)) else terms

        patch_rows(monkeypatch, corrupt)
        stats = rumer.oracle._new_stats()
        blocks = rumer.oracle._multidegree_blocks(
            enumerate_rumer(4, 2), enumerate_valence_schemes(4, 2)
        )
        report = rumer.oracle._verify_basis(4, 2, blocks, stats)
        assert coded == {((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}
        assert (stats["blocks"], stats["fallback_blocks"], stats["pivots"]) == (19, 0, 20)
        assert report["rumer_rank"] == report["full_rank"] == 20
        assert report["straighten_failures"] == []

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

    def test_difference_at_the_coefficient_bound_is_a_mismatch(self, monkeypatch):
        """An exchange difference whose one coefficient is the bound 3 2^m is
        reported, and the digit width m + 3 holds it as one balanced digit.
        At (4, 2) the rows of the crossing scheme [1,3][2,4] and of its
        children [1,2][3,4] and [1,4][2,3] are set to -4, 4 and 4, each at
        the bound 2^m = 4 of a row's coefficients: the difference is -12,
        which balanced digits one bit narrower would read as 4 - 2^4."""
        crossing = ((1, 3), (2, 4))
        children = (((1, 2), (3, 4)), ((1, 4), (2, 3)))
        real = rumer.oracle._block_rows
        widths = set()

        def rows(d, width, edge_lists):
            widths.add(width)
            edge_lists = list(edge_lists)
            for edges, row in zip(edge_lists, real(d, width, edge_lists)):
                if edges == crossing:
                    row = -4
                elif edges in children:
                    row = 4
                yield row

        monkeypatch.setattr(rumer.oracle, "_block_rows", rows)
        report = verify_basis(4, 2)
        assert report["straighten_failures"] == [
            {"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}
        ]
        assert widths == {2 + 3}
        assert rumer.oracle._digits(-12, 5) == {0: -12}
        assert rumer.oracle._digits(-12, 4) == {0: 4, 1: -1}

    def test_large_output_coefficients_verify(self):
        """The central block of (4,14) straightens to outputs whose
        coefficients sum to 128 in size.  The exchange certificate never
        reads them: the block passes at the digit width m + 3, with no
        elimination."""
        d = (7, 7, 7, 7)
        diagrams = enumerate_rumer_by_multidegree(d)
        schemes = enumerate_valence_schemes_by_multidegree(d)
        outputs = [straighten(BracketPolynomial.monomial(4, s.edges)) for s in schemes]
        assert max(sum(map(abs, flat.terms.values())) for flat in outputs) == 128
        stats = rumer.oracle._new_stats()
        pairs = [first_crossing(s) for s in schemes]
        rumer_rank, full_rank, failures = rumer.oracle._check_block(
            d, diagrams, schemes, pairs, stats
        )
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
    """A broken exchange rule, the one rewrite of straighten, or a broken
    row, no longer certifies the crossing scheme it breaks, so each block it
    breaks is ranked by elimination.  Every fault is named as a
    failure of that scheme, never raised.  The one crossing scheme of (4, 2)
    is [1,3][2,4], whose children are [1,2][3,4] and [1,4][2,3]."""

    N, M = 4, 2

    def broken(self):
        report = verify_basis(self.N, self.M)
        assert not basis_ok(report)
        assert report["rumer_rank"] == report["full_rank"] == report["rho"]
        return report["straighten_failures"]

    def test_flipped_coefficient(self, monkeypatch):
        """The crossing scheme's row with every sign flipped."""
        def flip(edges, terms, real):
            return {k: -c for k, c in terms.items()} if edges == ((1, 3), (2, 4)) else terms

        patch_rows(monkeypatch, flip)
        failures = self.broken()
        assert failures == [{"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}]

    def test_dropped_term(self, monkeypatch):
        real = rumer.brackets._exchange
        monkeypatch.setattr(rumer.brackets, "_exchange", lambda e, f: real(e, f)[:1])
        failures = self.broken()
        assert failures == [{"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}]

        # a second case: one child taken twice, in place of the other
        monkeypatch.setattr(rumer.brackets, "_exchange", lambda e, f: real(e, f)[:1] * 2)
        failures = self.broken()
        assert failures == [{"scheme": "n=4; (1,3)(2,4)", "reason": "expansion mismatch"}]

    def test_added_crossing_term(self, monkeypatch):
        """The crossing pair itself added to the exchange: the scheme is its
        own third child, which does not weigh less."""
        real = rumer.brackets._exchange
        monkeypatch.setattr(rumer.brackets, "_exchange", lambda e, f: (*real(e, f), (e, f)))
        failures = self.broken()
        assert failures == [{
            "scheme": "n=4; (1,3)(2,4)",
            "reason": "exchanging (1,3) and (2,4) in [1,3][2,4] leaves weight 8, not less than 8",
        }]

    def test_added_term_of_another_multidegree(self, monkeypatch):
        other = ValenceScheme(self.N, [(3, 4), (3, 4)])  # a Rumer diagram of the cell
        real = rumer.oracle._children
        monkeypatch.setattr(rumer.oracle, "_children", lambda *args: [*real(*args), other])
        failures = self.broken()
        assert failures == [{
            "scheme": "n=4; (1,3)(2,4)",
            "reason": "exchanging (1,3) and (2,4) in [1,3][2,4] gives [3,4][3,4], "
            "which is not a scheme of the block",
        }]
        assert all("crossing" not in f["reason"] for f in failures)

    def test_added_term_of_another_bond_count(self, monkeypatch):
        real = rumer.oracle._children
        exchanging = "exchanging (1,3) and (2,4) in [1,3][2,4]"
        for other, reason in [
            # lighter, but not in the cell
            ([(1, 2)], f"{exchanging} gives [1,2], which is not a scheme of the block"),
            # more bonds than the cell, and heavier than the scheme
            ([(1, 2)] * 5, f"{exchanging} leaves weight 15, not less than 8"),
        ]:
            child = ValenceScheme(self.N, other)
            monkeypatch.setattr(rumer.oracle, "_children", lambda *args: [*real(*args), child])
            failures = self.broken()
            assert failures == [{"scheme": "n=4; (1,3)(2,4)", "reason": reason}]

    def test_raising_straightener(self, monkeypatch):
        """The composed straightener never runs in the basis check: one that
        raises on every input leaves verify_basis passing."""
        def fail(poly):
            raise RuntimeError("no basis today")

        monkeypatch.setattr(rumer.brackets, "straighten", fail)
        report = verify_basis(self.N, self.M)
        assert basis_ok(report)
        assert report["straighten_failures"] == []

    @pytest.mark.parametrize("fault", ["not_lighter", "outside_block"])
    def test_broken_exchange_fails_its_scheme_only(self, monkeypatch, fault):
        """An exchange broken on one scheme of (6, 3), [1,3][2,4][5,6], names
        that scheme alone and ranks its block by elimination: a child that
        does not weigh less (the scheme itself), or one outside the block."""
        target = ValenceScheme(6, [(1, 3), (2, 4), (5, 6)])
        child = target if fault == "not_lighter" else ValenceScheme(6, [(1, 2)] * 4)
        real = rumer.oracle._children

        def children(scheme, e, f):
            found = real(scheme, e, f)
            return [found[0], child] if scheme == target else found

        monkeypatch.setattr(rumer.oracle, "_children", children)
        stats = rumer.oracle._new_stats()
        blocks = rumer.oracle._multidegree_blocks(
            enumerate_rumer(6, 3), enumerate_valence_schemes(6, 3)
        )
        report = rumer.oracle._verify_basis(6, 3, blocks, stats)
        exchanging = "exchanging (1,3) and (2,4) in [1,3][2,4][5,6]"
        reason = {
            "not_lighter": f"{exchanging} leaves weight 21, not less than 21",
            "outside_block": f"{exchanging} gives [1,2][1,2][1,2][1,2], "
            "which is not a scheme of the block",
        }[fault]
        assert report["straighten_failures"] == [{"scheme": target.to_text(), "reason": reason}]
        assert report["rumer_rank"] == report["full_rank"] == rho_closed(6, 3)
        assert stats["fallback_blocks"] == 1
