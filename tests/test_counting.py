"""Counting formulas: determinant, product form, and the branching recurrence.

Derived expected values were frozen from hand unrolling of the recurrence and
from brute-force diagram enumeration; both routes are spelled out next to the
assertions they justify.
"""
import math
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumer.bijection import psi_section, verify_psi_bijection
from rumer.brackets import BracketPolynomial, parse
from rumer.counting import (
    _n_recurrence_steps,
    binomial,
    compositions,
    even_triangle,
    n_recurrence,
    rho_closed,
    rho_product,
    rho_sum_over_compositions,
    triangle_range,
)
from rumer.diagrams import (
    RumerDiagram,
    ValenceScheme,
    enumerate_rumer,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes,
    enumerate_valence_schemes_by_multidegree,
)
from rumer.oracle import XPolynomial


class TestBinomial:
    @pytest.mark.parametrize("k,l,expected", [(5, 2, 10), (7, 0, 1), (3, 5, 0), (0, 0, 1)])
    def test_values(self, k, l, expected):
        assert binomial(k, l) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_exact_at_large_arguments(self):
        assert binomial(200, 100) == binomial(199, 99) + binomial(199, 100)


class TestEvenTriangle:
    @pytest.mark.parametrize(
        "a,b,c,expected",
        [
            (1, 1, 0, True),
            (1, 1, 1, False),  # odd perimeter
            (2, 5, 1, False),  # 5 > 2 + 1
            (0, 0, 0, True),
            (3, 1, 2, True),
        ],
    )
    def test_values(self, a, b, c, expected):
        assert even_triangle(a, b, c) is expected

    def test_symmetric(self):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    v = even_triangle(a, b, c)
                    assert v == even_triangle(b, a, c) == even_triangle(c, b, a)

    def test_triangle_range_is_exactly_the_compatible_values(self):
        for a in range(5):
            for b in range(5):
                compatible = {c for c in range(a + b + 1) if even_triangle(a, b, c)}
                assert set(triangle_range(a, b)) == compatible

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            even_triangle(-1, 0, 1)


class TestRecurrence:
    def test_base_cases(self):
        assert n_recurrence((0,)) == 1
        assert n_recurrence((1,)) == 0
        assert n_recurrence((5,)) == 0

    def test_two_entries_need_equality(self):
        # unrolling: zero lies in the collapsed range only when the two match
        assert n_recurrence((1, 2)) == 0
        assert n_recurrence((2, 2)) == 1
        assert n_recurrence((3, 3)) == 1

    def test_hand_unrolled_values(self):
        # N(1,1,1,1) = N(1,1,0) + N(1,1,2) = 1 + 1
        assert n_recurrence((1, 1, 1, 1)) == 2
        # N(2,2,1,1) = N(2,2,0) + N(2,2,2) = 1 + 1
        assert n_recurrence((2, 2, 1, 1)) == 2

    def test_odd_sum_is_zero(self):
        for d in compositions(5, 3):
            assert n_recurrence(d) == 0

    def test_catalan_along_all_ones(self):
        assert [n_recurrence((1,) * (2 * m)) for m in range(1, 6)] == [1, 2, 5, 14, 42]

    def test_matches_enumeration(self):
        for n in range(1, 6):
            for total in range(0, 7):
                for d in compositions(total, n):
                    assert n_recurrence(d) == len(enumerate_rumer_by_multidegree(d)), d


class TestClosedFormula:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 5, 1), (3, 1, 3), (4, 2, 20), (7, 0, 1), (1, 0, 1), (1, 3, 0), (4, 3, 50)],
    )
    def test_values(self, n, m, expected):
        assert rho_closed(n, m) == expected

    def test_two_vertices_always_one(self):
        for m in range(0, 51):
            assert rho_closed(2, m) == 1

    def test_equals_the_four_binomial_determinant(self):
        # rho_closed computes one binomial and divides the other three out of it
        def determinant(n, m):
            if n == 1:
                return int(m == 0)
            c = math.comb
            return c(m + n - 1, n - 1) * c(m + n - 2, n - 2) - c(m + n - 2, n - 1) * c(
                m + n - 1, n - 2
            )

        for n in range(1, 40):
            for m in range(0, 40):
                assert rho_closed(n, m) == determinant(n, m), (n, m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rho_closed(0, 1)
        with pytest.raises(ValueError):
            rho_closed(3, -1)


class TestProductFormula:
    @pytest.mark.parametrize("n,m,expected", [(3, 2, 6), (4, 2, 20), (3, 0, 1)])
    def test_values(self, n, m, expected):
        assert rho_product(n, m) == expected

    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            rho_product(2, 1)

    def test_agrees_with_determinant(self):
        for n in range(3, 11):
            for m in range(0, 21):
                assert rho_product(n, m) == rho_closed(n, m), (n, m)

    def test_many_vertices(self):
        """The product is divided as it goes, so a large n with a small
        count takes milliseconds, not a ((n-2)!)^2 numerator."""
        assert rho_product(100000, 1) == rho_closed(100000, 1) == 4999950000


class TestCompositions:
    def test_lexicographic_listing(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(compositions(0, 3)) == [(0, 0, 0)]
        assert len(list(compositions(4, 2))) == 5

    def test_complete_and_duplicate_free(self):
        seen = list(compositions(5, 3))
        assert len(set(seen)) == len(seen) == binomial(7, 2)
        assert all(sum(d) == 5 and len(d) == 3 for d in seen)
        assert seen == sorted(seen)


class TestSumOverCompositions:
    @pytest.mark.parametrize("n,m,expected", [(4, 1, 6), (2, 3, 1), (3, 2, 6)])
    def test_values(self, n, m, expected):
        assert rho_sum_over_compositions(n, m) == expected

    def test_agrees_with_determinant(self):
        for n in range(2, 7):
            for m in range(0, 5):
                assert rho_sum_over_compositions(n, m) == rho_closed(n, m), (n, m)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 10**6])
    def test_one_vertex(self, m):
        # one vertex carries no bond; m = 10**6 would need a 4 * 10**12 entry table
        assert rho_sum_over_compositions(1, m) == (m == 0)


@lru_cache(maxsize=None)
def reference_count(d: tuple[int, ...]) -> int:
    """The memoized recursion the fold replaced, kept as an independent reference.

    Collapses the last two degrees a, b into each even-triangle-compatible
    mu, spelled out here rather than taken from triangle_range.
    """
    if len(d) == 1:
        return 1 if d[0] == 0 else 0
    a, b = d[-2], d[-1]
    return sum(reference_count(d[:-2] + (mu,)) for mu in range(abs(a - b), a + b + 1, 2))


class TestFoldAgainstReference:
    def test_n_recurrence_on_every_composition(self):
        for n in range(1, 8):
            for total in range(0, 11):
                for d in compositions(total, n):
                    assert n_recurrence(d) == reference_count(d), d

    def test_sum_over_compositions_small_grid(self):
        for n in range(1, 9):
            for m in range(0, 6):
                summed = sum(reference_count(d) for d in compositions(2 * m, n))
                assert rho_sum_over_compositions(n, m) == summed == rho_closed(n, m), (n, m)

    @pytest.mark.parametrize("n,m", [(12, 4), (9, 6), (10, 6)])
    def test_sum_over_compositions_benchmark_cells(self, n, m):
        assert rho_sum_over_compositions(n, m) == rho_closed(n, m)

    def test_small_n_large_m(self):
        assert rho_sum_over_compositions(3, 100) == rho_closed(3, 100)
        assert rho_sum_over_compositions(1, 5) == 0


def counted_fold_steps(d: tuple[int, ...]) -> int:
    """The merged-degree moves of n_recurrence's fold on d, counted one by one."""
    live, left, steps = {d[-1]}, sum(d) - d[-1], 0
    for a in reversed(d[:-1]):
        left -= a
        steps += sum(len(triangle_range(a, mu)) for mu in live)
        live = {c for mu in live for c in triangle_range(a, mu) if c <= left}
    return steps


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_step_estimate_never_undercounts_the_fold(d):
    assert _n_recurrence_steps(d) >= counted_fold_steps(tuple(d))


class TestDeepInputs:
    def test_catalan_at_two_thousand_vertices(self):
        assert n_recurrence((1,) * 2000) == math.comb(2000, 1000) // 1001

    def test_sum_over_compositions_many_vertices(self):
        assert rho_sum_over_compositions(1500, 1) == rho_closed(1500, 1)

    def test_compositions_many_parts(self):
        head = list(islice(compositions(2, 1500), 3))
        assert [d[-3:] for d in head] == [(0, 0, 2), (0, 1, 1), (0, 2, 0)]
        assert sum(1 for _ in compositions(1, 1500)) == 1500


class TestCompositionsReference:
    def test_matches_filtered_product(self):
        # product yields in lexicographic order, and every tuple once
        for parts in range(1, 6):
            for total in range(0, 7):
                expected = [t for t in product(range(total + 1), repeat=parts) if sum(t) == total]
                assert list(compositions(total, parts)) == expected, (total, parts)


def test_non_integral_degrees_rejected():
    with pytest.raises(TypeError):
        n_recurrence((1.5, 1.5))
    with pytest.raises(TypeError):
        n_recurrence((1.0, 1))


def _case(fn, args, error, label=None):
    return pytest.param(fn, args, error, id=f"{fn.__name__}{label or args}".replace(" ", ""))


CELL_FUNCTIONS = [
    rho_closed, rho_product, rho_sum_over_compositions, enumerate_rumer, enumerate_valence_schemes,
]
DEGREE_FUNCTIONS = [
    n_recurrence, enumerate_rumer_by_multidegree, enumerate_valence_schemes_by_multidegree,
    verify_psi_bijection,
]
BAD_INPUTS = [
    *(
        _case(fn, args, error)
        for fn in CELL_FUNCTIONS
        for args, error in [
            ((2.5, 1), TypeError), ((3, 1.0), TypeError), ((0, 1), ValueError), ((3, -1), ValueError),
        ]
    ),
    *(
        _case(fn, (degrees,), error)
        for fn in DEGREE_FUNCTIONS
        for degrees, error in [
            ((1.5, 1.5), TypeError), ((1.0, 1), TypeError), ((2, -2), ValueError), ((), ValueError),
        ]
    ),
    _case(compositions, (2.5, 2), TypeError),
    _case(compositions, (2, 2.0), TypeError),
    _case(compositions, (-1, 2), ValueError),
    _case(compositions, (2, 0), ValueError),
    _case(compositions, (3, 0), ValueError),
    _case(n_recurrence, ((1, -1),), ValueError),
    _case(even_triangle, (1.5, 0.5, 1), TypeError),
    _case(even_triangle, (1, 1, -2), ValueError),
    _case(psi_section, (RumerDiagram(2, [(1, 2)]), 1.5, 0.5), TypeError,
          label="(n=2;(1,2),1.5,0.5)"),
]


@pytest.mark.parametrize("fn,args,error", BAD_INPUTS)
def test_bad_input_is_refused(fn, args, error):
    """A non-integer raises TypeError; n < 1, m < 0, a negative degree or no
    degrees at all raise ValueError, before any work is done.  The call itself
    raises, also where the result is a generator (enumerate_valence_schemes,
    compositions): nothing is iterated here."""
    with pytest.raises(error):
        fn(*args)


@pytest.mark.parametrize("n,error", [(0, ValueError), (2.5, TypeError)])
@pytest.mark.parametrize(
    "call",
    [
        ValenceScheme,
        BracketPolynomial,
        XPolynomial,
        lambda n: parse("[1,2]", n),
        lambda n: parse("[1,3]", n),  # n = 2.5 once passed the check and met [1,3] as out of range
        lambda n: rho_closed(n, 1),
    ],
    ids=["ValenceScheme", "BracketPolynomial", "XPolynomial", "parse[1,2]", "parse[1,3]", "rho_closed"],
)
def test_one_vertex_count_check(call, n, error):
    """Every entry point that takes a vertex count checks it the same way."""
    with pytest.raises(error) as caught:
        call(n)
    if error is ValueError:
        assert str(caught.value) == "need at least one vertex, got n=0"
