"""Bracket algebra: canonical polynomials, the exchange rule, straightening,
and the text grammar.  Straightening results are never trusted on their own:
every expected identity here is also confirmed through full coordinate
expansion, which is an independent code path."""
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumer.brackets
import rumer.diagrams
from rumer.brackets import (
    BracketPolynomial,
    _children,
    _exchange,
    _monomial_text,
    _weight,
    LoopBracketError,
    PolynomialSyntaxError,
    VertexRangeError,
    bracket,
    parse,
    plucker_expand,
    straighten,
)
from rumer.diagrams import (
    Edge,
    ValenceScheme,
    edges_cross,
    enumerate_valence_schemes,
    first_crossing,
    is_rumer,
)
from rumer.oracle import expand


def poly(text, n):
    return parse(text, n)


def text_by_monomial(p):
    """A polynomial's text with each monomial formatted on its own by
    _monomial_text, one bracket per chord occurrence."""
    if not p.terms:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        body = _monomial_text(mono.edges)
        if not mono.edges:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        pieces.append(("-" if coeff < 0 else "+", body))
    (sign, body), rest = pieces[0], pieces[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


class TestBracket:
    def test_ascending_is_positive(self):
        assert bracket(1, 3) == (Edge(1, 3), 1)

    def test_descending_flips_sign(self):
        assert bracket(3, 1) == (Edge(1, 3), -1)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            bracket(2, 2)


class TestMonomial:
    """A bracket monomial is the valence scheme of its factor multiset."""

    def test_factors_sorted(self):
        m = ValenceScheme(4, (Edge(3, 4), Edge(1, 2)))
        assert m.edges == (Edge(1, 2), Edge(3, 4))
        assert m == ValenceScheme(4, (Edge(1, 2), Edge(3, 4)))

    def test_scheme_round_trip(self):
        m = BracketPolynomial.monomial(4, (Edge(1, 2), Edge(1, 2)))
        (g,) = m.terms
        assert g == ValenceScheme(4, [(1, 2), (1, 2)])
        assert BracketPolynomial.monomial(g.n, g.edges) == m

    def test_empty(self):
        assert list(BracketPolynomial.monomial(3).terms) == [ValenceScheme(3)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ValenceScheme(3, (Edge(1, 4),))
        with pytest.raises(ValueError):
            BracketPolynomial.monomial(3, (Edge(1, 4),))


class TestPolynomial:
    def test_collects_terms(self):
        m = ValenceScheme(2, (Edge(1, 2),))
        p = BracketPolynomial(2, [(m, 2), (m, -1)])
        assert p.terms == {m: 1}
        assert not BracketPolynomial(2, [(m, 1), (m, -1)])

    def test_equal_polynomials_hash_alike(self):
        # the same terms in another order: equal, one hash, one set element
        p = poly("[1,2][3,4] - 2*[1,4][2,3] + [1,3]", 4)
        q = poly("[1,3] - 2*[1,4][2,3] + [1,2][3,4]", 4)
        assert list(p.terms) != list(q.terms)
        assert p == q and hash(p) == hash(q)
        assert len({p, q, poly("[1,3]", 4)}) == 2

    def test_arithmetic(self):
        a = poly("[1,2]", 4)
        b = poly("[3,4]", 4)
        assert a + b == poly("[1,2]+[3,4]", 4)
        assert a - a == BracketPolynomial.zero(4)
        assert 3 * a == poly("3*[1,2]", 4)
        assert (0 * a).is_zero() and 0 * a == BracketPolynomial.zero(4)
        assert a * b == poly("[1,2][3,4]", 4)

    def test_mixed_n_rejected(self):
        with pytest.raises(ValueError):
            poly("[1,2]", 2) + poly("[1,2]", 3)
        with pytest.raises(ValueError, match=r"monomial \[1,2\] lives on 2 vertices, not 3"):
            BracketPolynomial(3, {ValenceScheme(2, [(1, 2)]): 1})

    def test_text_formatting(self):
        assert BracketPolynomial.zero(3).to_text() == "0"
        assert poly("[1,2] - 2*[1,3]", 3).to_text() == "[1,2] - 2*[1,3]"
        assert poly("-[1,2]", 2).to_text() == "-[1,2]"
        assert BracketPolynomial.monomial(3, (), 2).to_text() == "2"
        assert (BracketPolynomial.monomial(2, (), 3) - poly("[1,2]", 2)).to_text() == "3 - [1,2]"
        p = poly("[1,2] - 2*[1,3]", 3)
        assert str(p) == "[1,2] - 2*[1,3]"
        assert repr(p) == "BracketPolynomial(n=3, '[1,2] - 2*[1,3]')"

    def test_text_formats_each_chord_as_its_own_bracket(self):
        p = poly("-[10,1][2,11][2,11] + 12*[3,12] + [9,10] - 3*[1,2]", 12)
        p = p - BracketPolynomial.monomial(12, (), 7)
        assert p.to_text() == "-7 - 3*[1,2] + 12*[3,12] + [9,10] + [1,10][2,11][2,11]"
        assert p.to_text() == text_by_monomial(p)

    def test_json_round_trip(self):
        p = poly("2*[1,2][3,4] - [1,4][2,3]", 4)
        data = p.to_json_dict()
        assert data["n"] == 4
        assert BracketPolynomial.from_json_dict(data) == p

    def test_non_integral_coefficients_rejected(self):
        a = poly("[1,2]", 4)
        m = ValenceScheme(2, (Edge(1, 2),))
        with pytest.raises(TypeError):
            2.5 * a
        with pytest.raises(TypeError):
            a * 2.5
        with pytest.raises(TypeError):
            BracketPolynomial(2, [(m, 0.9)])
        with pytest.raises(TypeError):
            BracketPolynomial.monomial(2, (Edge(1, 2),), coeff=1.0)
        data = a.to_json_dict()
        data["terms"][0]["coeff"] = 2.5
        with pytest.raises(TypeError):
            BracketPolynomial.from_json_dict(data)

    def test_non_integral_json_indices_rejected(self):
        data = poly("[1,2]", 4).to_json_dict()
        with pytest.raises(TypeError):
            BracketPolynomial.from_json_dict({**data, "n": 4.9})
        data["terms"][0]["factors"] = [[1.5, 2.7]]
        with pytest.raises(TypeError):
            BracketPolynomial.from_json_dict(data)


class TestPluckerExpand:
    def test_basic_rewrite(self):
        result = plucker_expand(Edge(1, 3), Edge(2, 4))
        assert result == poly("[1,2][3,4] + [1,4][2,3]", 4)

    def test_shifted_rewrite(self):
        result = plucker_expand(Edge(2, 4), Edge(3, 5))
        assert result == poly("[2,3][4,5] + [2,5][3,4]", 5)

    def test_non_crossing_rejected(self):
        with pytest.raises(ValueError):
            plucker_expand(Edge(1, 2), Edge(3, 4))

    def test_inputs_are_checked_as_edges(self):
        # _exchange builds its edges unchecked, so plucker_expand checks its inputs
        with pytest.raises(ValueError, match="1-based"):
            plucker_expand((0, 2), (1, 3))
        assert plucker_expand((3, 1), (2, 4)) == poly("[1,2][3,4] + [1,4][2,3]", 4)

    def test_equals_the_product_under_expansion(self):
        # the rewrite must reproduce the crossing product exactly
        for e1, e2 in [(Edge(1, 3), Edge(2, 4)), (Edge(2, 5), Edge(3, 6)), (Edge(1, 4), Edge(2, 6))]:
            n = max(e1.j, e2.j)
            product = BracketPolynomial.monomial(n, (e1, e2))
            assert expand(plucker_expand(e1, e2, n)) == expand(product)

    def test_output_never_crosses(self):
        result = plucker_expand(Edge(1, 3), Edge(2, 4))
        for mono in result.terms:
            assert is_rumer(mono)


class TestStraighten:
    def test_single_crossing(self):
        assert straighten(poly("[1,3][2,4]", 4)) == poly("[1,2][3,4] + [1,4][2,3]", 4)

    def test_already_straight_passes_through(self):
        p = poly("[1,4][2,3]", 4)
        assert straighten(p) == p

    def test_quadratic_identity_is_zero(self):
        p = poly("[1,2][3,4] - [1,3][2,4] + [1,4][2,3]", 4)
        assert straighten(p).is_zero()

    def test_repeated_factor(self):
        assert straighten(poly("[1,3][1,3][2,4]", 4)) == poly(
            "[1,2][1,3][3,4] + [1,3][1,4][2,3]", 4
        )

    def test_empty_and_constantlike(self):
        assert straighten(BracketPolynomial.zero(4)).is_zero()
        one = BracketPolynomial.monomial(4, (), coeff=7)
        assert straighten(one) == one

    def test_idempotent(self):
        for text in ["[1,3][2,4]", "[1,3][2,5][2,4]", "2*[1,4][2,5][3,6]"]:
            once = straighten(poly(text, 6))
            assert straighten(once) == once

    def test_linear(self):
        p = poly("[1,3][2,4]", 5)
        q = poly("[2,4][3,5]", 5)
        assert straighten(p + q) == straighten(p) + straighten(q)
        assert straighten(5 * p) == 5 * straighten(p)

    def test_preserves_expansion_and_multidegree(self):
        for n, m in [(4, 1), (4, 2), (5, 2), (4, 3), (5, 3)]:
            for scheme in enumerate_valence_schemes(n, m):
                p = BracketPolynomial.monomial(n, scheme.edges)
                flat = straighten(p)
                assert expand(flat) == expand(p), scheme
                for mono in flat.terms:
                    assert is_rumer(mono)
                    assert mono.multidegree() == scheme.multidegree()


class TestStraightenGuards:
    """The one runtime check of straighten, the descent, fires when an
    exchange does not lower the weight."""

    def test_exchange_that_keeps_the_crossing_fails_the_descent(self, monkeypatch):
        monkeypatch.setattr(rumer.brackets, "_exchange", lambda e, f: ((e, f),))
        with pytest.raises(RuntimeError, match="internal error: exchanging"):
            straighten(poly("[1,3][2,4]", 4))


def crossing_free(scheme):
    """No two chords of a scheme cross, by edges_cross over all pairs."""
    return not any(edges_cross(e, f) for e, f in combinations(scheme.edges, 2))


def blocks(n, m):
    """The valence schemes of the cell (n, m) grouped by multidegree."""
    grouped = {}
    for scheme in enumerate_valence_schemes(n, m):
        grouped.setdefault(scheme.multidegree(), []).append(scheme)
    return grouped


class TestNormalForms:
    """straighten's normal forms, block by block, against the exchange rule
    that verify certifies one crossing scheme at a time."""

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in range(1, 7) for m in range(5)] + [(7, 4)]
    )
    def test_equals_straighten_on_every_block(self, n, m):
        """The exchange recursion, composed over each block, is straighten:
        a Rumer scheme is its own normal form, and a crossing scheme's is
        the sum of its two children's, each a lighter scheme of the block."""
        for schemes in blocks(n, m).values():
            forms = {
                s: straighten(BracketPolynomial.monomial(n, s.edges)) for s in schemes
            }
            for scheme, form in forms.items():
                pair = first_crossing(scheme)
                if pair is None:
                    assert form.terms == {scheme: 1}, scheme
                    continue
                children = _children(scheme, *pair)
                assert len(children) == 2
                assert all(_weight(child) < _weight(scheme) for child in children)
                assert form == forms[children[0]] + forms[children[1]], scheme


class TestParse:
    def test_single_monomial(self):
        p = parse("[1,3][2,4]", 4)
        assert p.terms == {ValenceScheme(4, (Edge(1, 3), Edge(2, 4))): 1}

    def test_coefficients_collect(self):
        assert parse("2*[1,2] - [1,2]", 2) == BracketPolynomial.monomial(2, [(1, 2)])

    def test_reversed_pair_normalizes(self):
        assert parse("[2,1]", 2) == -BracketPolynomial.monomial(2, [(1, 2)])

    def test_leading_sign_and_whitespace(self):
        assert parse(" - 3*[1,2] ", 2) == -3 * BracketPolynomial.monomial(2, [(1, 2)])
        assert parse("+[1,2]", 2) == BracketPolynomial.monomial(2, [(1, 2)])

    def test_round_trips_its_own_text(self):
        for text in ["[1,2][3,4] - [1,3][2,4] + [1,4][2,3]", "7*[1,4][2,3]", "0*[1,2]"]:
            p = parse(text, 4)
            # the zero polynomial prints as "0", which the grammar has no term for
            assert p.is_zero() or parse(p.to_text(), 4) == p

    def test_syntax_errors(self):
        for bad in ["", "[1,2", "[1 2]", "3 [1,2]", "[1,2] [3,4] +", "2*", "[1,2]*", "x"]:
            with pytest.raises(PolynomialSyntaxError):
                parse(bad, 4)

    @pytest.mark.parametrize("text, error, message", [
        ("", PolynomialSyntaxError, "expected a bracket '[i,j]' (at position 0)"),
        ("2 [1,2]", PolynomialSyntaxError, "expected '*' after a coefficient (at position 2)"),
        ("[1,2", PolynomialSyntaxError, "expected ']' (at position 4)"),
        ("[1 2]", PolynomialSyntaxError, "expected ',' (at position 3)"),
        ("[,2]", PolynomialSyntaxError, "expected a vertex index (at position 1)"),
        ("[1,]", PolynomialSyntaxError, "expected a vertex index (at position 3)"),
        ("[5,1]", VertexRangeError, "vertex index 5 outside 1..4 (at position 1)"),
        ("[1,5]", VertexRangeError, "vertex index 5 outside 1..4 (at position 3)"),
        # an index is checked as soon as it is read, before the missing comma
        ("[5 2]", VertexRangeError, "vertex index 5 outside 1..4 (at position 1)"),
        ("[2,2]", LoopBracketError, "bracket [2,2] pairs a vertex with itself (at position 1)"),
        ("[1,2]*", PolynomialSyntaxError, "expected '+' or '-' between terms (at position 5)"),
        ("[1,2] - ", PolynomialSyntaxError, "expected a bracket '[i,j]' (at position 8)"),
        # every character is tokenized before any grammar error
        ("]x", PolynomialSyntaxError, "unexpected character 'x' (at position 1)"),
    ])
    def test_error_messages_and_positions(self, text, error, message):
        with pytest.raises(error) as info:
            parse(text, 4)
        assert type(info.value) is error
        assert str(info.value) == message
        assert info.value.position == int(message.rsplit(" ", 1)[1][:-1])

    def test_range_error(self):
        with pytest.raises(VertexRangeError) as info:
            parse("[1,5]", 4)
        assert info.value.position == 3
        with pytest.raises(VertexRangeError):
            parse("[0,2]", 4)

    def test_non_decimal_digit_is_an_unexpected_character(self):
        # str.isdigit accepts "²" and "①", int() does not
        cases = [("[²,1]", "²", 1), ("2*[1,¹]", "¹", 5), ("①*[1,2]", "①", 0)]
        for text, char, position in cases:
            with pytest.raises(PolynomialSyntaxError) as info:
                parse(text, 4)
            assert str(info.value) == f"unexpected character {char!r} (at position {position})"
            assert info.value.position == position

    def test_loop_error(self):
        with pytest.raises(LoopBracketError):
            parse("[2,2]", 4)

    def test_zero_polynomial_round_trip(self):
        assert parse("[1,2]-[1,2]", 2).to_text() == "0"


@st.composite
def polynomials(draw, n=None):
    """Random integer bracket polynomials on n <= 7 vertices with <= 4 chords per term."""
    if n is None:
        n = draw(st.integers(2, 7))
    chord = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    term = st.tuples(st.lists(chord, max_size=4), st.integers(-5, 5))
    terms = draw(st.lists(term, max_size=4))
    return BracketPolynomial(n, [(ValenceScheme(n, chords), c) for chords, c in terms])


@st.composite
def polynomial_pairs(draw):
    n = draw(st.integers(2, 7))
    return draw(polynomials(n)), draw(polynomials(n))


property_settings = settings(derandomize=True, max_examples=100, deadline=None)


class TestStraightenProperties:
    @property_settings
    @given(polynomial_pairs(), st.integers(-4, 4))
    def test_linear(self, pair, k):
        p, q = pair
        assert straighten(p + q) == straighten(p) + straighten(q)
        assert straighten(k * p) == k * straighten(p)

    @property_settings
    @given(polynomials())
    def test_idempotent(self, p):
        once = straighten(p)
        assert straighten(once) == once

    @property_settings
    @given(polynomials())
    def test_preserves_each_term_multidegree(self, p):
        for mono in p.terms:
            flat = straighten(BracketPolynomial(p.n, {mono: 1}))
            assert all(is_rumer(t) for t in flat.terms)
            assert all(t.multidegree() == mono.multidegree() for t in flat.terms)

    @property_settings
    @given(polynomials())
    def test_preserves_expansion(self, p):
        assert expand(straighten(p)) == expand(p)

    @property_settings
    @given(polynomials())
    def test_no_output_term_crosses_by_all_pairs(self, p):
        assert all(crossing_free(mono) for mono in straighten(p).terms)

    @property_settings
    @given(st.integers(2, 14).flatmap(polynomials))
    def test_text_is_each_monomial_formatted_on_its_own(self, p):
        """Two-digit labels, signs, coefficients 1 and constants."""
        assert p.to_text() == text_by_monomial(p)
        assert straighten(p).to_text() == text_by_monomial(straighten(p))

    @property_settings
    @given(polynomials())
    def test_equals_the_reference_straightener(self, p):
        flat, stats, scans = scanned_by_straighten(p)
        expected, rewritten, peak = reference_straighten(p)
        assert flat == expected
        assert [s for s, _ in scans if first_crossing(s) is not None] == rewritten
        assert stats == {
            "rewrites": len(rewritten),
            "heaviest_weight": max(map(_weight, p.terms), default=0),
            "peak_bucket": peak,
            "terms_in": len(p.terms),
            "terms_out": len(expected.terms),
        }

    @property_settings
    @given(polynomials())
    def test_no_chord_before_the_start_crosses_any_chord(self, p):
        _, _, scans = scanned_by_straighten(p)
        assert all(crossing_free_before(scheme, start) for scheme, start in scans)

    def test_seven_diameters_resume_and_equal_the_reference(self):
        p = BracketPolynomial.monomial(14, [(i, i + 7) for i in range(1, 8)])
        flat, stats, scans = scanned_by_straighten(p)
        expected, rewritten, peak = reference_straighten(p)
        assert flat == expected
        assert [s for s, _ in scans if first_crossing(s) is not None] == rewritten
        assert (stats["rewrites"], stats["terms_out"], stats["peak_bucket"]) == (977, 429, peak)
        assert stats["heaviest_weight"] == 7 * 7 * 7
        assert all(crossing_free_before(scheme, start) for scheme, start in scans)
        # most scans resume past the first chord
        assert sum(start > 0 for _, start in scans) > len(scans) // 2

    def test_no_term_of_eight_diameters_crosses_by_all_pairs(self):
        diameters = BracketPolynomial.monomial(16, [(i, i + 8) for i in range(1, 9)])
        flat = straighten(diameters)
        assert len(flat.terms) == 1430
        assert all(crossing_free(mono) for mono in flat.terms)


def reference_straighten(p):
    """straighten's loop with no resumed scan: each monomial scanned from its
    first chord, its children from _children and their weights from full
    _weight sums.  Returns the result, the schemes rewritten in order and
    the largest bucket taken."""
    buckets = {}
    for mono, coeff in p.terms.items():
        buckets.setdefault(_weight(mono), {})[mono] = coeff
    out, rewritten, peak = {}, [], 0
    while buckets:
        k = max(buckets)
        bucket = buckets.pop(k)
        peak = max(peak, len(bucket))
        for mono, coeff in bucket.items():
            pair = first_crossing(mono)
            if pair is None:
                out[mono] = coeff
                continue
            rewritten.append(mono)
            for child in _children(mono, *pair):
                assert _weight(child) < k
                terms = buckets.setdefault(_weight(child), {})
                terms[child] = terms.get(child, 0) + coeff
                if not terms[child]:
                    del terms[child]
    return BracketPolynomial(p.n, out), rewritten, peak


def scanned_by_straighten(p):
    """straighten(p), its stats and each (scheme, start) that it scanned."""
    scans, stats = [], {}

    def scan(scheme, start=0):
        scans.append((scheme, start))
        return first_crossing(scheme, start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rumer.brackets, "first_crossing", scan)
        flat = straighten(p, stats)
    return flat, stats, scans


def crossing_free_before(scheme, start):
    """No chord at a position before start crosses any chord of the scheme,
    by edges_cross over all pairs."""
    edges = scheme.edges
    return not any(edges_cross(edges[k], g) for k in range(start) for g in edges)


def brute_crossings(edges):
    """Crossing pairs among all pairs of bond instances, by interleaving."""
    return sum(1 for (a, b), (c, d) in combinations(edges, 2) if a < c < b < d or c < a < d < b)


def arc_products(n, edges):
    """Each chord's two arcs of the circle of n vertices, counted in steps
    from one end to the other each way round, multiplied, and summed."""
    return sum(len(range(u, v)) * len(range(v, u + n)) for u, v in edges)


@st.composite
def crossing_monomials(draw):
    """A scheme on n <= 8 vertices with <= 6 chords, at least two of which
    cross, and one of its crossing pairs as indices into its edge tuple."""
    n = draw(st.integers(4, 8))
    a, b, c, d = sorted(draw(st.lists(st.integers(1, n), min_size=4, max_size=4, unique=True)))
    chord = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    scheme = ValenceScheme(n, [(a, c), (b, d), *draw(st.lists(chord, max_size=4))])
    pairs = [
        (i, j)
        for i, j in combinations(range(len(scheme.edges)), 2)
        if brute_crossings((scheme.edges[i], scheme.edges[j]))
    ]
    return scheme, draw(st.sampled_from(pairs))


def crossing_closure(scheme):
    """The crossing schemes reached from a scheme by exchanges at the first
    crossing pair, found by a graph search without straighten."""
    seen, todo, crossing = {scheme}, [scheme], set()
    while todo:
        mono = todo.pop()
        pair = first_crossing(mono)
        if pair is None:
            continue
        crossing.add(mono)
        rest = list(mono.edges)
        rest.remove(pair[0])
        rest.remove(pair[1])
        for exchanged in _exchange(*pair):
            child = ValenceScheme(scheme.n, rest + list(exchanged))
            if child not in seen:
                seen.add(child)
                todo.append(child)
    return crossing


@pytest.fixture
def rewritten(monkeypatch):
    """The schemes that straighten rewrites, one entry per rewrite: each one
    whose scan finds a crossing pair, since straighten rewrites it there."""
    calls = []

    def scan(scheme, start=0):
        pair = first_crossing(scheme, start)
        if pair is not None:
            calls.append(scheme)
        return pair

    monkeypatch.setattr(rumer.brackets, "first_crossing", scan)
    return calls


class TestTermination:
    """The argument that straightening ends, checked without straighten."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(crossing_monomials())
    def test_every_exchange_lowers_the_crossing_count(self, drawn):
        scheme, (i, j) = drawn
        e, f = scheme.edges[i], scheme.edges[j]
        rest = [g for k, g in enumerate(scheme.edges) if k not in (i, j)]
        before = brute_crossings(scheme.edges)
        children = _exchange(e, f)
        assert sorted(v for pair in children for v in (*pair[0], *pair[1])) == sorted(
            (*e, *f) * 2
        )
        for pair in children:
            child = ValenceScheme(scheme.n, rest + list(pair))
            assert brute_crossings(child.edges) < before, (scheme, e, f, child)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(crossing_monomials())
    def test_children_are_the_sorted_exchange(self, drawn):
        scheme, (i, j) = drawn
        e, f = scheme.edges[i], scheme.edges[j]
        rest = [g for k, g in enumerate(scheme.edges) if k not in (i, j)]
        children = _children(scheme, e, f)
        assert children == [ValenceScheme(scheme.n, rest + list(pair)) for pair in _exchange(e, f)]
        assert all(type(child) is ValenceScheme for child in children)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(crossing_monomials())
    def test_every_exchange_lowers_the_weight_by_twice_opposite_arcs(self, drawn):
        """With arcs x = b - a, y = c - b, z = d - c, w = n - (d - a) between
        the ends of the crossing chords (a, c) and (b, d), the child
        (a,b)(c,d) weighs 2yw less and the child (a,d)(b,c) 2xz less."""
        scheme, (i, j) = drawn
        n, e, f = scheme.n, scheme.edges[i], scheme.edges[j]
        a, b, c, d = sorted((*e, *f))
        x, y, z, w = b - a, c - b, d - c, n - (d - a)
        assert min(x, y, z, w) >= 1
        rest = [g for k, g in enumerate(scheme.edges) if k not in (i, j)]
        near = rest + [(a, b), (c, d)]
        far = rest + [(a, d), (b, c)]
        weight = arc_products(n, scheme.edges)
        assert arc_products(n, near) == weight - 2 * y * w, (scheme, e, f, near)
        assert arc_products(n, far) == weight - 2 * x * z, (scheme, e, f, far)
        for mono in (scheme, *_children(scheme, e, f)):
            assert _weight(mono) == arc_products(n, mono.edges), mono

    def test_power_of_a_crossing_pair(self, rewritten):
        # a rewrite tree has 2**20 - 1 nodes; in descending weight each of
        # the 210 distinct crossing monomials is rewritten once
        p = BracketPolynomial.monomial(4, [(1, 3), (2, 4)] * 20)
        expected = BracketPolynomial(
            4,
            [
                (ValenceScheme(4, [(1, 2), (3, 4)] * k + [(1, 4), (2, 3)] * (20 - k)), comb(20, k))
                for k in range(21)
            ],
        )
        assert straighten(p) == expected
        assert len(rewritten) == len(set(rewritten)) == 210

    def test_crossing_diameters_rewrite_each_monomial_once(self, rewritten):
        # unlike a power of one pair on 4 points, whose weights form a chain,
        # these children spread over many weights at once, so taking a bucket
        # before a heavier one would rewrite some of its monomials twice
        diameters = ValenceScheme(14, [(i, i + 7) for i in range(1, 8)])
        p = BracketPolynomial.monomial(14, diameters.edges)
        assert expand(straighten(p)) == expand(p)
        assert len(rewritten) == len(set(rewritten))
        assert set(rewritten) == crossing_closure(diameters)  # 977 monomials

    def test_crossing_diameters_scan_each_monomial_once(self, monkeypatch):
        # 977 rewritten and 429 output terms: each distinct scheme is scanned
        # once, also through is_rumer, which calls the scan of rumer.diagrams
        scanned = []

        def scan(scheme, start=0):
            scanned.append(scheme)
            return first_crossing(scheme, start)

        monkeypatch.setattr(rumer.brackets, "first_crossing", scan)
        monkeypatch.setattr(rumer.diagrams, "first_crossing", scan)
        flat = straighten(BracketPolynomial.monomial(14, [(i, i + 7) for i in range(1, 8)]))
        assert len(flat.terms) == 429
        assert len(scanned) == len(set(scanned)) == 1406
