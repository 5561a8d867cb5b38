"""Core diagram machinery, checked against an independent brute-force oracle.

The oracle enumerates all size-m edge multisets and filters by degree and by
a crossing predicate written in a different formulation than the library's,
so agreement is meaningful.
"""
import copy
import pickle
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumer.diagrams
from rumer.bijection import psi
from rumer.counting import compositions, rho_closed
from rumer.diagrams import (
    Edge,
    RumerDiagram,
    ValenceScheme,
    edges_cross,
    enumerate_rumer,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes,
    enumerate_valence_schemes_by_multidegree,
    first_crossing,
    is_rumer,
)


def oracle_cross(e1, e2):
    """Crossing, reformulated: with no shared endpoint, the chords cross iff
    exactly one endpoint of e2 lies strictly between e1's endpoints."""
    if {e1.i, e1.j} & {e2.i, e2.j}:
        return False
    inside = [v for v in (e2.i, e2.j) if e1.i < v < e1.j]
    return len(inside) == 1


def all_edges(n):
    return [Edge(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def oracle_noncrossing_multigraphs(degrees):
    """All degree-matching multisets that pass the oracle crossing filter."""
    n = len(degrees)
    total = sum(degrees)
    if total % 2:
        return set()
    m = total // 2
    found = set()
    for combo in combinations_with_replacement(all_edges(n), m):
        degs = [0] * n
        for e in combo:
            degs[e.i - 1] += 1
            degs[e.j - 1] += 1
        if tuple(degs) != tuple(degrees):
            continue
        distinct = sorted(set(combo))
        if any(
            oracle_cross(distinct[a], distinct[b])
            for a in range(len(distinct))
            for b in range(a + 1, len(distinct))
        ):
            continue
        found.add(combo)
    return found


class TestEdge:
    def test_normalizes_order(self):
        assert Edge(3, 1) == Edge(1, 3)
        assert (Edge(3, 1).i, Edge(3, 1).j) == (1, 3)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Edge(2, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Edge(0, 1)

    def test_text_forms_and_order(self):
        assert repr(Edge(3, 1)) == "Edge(i=1, j=3)"
        assert str(Edge(i=3, j=1)) == "(1,3)"
        assert sorted([Edge(2, 3), Edge(1, 4), Edge(1, 2)]) == [Edge(1, 2), Edge(1, 4), Edge(2, 3)]

    def test_copies_and_pickles(self):
        e = Edge(3, 1)
        assert copy.deepcopy(e) == e and type(copy.copy(e)) is Edge
        assert pickle.loads(pickle.dumps(e)) == e

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Edge(1.5, 2)
        with pytest.raises(TypeError):
            Edge(1, 2.0)


class TestEdgesCross:
    @pytest.mark.parametrize(
        "e1,e2,expected",
        [
            ((1, 3), (2, 4), True),
            ((1, 2), (3, 4), False),
            ((1, 3), (3, 5), False),
            ((1, 3), (1, 3), False),
        ],
    )
    def test_fixed_pairs(self, e1, e2, expected):
        assert edges_cross(Edge(*e1), Edge(*e2)) is expected

    def test_symmetric_irreflexive_and_matches_oracle(self):
        edges = all_edges(6)
        for e1 in edges:
            assert not edges_cross(e1, e1)
            for e2 in edges:
                assert edges_cross(e1, e2) == edges_cross(e2, e1)
                assert edges_cross(e1, e2) == oracle_cross(e1, e2)


class TestScheme:
    def test_canonical_edge_order(self):
        a = ValenceScheme(4, [(3, 4), (1, 2)])
        b = ValenceScheme(4, [(1, 2), (3, 4)])
        assert a == b
        assert a.edges == (Edge(1, 2), Edge(3, 4))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ValenceScheme(3, [(1, 4)])
        with pytest.raises(ValueError):
            ValenceScheme(0, [])

    def test_text_round_trip(self):
        g = ValenceScheme(4, [(1, 2), (3, 4)])
        assert g.to_text() == "n=4; (1,2)(3,4)"
        assert ValenceScheme.from_text(g.to_text()) == g
        empty = ValenceScheme(3)
        assert empty.to_text() == "n=3;"
        assert ValenceScheme.from_text("n=3;") == empty
        with pytest.raises(ValueError):
            ValenceScheme.from_text("4: (1,2)")

    def test_json_round_trip(self):
        g = ValenceScheme(4, [(1, 2), (1, 2), (3, 4)])
        data = g.to_json_dict()
        assert data == {"n": 4, "edges": [[1, 2], [1, 2], [3, 4]]}
        assert ValenceScheme.from_json_dict(data) == g

    def test_constructor_non_integers_rejected(self):
        with pytest.raises(TypeError):
            ValenceScheme(4.5, [(1.5, 2)])
        with pytest.raises(TypeError):
            ValenceScheme(4.0)
        with pytest.raises(TypeError):
            ValenceScheme(4, [(1.5, 2)])

    def test_json_non_integers_rejected(self):
        with pytest.raises(TypeError):
            ValenceScheme.from_json('{"n": 4.9, "edges": [[1.5, 2.7]]}')
        with pytest.raises(TypeError):
            ValenceScheme.from_json('{"n": 4, "edges": [[1, 2.0]]}')


class TestRumerPredicate:
    def test_nested_disjoint(self):
        assert is_rumer(ValenceScheme(4, [(1, 2), (3, 4)]))

    def test_unique_crossing_on_four(self):
        assert not is_rumer(ValenceScheme(4, [(1, 3), (2, 4)]))

    def test_parallel_edges_allowed(self):
        g = ValenceScheme(4, [(1, 2), (1, 2), (3, 4)])
        assert is_rumer(g)
        # cross-check with the oracle formulation
        assert g.edges in {c for c in oracle_noncrossing_multigraphs((2, 2, 1, 1))}

    def test_constructor_enforces_noncrossing(self):
        with pytest.raises(ValueError):
            RumerDiagram(4, [(1, 3), (2, 4)])
        assert RumerDiagram(4, [(1, 4), (2, 3)]).n == 4

    def test_constructor_keeps_the_scheme_checks(self):
        with pytest.raises(ValueError, match="does not fit"):
            RumerDiagram(3, [(1, 4)])
        with pytest.raises(ValueError, match="loop"):
            RumerDiagram(3, [(2, 2)])

    def test_first_crossing_reports_pair(self):
        pair = first_crossing(ValenceScheme(5, [(1, 2), (2, 4), (3, 5)]))
        assert pair == (Edge(2, 4), Edge(3, 5))

    def test_first_crossing_is_the_least_crossing_pair(self):
        # the pruned scan against the minimum over every pair of distinct edges
        for n in range(1, 7):
            for m in range(5):
                for scheme in enumerate_valence_schemes(n, m):
                    distinct = set(scheme.edges)
                    pairs = [(e1, e2) for e1 in distinct for e2 in distinct if e1 < e2]
                    crossing = [pair for pair in pairs if oracle_cross(*pair)]
                    assert first_crossing(scheme) == min(crossing, default=None), scheme


class TestOneType:
    """A Rumer diagram is a valence scheme whose chords do not cross."""

    SCHEME = ValenceScheme(4, [(1, 4), (2, 3), (2, 3)])

    def test_equals_and_hashes_as_its_scheme(self):
        s = self.SCHEME
        d = RumerDiagram(s)
        assert isinstance(d, ValenceScheme)
        assert d == s and s == d and hash(d) == hash(s)
        assert {s: "scheme"}[d] == "scheme" and {d, s} == {s}
        assert d != ValenceScheme(5, s.edges) and d != s.edges
        assert s != ValenceScheme(5, s.edges) and ValenceScheme(3) != ValenceScheme(4)

    def test_is_the_pair_of_n_and_edges(self):
        # the pair's hash orders the sets and dicts behind the goldens
        s = self.SCHEME
        for scheme in (s, RumerDiagram(s), ValenceScheme(1), ValenceScheme(3)):
            assert hash(scheme) == hash((scheme.n, scheme.edges))
            assert scheme == (scheme.n, scheme.edges) and tuple(scheme) == (scheme.n, scheme.edges)
        three, four = ValenceScheme(3), ValenceScheme(4)
        assert sorted([s, three, four]) == [three, four, s]

    def test_repr_names_the_fields(self):
        assert repr(RumerDiagram(4, [(1, 4)])) == "RumerDiagram(n=4, edges=(Edge(i=1, j=4),))"
        assert repr(ValenceScheme(2)) == "ValenceScheme(n=2, edges=())"

    @pytest.mark.parametrize(
        "value, field",
        [(SCHEME, "n"), (RumerDiagram(SCHEME), "n"), (psi(SCHEME), "mu_n")],
        ids=["scheme", "diagram", "psi-result"],
    )
    def test_slots_copies_and_immutability(self, value, field):
        assert not hasattr(value, "__dict__")
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
        with pytest.raises(AttributeError):
            setattr(value, field, 5)

    def test_every_constructor_builds_the_same_diagram(self):
        s = self.SCHEME
        built = [
            RumerDiagram(4, [(2, 3), (1, 4), (3, 2)]),
            RumerDiagram(s),
            RumerDiagram.from_text(s.to_text()),
            RumerDiagram.from_json('{"n": 4, "edges": [[2, 3], [1, 4], [2, 3]]}'),
            copy.deepcopy(RumerDiagram(s)),
            pickle.loads(pickle.dumps(RumerDiagram(s))),
        ]
        for d in built:
            assert type(d) is RumerDiagram and (d.n, d.edges) == (s.n, s.edges), d

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RumerDiagram(4, [(1, 3), (2, 4)]),
            lambda: RumerDiagram(ValenceScheme(4, [(1, 3), (2, 4)])),
            lambda: RumerDiagram.from_text("n=4; (1,3)(2,4)"),
            lambda: RumerDiagram.from_json('{"n": 4, "edges": [[1, 3], [2, 4]]}'),
        ],
        ids=["n-edges", "scheme", "from_text", "from_json"],
    )
    def test_every_constructor_refuses_a_crossing(self, build):
        with pytest.raises(ValueError, match="edges \\(1,3\\) and \\(2,4\\) cross"):
            build()


class TestMultidegree:
    def test_fixed_values(self):
        assert ValenceScheme(4, [(1, 2), (3, 4)]).multidegree() == (1, 1, 1, 1)
        assert ValenceScheme(3).multidegree() == (0, 0, 0)
        assert ValenceScheme(2, [(1, 2), (1, 2)]).multidegree() == (2, 2)

    def test_sum_is_twice_edge_count(self):
        for scheme in enumerate_valence_schemes(5, 2):
            assert sum(scheme.multidegree()) == 4


class TestEnumerateByMultidegree:
    def test_four_vertices_all_valence_one(self):
        diagrams = enumerate_rumer_by_multidegree((1, 1, 1, 1))
        schemes = {d.edges for d in diagrams}
        assert schemes == {
            (Edge(1, 2), Edge(3, 4)),
            (Edge(1, 4), Edge(2, 3)),
        }

    def test_forced_double_attachment(self):
        diagrams = enumerate_rumer_by_multidegree((1, 1, 2))
        assert [d.edges for d in diagrams] == [(Edge(1, 3), Edge(2, 3))]

    def test_empty_prescription(self):
        diagrams = enumerate_rumer_by_multidegree((0, 0, 0))
        assert len(diagrams) == 1
        assert diagrams[0].edges == ()

    def test_odd_sum_gives_empty(self):
        assert enumerate_rumer_by_multidegree((1, 0)) == []

    def test_matches_bruteforce_oracle(self):
        for n in range(1, 5):
            for total in range(0, 7):
                for d in compositions(total, n):
                    got = {diagram.edges for diagram in enumerate_rumer_by_multidegree(d)}
                    assert got == oracle_noncrossing_multigraphs(d), d

    def test_results_are_rumer_with_requested_degrees(self):
        for d in compositions(6, 5):
            for diagram in enumerate_rumer_by_multidegree(d):
                assert is_rumer(diagram)
                assert diagram.multidegree() == d


def test_non_integral_multidegree_rejected():
    with pytest.raises(TypeError):
        enumerate_rumer_by_multidegree((1.5, 1.5))
    with pytest.raises(TypeError):
        enumerate_valence_schemes_by_multidegree((1, 1.0))


class TestEnumerateRumer:
    def test_three_vertices_one_bond(self):
        diagrams = enumerate_rumer(3, 1)
        assert [d.edges for d in diagrams] == [
            (Edge(1, 2),),
            (Edge(1, 3),),
            (Edge(2, 3),),
        ]

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_two_vertices_single_diagram(self, m):
        diagrams = enumerate_rumer(2, m)
        assert len(diagrams) == 1
        assert diagrams[0].edges == tuple([Edge(1, 2)] * m)

    def test_four_vertices_two_bonds(self):
        assert len(enumerate_rumer(4, 2)) == 20

    def test_no_duplicates_and_partition_by_multidegree(self):
        diagrams = enumerate_rumer(5, 2)
        assert len({d.edges for d in diagrams}) == len(diagrams)
        per_degree = sum(
            len(enumerate_rumer_by_multidegree(d)) for d in compositions(4, 5)
        )
        assert per_degree == len(diagrams)

    def test_count_matches_closed_formula(self):
        for n in range(1, 7):
            for m in range(0, 4):
                assert len(enumerate_rumer(n, m)) == rho_closed(n, m), (n, m)

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_one_vertex_has_no_bonds(self, m):
        assert enumerate_rumer(1, m) == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_strict_construction(self, n):
        """The walk builds its diagrams without the constructors' checks: each
        one must still hold sorted Edge instances and equal the strict
        construction, by cell and by multidegree.  == alone cannot tell an
        Edge from a plain tuple."""
        for m in range(5):
            diagrams = enumerate_rumer(n, m) + [
                diagram
                for d in compositions(2 * m, n)
                for diagram in enumerate_rumer_by_multidegree(d)
            ]
            for diagram in diagrams:
                edges = diagram.edges
                assert all(type(e) is Edge for e in edges), diagram
                assert list(edges) == sorted(edges), diagram
                assert diagram == RumerDiagram(ValenceScheme(n, edges)), diagram

    def test_each_chord_is_built_once(self):
        # the walk shares one Edge per chord among all the diagrams that hold it
        edges = [e for diagram in enumerate_rumer(6, 5) for e in diagram.edges]
        assert len({id(e) for e in edges}) == len(set(edges))

    def test_chords_are_kept_sparse(self):
        # 100,002 vertices and one chord: the walk keeps the chords it meets,
        # not a table of every pair of vertices
        n = 10**5 + 2
        diagrams = enumerate_rumer_by_multidegree((1,) + (0,) * (n - 2) + (1,))
        assert [d.edges for d in diagrams] == [(Edge(1, n),)]


class TestGeneratorAgainstBruteForce:
    """The ballot walk, in canonical order, against filtering every valence
    scheme by is_rumer: a route that shares no enumeration code with the walk."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=7))
    def test_by_multidegree(self, degrees):
        brute = [s for s in enumerate_valence_schemes_by_multidegree(degrees) if is_rumer(s)]
        assert enumerate_rumer_by_multidegree(degrees) == brute

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 4))
    def test_by_cell(self, n, m):
        brute = [s for s in enumerate_valence_schemes(n, m) if is_rumer(s)]
        assert enumerate_rumer(n, m) == brute


class TestEnumerateValenceSchemes:
    @pytest.mark.parametrize("n,m,count", [(4, 1, 6), (4, 2, 21), (2, 3, 1)])
    def test_counts(self, n, m, count):
        assert sum(1 for _ in enumerate_valence_schemes(n, m)) == count

    def test_each_exactly_once_canonical(self):
        schemes = list(enumerate_valence_schemes(4, 2))
        assert len(set(schemes)) == len(schemes)
        assert schemes == sorted(schemes, key=lambda s: s.edges)

    def test_degree_constrained_variant(self):
        schemes = enumerate_valence_schemes_by_multidegree((1, 1, 1, 1))
        assert {s.edges for s in schemes} == {
            (Edge(1, 2), Edge(3, 4)),
            (Edge(1, 3), Edge(2, 4)),
            (Edge(1, 4), Edge(2, 3)),
        }
        assert enumerate_valence_schemes_by_multidegree((1, 0)) == []

    @pytest.mark.parametrize("degrees", [(1,) * 12 + (12,), (12,) + (1,) * 12])
    def test_star_and_hub_back_out_at_once(self, monkeypatch, degrees):
        """Each leaf of a 12-leaf star or hub has one partner, the centre: the
        search builds no chord off the one scheme, so it builds 12 chords,
        one per edge, not exponentially many."""
        real = rumer.diagrams._edge
        tried = []
        monkeypatch.setattr(rumer.diagrams, "_edge", lambda pair: tried.append(pair) or real(pair))
        assert len(enumerate_valence_schemes_by_multidegree(degrees)) == 1
        assert len(tried) == 12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_by_multidegree_equals_the_cell_route(self, monkeypatch, n):
        """The search by multidegree gives, in order, the schemes of the cell
        (n, m) with that multidegree, which the cell route lists as all
        m-multisets of edges, with no degree constraint to prune by.  It has
        no dead branch: it builds one chord per distinct non-empty prefix of
        its edge lists, and none that lies on no scheme."""
        real = rumer.diagrams._edge
        built = []
        monkeypatch.setattr(rumer.diagrams, "_edge", lambda pair: built.append(pair) or real(pair))
        for m in range(5):
            cell: dict = {}
            for scheme in enumerate_valence_schemes(n, m):
                cell.setdefault(scheme.multidegree(), []).append(scheme)
            for d in compositions(2 * m, n):
                built.clear()
                schemes = enumerate_valence_schemes_by_multidegree(d)
                assert schemes == cell.get(d, []), d
                prefixes = {s.edges[:k] for s in schemes for k in range(1, len(s.edges) + 1)}
                assert len(built) == len(prefixes), d

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_strict_construction(self, n):
        """Both enumerators build their schemes without the constructors'
        checks: each one must still hold sorted Edge instances and equal the
        strict construction, by cell and by multidegree."""
        for m in range(5):
            schemes = list(enumerate_valence_schemes(n, m)) + [
                scheme
                for d in compositions(2 * m, n)
                for scheme in enumerate_valence_schemes_by_multidegree(d)
            ]
            for scheme in schemes:
                edges = scheme.edges
                assert type(edges) is tuple, scheme
                assert all(type(e) is Edge for e in edges), scheme
                assert scheme == ValenceScheme(n, edges), scheme
