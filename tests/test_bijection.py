"""The merge map on the last two vertices and its non-crossing section."""
import pytest

import rumer.bijection
from rumer.bijection import psi, psi_section, verify_psi_bijection
from rumer.counting import compositions, even_triangle, triangle_range
from rumer.diagrams import (
    Edge,
    RumerDiagram,
    ValenceScheme,
    enumerate_rumer,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes,
    enumerate_valence_schemes_by_multidegree,
    is_rumer,
)


def degree(scheme, v):
    """The number of bond ends at vertex v."""
    return sum(e.count(v) for e in scheme.edges)


def strict_psi(scheme):
    """psi through the checking constructors: the merged scheme, mu_n and m_join."""
    top = scheme.n
    target = top - 1
    m_join = scheme.edges.count((target, top))
    edges = [
        Edge(i, target if j == top else j) for i, j in scheme.edges if (i, j) != (target, top)
    ]
    merged = ValenceScheme(target, edges)
    return merged, degree(scheme, target) + degree(scheme, top) - 2 * m_join, m_join


def strict_psi_section(diagram, m_n, m_n1):
    """psi_section through the checking constructors."""
    nv = diagram.n
    r = (m_n + m_n1 - degree(diagram, nv)) // 2
    far_ends = sorted(i for i, j in diagram.edges if j == nv)  # nv is the last vertex
    edges = [e for e in diagram.edges if e[1] != nv]
    edges += [Edge(v, nv) for v in far_ends[m_n1 - r :]]
    edges += [Edge(v, nv + 1) for v in far_ends[: m_n1 - r]]
    edges += [Edge(nv, nv + 1)] * r
    return RumerDiagram(ValenceScheme(nv + 1, edges))


class TestPsi:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_the_strict_construction(self, n):
        for m in range(5):
            for scheme in enumerate_valence_schemes(n, m):
                result = psi(scheme)
                assert (result.scheme, result.mu_n, result.m_join) == strict_psi(scheme), scheme
                assert all(type(e) is Edge for e in result.scheme.edges)

    def test_parallel_join_removed(self):
        result = psi(ValenceScheme(4, [(1, 2), (3, 4)]))
        assert result.scheme == ValenceScheme(3, [(1, 2)])
        assert result.mu_n == 0
        assert result.m_join == 1

    def test_reattachment(self):
        result = psi(ValenceScheme(4, [(1, 4), (2, 3)]))
        assert result.scheme == ValenceScheme(3, [(1, 3), (2, 3)])
        assert result.mu_n == 2
        assert result.m_join == 0

    def test_only_join_bonds(self):
        result = psi(ValenceScheme(4, [(3, 4)]))
        assert result.scheme == ValenceScheme(3)
        assert result.mu_n == 0
        assert result.m_join == 1

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            psi(ValenceScheme(1))

    def test_bookkeeping_holds_on_all_schemes(self):
        for d in compositions(6, 4):
            for scheme in enumerate_rumer_by_multidegree(d):
                result = psi(scheme)
                m_n, m_n1 = degree(scheme, 3), degree(scheme, 4)
                assert result.mu_n == m_n + m_n1 - 2 * result.m_join
                assert even_triangle(m_n, m_n1, result.mu_n)

    def test_maps_rumer_to_rumer(self):
        for total in range(0, 7):
            for d in compositions(total, 5):
                for diagram in enumerate_rumer_by_multidegree(d):
                    assert is_rumer(psi(diagram).scheme), diagram


class TestPsiSection:
    def test_moves_lowest_endpoint(self):
        G = RumerDiagram(3, [(1, 3), (2, 3)])
        lifted = psi_section(G, 1, 1)
        assert lifted == ValenceScheme(4, [(1, 4), (2, 3)])

    def test_pure_join(self):
        G = RumerDiagram(3, [(1, 2)])
        lifted = psi_section(G, 1, 1)
        assert lifted == ValenceScheme(4, [(1, 2), (3, 4)])

    def test_double_join_from_empty(self):
        G = RumerDiagram(ValenceScheme(3))
        lifted = psi_section(G, 2, 2)
        assert lifted == ValenceScheme(4, [(3, 4), (3, 4)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_strict_construction(self, n):
        for m in range(5):
            for diagram in enumerate_rumer(n, m):
                mu = degree(diagram, n)
                for m_n in range(m + 1):
                    for m_n1 in range(m + 1):
                        if not even_triangle(m_n, m_n1, mu):
                            continue
                        lifted = psi_section(diagram, m_n, m_n1)
                        assert lifted == strict_psi_section(diagram, m_n, m_n1), diagram
                        assert all(type(e) is Edge for e in lifted.edges)
                        # the merge check's unchecked preimage is the same,
                        # with its edges already sorted
                        unchecked = rumer.bijection._section(diagram, m_n, m_n1)
                        assert tuple(unchecked) == tuple(lifted), diagram
                        assert all(type(e) is Edge for e in unchecked.edges)

    def test_rejects_incompatible_targets(self):
        G = RumerDiagram(3, [(1, 3), (2, 3)])  # degree 2 at vertex 3
        with pytest.raises(ValueError):
            psi_section(G, 1, 2)  # odd perimeter
        with pytest.raises(ValueError):
            psi_section(G, 0, 0)  # 2 > 0 + 0
        with pytest.raises(ValueError):
            psi_section(G, -1, 3)

    def test_section_then_merge_round_trip(self):
        # psi(psi_section(G)) must reproduce G with the declared merged degree
        for total in range(0, 5):
            for d in compositions(total, 4):
                for diagram in enumerate_rumer_by_multidegree(d):
                    mu = degree(diagram, 4)
                    for m_n in range(0, 4):
                        for m_n1 in range(0, 4):
                            if not even_triangle(m_n, m_n1, mu):
                                continue
                            lifted = psi_section(diagram, m_n, m_n1)
                            back = psi(lifted)
                            assert back.scheme == diagram
                            assert back.mu_n == mu
                            degs = lifted.multidegree()
                            assert degs[-2:] == (m_n, m_n1)

    def test_merge_then_section_round_trip(self):
        for total in range(0, 7):
            for d in compositions(total, 5):
                m_n, m_n1 = d[-2], d[-1]
                for diagram in enumerate_rumer_by_multidegree(d):
                    merged = psi(diagram)
                    back = psi_section(RumerDiagram(merged.scheme), m_n, m_n1)
                    assert back == diagram


class TestVerifyBijection:
    def test_small_cases_pass(self):
        # a 40-leaf star: the scheme backtracker backs out of each dead edge at once
        for d in [(1, 1, 1, 1), (2, 2, 1, 1), (0, 0, 1, 1), (2, 2), (0, 0), (1,) * 40 + (40,)]:
            report = verify_psi_bijection(d)
            assert report["bijection_ok"], report["counterexamples"]
            assert report["multidegree"] == list(d)
            assert report["counterexamples"] == []

    def test_image_counts(self):
        # two diagrams with degrees (1,1,1,1) split across merged degrees 0 and 2
        images = {
            psi(diagram).mu_n
            for diagram in enumerate_rumer_by_multidegree((1, 1, 1, 1))
        }
        assert images == set(triangle_range(1, 1))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            verify_psi_bijection((2,))

    def test_rejects_non_integral_degrees(self):
        with pytest.raises(TypeError):
            verify_psi_bijection((1.5, 1.5))

    def test_sweep_of_prescriptions(self):
        for parts in (2, 3, 4):
            for total in range(0, 5):
                for d in compositions(total, parts):
                    report = verify_psi_bijection(d)
                    assert report["bijection_ok"], (d, report["counterexamples"])


def _merging(change):
    """psi with change applied to each result."""
    return lambda scheme: change(psi(scheme))


#: One broken part of the merge check per failure reason: the name patched in
#: rumer.bijection, its replacement, a prescription it breaks, and the start
#: of the reason the report must give.
BROKEN_MERGE_CHECKS = {
    "bookkeeping": (
        "psi", _merging(lambda r: r._replace(mu_n=r.mu_n + 2)),
        (1, 1, 1, 1), "degree bookkeeping broken",
    ),
    "triangle": (
        # m_join = -1 keeps mu_n = m_n + m_{n+1} - 2 m_join but breaks the triangle
        "psi", _merging(lambda r: r._replace(mu_n=r.mu_n + 2 * r.m_join + 2, m_join=-1)),
        (1, 1, 1, 1), "merged degree not even-triangle",
    ),
    "crossing": (
        "psi", _merging(lambda r: r._replace(scheme=ValenceScheme(4, [(1, 3), (2, 4)]))),
        (1, 1, 1, 1), "merged scheme crosses",
    ),
    "multidegree": (
        "psi", _merging(lambda r: r._replace(scheme=ValenceScheme(r.scheme.n))),
        (1, 1, 1, 1), "merged multidegree wrong",
    ),
    "collision": (
        # the second diagram's image (1,4)(2,3) is replaced by the first one's
        "psi", _merging(
            lambda r: r._replace(scheme=ValenceScheme(4, [(1, 2), (3, 4)]))
            if r.scheme == ValenceScheme(4, [(1, 4), (2, 3)]) else r
        ),
        (1, 1, 1, 1, 2), "collides with n=5; (1,2)(3,5)(4,5)",
    ),
    "section": (
        "_section", lambda diagram, m_n, m_n1: ValenceScheme(diagram.n + 1),
        (1, 1, 1, 1), "section returned n=4;",
    ),
    "crossing section": (
        # the merge check builds the preimage unchecked, so a crossing one is
        # a counterexample, not a ValueError out of RumerDiagram
        "_section", lambda diagram, m_n, m_n1: ValenceScheme(4, [(1, 3), (2, 4)]),
        (1, 1, 1, 1), "section returned n=4; (1,3)(2,4)",
    ),
    "union": (
        "enumerate_rumer_by_multidegree", lambda e: enumerate_rumer_by_multidegree(e)[1:],
        (1, 1, 1, 1), "image is not the even-triangle union",
    ),
    "unhit": (
        # drop (1,2)(3,4), the one preimage of (1,2), from the block's schemes
        "enumerate_valence_schemes_by_multidegree",
        lambda e: enumerate_valence_schemes_by_multidegree(e)[1 if len(e) == 4 else 0:],
        (1, 1, 1, 1), "not hit by any valence scheme",
    ),
    "bound": (
        "enumerate_valence_schemes_by_multidegree",
        lambda e: enumerate_valence_schemes_by_multidegree(e) * 2,
        (1, 1, 1, 1), "2 preimages exceed bound 1",
    ),
}


@pytest.mark.parametrize("broken", BROKEN_MERGE_CHECKS)
def test_broken_merge_check_names_the_reason(monkeypatch, broken):
    name, replacement, d, reason = BROKEN_MERGE_CHECKS[broken]
    monkeypatch.setattr(rumer.bijection, name, replacement)
    report = verify_psi_bijection(d)
    assert not report["bijection_ok"]
    assert any(
        example["reason"].startswith(reason) for example in report["counterexamples"]
    ), report["counterexamples"]
