"""Merging the last vertex into its predecessor, and the inverse section.

`psi` removes all bonds joining the last two vertices and reattaches the
remaining bonds of the last vertex to its predecessor.  Restricted to
non-crossing diagrams it is a bijection onto the union, over all
even-triangle-compatible merged degrees, of the non-crossing diagrams one
vertex down; `psi_section` constructs the unique non-crossing preimage.
This pair of maps is exactly what drives the counting recurrence.
"""
from __future__ import annotations

from dataclasses import dataclass

from .counting import _degrees, binomial, even_triangle, triangle_range
from .diagrams import (
    RumerDiagram,
    ValenceScheme,
    _edge,
    _realizable,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes_by_multidegree,
    is_rumer,
)


@dataclass(frozen=True)
class PsiResult:
    """Outcome of merging: the smaller scheme, the merged vertex's new degree,
    and the number of removed joining bonds.

    Bookkeeping invariant: mu_n = m_n + m_{n+1} - 2 * m_join, and
    (m_n, m_{n+1}, mu_n) always form an even triangle.
    """

    scheme: ValenceScheme
    mu_n: int
    m_join: int


def psi(scheme: ValenceScheme) -> PsiResult:
    """Merge the last vertex into its predecessor.

    All bonds between the last two vertices are dropped; every other bond at
    the last vertex keeps its far endpoint and is reattached to the
    predecessor.  Non-crossing schemes map to non-crossing schemes because
    the two merged vertices are circle neighbours.
    """
    top = scheme.n
    if top < 2:
        raise ValueError("merging needs at least two vertices")
    target = top - 1
    m_n = m_n1 = m_join = 0
    new_edges = []
    for e in scheme.edges:
        i, j = e[0], e[1]  # indexing beats unpacking a tuple subclass
        if j == top:
            m_n1 += 1
            if i == target:
                m_n += 1
                m_join += 1
            else:
                new_edges.append(_edge((i, target)))  # i < target
        else:
            m_n += j == target  # an edge from target to a higher vertex ends at top
            new_edges.append(e)
    # still sorted: among the edges from i, (i, top) came last and its image
    # (i, target) is at least every other one
    merged = ValenceScheme._trusted(target, tuple(new_edges))
    return PsiResult(merged, mu_n=m_n + m_n1 - 2 * m_join, m_join=m_join)


def psi_section(diagram: RumerDiagram, m_n: int, m_n1: int) -> RumerDiagram:
    """The unique non-crossing preimage of a Rumer diagram under psi.

    The bond ends at the last vertex are ordered by their far endpoint,
    ascending from vertex 1 (clockwise from the inserted vertex); the first
    m_{n+1} - r of them move to the new last vertex, the remaining m_n - r
    stay, and r parallel joining bonds are added, where
    r = (m_n + m_{n+1} - mu_n) / 2.

    Raises ValueError unless (m_n, m_{n+1}, mu_n) form an even triangle,
    mu_n being the diagram's current degree at its last vertex.
    """
    if m_n < 0 or m_n1 < 0:
        raise ValueError(f"target degrees must be nonnegative, got ({m_n},{m_n1})")
    scheme = diagram.scheme
    nv = scheme.n
    mu = scheme.degree(nv)
    if not even_triangle(m_n, m_n1, mu):
        raise ValueError(
            f"targets ({m_n},{m_n1}) and current degree {mu} do not form an even triangle"
        )
    r = (m_n + m_n1 - mu) // 2
    new_vertex = nv + 1
    far_ends = sorted(e.other(nv) for e in scheme.edges if e.touches(nv))
    moved, kept = far_ends[: m_n1 - r], far_ends[m_n1 - r :]
    edges = [e for e in scheme.edges if not e.touches(nv)]
    # every far end v < nv < new_vertex
    edges.extend(_edge((v, nv)) for v in kept)
    edges.extend(_edge((v, new_vertex)) for v in moved)
    edges.extend([_edge((nv, new_vertex))] * r)
    # the one check left is the crossing scan of the public result
    return RumerDiagram(ValenceScheme._trusted(new_vertex, tuple(sorted(edges))))


def verify_psi_bijection(degrees) -> dict:
    """Exhaustively check the merge bijection for one degree prescription.

    For every non-crossing diagram with the given degrees: the merged scheme
    must be non-crossing, carry the bookkept degrees, be hit exactly once,
    and be inverted by psi_section.  The merged images must be exactly the
    union of the non-crossing sets over the even-triangle range, and over
    all valence schemes (crossings allowed) every merged scheme must be hit
    at least once and at most C(mu_n, m_{n+1} - r) times.  The non-crossing
    diagrams themselves, and those of each merged prescription, must be
    exactly the valence schemes that pass is_rumer, in the same order: a
    brute-force route independent of the generator.  Merged degrees mu for
    which no multigraph exists have empty sets on both sides and are skipped.

    Failures are report contents, never exceptions.
    """
    d = _degrees(degrees)
    if len(d) < 2:
        raise ValueError("need at least two degree entries to merge")
    return _verify_psi_bijection(
        d, enumerate_rumer_by_multidegree(d), enumerate_valence_schemes_by_multidegree(d), {}
    )


def _verify_psi_bijection(d, diagrams, schemes, merged_sets: dict) -> dict:
    """verify_psi_bijection of a checked prescription d, given its Rumer
    diagrams and its valence schemes, each in canonical order, with the
    merged prescriptions' enumerations kept in merged_sets.

    merged_sets maps a merged prescription prefix + (mu,) to the pair of its
    two enumerations: the ballot walk's Rumer diagrams by multidegree and the
    backtracker's valence schemes.  A merged prescription is enumerated and
    its two lists compared when it first enters merged_sets, so checking
    every multidegree of one cell with one dict enumerates and checks each
    merged prescription once.
    """
    m_n, m_n1 = d[-2], d[-1]
    prefix = d[:-2]
    counterexamples: list[dict] = []
    # the prescriptions whose two lists are compared here: d, and each merged
    # prescription that enters merged_sets now
    compared = [(d, diagrams, schemes)]

    by_mu: dict[int, tuple[list[RumerDiagram], list[ValenceScheme]]] = {}
    for mu in triangle_range(m_n, m_n1):
        e = prefix + (mu,)
        if _realizable(e):
            if e not in merged_sets:
                merged_sets[e] = (
                    enumerate_rumer_by_multidegree(e),
                    enumerate_valence_schemes_by_multidegree(e),
                )
                compared.append((e, *merged_sets[e]))
            by_mu[mu] = merged_sets[e]

    images: dict[ValenceScheme, RumerDiagram] = {}
    for diagram in diagrams:
        result = psi(diagram.scheme)
        text = diagram.scheme.to_text()
        if result.mu_n != m_n + m_n1 - 2 * result.m_join:
            counterexamples.append({"diagram": text, "reason": "degree bookkeeping broken"})
            continue
        if not even_triangle(m_n, m_n1, result.mu_n):
            counterexamples.append({"diagram": text, "reason": "merged degree not even-triangle"})
            continue
        if not is_rumer(result.scheme):
            counterexamples.append({"diagram": text, "reason": "merged scheme crosses"})
            continue
        if result.scheme.multidegree() != prefix + (result.mu_n,):
            counterexamples.append({"diagram": text, "reason": "merged multidegree wrong"})
            continue
        if result.scheme in images:
            counterexamples.append(
                {"diagram": text, "reason": f"collides with {images[result.scheme]}"}
            )
            continue
        images[result.scheme] = diagram
        back = psi_section(RumerDiagram._trusted(result.scheme), m_n, m_n1)  # is_rumer passed
        if back != diagram:
            counterexamples.append(
                {"diagram": text, "reason": f"section returned {back.scheme.to_text()}"}
            )

    expected = {diagram.scheme for walked, _ in by_mu.values() for diagram in walked}
    if expected != set(images):
        missing = sorted(s.to_text() for s in expected - set(images))
        extra = sorted(s.to_text() for s in set(images) - expected)
        counterexamples.append(
            {"reason": "image is not the even-triangle union", "missing": missing, "extra": extra}
        )

    for e, walked, backtracked in compared:
        generated = [diagram.scheme for diagram in walked]
        brute_force = [scheme for scheme in backtracked if is_rumer(scheme)]
        if generated != brute_force:
            counterexamples.append({
                "multidegree": list(e),
                "reason": "generator disagrees with the brute-force filter",
                "missing": sorted(s.to_text() for s in set(brute_force) - set(generated)),
                "extra": sorted(s.to_text() for s in set(generated) - set(brute_force)),
            })
    preimage_count: dict[ValenceScheme, int] = {}
    for scheme in schemes:
        merged = psi(scheme).scheme
        preimage_count[merged] = preimage_count.get(merged, 0) + 1
    for mu, (_, merged_schemes) in by_mu.items():
        r = (m_n + m_n1 - mu) // 2
        bound = binomial(mu, m_n1 - r)
        for scheme in merged_schemes:
            hits = preimage_count.get(scheme, 0)
            if hits == 0:
                counterexamples.append(
                    {"scheme": scheme.to_text(), "reason": "not hit by any valence scheme"}
                )
            elif hits > bound:
                counterexamples.append(
                    {"scheme": scheme.to_text(), "reason": f"{hits} preimages exceed bound {bound}"}
                )

    return {
        "multidegree": list(d),
        "bijection_ok": not counterexamples,
        "counterexamples": counterexamples,
    }
