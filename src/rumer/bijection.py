"""Merging the last vertex into its predecessor, and the inverse section.

`psi` removes all bonds joining the last two vertices and reattaches the
remaining bonds of the last vertex to its predecessor.  Restricted to
non-crossing diagrams it is a bijection onto the union, over all
even-triangle-compatible merged degrees, of the non-crossing diagrams one
vertex down; `psi_section` constructs the unique non-crossing preimage.
This pair of maps is exactly what drives the counting recurrence.
"""
from __future__ import annotations

from typing import NamedTuple

from .counting import _degrees, binomial, even_triangle, triangle_range
from .diagrams import (
    RumerDiagram,
    ValenceScheme,
    _edge,
    _scheme,
    enumerate_rumer_by_multidegree,
    enumerate_valence_schemes_by_multidegree,
    first_crossing,
    is_rumer,
)


class PsiResult(NamedTuple):
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
    merged = _scheme((target, tuple(new_edges)))
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
    mu = diagram.multidegree()[-1]
    if not even_triangle(m_n, m_n1, mu):
        raise ValueError(
            f"targets ({m_n},{m_n1}) and current degree {mu} do not form an even triangle"
        )
    return RumerDiagram(_section(diagram, m_n, m_n1))


def _section(diagram: ValenceScheme, m_n: int, m_n1: int) -> ValenceScheme:
    """psi_section's preimage, as a scheme with sorted edges, of a diagram
    whose last degree makes an even triangle with m_n and m_n1, built
    without the checks of either: the merge check compares it with a known
    diagram instead."""
    nv = diagram.n
    # the edges at the last vertex are those (v, nv), sorted, so ascending in v
    far_ends = [e[0] for e in diagram.edges if e[1] == nv]
    r = (m_n + m_n1 - len(far_ends)) // 2
    new_vertex = nv + 1
    moved, kept = far_ends[: m_n1 - r], far_ends[m_n1 - r :]
    edges = [e for e in diagram.edges if e[1] != nv]
    # every far end v < nv < new_vertex
    edges.extend(_edge((v, nv)) for v in kept)
    edges.extend(_edge((v, new_vertex)) for v in moved)
    edges.extend([_edge((nv, new_vertex))] * r)
    return _scheme((new_vertex, tuple(sorted(edges))))


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
    which no multigraph exists have empty sets on both sides.

    Failures are report contents, never exceptions.
    """
    d = _degrees(degrees)
    if len(d) < 2:
        raise ValueError("need at least two degree entries to merge")
    schemes = enumerate_valence_schemes_by_multidegree(d)
    return _verify_psi_bijection(
        d, enumerate_rumer_by_multidegree(d), schemes, list(map(first_crossing, schemes)), {},
        enumerate_valence_schemes_by_multidegree,
    )


def _verify_psi_bijection(d, diagrams, schemes, pairs, merged_sets: dict, schemes_of) -> dict:
    """verify_psi_bijection of a checked prescription d, given its Rumer
    diagrams and its valence schemes, each in canonical order, the schemes'
    scan, each one's first crossing pair (first_crossing) or None, and the
    merged prescriptions' enumerations kept in merged_sets.

    One pass over the valence schemes merges each scheme once and tallies its
    image; the schemes that the scan passes form the brute-force Rumer list.
    Each one's preimage is rebuilt by the unchecked _section and compared
    with it, so a wrong or crossing preimage is a counterexample.
    Counterexamples come per Rumer diagram, then the image union, that list
    against the walk's, each new merged prescription's, and the hit bounds.

    merged_sets maps a merged prescription prefix + (mu,) to the pair of its
    two enumerations: the ballot walk's Rumer diagrams by multidegree and
    schemes_of(prefix + (mu,)), its valence schemes in canonical order, whose
    Rumer ones are the brute-force list the walk is compared with: verify's
    cells one vertex down grouped by multidegree, or verify_psi_bijection's
    backtracker.  A merged prescription is enumerated and its two lists
    compared when it first enters merged_sets, so checking every multidegree
    of one cell with one dict enumerates and checks each merged prescription
    once.
    """
    m_n, m_n1 = d[-2], d[-1]
    prefix = d[:-2]
    failures: list[dict] = []
    hits: dict[ValenceScheme, int] = {}
    images: dict[ValenceScheme, ValenceScheme] = {}  # merged scheme -> its Rumer preimage
    brute_force = []
    for scheme, pair in zip(schemes, pairs):
        result = psi(scheme)
        merged = result.scheme
        hits[merged] = hits.get(merged, 0) + 1
        if pair is not None:
            continue
        brute_force.append(scheme)
        if result.mu_n != m_n + m_n1 - 2 * result.m_join:
            reason = "degree bookkeeping broken"
        elif not even_triangle(m_n, m_n1, result.mu_n):
            reason = "merged degree not even-triangle"
        elif not is_rumer(merged):
            reason = "merged scheme crosses"
        elif merged.multidegree() != prefix + (result.mu_n,):
            reason = "merged multidegree wrong"
        elif merged in images:
            reason = f"collides with {images[merged]}"
        else:
            images[merged] = scheme
            back = _section(merged, m_n, m_n1)
            if back == scheme:
                continue
            reason = f"section returned {back}"
        failures.append({"diagram": scheme.to_text(), "reason": reason})

    generator = _disagreement(d, diagrams, brute_force)
    bounds: list[dict] = []
    expected = set()
    for mu in triangle_range(m_n, m_n1):
        e = prefix + (mu,)
        if e not in merged_sets:
            walked, lower = merged_sets[e] = enumerate_rumer_by_multidegree(e), schemes_of(e)
            generator += _disagreement(e, walked, [s for s in lower if is_rumer(s)])
        walked, lower = merged_sets[e]
        expected.update(walked)
        bound = binomial(mu, m_n1 - (m_n + m_n1 - mu) // 2)
        for scheme in lower:
            count = hits.get(scheme, 0)
            if count == 0:
                bounds.append({"scheme": scheme.to_text(), "reason": "not hit by any valence scheme"})
            elif count > bound:
                bounds.append(
                    {"scheme": scheme.to_text(), "reason": f"{count} preimages exceed bound {bound}"}
                )

    if expected != images.keys():
        failures.append({
            "reason": "image is not the even-triangle union",
            "missing": sorted(s.to_text() for s in expected - images.keys()),
            "extra": sorted(s.to_text() for s in images.keys() - expected),
        })
    counterexamples = failures + generator + bounds
    return {
        "multidegree": list(d),
        "bijection_ok": not counterexamples,
        "counterexamples": counterexamples,
    }


def _disagreement(e, walked, brute_force: list[ValenceScheme]) -> list[dict]:
    """The counterexample, if any, of a walk whose diagrams of prescription e
    differ from the brute-force Rumer list."""
    if walked == brute_force:
        return []
    return [{
        "multidegree": list(e),
        "reason": "generator disagrees with the brute-force filter",
        "missing": sorted(s.to_text() for s in set(brute_force) - set(walked)),
        "extra": sorted(s.to_text() for s in set(walked) - set(brute_force)),
    }]
