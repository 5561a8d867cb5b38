"""Valence schemes and Rumer diagrams on circularly ordered vertices.

A valence scheme is a loop-free multigraph on vertices 1..n drawn with the
vertices placed clockwise on a circle and every edge drawn as a chord.  A
Rumer diagram is a scheme in which no two chords cross.  Crossing is decided
purely combinatorially, by strict interleaving of endpoint indices; no
floating-point geometry is involved anywhere.
"""
from __future__ import annotations

import json
import operator
from functools import partial
import re
from itertools import combinations_with_replacement, product, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .counting import _cell, _degrees, _vertices

#: Per-vertex bond counts (m_1, ..., m_n).
Multidegree = tuple[int, ...]


class Edge(tuple):
    """Chord between two distinct vertices, stored normalized as the pair (i, j)
    with i < j.  An edge compares, sorts and hashes as that pair."""

    __slots__ = ()

    def __new__(cls, i: int, j: int) -> "Edge":
        i, j = operator.index(i), operator.index(j)
        if i == j:
            raise ValueError(f"loop edge ({i},{j}) is not allowed")
        if i > j:
            i, j = j, i
        if i < 1:
            raise ValueError(f"vertex indices are 1-based, got ({i},{j})")
        return tuple.__new__(cls, (i, j))

    i = property(operator.itemgetter(0), doc="The smaller endpoint.")
    j = property(operator.itemgetter(1), doc="The larger endpoint.")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __str__(self) -> str:
        return f"({self[0]},{self[1]})"

    def __repr__(self) -> str:
        return f"Edge(i={self[0]}, j={self[1]})"


#: Edge from a pair (i, j) already known to have 1 <= i < j, built without
#: Edge's checks; call as _edge((i, j)).
_edge = partial(tuple.__new__, Edge)


class ValenceScheme(tuple):
    """Loop-free multigraph on vertices 1..n, stored as the pair (n, edges)
    with the edge multiset sorted.  Schemes compare, sort, hash and unpack as
    that pair, as an Edge does as (i, j); so two schemes are equal iff they
    have the same n and the same sorted edges, and a Rumer diagram equals the
    scheme with its edges.

    Read as a bracket monomial, the scheme is the product of the brackets
    [i,j] over its edges, so bracket polynomials are keyed by schemes.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Iterable = ()) -> "ValenceScheme":
        n = _vertices(n)
        edges = tuple(sorted(e if isinstance(e, Edge) else Edge(*e) for e in edges))
        for e in edges:
            if e[1] > n:
                raise ValueError(f"edge {e} does not fit on {n} vertices")
        return tuple.__new__(cls, (n, edges))

    n = property(operator.itemgetter(0), doc="The vertex count.")
    edges = property(operator.itemgetter(1), doc="The sorted tuple of edges.")

    def __getnewargs__(self) -> tuple[int, tuple[Edge, ...]]:
        return tuple(self)

    def multidegree(self) -> Multidegree:
        degs = [0] * self.n
        for i, j in self.edges:
            degs[i - 1] += 1
            degs[j - 1] += 1
        return tuple(degs)

    def to_text(self) -> str:
        body = "".join(str(e) for e in self.edges)
        return f"n={self.n};" + (f" {body}" if body else "")

    @classmethod
    def from_text(cls, text: str) -> "ValenceScheme":
        m = re.fullmatch(r"\s*n\s*=\s*(\d+)\s*;\s*((?:\(\s*\d+\s*,\s*\d+\s*\)\s*)*)", text)
        if m is None:
            raise ValueError(f"not a valid diagram text form: {text!r}")
        n = int(m.group(1))
        pairs = re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", m.group(2))
        return cls(n, [Edge(int(a), int(b)) for a, b in pairs])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ValenceScheme":
        n, pairs = data["n"], data["edges"]
        # JSON true and false would pass operator.index as 1 and 0
        if isinstance(n, bool) or any(isinstance(end, bool) for pair in pairs for end in pair):
            raise TypeError("vertex numbers must be integers, not booleans")
        return cls(n, [Edge(i, j) for i, j in pairs])

    @classmethod
    def from_json(cls, text: str) -> "ValenceScheme":
        return cls.from_json_dict(json.loads(text))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self[0]}, edges={self[1]!r})"


class RumerDiagram(ValenceScheme):
    """A valence scheme whose chords are pairwise non-crossing.  Build one as
    RumerDiagram(n, edges) or, from a scheme, as RumerDiagram(scheme)."""

    __slots__ = ()

    def __new__(cls, n: int | ValenceScheme, edges: Iterable = ()) -> "RumerDiagram":
        if isinstance(n, ValenceScheme):
            n, edges = n
        diagram = super().__new__(cls, n, edges)
        bad = first_crossing(diagram)
        if bad is not None:
            raise ValueError(f"edges {bad[0]} and {bad[1]} cross; not a Rumer diagram")
        return diagram


#: A scheme or a diagram from a pair (n, edges) whose sorted edges already fit
#: on n vertices (and, for a diagram, do not cross), built without the
#: constructor's checks; call as _scheme((n, edges)) or _diagram((n, edges)).
_scheme = partial(tuple.__new__, ValenceScheme)
_diagram = partial(tuple.__new__, RumerDiagram)


def edges_cross(e1: Edge, e2: Edge) -> bool:
    """True iff the two chords strictly interleave around the circle.

    Chords that share an endpoint, and parallel copies of the same chord,
    never cross.
    """
    a, b, c, d = e1[0], e1[1], e2[0], e2[1]  # indexing beats unpacking a tuple subclass
    return a < c < b < d or c < a < d < b


def first_crossing(scheme: ValenceScheme, start: int = 0) -> tuple[Edge, Edge] | None:
    """The lexicographically first crossing pair of distinct edges whose first
    chord sits at position start or later, or None.

    The scan runs over the sorted edges.  A later chord (c, d) of a chord
    (a, b) has a <= c, so the two cross exactly when a < c < b < d; once
    c >= b no later chord crosses (a, b) either, and the scan moves on to the
    next first chord.  Parallel copies never cross, so a repeat of the first
    chord is skipped and a repeat of the second fails the test.  When no
    chord before start crosses any chord, as `brackets.straighten` knows of
    an exchange child, the pair is the scheme's first crossing pair.
    """
    edges = scheme[1]  # indexing beats the property
    size = len(edges)
    previous = None
    for i in range(start, size):
        e1 = edges[i]
        if e1 == previous:
            continue
        previous = e1
        a, b = e1[0], e1[1]  # indexing beats unpacking a tuple subclass
        for j in range(i + 1, size):
            e2 = edges[j]
            c = e2[0]
            if c >= b:
                break
            if a < c and b < e2[1]:
                return e1, e2
    return None


def is_rumer(scheme: ValenceScheme) -> bool:
    return first_crossing(scheme) is None


def _realizable(degrees: Sequence[int]) -> bool:
    """Whether some loop-free multigraph has these vertex degrees: the degree
    sum is even and no vertex needs more partners than the others have."""
    total = sum(degrees)
    return total % 2 == 0 and 2 * max(degrees, default=0) <= total


def _degree_constrained_edge_lists(degrees: Sequence[int]) -> Iterator[tuple[Edge, ...]]:
    """Search core of enumerate_valence_schemes_by_multidegree.

    Chords are chosen in nondecreasing lexicographic order, so every multiset
    is produced exactly once and already canonically sorted.  The next chord
    (v, x) covers the first vertex v with free valence, since later chords
    cannot reach it, and x is at or after v's last partner (or v + 1).  Let r
    be v's free valence.  Once v's r bonds are placed, the vertices after v
    hold 2h, the sum of their free valences less r; so h is the same for every
    chord of v, and by the rule of _realizable those vertices then have a
    multigraph iff none of them holds more than h.  So v must give each later
    vertex w at least max(0, f_w - h) of its free valence f_w.  The chord
    (v, x) is taken iff that can be done with x taking one more bond: every
    vertex it skips, from v's last partner up to but not including x, gets
    nothing more from v and must hold at most h, so once one holds more no
    later x will do; and the vertices from x on must be owed at most r in
    all, counting at least 1 for x, and hold at least r.  The test is exact,
    so every chord lies on a scheme and the search has no dead branch.  An
    odd degree sum, or a degree above the sum of the others, has no
    multigraph at all and yields nothing without a search.  The search runs
    on an explicit stack, one frame per chord, so its depth is the bond
    count, not Python's recursion limit.
    """
    if not _realizable(degrees):
        return
    # One frame per chord on the path: the states (free valences by vertex,
    # edges) after each next chord left to try, starting from the degrees.
    stack = [iter([((0, *degrees), ())])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif any(state[0]):
            stack.append(_next_chords(*state))
        else:
            yield state[1]


def _next_chords(free: tuple[int, ...], edges: tuple[Edge, ...]) -> Iterator[tuple]:
    """The states (free valences, edges) after each next chord (v, x) of
    _degree_constrained_edge_lists that lies on a scheme, in increasing
    order of x, from the free valences by vertex (index 0 unused) and the
    edges so far."""
    v = next(u for u, f in enumerate(free) if f)
    r = free[v]
    h = (sum(free[v + 1 :]) - r) // 2
    start = edges[-1][1] if edges and edges[-1][0] == v else v + 1
    hold = sum(free[start:])  # of the vertices from x on
    need = sum(f - h for f in free[start:] if f > h)  # what v must give them
    for x in range(start, len(free)):
        f = free[x]
        if f and need + (f <= h) <= r <= hold:
            rest = free[:v] + (r - 1,) + free[v + 1 : x] + (f - 1,) + free[x + 1 :]
            yield rest, edges + (_edge((v, x)),)
        if f > h:
            return  # every later chord would skip x
        hold -= f
        if hold < r:
            return


#: moves(v, h, bonds): the (closed, opened) bond-end counts allowed at vertex v
#: when h bond ends are open and `bonds` bonds are already closed.
_Moves = Callable[[int, int, int], Iterable[tuple[int, int]]]


def _ballot_walk(n: int, moves: _Moves) -> Iterator[tuple[Edge, ...]]:
    """Non-crossing edge lists on n vertices, one per ballot sequence of moves.

    The walk visits vertices 1..n with a stack of open bond ends.  At vertex v
    it closes c ends from the top of the stack, each giving the edge (top, v),
    then opens o new ends at v.  Closing an end below the top one would make
    chords (a, v) and (b, w) with a < b < v < w, which cross; so the
    non-crossing loop-free multigraphs are exactly the move sequences that
    end with an empty stack, each met once.  `moves` must allow only moves
    that still lead to such an end, so the walk has no dead branch.  It runs
    on an explicit stack, so n is not bounded by Python's recursion limit.
    Each chord is built once per walk and shared by every list that holds
    it; the chords are kept in a dict of those met, not a table of all
    n(n-1)/2, so a walk over many vertices with few bonds stays small.
    """
    # One frame per vertex on the path: the moves left to try there, and the
    # open ends (their vertices, bottom to top) and edges before the vertex.
    stack = [(iter(moves(1, 0, 0)), (), ())]
    chords: dict[tuple[int, int], Edge] = {}
    while stack:
        untried, open_ends, edges = stack[-1]
        move = next(untried, None)
        if move is None:
            stack.pop()
            continue
        v = len(stack)
        c, o = move
        keep = len(open_ends) - c
        for u in open_ends[keep:]:  # each open end u < v
            edge = chords.get((u, v))
            if edge is None:
                edge = chords[u, v] = _edge((u, v))
            edges += (edge,)
        open_ends = open_ends[:keep] + (v,) * o
        if v == n:
            yield edges
        else:
            stack.append((iter(moves(v + 1, len(open_ends), len(edges))), open_ends, edges))


def _moves_by_bonds(n: int, m: int) -> _Moves:
    """Every move that can still end with m bonds and an empty stack: vertex
    n-1 opens all the bonds still missing, vertex n closes every open end, and
    any other vertex closes and opens any number of ends."""

    def moves(v: int, h: int, bonds: int) -> Iterable[tuple[int, int]]:
        if v == n:
            # close every open end; only n = 1 with m > 0 can fail here
            return ((h, 0),) if bonds + h == m else ()
        k = m - bonds - h  # openings still to make
        if v == n - 1:
            return zip(range(h + 1), repeat(k))
        return product(range(h + 1), range(k + 1))

    return moves


def _moves_by_degrees(d: Multidegree) -> _Moves:
    """Every move of degree d[v-1] at v after which the rest is realizable.

    Closing c of the h open ends at a vertex of degree a leaves
    h' = h + a - 2c open, and they act as one more vertex of degree h' in
    front of the vertices still to place.  With S and M the sum and the
    maximum of those vertices' degrees, a non-crossing multigraph with these
    degrees exists iff h' <= S and 2*M <= h' + S, as for a crossing one.  The
    parity of h' + S is that of the degree sum, which the caller makes even.
    """
    n = len(d)
    suffix_sum = [0] * (n + 1)  # of the degrees of vertices v+1..n
    suffix_max = [0] * (n + 1)
    for v in range(n - 1, 0, -1):
        suffix_sum[v] = suffix_sum[v + 1] + d[v]
        suffix_max[v] = max(suffix_max[v + 1], d[v])

    def moves(v: int, h: int, bonds: int) -> Iterable[tuple[int, int]]:
        a, rest, top = d[v - 1], suffix_sum[v], suffix_max[v]
        lo = max(0, (h + a - rest + 1) // 2)
        hi = min(h, a, (h + a + rest - 2 * top) // 2)
        return zip(range(lo, hi + 1), range(a - lo, a - hi - 1, -1))

    return moves


def _sorted_diagrams(n: int, edge_lists: Iterable[tuple[Edge, ...]]) -> list[RumerDiagram]:
    """The diagrams of the ballot walk's edge lists, canonically ordered.  The
    walk makes only non-crossing lists of edges on n vertices, so each list
    is sorted and built without the constructor's checks."""
    found = [_diagram((n, tuple(sorted(edges)))) for edges in edge_lists]
    found.sort()  # as the pairs (n, edges), with n fixed
    return found


def enumerate_rumer_by_multidegree(degrees: Sequence[int]) -> list[RumerDiagram]:
    """All non-crossing loop-free multigraphs with exactly these vertex degrees,
    canonically ordered.

    A ballot walk over the open-bond stack: vertex v closes c bond ends from
    the top of the stack and opens d_v - c new ones, with c limited to the
    values after which the remaining degrees, plus the open stack as one
    extra vertex, are still realizable.  So every branch ends in a diagram.
    Infeasible prescriptions (odd degree sum, or degrees that no loop-free
    multigraph can realize) yield the empty list: zero is the truthful count.
    """
    d = _degrees(degrees)
    if not _realizable(d):
        return []
    return _sorted_diagrams(len(d), _ballot_walk(len(d), _moves_by_degrees(d)))


def enumerate_valence_schemes_by_multidegree(degrees: Sequence[int]) -> list[ValenceScheme]:
    """All loop-free multigraphs (crossing allowed) with these vertex degrees."""
    d = _degrees(degrees)
    n = len(d)
    # each edge list is sorted and fits on the n vertices
    return [_scheme((n, edges)) for edges in _degree_constrained_edge_lists(d)]


def enumerate_rumer(n: int, m: int) -> list[RumerDiagram]:
    """All Rumer diagrams with m bonds on n vertices, canonically ordered.

    A ballot walk over the open-bond stack: vertex v closes any number of the
    open bond ends from the top of the stack and opens any number of new
    ones, except that vertex n-1 opens all the bonds still missing and
    vertex n closes every open end.  So every branch ends in a diagram, and
    no multidegree is tried that has none.
    """
    n, m = _cell(n, m)
    return _sorted_diagrams(n, _ballot_walk(n, _moves_by_bonds(n, m)))


def enumerate_valence_schemes(n: int, m: int) -> Iterator[ValenceScheme]:
    """All loop-free multigraphs with m edges on n vertices, each exactly once.

    Streams size-m multisets over the sorted list of possible edges, so the
    output order is canonical.
    """
    n, m = _cell(n, m)  # here, not in a generator: bad input raises at the call
    all_edges = [Edge(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    # each multiset of the sorted edges comes out sorted
    return (_scheme((n, c)) for c in combinations_with_replacement(all_edges, m))
