"""Integer bracket polynomials and straightening.

A bracket p_ij stands for the 2x2 determinant of the coordinate columns of
vertices i and j; a bracket monomial is a product of brackets and is
identified with its valence scheme: a ValenceScheme is the monomial type, and
a BracketPolynomial maps schemes to coefficients.  The quadratic exchange rule

    p_ac p_bd = p_ab p_cd + p_ad p_bc        (a < b < c < d)

replaces a crossing pair of chords by the two non-crossing pairs on the same
four vertices.  Straightening is ordered by a weight (`_weight`): a chord
(i, j) on n vertices cuts the circle into arcs of j - i and n - j + i steps
and weighs their product, and a scheme weighs the sum over its chords.  With
arcs x = b - a, y = c - b, z = d - c and w = n - d + a, each at least 1, the
child (a,b)(c,d) weighs 2yw less than the pair (a,c)(b,d) and the child
(a,d)(b,c) 2xz less; no other chord changes.  So every exchange lowers the
weight by at least 2, and straightening ends whichever crossing pair is
rewritten.  The number of crossing pairs falls at each exchange too, but it
does not set the order: the weight is a sum over chords and needs no scan of
pairs of chords.  `straighten` takes monomials from the heaviest down and
rewrites each at its first crossing pair until every monomial is a Rumer
diagram.  A child's weight is read from four chords, the parent's weight less
the crossing pair's arc products plus the new pair's.  A child is scanned
from where its parent crossed: a chord before the pair (a,c)(b,d) crosses
neither of them, so it crosses none of the four exchange chords (a,b),
(c,d), (a,d), (b,c) either.  Each rewrite touches only four vertices and
preserves every vertex degree, so straightening is multidegree-preserving
term by term.  The basis check of `oracle` certifies the rule itself, one
exchange at a time: for each crossing scheme of a block, both children
(`_children`) weigh less by full sums (`_weight`) and are schemes of the
block, and their expansions sum to the scheme's.  It never reads
`straighten`'s output.
"""
from __future__ import annotations

import functools
import re
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from typing import Iterable, NamedTuple

from .counting import _vertices
from .diagrams import Edge, ValenceScheme, _edge, _scheme, edges_cross, first_crossing
from .sparse import SparseCombination, combine


class ParseError(ValueError):
    """Base class for bracket-polynomial text errors; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolynomialSyntaxError(ParseError):
    """Input does not conform to the bracket polynomial grammar."""


class VertexRangeError(ParseError):
    """A bracket index lies outside 1..n."""


class LoopBracketError(ParseError):
    """A bracket pairs a vertex with itself."""


class SignedBracket(NamedTuple):
    edge: Edge
    sign: int


def bracket(a: int, b: int) -> SignedBracket:
    """Normalize an ordered index pair: (a,b) with a > b flips to (b,a), sign -1."""
    if a == b:
        raise ValueError(f"bracket [{a},{b}] has equal columns and vanishes")
    if a < b:
        return SignedBracket(Edge(a, b), 1)
    return SignedBracket(Edge(b, a), -1)


def _monomial_text(edges: Iterable[Edge]) -> str:
    """A monomial's edges as bracket text: "[1,2][3,4]", or "1" with no edges."""
    return "".join(f"[{i},{j}]" for i, j in edges) or "1"


class BracketPolynomial(SparseCombination):
    """Integer-coefficient linear combination of bracket monomials.

    A monomial is the ValenceScheme whose edge multiset is its factor
    multiset.  Zero coefficients are never stored; two polynomials are equal
    iff their term maps are equal.
    """

    __slots__ = ()

    def _check_key(self, mono: ValenceScheme) -> ValenceScheme:
        if mono.n != self.n:
            raise ValueError(
                f"monomial {_monomial_text(mono.edges)} lives on {mono.n} vertices, not {self.n}"
            )
        return mono

    @classmethod
    def monomial(cls, n: int, factors: Iterable = (), coeff: int = 1) -> "BracketPolynomial":
        return cls(n, {ValenceScheme(n, tuple(factors)): coeff})

    def _multiply(self, other: "BracketPolynomial") -> dict[ValenceScheme, int]:
        n = self.n
        return combine(
            (ValenceScheme(n, m1.edges + m2.edges), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )

    def sorted_terms(self) -> list[tuple[ValenceScheme, int]]:
        """Terms in canonical order: by factor count, then factor list."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0].edges), t[0].edges))

    def to_text(self) -> str:
        """The polynomial as bracket text, terms in canonical order; each
        distinct chord's bracket text is formatted once per call."""
        if not self.terms:
            return "0"
        chord = functools.cache("[{0[0]},{0[1]}]".format)
        pieces = []
        for k, (mono, coeff) in enumerate(self.sorted_terms()):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            edges = mono[1]
            if not edges:
                body = str(mag)
            elif mag == 1:
                body = "".join(map(chord, edges))
            else:
                body = f"{mag}*" + "".join(map(chord, edges))
            if k == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"coeff": coeff, "factors": [list(e) for e in mono.edges]}
                for mono, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BracketPolynomial":
        n = data["n"]
        terms = [
            (ValenceScheme.from_json_dict({"n": n, "edges": t["factors"]}), t["coeff"])
            for t in data["terms"]
        ]
        return cls(n, terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"BracketPolynomial(n={self.n}, {self.to_text()!r})"


def _exchange(e1: Edge, e2: Edge) -> tuple[tuple[Edge, Edge], tuple[Edge, Edge]]:
    """The exchange rule on the four ends a < b < c < d of two crossing chords:
    the pairs (a,b)(c,d) and (a,d)(b,c), whose products sum to p_ac p_bd."""
    a, b, c, d = sorted((*e1, *e2))  # distinct ends of two checked edges
    return (_edge((a, b)), _edge((c, d))), (_edge((a, d)), _edge((b, c)))


def plucker_expand(e1: Edge, e2: Edge, n: int | None = None) -> BracketPolynomial:
    """Rewrite the product of two crossing brackets as the sum of the two
    non-crossing products on the same four vertices:

        p_ac p_bd  ->  p_ab p_cd + p_ad p_bc      (a < b < c < d)

    Raises ValueError when the edges do not cross: the rewrite does not apply.
    """
    e1, e2 = Edge(*e1), Edge(*e2)
    if not edges_cross(e1, e2):
        raise ValueError(f"edges {e1} and {e2} do not cross; nothing to rewrite")
    if n is None:
        n = max(e1[1], e2[1])
    return BracketPolynomial(n, {ValenceScheme(n, pair): 1 for pair in _exchange(e1, e2)})


def _weight(scheme: ValenceScheme) -> int:
    """The straightening order: each chord weighs the product of the two
    arcs it cuts the circle of n vertices into, and a scheme the sum."""
    n, edges = scheme
    return sum((j - i) * (n - j + i) for i, j in edges)


def _children(scheme: ValenceScheme, e: Edge, f: Edge) -> list[ValenceScheme]:
    """Exchange the crossing edges e and f of a scheme: the two children."""
    n, edges = scheme
    rest = list(edges)
    rest.remove(e)
    rest.remove(f)
    children = []
    for g, h in _exchange(e, f):
        child = rest.copy()
        insort(child, g)
        insort(child, h)
        children.append(_scheme((n, tuple(child))))
    return children


def _descent_error(scheme: ValenceScheme, e: Edge, f: Edge, j: int, k: int) -> RuntimeError:
    return RuntimeError(
        f"internal error: exchanging {e} and {f} in {_monomial_text(scheme.edges)} "
        f"leaves weight {j}, not less than {k}"
    )


def straighten(poly: BracketPolynomial, stats: dict | None = None) -> BracketPolynomial:
    """Rewrite a bracket polynomial into the non-crossing (Rumer) basis.

    The result is equal to the input as a polynomial function, every
    surviving monomial has a non-crossing scheme, and each output monomial
    carries the multidegree of the input monomial it descends from.  The
    map is linear and idempotent.

    Monomials wait in buckets keyed by weight (`_weight`) and are taken from
    the heaviest down, through a heap of the weights.  Both exchange children
    weigh less than their parent, by 2yw and 2xz for the arcs x, y, z, w that
    the module docstring names, so a monomial is complete, with every
    contribution merged into its coefficient, when its bucket is taken.  A
    monomial that `first_crossing` passes is then an output term; any other
    is rewritten once, at its first crossing pair.

    A child is scanned from where its parent crossed, not from its first
    chord.  Let the parent's first crossing pair be (a,c)(b,d) at positions
    i < j.  No chord before position i crosses any chord of the parent, so
    none crosses (a,c) or (b,d); such a chord has both ends on one arc
    between a, b, c and d, or shares an end with them, so it crosses none of
    the exchange chords (a,b), (c,d), (a,d), (b,c) either.  Those chords keep
    their places in the child ahead of the smaller new chord, which lands at
    some position p, so no chord of the child before min(i, p) crosses any
    chord, and its first crossing pair starts there or later.  That holds of
    every parent's start; a monomial keeps the smallest one.

    A child's weight is its parent's, less the two crossing chords' arc
    products, plus those of the two chords that `_exchange` returns, and its
    chords are the parent's with the pair's positions (found by bisection)
    cut out and the two new chords put in.

    The one runtime check is the descent: a child that does not weigh less
    is an error, which also stops an endless loop.  An output term is exactly
    a monomial that the scan passed, so a second scan could not fail; the
    tests, CI and bench/checks.py check outputs by scans of their own.

    When stats is a dict, the work is recorded in it: the rewrites, the
    heaviest input weight (0 for the zero polynomial), the most monomials
    that one bucket held when it was taken, and the terms in and out.  The
    counters are local integers, kept whether or not stats is given.
    """
    n = poly.n
    buckets: dict[int, dict[ValenceScheme, list[int]]] = {}
    for mono, coeff in poly.terms.items():
        buckets.setdefault(_weight(mono), {})[mono] = [coeff, 0]  # coefficient, start
    heaviest = max(buckets, default=0)
    heap = [-k for k in buckets]
    heapify(heap)
    out = {}
    rewrites = peak = 0
    while heap:
        k = -heappop(heap)
        taken = buckets.pop(k)
        peak = max(peak, len(taken))
        for mono, (coeff, start) in taken.items():
            pair = first_crossing(mono, start)
            if pair is None:
                out[mono] = coeff
                continue
            rewrites += 1
            e, f = pair
            edges = mono[1]
            i = bisect_left(edges, e)
            rest = list(edges)
            del rest[bisect_left(edges, f, i + 1)]
            del rest[i]
            # each chord (u, v) weighs (v - u) * (n - v + u), as in _weight
            kept = k - (e[1] - e[0]) * (n - e[1] + e[0]) - (f[1] - f[0]) * (n - f[1] + f[0])
            for g, h in _exchange(e, f):
                j = kept + (g[1] - g[0]) * (n - g[1] + g[0]) + (h[1] - h[0]) * (n - h[1] + h[0])
                if j >= k:
                    raise _descent_error(mono, e, f, j, k)
                chords = rest.copy()
                # min(i, the position of g), the smaller new chord; h sorts after g
                at = bisect_left(chords, g, 0, i)
                insort(chords, g, at)
                insort(chords, h, at)
                child = _scheme((n, tuple(chords)))
                bucket = buckets.get(j)
                if bucket is None:
                    bucket = buckets[j] = {}
                    heappush(heap, -j)
                entry = bucket.get(child)
                if entry is None:
                    bucket[child] = [coeff, at]
                elif entry[0] + coeff:
                    entry[0] += coeff
                    if at < entry[1]:
                        entry[1] = at
                else:
                    del bucket[child]
    if stats is not None:
        stats.update(rewrites=rewrites, heaviest_weight=heaviest, peak_bucket=peak,
                     terms_in=len(poly.terms), terms_out=len(out))
    return BracketPolynomial._of(n, out)


#: A number, a symbol of the grammar, or any other non-space character, which
#: is an error.  \d is exactly the digits that int() reads.
_TOKEN = re.compile(r"(\d+)|([][,+*-])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        number, symbol, other = match.groups()
        at = match.start()
        if other is not None:
            raise PolynomialSyntaxError(f"unexpected character {other!r}", at)
        tokens.append(("int", number, at) if number else (symbol, symbol, at))
    return tokens


#: A bracket after its "[": each token's kind and, when it is missing, what
#: the error expects.
_BRACKET = (("int", "a vertex index"), (",", "','"), ("int", "a vertex index"), ("]", "']'"))


def parse(text: str, n: int) -> BracketPolynomial:
    """Parse bracket polynomial text into canonical form.

    Grammar: polynomial := term (("+"|"-") term)* with an optional leading
    sign; term := [coeff "*"] bracket+; bracket := "[" int "," int "]".
    Whitespace is insignificant.  Reversed index pairs normalize with a sign
    flip, so "[3,1]" parses to -[1,3].  The grammar has no nesting, so the
    tokens are read in one pass, one term per loop, up to an end token.
    """
    n = _vertices(n)
    tokens = _tokenize(text)
    tokens.append(("end", "", len(text)))
    kind = tokens[0][0]
    pos = 1 if kind in ("+", "-") else 0
    sign = -1 if kind == "-" else 1
    terms: list[tuple[ValenceScheme, int]] = []
    while True:
        kind, value, at = tokens[pos]
        coeff = sign
        if kind == "int":
            coeff *= int(value)
            kind, _, at = tokens[pos + 1]
            if kind != "*":
                raise PolynomialSyntaxError("expected '*' after a coefficient", at)
            pos += 2
            kind, _, at = tokens[pos]
        if kind != "[":
            raise PolynomialSyntaxError("expected a bracket '[i,j]'", at)
        factors = []
        while kind == "[":
            ends = []
            # the end token matches no entry, so the table never outruns the tokens
            for (want, what), (kind, value, at) in zip(_BRACKET, tokens[pos + 1 : pos + 5]):
                if kind != want:
                    raise PolynomialSyntaxError(f"expected {what}", at)
                if kind == "int":
                    index = int(value)
                    if not 1 <= index <= n:
                        raise VertexRangeError(f"vertex index {index} outside 1..{n}", at)
                    ends.append((index, at))
            (a, at), (b, _) = ends
            if a == b:
                raise LoopBracketError(f"bracket [{a},{b}] pairs a vertex with itself", at)
            edge, flip = bracket(a, b)
            coeff *= flip
            factors.append(edge)
            pos += 5
            kind, _, at = tokens[pos]
        terms.append((ValenceScheme(n, tuple(factors)), coeff))
        if kind == "end":
            return BracketPolynomial(n, terms)
        if kind not in ("+", "-"):
            raise PolynomialSyntaxError("expected '+' or '-' between terms", at)
        sign = -1 if kind == "-" else 1
        pos += 1
