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
diagram.  Each rewrite touches only four vertices and preserves every vertex
degree, so straightening is multidegree-preserving term by term.  The basis
check of `oracle` certifies the rule itself, one exchange at a time: for each
crossing scheme of a block, both children (`_children`) weigh less
(`_weight`) and are schemes of the block, and their expansions sum to the
scheme's.  It never reads `straighten`'s output.
"""
from __future__ import annotations

import re
from bisect import insort
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
        if not self.terms:
            return "0"
        pieces = []
        for k, (mono, coeff) in enumerate(self.sorted_terms()):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if not mono.edges:
                body = str(mag)
            elif mag == 1:
                body = _monomial_text(mono.edges)
            else:
                body = f"{mag}*{_monomial_text(mono.edges)}"
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


def straighten(poly: BracketPolynomial) -> BracketPolynomial:
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

    The one runtime check is the descent: a child that does not weigh less
    is an error, which also stops an endless loop.  An output term is exactly
    a monomial that the scan passed, so a second scan could not fail; the
    tests, CI and bench/checks.py check outputs by scans of their own.
    """
    buckets: dict[int, dict[ValenceScheme, int]] = {}
    for mono, coeff in poly.terms.items():
        buckets.setdefault(_weight(mono), {})[mono] = coeff
    heap = [-k for k in buckets]
    heapify(heap)
    out = {}
    while heap:
        k = -heappop(heap)
        for mono, coeff in buckets.pop(k).items():
            pair = first_crossing(mono)
            if pair is None:
                out[mono] = coeff
                continue
            e, f = pair
            for child in _children(mono, e, f):
                j = _weight(child)
                if j >= k:
                    raise _descent_error(mono, e, f, j, k)
                bucket = buckets.get(j)
                if bucket is None:
                    bucket = buckets[j] = {}
                    heappush(heap, -j)
                new = bucket.get(child, 0) + coeff
                if new:
                    bucket[child] = new
                else:
                    del bucket[child]
    return BracketPolynomial._of(poly.n, out)


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


def parse(text: str, n: int) -> BracketPolynomial:
    """Parse bracket polynomial text into canonical form.

    Grammar: polynomial := term (("+"|"-") term)* with an optional leading
    sign; term := [coeff "*"] bracket+; bracket := "[" int "," int "]".
    Whitespace is insignificant.  Reversed index pairs normalize with a sign
    flip, so "[3,1]" parses to -[1,3].
    """
    n = _vertices(n)
    tokens = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, str, int]:
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

    def take() -> tuple[str, str, int]:
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def expect(kind: str, what: str) -> tuple[str, str, int]:
        tok = take()
        if tok[0] != kind:
            raise PolynomialSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse_index() -> tuple[int, int]:
        tok = expect("int", "a vertex index")
        value = int(tok[1])
        if not 1 <= value <= n:
            raise VertexRangeError(f"vertex index {value} outside 1..{n}", tok[2])
        return value, tok[2]

    def parse_bracket() -> SignedBracket:
        expect("[", "'['")
        a, a_pos = parse_index()
        expect(",", "','")
        b, _ = parse_index()
        expect("]", "']'")
        if a == b:
            raise LoopBracketError(f"bracket [{a},{b}] pairs a vertex with itself", a_pos)
        return bracket(a, b)

    def parse_term(sign: int) -> tuple[ValenceScheme, int]:
        coeff = sign
        if peek()[0] == "int":
            tok = take()
            coeff *= int(tok[1])
            expect("*", "'*' after a coefficient")
        factors = []
        if peek()[0] != "[":
            raise PolynomialSyntaxError("expected a bracket '[i,j]'", peek()[2])
        while peek()[0] == "[":
            sb = parse_bracket()
            coeff *= sb.sign
            factors.append(sb.edge)
        return ValenceScheme(n, tuple(factors)), coeff

    terms: list[tuple[ValenceScheme, int]] = []
    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if take()[0] == "-" else 1
    terms.append(parse_term(sign))
    while peek()[0] != "end":
        tok = take()
        if tok[0] not in ("+", "-"):
            raise PolynomialSyntaxError("expected '+' or '-' between terms", tok[2])
        terms.append(parse_term(-1 if tok[0] == "-" else 1))
    return BracketPolynomial(n, terms)
