"""Integer bracket polynomials and straightening.

A bracket p_ij stands for the 2x2 determinant of the coordinate columns of
vertices i and j; a bracket monomial is a product of brackets and is
identified with its valence scheme: a ValenceScheme is the monomial type, and
a BracketPolynomial maps schemes to coefficients.  The quadratic exchange rule

    p_ac p_bd = p_ab p_cd + p_ad p_bc        (a < b < c < d)

replaces a crossing pair of chords by the two non-crossing pairs on the same
four vertices.  `straighten` applies it until every monomial is a Rumer
diagram, following the minimal-arc strategy: an edge whose arc contains no
other bond ends is split off and reattached afterwards, otherwise the bond
through the innermost vertex of a minimal arc necessarily crosses it and the
exchange rule applies.  Each rewrite touches only four vertices and preserves
every vertex degree, so straightening is multidegree-preserving term by term.
"""
from __future__ import annotations

import operator
from typing import Iterable, NamedTuple

from .diagrams import Edge, ValenceScheme, edges_cross, is_rumer, occupied_arcs
from .sparse import SparseCombination, combine

#: Rewrite budget guarding the straightening recursion.  Exhaustion raises
#: FuelExhaustedError; the result is never silently truncated.
DEFAULT_FUEL = 10**6


class FuelExhaustedError(RuntimeError):
    """Straightening exceeded its rewrite budget; this signals an internal bug,
    not a property of the input."""


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


def _monomial_text(mono: ValenceScheme) -> str:
    """A scheme as a bracket monomial: "[1,2][3,4]", or "1" with no edges."""
    return "".join(f"[{i},{j}]" for i, j in mono.edges) or "1"


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
                f"monomial {_monomial_text(mono)} lives on {mono.n} vertices, not {self.n}"
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
                body = _monomial_text(mono)
            else:
                body = f"{mag}*{_monomial_text(mono)}"
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
        n = operator.index(data["n"])
        terms = []
        for t in data["terms"]:
            edges = (Edge(operator.index(i), operator.index(j)) for i, j in t["factors"])
            terms.append((ValenceScheme(n, tuple(edges)), t["coeff"]))
        return cls(n, terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"BracketPolynomial(n={self.n}, {self.to_text()!r})"


def plucker_expand(e1: Edge, e2: Edge, n: int | None = None) -> BracketPolynomial:
    """Rewrite the product of two crossing brackets as the sum of the two
    non-crossing products on the same four vertices:

        p_ac p_bd  ->  p_ab p_cd + p_ad p_bc      (a < b < c < d)

    Raises ValueError when the edges do not cross: the rewrite does not apply.
    """
    if not edges_cross(e1, e2):
        raise ValueError(f"edges {e1} and {e2} do not cross; nothing to rewrite")
    a, b, c, d = sorted((*e1, *e2))
    if n is None:
        n = d
    return BracketPolynomial(
        n,
        {
            ValenceScheme(n, (Edge(a, b), Edge(c, d))): 1,
            ValenceScheme(n, (Edge(a, d), Edge(b, c))): 1,
        },
    )


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def spend(self) -> None:
        if self.left <= 0:
            raise FuelExhaustedError(
                "rewrite budget exhausted; straightening should terminate long "
                "before this, so the tie-breaking logic is suspect"
            )
        self.left -= 1


def _without_one(edges: tuple[Edge, ...], e: Edge) -> tuple[Edge, ...]:
    out = list(edges)
    out.remove(e)
    return tuple(out)


def _min_arc_target(scheme: ValenceScheme) -> tuple[int, Edge, int | None]:
    """Locate the globally minimal arc and the rewrite pivot.

    Returns (g, e, k): g is the minimal arc length over all arcs of all
    edges, e the lexicographically smallest edge achieving it, and k the
    smallest non-isolated vertex inside one of e's minimal arcs (None when
    g == 1, in which case e is split off instead of rewritten).
    """
    n, degs = scheme.n, scheme.multidegree()
    best: tuple[int, Edge] | None = None
    for e in sorted(set(scheme.edges)):
        for interior in occupied_arcs(n, degs, e):
            if best is None or len(interior) < best[0]:
                best = len(interior), e
    assert best is not None
    size, e = best
    if size == 0:
        return 1, e, None
    pivots = [v for arc in occupied_arcs(n, degs, e) if len(arc) == size for v in arc]
    return size + 1, e, min(pivots)


def _straighten_monomial(mono: ValenceScheme, fuel: _Fuel) -> dict[ValenceScheme, int]:
    n = mono.n
    split_off: tuple[Edge, ...] = ()
    while mono.edges and not is_rumer(mono):
        g, e, k = _min_arc_target(mono)
        if g == 1:
            # e's minimal arc contains no bond end, so nothing in the rest of
            # the monomial can ever cross e or a parallel copy of it; split
            # them all off here and reattach them to every output term.
            rest = tuple(f for f in mono.edges if f != e)
            split_off += (e,) * (len(mono.edges) - len(rest))
            mono = ValenceScheme(n, rest)
            continue
        f = min(edge for edge in set(mono.edges) if edge.touches(k))
        if not edges_cross(e, f):
            raise RuntimeError(
                f"internal error: bond {f} through {k} should cross minimal-arc edge {e}"
            )
        fuel.spend()
        rest = _without_one(_without_one(mono.edges, e), f)
        a, b, c, d = sorted((*e, *f))
        out = combine(
            term
            for pair in ((Edge(a, b), Edge(c, d)), (Edge(a, d), Edge(b, c)))
            for term in _straighten_monomial(ValenceScheme(n, rest + pair), fuel).items()
        )
        break
    else:
        out = {mono: 1}
    if not split_off:
        return out
    return {ValenceScheme(n, sub.edges + split_off): coeff for sub, coeff in out.items()}


def straighten(poly: BracketPolynomial, fuel: int | None = None) -> BracketPolynomial:
    """Rewrite a bracket polynomial into the non-crossing (Rumer) basis.

    The result is equal to the input as a polynomial function, every
    surviving monomial has a non-crossing scheme, and each output monomial
    carries the multidegree of the input monomial it descends from.  The
    map is linear and idempotent.  Every final term is checked against
    is_rumer at runtime rather than trusting the reattachment argument.
    """
    budget = _Fuel(DEFAULT_FUEL if fuel is None else fuel)
    out = combine(
        (rmono, coeff * rcoeff)
        for mono, coeff in poly.terms.items()
        for rmono, rcoeff in _straighten_monomial(mono, budget).items()
    )
    for mono in out:
        if not is_rumer(mono):
            raise RuntimeError(
                f"internal error: straightened term {_monomial_text(mono)} still crosses"
            )
    return BracketPolynomial._of(poly.n, out)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, length = 0, len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < length and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in "[],+-*":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def parse(text: str, n: int) -> BracketPolynomial:
    """Parse bracket polynomial text into canonical form.

    Grammar: polynomial := term (("+"|"-") term)* with an optional leading
    sign; term := [coeff "*"] bracket+; bracket := "[" int "," int "]".
    Whitespace is insignificant.  Reversed index pairs normalize with a sign
    flip, so "[3,1]" parses to -[1,3].
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
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
