"""Bracket monomials, integer bracket polynomials, and straightening.

A bracket p_ij stands for the 2x2 determinant of the coordinate columns of
vertices i and j; a bracket monomial is a product of brackets and is
identified with its valence scheme.  The quadratic exchange rule

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
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Union

from .diagrams import (
    Edge,
    ValenceScheme,
    arc_vertices,
    edges_cross,
    is_rumer,
)

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


@dataclass(frozen=True)
class BracketMonomial:
    """Product of brackets p_ij with i < j, kept as a sorted factor multiset.

    The valence scheme of the monomial is exactly this multiset.
    """

    n: int
    factors: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        factors = []
        for f in self.factors:
            if not isinstance(f, Edge):
                f = Edge(*f)
            if f.j > self.n:
                raise ValueError(f"factor {f} does not fit on {self.n} vertices")
            factors.append(f)
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    def degree(self) -> int:
        return len(self.factors)

    def scheme(self) -> ValenceScheme:
        return ValenceScheme(self.n, self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "".join(f"[{e.i},{e.j}]" for e in self.factors)


def monomial_scheme(monomial: BracketMonomial) -> ValenceScheme:
    """The valence scheme whose edge multiset is the factor multiset."""
    return monomial.scheme()


class BracketPolynomial:
    """Integer-coefficient linear combination of bracket monomials.

    Zero coefficients are never stored; two polynomials are equal iff their
    term maps are equal.
    """

    __slots__ = ("n", "terms")

    def __init__(
        self,
        n: int,
        terms: Union[Mapping[BracketMonomial, int], Iterable[tuple[BracketMonomial, int]]] = (),
    ):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: dict[BracketMonomial, int] = {}
        for mono, coeff in items:
            if mono.n != n:
                raise ValueError(f"monomial {mono} lives on {mono.n} vertices, not {n}")
            coeff = operator.index(coeff)
            if coeff:
                new = collected.get(mono, 0) + coeff
                if new:
                    collected[mono] = new
                elif mono in collected:
                    del collected[mono]
        self.n = n
        self.terms = collected

    @classmethod
    def zero(cls, n: int) -> "BracketPolynomial":
        return cls(n)

    @classmethod
    def monomial(cls, n: int, factors: Iterable = (), coeff: int = 1) -> "BracketPolynomial":
        return cls(n, {BracketMonomial(n, tuple(factors)): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BracketPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _require_same_n(self, other: "BracketPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"vertex counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "BracketPolynomial") -> "BracketPolynomial":
        self._require_same_n(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return BracketPolynomial(self.n, out)

    def __neg__(self) -> "BracketPolynomial":
        return BracketPolynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "BracketPolynomial") -> "BracketPolynomial":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "BracketPolynomial":
        scalar = operator.index(scalar)
        return BracketPolynomial(self.n, {m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other: Union[int, "BracketPolynomial"]) -> "BracketPolynomial":
        if not isinstance(other, BracketPolynomial):
            return self.__rmul__(other)
        self._require_same_n(other)
        out: dict[BracketMonomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = BracketMonomial(self.n, m1.factors + m2.factors)
                new = out.get(prod, 0) + c1 * c2
                if new:
                    out[prod] = new
                else:
                    out.pop(prod, None)
        return BracketPolynomial(self.n, out)

    def sorted_terms(self) -> list[tuple[BracketMonomial, int]]:
        """Terms in canonical order: by factor count, then factor list."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0].factors), t[0].factors))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for k, (mono, coeff) in enumerate(self.sorted_terms()):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if not mono.factors:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            if k == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"coeff": coeff, "factors": [[e.i, e.j] for e in mono.factors]}
                for mono, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BracketPolynomial":
        n = operator.index(data["n"])
        terms = []
        for t in data["terms"]:
            edges = (Edge(operator.index(i), operator.index(j)) for i, j in t["factors"])
            mono = BracketMonomial(n, tuple(edges))
            terms.append((mono, t["coeff"]))
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
    a, b, c, d = sorted((e1.i, e1.j, e2.i, e2.j))
    if n is None:
        n = d
    return BracketPolynomial(
        n,
        {
            BracketMonomial(n, (Edge(a, b), Edge(c, d))): 1,
            BracketMonomial(n, (Edge(a, d), Edge(b, c))): 1,
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


def _without_one(factors: tuple[Edge, ...], e: Edge) -> tuple[Edge, ...]:
    out = list(factors)
    out.remove(e)
    return tuple(out)


def _min_arc_target(scheme: ValenceScheme) -> tuple[int, Edge, int | None]:
    """Locate the globally minimal arc and the rewrite pivot.

    Returns (g, e, k): g is the minimal arc length over all arcs of all
    edges, e the lexicographically smallest edge achieving it, and k the
    smallest non-isolated vertex inside one of e's minimal arcs (None when
    g == 1, in which case e is split off instead of rewritten).
    """
    degs = scheme.multidegree()
    best_g: int | None = None
    best_e: Edge | None = None
    for e in sorted(set(scheme.edges)):
        for arc in arc_vertices(scheme.n, e):
            g = sum(1 for v in arc if degs[v - 1] > 0) + 1
            if best_g is None or g < best_g:
                best_g, best_e = g, e
    assert best_g is not None and best_e is not None
    if best_g == 1:
        return best_g, best_e, None
    candidates = []
    for arc in arc_vertices(scheme.n, best_e):
        interior = [v for v in arc if degs[v - 1] > 0]
        if len(interior) + 1 == best_g:
            candidates.extend(interior)
    return best_g, best_e, min(candidates)


def _straighten_monomial(mono: BracketMonomial, fuel: _Fuel) -> dict[BracketMonomial, int]:
    n = mono.n
    if not mono.factors:
        return {mono: 1}
    scheme = mono.scheme()
    if is_rumer(scheme):
        return {mono: 1}
    g, e, k = _min_arc_target(scheme)
    if g == 1:
        # e's minimal arc contains no bond end, so nothing in the rest of the
        # monomial can ever cross e; straighten the rest and reattach.
        rest = BracketMonomial(n, _without_one(mono.factors, e))
        return {
            BracketMonomial(n, sub.factors + (e,)): coeff
            for sub, coeff in _straighten_monomial(rest, fuel).items()
        }
    f = min(edge for edge in set(mono.factors) if edge.touches(k))
    if not edges_cross(e, f):
        raise RuntimeError(
            f"internal error: bond {f} through {k} should cross minimal-arc edge {e}"
        )
    fuel.spend()
    rest = _without_one(_without_one(mono.factors, e), f)
    a, b, c, d = sorted((e.i, e.j, f.i, f.j))
    out: dict[BracketMonomial, int] = {}
    for pair in ((Edge(a, b), Edge(c, d)), (Edge(a, d), Edge(b, c))):
        replacement = BracketMonomial(n, rest + pair)
        for sub, coeff in _straighten_monomial(replacement, fuel).items():
            new = out.get(sub, 0) + coeff
            if new:
                out[sub] = new
            else:
                del out[sub]
    return out


def straighten(poly: BracketPolynomial, fuel: int | None = None) -> BracketPolynomial:
    """Rewrite a bracket polynomial into the non-crossing (Rumer) basis.

    The result is equal to the input as a polynomial function, every
    surviving monomial has a non-crossing scheme, and each output monomial
    carries the multidegree of the input monomial it descends from.  The
    map is linear and idempotent.  Every final term is checked against
    is_rumer at runtime rather than trusting the reattachment argument.
    """
    budget = _Fuel(DEFAULT_FUEL if fuel is None else fuel)
    out: dict[BracketMonomial, int] = {}
    for mono, coeff in poly.terms.items():
        for rmono, rcoeff in _straighten_monomial(mono, budget).items():
            new = out.get(rmono, 0) + coeff * rcoeff
            if new:
                out[rmono] = new
            else:
                del out[rmono]
    result = BracketPolynomial(poly.n, out)
    for mono in result.terms:
        if not is_rumer(mono.scheme()):
            raise RuntimeError(f"internal error: straightened term {mono} still crosses")
    return result


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

    def parse_term(sign: int) -> tuple[BracketMonomial, int]:
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
        return BracketMonomial(n, tuple(factors)), coeff

    terms: list[tuple[BracketMonomial, int]] = []
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
