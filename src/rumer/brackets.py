"""Integer bracket polynomials and straightening.

A bracket p_ij stands for the 2x2 determinant of the coordinate columns of
vertices i and j; a bracket monomial is a product of brackets and is
identified with its valence scheme: a ValenceScheme is the monomial type, and
a BracketPolynomial maps schemes to coefficients.  The quadratic exchange rule

    p_ac p_bd = p_ab p_cd + p_ad p_bc        (a < b < c < d)

replaces a crossing pair of chords by the two non-crossing pairs on the same
four vertices.  Each exchange lowers the number of crossing pairs of bonds in
both of its terms: a third chord crosses the new pair at most as often as it
crossed the old pair, and the old pair's own crossing is gone.  So
straightening ends whichever crossing pair is rewritten; `straighten` takes
monomials in descending crossing count and rewrites each at its first
crossing pair until every monomial is a Rumer diagram.  Each rewrite touches
only four vertices and preserves every vertex degree, so straightening is
multidegree-preserving term by term.  So the schemes of one multidegree block
straighten together: `_normal_forms` takes them in ascending crossing count
and writes each crossing scheme's normal form as the sum of its two
children's, rewriting each scheme once.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .counting import _vertices
from .diagrams import Edge, ValenceScheme, _edge, _first_crossing, edges_cross, is_rumer
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
    """Edges as a bracket monomial: "[1,2][3,4]", or "1" with no edges."""
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


def _crossings(mono: ValenceScheme) -> int:
    """Number of crossing pairs of bonds, parallel copies counted."""
    mult = Counter(mono.edges)
    # the edges come sorted, so (a, b) before (c, d) has a <= c, and the two
    # cross exactly when a < c < b < d
    return sum(mult[e] * mult[f] for e, f in combinations(mult, 2) if e[0] < f[0] < e[1] < f[1])


def _crossed(chord: Edge, edges: list[Edge]) -> int:
    """How many of the edges cross the chord."""
    u, v = chord[0], chord[1]
    return len([r for r in edges if u < r[0] < v < r[1] or r[0] < u < r[1] < v])


Edges = tuple[Edge, ...]


def _rewrite(edges: Edges, k: int, e: Edge, f: Edge) -> list[tuple[Edges, int]]:
    """Exchange the crossing edges e and f of a sorted edge tuple with k
    crossing pairs: the two children, sorted, each with its crossing count
    derived from k as `straighten` describes."""
    rest = list(edges)
    rest.remove(e)
    rest.remove(f)
    # an edge crossing a chord on the four ends has an end strictly inside
    # the span of those ends, so the counts need only such edges of R
    lo, hi = min(e[0], f[0]), max(e[1], f[1])
    near = [r for r in rest if lo < r[0] < hi or lo < r[1] < hi]
    base = k - 1 - _crossed(e, near) - _crossed(f, near)
    children = []
    for g, h in _exchange(e, f):
        child = rest.copy()
        insort(child, g)
        insort(child, h)
        j = base + _crossed(g, near) + _crossed(h, near) + edges_cross(g, h)
        children.append((tuple(child), j))
    return children


def _descent_error(edges: Edges, e: Edge, f: Edge, j: int, k: int) -> RuntimeError:
    return RuntimeError(
        f"internal error: exchanging {e} and {f} in {_monomial_text(edges)} "
        f"leaves {j} crossings, not fewer than {k}"
    )


def straighten(poly: BracketPolynomial) -> BracketPolynomial:
    """Rewrite a bracket polynomial into the non-crossing (Rumer) basis.

    The result is equal to the input as a polynomial function, every
    surviving monomial has a non-crossing scheme, and each output monomial
    carries the multidegree of the input monomial it descends from.  The
    map is linear and idempotent.

    Monomials wait in buckets keyed by crossing count and are taken from the
    highest count down.  Both exchange children have fewer crossings than
    their parent, so a monomial is complete, with every contribution merged
    into its coefficient, when its bucket is taken, and it is rewritten once.

    n is fixed for one call, so the buckets are keyed by raw sorted edge
    tuples, and only the surviving terms become ValenceSchemes, unchecked
    since their edges are a rearrangement of checked input.  A monomial
    with k crossings is rewritten at its first crossing pair (e, f).  Let R
    be its edges less one copy each of e and f, and x(g) the number of
    edges of R that cross g; then k = cross(R) + x(e) + x(f) + 1.  A child
    is R with the exchanged pair g, h put back in order, and its count

        k - x(e) - x(f) - 1 + x(g) + x(h) + [g, h cross]

    takes O(|R|) steps instead of a recount of all pairs.  The last term is
    0 for a true exchange.  Both the descent and the non-crossing output
    are checked at runtime: a derived count that does not fall is an error,
    and every output term must pass `is_rumer`, which scans it on its own.
    """
    n = poly.n
    levels: list[dict[Edges, int]] = [{}]
    for mono, coeff in poly.terms.items():
        k = _crossings(mono)
        levels.extend({} for _ in range(k + 1 - len(levels)))
        levels[k][mono.edges] = coeff
    while len(levels) > 1:
        k = len(levels) - 1
        for edges, coeff in levels.pop().items():
            e, f = _first_crossing(edges)
            for child, j in _rewrite(edges, k, e, f):
                if j >= k:
                    raise _descent_error(edges, e, f, j, k)
                level = levels[j]
                new = level.get(child, 0) + coeff
                if new:
                    level[child] = new
                else:
                    del level[child]
    out = {ValenceScheme._trusted(n, edges): coeff for edges, coeff in levels[0].items()}
    for mono in out:
        if not is_rumer(mono):
            raise RuntimeError(
                f"internal error: straightened term {_monomial_text(mono.edges)} still crosses"
            )
    return BracketPolynomial._of(n, out)


def _normal_forms(
    schemes: Sequence[ValenceScheme],
) -> tuple[list[dict[Edges, int] | Exception], int]:
    """The straightened form of every scheme of one multidegree block, in
    input order, as a map from sorted edge tuples to coefficients, and the
    number of rewrites made.

    An exchange keeps every vertex degree and lowers the crossing count, so
    both children of a block's scheme are schemes of the block with fewer
    crossings.  A scheme that the `_first_crossing` scan passes is its own
    normal form; every entry is a sum of such schemes, so that scan is the
    non-crossing output guard.  The others are taken in ascending crossing
    count and each is rewritten once, as in `straighten`: its normal form is
    the sum of its two children's entries, already in the table.  A child
    count that does not fall, and a child that is not a scheme of the block,
    is an error of that scheme, and so of every scheme whose normal form
    would need its entry; it is returned in place of the form, never raised.
    """
    table: dict[Edges, dict[Edges, int] | Exception] = {}
    crossing = []
    for scheme in schemes:
        edges = scheme.edges
        pair = _first_crossing(edges)
        if pair is None:
            table[edges] = {edges: 1}
        else:
            crossing.append((_crossings(scheme), edges, pair))
    crossing.sort(key=itemgetter(0))
    for k, edges, (e, f) in crossing:
        forms = []
        for child, j in _rewrite(edges, k, e, f):
            form = table.get(child) if j < k else _descent_error(edges, e, f, j, k)
            if form is None:
                form = RuntimeError(
                    f"exchanging {e} and {f} in {_monomial_text(edges)} gives "
                    f"{_monomial_text(child)}, which is not a scheme of the block"
                )
            if isinstance(form, Exception):  # this scheme's failure, not the block's
                table[edges] = form
                break
            forms.append(form)
        else:
            table[edges] = combine(chain.from_iterable(form.items() for form in forms))
    return [table[scheme.edges] for scheme in schemes], len(crossing)


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
