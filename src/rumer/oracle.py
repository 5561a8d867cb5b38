"""Independent ground truth by expansion into the 2n coordinate variables.

Every bracket is expanded into the polynomial ring over the coordinates
x1^(1), x2^(1), ..., x1^(n), x2^(n); equalities, group invariance, and span
dimensions are then decided by exact integer arithmetic.  Nothing in this
module is allowed to touch floating point: ranks are exact claims, and a
tolerance would hide rank deficiency.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Sequence, Union

from .brackets import BracketPolynomial, straighten
from .counting import rho_closed
from .diagrams import enumerate_rumer, enumerate_valence_schemes, is_rumer

ExponentVector = tuple[int, ...]


def variable_index(vertex: int, component: int) -> int:
    """Position of x_component^(vertex) in the exponent vector (both 1-based)."""
    if component not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {component}")
    if vertex < 1:
        raise ValueError(f"vertex must be positive, got {vertex}")
    return 2 * (vertex - 1) + (component - 1)


def _mul_terms(
    left: Mapping[ExponentVector, int], right: Mapping[ExponentVector, int]
) -> dict[ExponentVector, int]:
    out: dict[ExponentVector, int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            new = out.get(key, 0) + c1 * c2
            if new:
                out[key] = new
            else:
                del out[key]
    return out


class XPolynomial:
    """Sparse integer polynomial in the 2n coordinate variables.

    Terms map exponent vectors of length 2n to nonzero integer coefficients.
    """

    __slots__ = ("n", "terms")

    def __init__(
        self,
        n: int,
        terms: Union[Mapping[ExponentVector, int], Iterable[tuple[ExponentVector, int]]] = (),
    ):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: dict[ExponentVector, int] = {}
        for evec, coeff in items:
            evec = tuple(map(operator.index, evec))
            if len(evec) != 2 * n:
                raise ValueError(f"exponent vector {evec} is not of length {2 * n}")
            if any(x < 0 for x in evec):
                raise ValueError(f"negative exponent in {evec}")
            coeff = operator.index(coeff)
            if coeff:
                new = collected.get(evec, 0) + coeff
                if new:
                    collected[evec] = new
                elif evec in collected:
                    del collected[evec]
        self.n = n
        self.terms = collected

    @classmethod
    def zero(cls, n: int) -> "XPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: int) -> "XPolynomial":
        return cls(n, {(0,) * (2 * n): value} if value else {})

    @classmethod
    def variable(cls, n: int, vertex: int, component: int) -> "XPolynomial":
        evec = [0] * (2 * n)
        evec[variable_index(vertex, component)] = 1
        return cls(n, {tuple(evec): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XPolynomial) and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _require_same_n(self, other: "XPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"vertex counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "XPolynomial") -> "XPolynomial":
        self._require_same_n(other)
        out = dict(self.terms)
        for evec, coeff in other.terms.items():
            new = out.get(evec, 0) + coeff
            if new:
                out[evec] = new
            else:
                del out[evec]
        return XPolynomial(self.n, out)

    def __neg__(self) -> "XPolynomial":
        return XPolynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "XPolynomial") -> "XPolynomial":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "XPolynomial":
        scalar = operator.index(scalar)
        return XPolynomial(self.n, {e: scalar * c for e, c in self.terms.items()})

    def __mul__(self, other: Union[int, "XPolynomial"]) -> "XPolynomial":
        if not isinstance(other, XPolynomial):
            return self.__rmul__(other)
        self._require_same_n(other)
        return XPolynomial(self.n, _mul_terms(self.terms, other.terms))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        return f"XPolynomial(n={self.n}, {len(self.terms)} terms)"


def _bracket_factor_terms(n: int, i: int, j: int) -> dict[ExponentVector, int]:
    """x1^(i) x2^(j) - x2^(i) x1^(j) as a term map."""
    plus = [0] * (2 * n)
    plus[variable_index(i, 1)] += 1
    plus[variable_index(j, 2)] += 1
    minus = [0] * (2 * n)
    minus[variable_index(i, 2)] += 1
    minus[variable_index(j, 1)] += 1
    return {tuple(plus): 1, tuple(minus): -1}


def expand(poly: BracketPolynomial) -> XPolynomial:
    """Replace every bracket by its determinant and expand the products.

    An m-factor monomial expands to a homogeneous polynomial of degree 2m;
    the empty monomial expands to the constant 1.
    """
    n = poly.n
    total: dict[ExponentVector, int] = {}
    for mono, coeff in poly.terms.items():
        prod: dict[ExponentVector, int] = {(0,) * (2 * n): coeff}
        for e in mono.factors:
            prod = _mul_terms(prod, _bracket_factor_terms(n, e.i, e.j))
        for evec, c in prod.items():
            new = total.get(evec, 0) + c
            if new:
                total[evec] = new
            else:
                del total[evec]
    return XPolynomial(n, total)


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix with determinant exactly 1, rows (a b; c d).

    Restricting to integer unimodular matrices keeps the inverse integral and
    every acted-on polynomial integer-coefficient, so the oracle stays exact.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"matrix (({self.a},{self.b}),({self.c},{self.d})) has determinant "
                f"{self.a * self.d - self.b * self.c}, not 1"
            )

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


#: The two shear generators of the integer unimodular group.
GENERATORS = (UnimodularMatrix(1, 1, 0, 1), UnimodularMatrix(1, 0, 1, 1))


def act(sigma: UnimodularMatrix, f: XPolynomial) -> XPolynomial:
    """Coordinate change: substitute every vertex's coordinate pair by the
    inverse matrix applied to it, then expand.  Degree-preserving."""
    inv = sigma.inverse()
    n = f.n
    images: list[dict[ExponentVector, int]] = []
    for vertex in range(1, n + 1):
        x1 = [0] * (2 * n)
        x1[variable_index(vertex, 1)] = 1
        x2 = [0] * (2 * n)
        x2[variable_index(vertex, 2)] = 1
        first = {}
        if inv.a:
            first[tuple(x1)] = inv.a
        if inv.b:
            first[tuple(x2)] = inv.b
        second = {}
        if inv.c:
            second[tuple(x1)] = inv.c
        if inv.d:
            second[tuple(x2)] = inv.d
        images.append(first)
        images.append(second)

    power_cache: dict[tuple[int, int], dict[ExponentVector, int]] = {}

    def image_power(var: int, exponent: int) -> dict[ExponentVector, int]:
        key = (var, exponent)
        cached = power_cache.get(key)
        if cached is None:
            cached = {(0,) * (2 * n): 1}
            for _ in range(exponent):
                cached = _mul_terms(cached, images[var])
            power_cache[key] = cached
        return cached

    total: dict[ExponentVector, int] = {}
    for evec, coeff in f.terms.items():
        prod: dict[ExponentVector, int] = {(0,) * (2 * n): coeff}
        for var, exponent in enumerate(evec):
            if exponent:
                prod = _mul_terms(prod, image_power(var, exponent))
        for key, c in prod.items():
            new = total.get(key, 0) + c
            if new:
                total[key] = new
            else:
                del total[key]
    return XPolynomial(n, total)


def _graded_lex(evec: ExponentVector) -> tuple:
    return (sum(evec), evec)


def _reduce_row(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for c in row.values():
        g = gcd(g, c)
        if g == 1:
            return row
    if g > 1:
        return {k: c // g for k, c in row.items()}
    return row


def rank_of_span(polys: Sequence[XPolynomial]) -> int:
    """Exact rank of the span of the given polynomials.

    The distinct exponent vectors are sorted once in graded lexicographic
    order and numbered, so a row is a sparse map from column index to integer
    coefficient and its leading column is its smallest key.  Rows are
    inserted one by one into an echelon form keyed by leading column: while
    an incoming row's lead already has a pivot, both are scaled by the
    leading coefficients over their gcd and subtracted, then the row is
    divided by its content.  A row that vanishes is dependent; otherwise it
    becomes a new pivot, and the rank is the number of pivots.  All
    arithmetic is exact integer arithmetic, and the result does not depend
    on the input order.
    """
    polys = list(polys)
    if not polys:
        return 0
    n = polys[0].n
    for p in polys:
        if p.n != n:
            raise ValueError("all polynomials must share the same vertex count")
    columns = sorted({e for p in polys for e in p.terms}, key=_graded_lex)
    index = {e: k for k, e in enumerate(columns)}
    pivots: dict[int, dict[int, int]] = {}
    for p in polys:
        row = _reduce_row({index[e]: c for e, c in p.terms.items()})
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            g = gcd(row[lead], pivot[lead])
            scale, factor = pivot[lead] // g, row[lead] // g
            combined = {k: c * scale for k, c in row.items()}
            for k, c in pivot.items():
                new = combined.get(k, 0) - c * factor
                if new:
                    combined[k] = new
                else:
                    del combined[k]
            row = _reduce_row(combined)
    return len(pivots)


def verify_basis(n: int, m: int, fuel: int | None = None) -> dict:
    """Cross-check independence, spanning, and straightening at one (n, m).

    The report records the Rumer diagram count, the exact rank of their
    expansions, the rank of the expansions of all valence schemes, the
    closed-formula count, and a list of straightening violations (expansion
    mismatch, a crossing output term, or a changed multidegree).  All four
    numbers agreeing with an empty violation list is a pass; see basis_ok.
    """
    rumer = enumerate_rumer(n, m)
    rumer_expansions = [
        expand(BracketPolynomial.monomial(n, diagram.edges)) for diagram in rumer
    ]
    failures: list[dict] = []
    all_expansions = []
    for scheme in enumerate_valence_schemes(n, m):
        poly = BracketPolynomial.monomial(n, scheme.edges)
        expansion = expand(poly)
        all_expansions.append(expansion)
        try:
            flat = straighten(poly, fuel=fuel)
        except Exception as exc:  # report, never crash the sweep
            failures.append({"scheme": scheme.to_text(), "reason": f"straighten raised: {exc}"})
            continue
        if expand(flat) != expansion:
            failures.append({"scheme": scheme.to_text(), "reason": "expansion mismatch"})
        degs = scheme.multidegree()
        for mono in flat.terms:
            if not is_rumer(mono.scheme()):
                failures.append(
                    {"scheme": scheme.to_text(), "reason": f"crossing term {mono}"}
                )
            elif mono.scheme().multidegree() != degs:
                failures.append(
                    {"scheme": scheme.to_text(), "reason": f"multidegree changed in {mono}"}
                )
    return {
        "n": n,
        "m": m,
        "rumer_count": len(rumer),
        "rumer_rank": rank_of_span(rumer_expansions),
        "full_rank": rank_of_span(all_expansions),
        "rho": rho_closed(n, m),
        "straighten_failures": failures,
    }


def basis_ok(report: dict) -> bool:
    """True iff the verify_basis report shows a clean pass."""
    return (
        report["rumer_rank"] == report["rumer_count"] == report["rho"] == report["full_rank"]
        and not report["straighten_failures"]
    )
