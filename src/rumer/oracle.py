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
from itertools import chain
from math import gcd
from operator import add
from typing import Iterable, Mapping, Sequence

from .brackets import BracketPolynomial, straighten
from .counting import rho_closed
from .diagrams import ValenceScheme, enumerate_rumer, enumerate_valence_schemes, is_rumer
from .sparse import SparseCombination, combine

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
    return combine(
        (tuple(map(add, e1, e2)), c1 * c2)
        for e1, c1 in left.items()
        for e2, c2 in right.items()
    )


class XPolynomial(SparseCombination):
    """Sparse integer polynomial in the 2n coordinate variables.

    Terms map exponent vectors of length 2n to nonzero integer coefficients.
    """

    __slots__ = ()

    def _check_key(self, evec: Iterable[int]) -> ExponentVector:
        evec = tuple(map(operator.index, evec))
        if len(evec) != 2 * self.n:
            raise ValueError(f"exponent vector {evec} is not of length {2 * self.n}")
        if any(x < 0 for x in evec):
            raise ValueError(f"negative exponent in {evec}")
        return evec

    @classmethod
    def constant(cls, n: int, value: int) -> "XPolynomial":
        return cls(n, {(0,) * (2 * n): value} if value else {})

    @classmethod
    def variable(cls, n: int, vertex: int, component: int) -> "XPolynomial":
        evec = [0] * (2 * n)
        evec[variable_index(vertex, component)] = 1
        return cls(n, {tuple(evec): 1})

    def _multiply(self, other: "XPolynomial") -> dict[ExponentVector, int]:
        return _mul_terms(self.terms, other.terms)

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

    def expanded(mono: ValenceScheme, coeff: int) -> dict[ExponentVector, int]:
        prod: dict[ExponentVector, int] = {(0,) * (2 * n): coeff}
        for i, j in mono.edges:
            prod = _mul_terms(prod, _bracket_factor_terms(n, i, j))
        return prod

    return XPolynomial._of(
        n,
        combine(
            item
            for mono, coeff in poly.terms.items()
            for item in expanded(mono, coeff).items()
        ),
    )


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
        x1, x2 = XPolynomial.variable(n, vertex, 1), XPolynomial.variable(n, vertex, 2)
        images.append((inv.a * x1 + inv.b * x2).terms)
        images.append((inv.c * x1 + inv.d * x2).terms)

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

    def image(evec: ExponentVector, coeff: int) -> dict[ExponentVector, int]:
        prod: dict[ExponentVector, int] = {(0,) * (2 * n): coeff}
        for var, exponent in enumerate(evec):
            if exponent:
                prod = _mul_terms(prod, image_power(var, exponent))
        return prod

    return XPolynomial._of(
        n,
        combine(item for evec, coeff in f.terms.items() for item in image(evec, coeff).items()),
    )


def _reduce_row(row: dict[ExponentVector, int]) -> dict[ExponentVector, int]:
    g = 0
    for c in row.values():
        g = gcd(g, c)
        if g == 1:
            return row
    if g > 1:
        return {k: c // g for k, c in row.items()}
    return row


def _insert(pivots: dict, terms: dict[ExponentVector, int]) -> None:
    """Insert a row, a term map left unmodified, into an echelon form keyed
    by each pivot's lead, its lexicographically smallest exponent vector;
    the rank is len(pivots).  While the lead has a pivot, both rows are
    scaled by the leading coefficients over their gcd and subtracted, and
    the row is divided by its content; a row that vanishes is dropped.  Any
    fixed total order gives the same exact rank."""
    row = _reduce_row(terms)
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return
        g = gcd(row[lead], pivot[lead])
        scale, factor = pivot[lead] // g, row[lead] // g
        row = _reduce_row(
            combine(
                chain(
                    ((k, c * scale) for k, c in row.items()),
                    ((k, -c * factor) for k, c in pivot.items()),
                )
            )
        )


def rank_of_span(polys: Sequence[XPolynomial]) -> int:
    """Exact rank of the span of the given polynomials; their order does not matter."""
    if len({p.n for p in polys}) > 1:
        raise ValueError("all polynomials must share the same vertex count")
    pivots: dict = {}
    for p in polys:
        _insert(pivots, p.terms)
    return len(pivots)


def verify_basis(n: int, m: int) -> dict:
    """Cross-check independence, spanning, and straightening at one (n, m).

    The report records the Rumer diagram count, the exact rank of their
    expansions, the rank of the expansions of all valence schemes, the
    closed-formula count, and a list of straightening violations (expansion
    mismatch, a crossing output term, or a changed multidegree).  All four
    numbers agreeing with an empty violation list is a pass; see basis_ok.
    """
    return _verify_basis(n, m, enumerate_rumer(n, m), enumerate_valence_schemes(n, m))


def _verify_basis(n: int, m: int, rumer: list, schemes: Iterable[ValenceScheme]) -> dict:
    """verify_basis of the cell (n, m), given its Rumer diagrams and its
    valence schemes, so that a caller that also needs the lists enumerates
    the cell once.

    Each Rumer diagram is expanded once, and that expansion serves as its
    scheme's row and as every straightened output's term.  The check still
    goes through coordinates: expand is linear, so the expansion of a
    straightened output is the sum of its coefficients times its terms'
    expansions, and a term that is not a Rumer diagram of the cell is
    expanded directly.  Both ranks come from one exact elimination: the
    Rumer rows go in first, so the rank after them is rumer_rank, and each
    other scheme's row follows as soon as it is expanded, so the final rank
    is full_rank.  A dependent row is dropped once it reduces to zero.
    """
    def monomial(scheme: ValenceScheme) -> BracketPolynomial:
        return BracketPolynomial._of(scheme.n, {scheme: 1})  # the scheme is checked already

    rumer_expansions = {diagram.scheme: expand(monomial(diagram.scheme)) for diagram in rumer}

    def expanded(mono: ValenceScheme) -> XPolynomial:
        cached = rumer_expansions.get(mono)
        return expand(monomial(mono)) if cached is None else cached

    pivots: dict = {}
    for expansion in rumer_expansions.values():
        _insert(pivots, expansion.terms)
    rumer_rank = len(pivots)
    failures: list[dict] = []
    for scheme in schemes:
        poly = monomial(scheme)
        expansion = expanded(scheme)
        if scheme not in rumer_expansions:
            _insert(pivots, expansion.terms)
        try:
            flat = straighten(poly)
        except Exception as exc:  # report, never crash the sweep
            failures.append({"scheme": scheme.to_text(), "reason": f"straighten raised: {exc}"})
            continue
        flat_expansion = combine(
            (evec, coeff * c)
            for mono, coeff in flat.terms.items()
            for evec, c in expanded(mono).terms.items()
        )
        if flat_expansion != expansion.terms:
            failures.append({"scheme": scheme.to_text(), "reason": "expansion mismatch"})
        degs = scheme.multidegree()
        for mono in flat.terms:
            if not is_rumer(mono):
                reason = "crossing term"
            elif mono.multidegree() != degs:
                reason = "multidegree changed in"
            else:
                continue
            term = BracketPolynomial.monomial(n, mono.edges)
            failures.append({"scheme": scheme.to_text(), "reason": f"{reason} {term}"})
    return {
        "n": n,
        "m": m,
        "rumer_count": len(rumer),
        "rumer_rank": rumer_rank,
        "full_rank": len(pivots),
        "rho": rho_closed(n, m),
        "straighten_failures": failures,
    }


def basis_ok(report: dict) -> bool:
    """True iff the verify_basis report shows a clean pass."""
    return (
        report["rumer_rank"] == report["rumer_count"] == report["rho"] == report["full_rank"]
        and not report["straighten_failures"]
    )
