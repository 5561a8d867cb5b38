"""Independent ground truth by expansion into the 2n coordinate variables.

Every bracket is expanded into the polynomial ring over the coordinates
x1^(1), x2^(1), ..., x1^(n), x2^(n); equalities, group invariance, and span
dimensions are then decided by exact integer arithmetic.  The basis check
works one multidegree block at a time, where the x2 coordinates and x1^(n)
can be set to 1 without losing information, and each row is one integer.
Nothing in this module is allowed to touch floating point: ranks are exact
claims, and a tolerance would hide rank deficiency.  `rumer verify` checks
each cell here: the counting routes, the basis check and the merge
bijection, timed into one stats record.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import gcd, prod
from operator import add, itemgetter
from time import perf_counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .brackets import BracketPolynomial, _children, _monomial_text, _weight
from .bijection import _verify_psi_bijection
from .counting import rho_closed, rho_product, rho_sum_over_compositions
from .diagrams import (
    Multidegree,
    RumerDiagram,
    ValenceScheme,
    enumerate_rumer,
    enumerate_valence_schemes,
    first_crossing,
)
from .sparse import SparseCombination, combine

ExponentVector = tuple[int, ...]
#: The _expansions code of each vertex's x1 or x2 variable, by vertex.
Codes = Sequence[int] | Mapping[int, int]
Row = TypeVar("Row")


def variable_index(vertex: int, component: int) -> int:
    """Position of x_component^(vertex) in the exponent vector (both 1-based)."""
    if component not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {component}")
    if vertex < 1:
        raise ValueError(f"vertex must be positive, got {vertex}")
    return 2 * (vertex - 1) + (component - 1)


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
        return combine(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )

    def __repr__(self) -> str:
        return f"XPolynomial(n={self.n}, {len(self.terms)} terms)"


def _times_bracket(terms: dict[int, int], plus: int, minus: int) -> dict[int, int]:
    """A term map over integer-coded monomials times the binomial x^plus - x^minus."""
    out = {key + plus: c for key, c in terms.items()}
    get = out.get
    for key, c in terms.items():
        key += minus
        new = get(key, 0) - c
        if new:
            out[key] = new
        else:
            del out[key]
    return out


def _products(
    edge_lists: Iterable[Sequence[tuple[int, int]]],
    one: Row,
    times: Callable[[Row, int, int], Row],
) -> Iterator[Row]:
    """The product of each edge list's brackets, in turn: one is the empty
    product, and times(row, i, j) is row times the bracket [i,j].  The
    products of the current list's prefixes stay on a stack, so a list that
    shares its first k edges with the one before costs one bracket product
    per edge after those k; sorted lists share long prefixes.  A yielded
    product may also serve as a later prefix and must not be modified."""
    stack = [one]
    previous: Sequence[tuple[int, int]] = ()
    for edges in edge_lists:
        k, limit = 0, min(len(edges), len(stack) - 1)
        while k < limit and edges[k] == previous[k]:
            k += 1
        del stack[k + 1 :]
        for i, j in edges[k:]:
            stack.append(times(stack[-1], i, j))
        previous = edges
        yield stack[-1]


def _expansions(
    edge_lists: Iterable[Sequence[tuple[int, int]]], x1: Codes, x2: Codes
) -> Iterator[dict[int, int]]:
    """The expansion of each edge list's bracket product, in turn, as a term
    map (_products).

    A monomial is coded as one integer, the sum of its variables' codes:
    x1[v] and x2[v] code x1^(v) and x2^(v), and a code of 0 sets that
    variable to 1.  Each bracket [i,j] is x1^(i) x2^(j) - x2^(i) x1^(j).
    """
    return _products(
        edge_lists,
        {0: 1},
        lambda terms, i, j: _times_bracket(terms, x1[i] + x2[j], x2[i] + x1[j]),
    )


def _summed(terms: Mapping[ValenceScheme, int], x1: Codes, x2: Codes) -> dict[int, int]:
    """The coded expansion of a term map, a sum of coefficients times bracket
    monomials: _expansions' map of each monomial, in sorted order so that
    neighbours share prefixes, times its coefficient, summed."""
    items = sorted(terms.items())
    return combine(
        (key, coeff * c)
        for (_, coeff), row in zip(items, _expansions((mono.edges for mono, _ in items), x1, x2))
        for key, c in row.items()
    )


def _codes(terms: Mapping[ValenceScheme, int]) -> tuple[int, dict, dict]:
    """The bits of one digit and the _expansions codes, keyed by vertex, of
    only the vertices the term map uses.  Each, in increasing order, takes
    the next two digits from the top, for x1 and then x2, so integer order
    is the lexicographic order of exponent vectors.  No exponent exceeds its
    monomial's factor count, so digits as wide as the largest count never
    carry and the code is one-to-one."""
    used = sorted({v for mono in terms for e in mono.edges for v in e})
    width = max((len(mono.edges) for mono in terms), default=0).bit_length() or 1
    top = 2 * len(used)
    x1 = {v: 1 << width * (top - 1 - 2 * k) for k, v in enumerate(used)}
    x2 = {v: 1 << width * (top - 2 - 2 * k) for k, v in enumerate(used)}
    return width, x1, x2


def expand(poly: BracketPolynomial) -> XPolynomial:
    """Replace every bracket by its determinant and expand the products.

    An m-factor monomial expands to a homogeneous polynomial of degree 2m;
    the empty monomial expands to the constant 1.
    """
    n = poly.n
    width, x1, x2 = _codes(poly.terms)
    # the low bit of each coded variable's digit, by its place in the vector
    shift = {variable_index(v, 1): code.bit_length() - 1 for v, code in x1.items()}
    shift.update((variable_index(v, 2), code.bit_length() - 1) for v, code in x2.items())
    mask = (1 << width) - 1
    summed = _summed(poly.terms, x1, x2)
    return XPolynomial._of(n, {
        tuple(key >> shift[p] & mask if p in shift else 0 for p in range(2 * n)): c
        for key, c in summed.items()
    })


def _same_expansion(left: Mapping, right: Mapping) -> bool:
    """Whether two term maps, sums of bracket monomials, expand to the same
    polynomial: whether their difference expands to zero, since expansion is
    linear.  Monomials on both sides with equal coefficients cancel before
    any expansion, and only the vertices the difference uses get codes, so
    the cost follows the terms that differ, not n."""
    difference = combine(chain(left.items(), ((mono, -c) for mono, c in right.items())))
    if not difference:
        return True
    _, x1, x2 = _codes(difference)
    return not _summed(difference, x1, x2)


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
    images = []
    for vertex in range(1, n + 1):
        x1, x2 = XPolynomial.variable(n, vertex, 1), XPolynomial.variable(n, vertex, 2)
        images += (inv.a * x1 + inv.b * x2, inv.c * x1 + inv.d * x2)
    one = XPolynomial.constant(n, 1)

    @cache
    def power(var: int, exponent: int) -> XPolynomial:
        out = one
        for _ in range(exponent):  # a loop: an exponent may exceed the recursion limit
            out *= images[var]
        return out

    terms = (
        coeff * prod((power(var, e) for var, e in enumerate(evec) if e), start=one)
        for evec, coeff in f.terms.items()
    )
    return XPolynomial._of(n, combine(item for term in terms for item in term.terms.items()))


def _reduce_row(row: dict[ExponentVector, int]) -> dict[ExponentVector, int]:
    g = gcd(*row.values())
    return {k: c // g for k, c in row.items()} if g > 1 else row


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
    closed-formula count, and a list of failures of the exchange rule that
    straightens each crossing scheme: an exchange child that does not weigh
    less than its scheme, one that is not a scheme of the block, or an
    expansion mismatch, the scheme's row not the sum of its children's.  All
    four numbers agreeing with an empty failure list is a pass; see
    basis_ok.
    """
    blocks = _multidegree_blocks(enumerate_rumer(n, m), enumerate_valence_schemes(n, m))
    return _verify_basis(n, m, blocks, _new_stats())


def _verify_basis(n: int, m: int, blocks: Mapping, stats: dict, merge=None) -> dict:
    """verify_basis of the cell (n, m), given its Rumer diagrams and its
    valence schemes grouped by multidegree (_multidegree_blocks): each block
    is scanned once, each scheme's first crossing pair or None by
    first_crossing, and checked in sorted order (_check_block), its work
    added to stats (_new_stats).  Given merge, each block and its scan are
    then handed to merge(d, diagrams, schemes, pairs), so that the scan
    serves the merge check too.  Blocks have disjoint monomials, so the
    cell's ranks are the sums of its blocks' ranks.  Failures are reported
    in canonical scheme order, each scheme's in the order found.  Only one
    block's rows and scan are held at a time."""
    seconds = stats["seconds"]
    rumer_count = rumer_rank = full_rank = 0
    failures: list[tuple[ValenceScheme, str]] = []  # (scheme, reason)
    for d, (diagrams, schemes) in sorted(blocks.items()):
        start = perf_counter()
        pairs = list(map(first_crossing, schemes))
        seconds["straighten"] += perf_counter() - start
        block_rumer, block_full, found = _check_block(d, diagrams, schemes, pairs, stats)
        rumer_count += len(diagrams)
        rumer_rank += block_rumer
        full_rank += block_full
        failures += found
        if merge is not None:
            merge(d, diagrams, schemes, pairs)
    failures.sort(key=itemgetter(0))  # stable: a scheme's failures keep their order
    return {
        "n": n,
        "m": m,
        "rumer_count": rumer_count,
        "rumer_rank": rumer_rank,
        "full_rank": full_rank,
        "rho": rho_closed(n, m),
        "straighten_failures": [
            {"scheme": scheme.to_text(), "reason": reason} for scheme, reason in failures
        ],
    }


def _multidegree_blocks(
    rumer: Iterable[RumerDiagram], schemes: Iterable[ValenceScheme]
) -> dict[Multidegree, tuple[list[RumerDiagram], list[ValenceScheme]]]:
    """The Rumer diagrams and the valence schemes grouped by multidegree,
    each list in input order."""
    blocks: dict[Multidegree, tuple[list, list]] = {}
    for diagram in rumer:
        blocks.setdefault(diagram.multidegree(), ([], []))[0].append(diagram)
    for scheme in schemes:
        blocks.setdefault(scheme.multidegree(), ([], []))[1].append(scheme)
    return blocks


def _block_rows(
    d: Multidegree, width: int, edge_lists: Iterable[Sequence[tuple[int, int]]]
) -> Iterator[int]:
    """The row of each edge list's bracket product in the block of
    multidegree d, in turn, as one integer (_products): the expansion with
    x2 = 1 and x1^(n) = 1, evaluated at x1^(v) = 2^(width e_v).  The mixed
    radix has e_n = 0, e_(n-1) = 1 and e_v = (d_(v+1) + 1) e_(v+1); so the
    bracket [i,j], x1^(i) - x1^(j), is a difference of two shifts.

    The x1 exponent of every vertex v < n is at most d_v, also in a prefix
    product, so the digit position sum e_v a_v of a monomial is one-to-one
    on those exponents, and integer order of positions is the lexicographic
    order, x1^(1) on top.  Every monomial of the block has x1-degree m, so
    the exponent of x1^(n) is fixed by the others and setting it to 1 loses
    nothing.  A row is read as its balanced base-2^width digits, each
    coefficient of the row's polynomial at its position (_digits); that
    reading is exact while every coefficient is below 2^(width-1) in size.
    """
    n = len(d)
    shift, e = [0] * (n + 1), 1  # shift[v] = width e_v, by vertex
    for v in range(n - 1, 0, -1):
        shift[v] = width * e
        e *= d[v - 1] + 1
    return _products(edge_lists, 1, lambda row, i, j: (row << shift[i]) - (row << shift[j]))


def _digits(row: int, width: int) -> dict[int, int]:
    """A _block_rows integer as its term map: each nonzero balanced
    base-2^width digit, a coefficient of size below 2^(width-1), by its
    position."""
    terms, position, half = {}, 0, 1 << width - 1
    while row:
        digit = (row + half & (1 << width) - 1) - half
        if digit:
            terms[position] = digit
        row = (row - digit) >> width
        position += 1
    return terms


def _lead(row: int, width: int) -> tuple[int, int] | None:
    """The position and the value of a nonzero _block_rows integer's top
    balanced digit, or None for 0.  With every digit below 2^(width-1) in
    size, a row whose top digit is at position k lies strictly between
    2^(kw-1) and 2^((k+1)w-1) in size, w the width: so k is
    (bit_length(2 row) - 1) // w, and the lower digits sum to less than
    half of 2^(kw), so rounding the row to a multiple of 2^(kw) leaves the
    top digit."""
    if not row:
        return None
    k = ((row << 1).bit_length() - 1) // width
    return k, (row + (1 << k * width >> 1)) >> k * width


def _check_block(
    d: Multidegree, diagrams: list, schemes: list, pairs: list, stats: dict
) -> tuple[int, int, list[tuple[ValenceScheme, str]]]:
    """The Rumer rank, the full rank and the failures, each a pair (scheme,
    reason), of one multidegree block: its multidegree d, its Rumer
    diagrams, its valence schemes and their scan, each scheme's first
    crossing pair (first_crossing) or None.  Its work goes into the stats
    record (_new_stats).

    In every monomial of a block's expansions the exponents of x1^(v) and
    x2^(v) sum to d_v, so setting x2 = 1 is injective on the block's span
    and a row is keyed by its x1 exponents alone; each row is one integer
    (_block_rows).  Order those keys lexicographically with x1^(1) > ... >
    x1^(n).  The lead of [i,j], i < j, is then x1^(i) with coefficient 1,
    and a product's lead is the product of its factors' leads, so each
    Rumer row should have its own lead with coefficient 1: a
    unit-triangular basis.  Nothing here assumes that: if the leads read off
    the computed rows (_lead) are distinct, each with coefficient 1, the
    Rumer rank is the diagram count.  A block whose only scheme is its only
    Rumer diagram, as every block with n = 3 is, builds no row: its row's
    value at x1^(v) = v is the product of i - j over its edges, which is
    not 0, so both ranks are 1.

    Spanning is certified one exchange at a time, by the three-term Plücker
    relation with which straighten rewrites a crossing scheme s at its
    first crossing pair.  Both exchange children of s (brackets._children)
    must weigh less than s (brackets._weight) and be schemes of the block,
    and the row of s less the rows of its children must be the integer 0.
    Every scheme that the scan passes must be one of the block's Rumer
    diagrams.  By induction on the weight every row of the block then lies
    in the span of the diagrams' rows, and the full rank is the Rumer rank.
    No diagram is scanned, since the certificate needs only that each
    non-crossing scheme is listed; in verify the merge check compares the
    listed diagrams with the scan's non-crossing schemes.  A child that does
    not weigh less, or that is no scheme of the block, is named, and its
    scheme's difference is not formed; a nonzero difference is an expansion
    mismatch.  Each is a failure of that one scheme, never raised.  A rank
    not certified this way comes from fraction-free elimination of the same
    rows, decoded (_digits), Rumer rows first.

    The integer test is exact.  A row is a product of m brackets, each a
    binomial with coefficients 1 and -1, so no coefficient of a row exceeds
    2^m in size, and the difference of a row and two others has
    coefficients of size at most 3 2^m.  The digit width is m + 3, so that
    bound is below 2^(width-1).  Balanced base-2^width digits below
    2^(width-1) in size are unique, so the difference is the integer 0
    exactly when it is the zero polynomial.  The check stays a coordinate
    expansion, independent of straighten, whose output it never reads.
    """
    seconds = stats["seconds"]
    stats["blocks"] += 1
    stats["schemes"] += len(schemes)
    stats["rumer_diagrams"] += len(diagrams)
    if (
        diagrams == schemes and len(schemes) == 1 and pairs[0] is None
        and prod(i - j for i, j in schemes[0].edges)
    ):
        stats["pivots"] += 1
        return 1, 1, []
    start = perf_counter()
    width = sum(d) // 2 + 3
    # the rows are keyed by scheme
    keys = list(dict.fromkeys(chain(schemes, diagrams)))
    rows = dict(zip(keys, _block_rows(d, width, (key.edges for key in keys))))
    leads = set()
    for diagram in diagrams:
        lead = _lead(rows[diagram], width)
        if lead is not None and lead[1] == 1:
            leads.add(lead[0])
    unit_triangular = len(leads) == len(diagrams)
    now = perf_counter()
    seconds["expand"] += now - start
    start = now
    failures = []
    # every non-crossing scheme is a listed diagram, and every exchange so
    # far passed
    spanned = {s for s, pair in zip(schemes, pairs) if pair is None}.issubset(diagrams)
    for scheme, pair in zip(schemes, pairs):
        if pair is None:
            continue
        stats["rewrites"] += 1
        k = _weight(scheme)
        difference = rows[scheme]
        reasons = []
        for child in _children(scheme, *pair):
            j = _weight(child)
            row = rows.get(child)
            if j >= k:
                reasons.append(f"leaves weight {j}, not less than {k}")
            elif row is None:
                reasons.append(
                    f"gives {_monomial_text(child.edges)}, which is not a scheme of the block"
                )
            else:
                difference -= row
        if reasons:
            e, f = pair
            exchanging = f"exchanging {e} and {f} in {_monomial_text(scheme.edges)}"
            reasons = [f"{exchanging} {reason}" for reason in reasons]
        elif difference:
            reasons = ["expansion mismatch"]
        else:
            continue
        spanned = False
        failures += ((scheme, reason) for reason in reasons)
    now = perf_counter()
    seconds["divide"] += now - start
    start = now
    rumer_rank = full_rank = len(diagrams)
    if not (unit_triangular and spanned):
        stats["fallback_blocks"] += 1
        pivots: dict = {}
        for diagram in diagrams:
            _insert(pivots, _digits(rows[diagram], width))
        rumer_rank = len(pivots)
        for row in rows.values():
            _insert(pivots, _digits(row, width))
        full_rank = len(pivots)
        seconds["fallback"] += perf_counter() - start
    stats["pivots"] += full_rank
    return rumer_rank, full_rank, failures


def basis_ok(report: dict) -> bool:
    """True iff the verify_basis report shows a clean pass."""
    return (
        report["rumer_rank"] == report["rumer_count"] == report["rho"] == report["full_rank"]
        and not report["straighten_failures"]
    )


#: The stages of verify that its stats record times.  straighten is the
#: crossing scan, expand the block rows and their leads, divide the exchange
#: children, their checks and the row differences, fallback the elimination,
#: and psi the merge check.
STAGES = ("enumerate", "expand", "divide", "straighten", "fallback", "psi")


def _new_stats() -> dict:
    """An empty stats record of verify's work: seconds per stage, and counts
    of blocks, blocks that fell back to elimination, valence schemes, Rumer
    diagrams, pivots and straightening rewrites, one exchange per crossing
    scheme."""
    counts = ("blocks", "fallback_blocks", "schemes", "rumer_diagrams", "pivots", "rewrites")
    return {"seconds": dict.fromkeys(STAGES, 0.0), **dict.fromkeys(counts, 0)}


def _verify_cell(n: int, m: int, stats: dict) -> dict:
    """One cell's verify report: the four counts of its diagrams agree, its
    Rumer diagrams form a basis (_verify_basis), and merging the last vertex
    is a bijection on each of its blocks (_verify_psi_bijection), which
    reads the basis check's scan of the block.  Its work is added to stats
    (_new_stats)."""
    seconds = stats["seconds"]
    start = perf_counter()
    rumer = enumerate_rumer(n, m)
    # the cell's multidegree blocks, in the order of compositions(2m, n); a
    # composition that no multigraph realizes has no block
    blocks = _multidegree_blocks(rumer, enumerate_valence_schemes(n, m))
    # the merged prescriptions are the blocks of the cells (n-1, k), k <= m
    lower = _multidegree_blocks((), chain.from_iterable(
        enumerate_valence_schemes(n - 1, k) for k in range(m + 1 if n >= 2 else 0)
    ))
    seconds["enumerate"] += perf_counter() - start
    bijection_failures = []
    merged_sets: dict = {}  # this cell's merged prescriptions, each enumerated once

    def merge(d, diagrams, schemes, pairs):
        start = perf_counter()
        report = _verify_psi_bijection(
            d, diagrams, schemes, pairs, merged_sets,
            lambda e: lower[e][1] if e in lower else [],
        )
        seconds["psi"] += perf_counter() - start
        if not report["bijection_ok"]:
            bijection_failures.append(report)

    # a merge needs two vertices
    basis = _verify_basis(n, m, blocks, stats, merge if n >= 2 else None)
    counts = {
        "formula": rho_closed(n, m),
        "recurrence": rho_sum_over_compositions(n, m),
        "enumerate": len(rumer),
    }
    if n >= 3:
        counts["product"] = rho_product(n, m)
    counts_agree = len(set(counts.values())) == 1
    return {
        "n": n,
        "m": m,
        "counts": counts,
        "counts_agree": counts_agree,
        "basis": basis,
        "bijection_failures": bijection_failures,
        "ok": counts_agree and basis_ok(basis) and not bijection_failures,
    }
