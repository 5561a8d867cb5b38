"""Counting non-crossing valence diagrams.

Three independent routes are provided: a 2x2 determinant of binomial
coefficients, a factored product formula valid for n >= 3, and a
branching recurrence over per-vertex bond counts.  The recurrence folds
vertex degrees into one merged degree, right to left, as an iterative
dynamic program: with fixed degrees (n_recurrence), or with every degree
left free and the sum over all degree prescriptions taken in the same
pass (rho_sum_over_compositions).  All arithmetic is exact; Python
integers never overflow.
"""
from __future__ import annotations

import math
import operator
from typing import Iterator, Sequence


def _vertices(n: int) -> int:
    """The vertex count as an int; the one check of n."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    return n


def _cell(n: int, m: int) -> tuple[int, int]:
    """The cell of n vertices and m bonds, as ints; the one check of (n, m)."""
    n, m = _vertices(n), operator.index(m)
    if m < 0:
        raise ValueError(f"bond count must be nonnegative, got m={m}")
    return n, m


def _degrees(degrees: Sequence[int]) -> tuple[int, ...]:
    """The degree prescription as a tuple of ints; the one check of degrees."""
    d = tuple(map(operator.index, degrees))
    if not d:
        raise ValueError("degree tuple must be non-empty")
    if any(x < 0 for x in d):
        raise ValueError(f"degrees must be nonnegative, got {d}")
    return d


def binomial(k: int, l: int) -> int:
    """Exact C(k, l); zero when l > k, ValueError when either is negative."""
    return math.comb(k, l)


def even_triangle(a: int, b: int, c: int) -> bool:
    """True iff a, b, c satisfy all triangle inequalities and a+b+c is even."""
    a, b, c = operator.index(a), operator.index(b), operator.index(c)
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"triangle sides must be nonnegative, got ({a},{b},{c})")
    return a <= b + c and b <= a + c and c <= a + b and (a + b + c) % 2 == 0


def triangle_range(a: int, b: int) -> range:
    """All c with even_triangle(a, b, c), descending from a+b to |a-b|."""
    return range(a + b, abs(a - b) - 1, -2)


def n_recurrence(degrees: Sequence[int]) -> int:
    """Number of non-crossing multigraphs with the prescribed vertex degrees.

    Folds the degrees into one merged degree mu, right to left: folding in
    a degree a takes mu to every c in triangle_range(a, mu).  The count is
    the number of ways to end at mu = 0.  A merged degree above the degree
    still to be folded in can no longer reach 0 and is dropped.
    """
    d = _degrees(degrees)
    ways = {d[-1]: 1}  # merged degree -> number of ways
    left = sum(d) - d[-1]
    for a in reversed(d[:-1]):
        left -= a
        folded: dict[int, int] = {}
        for mu, count in ways.items():
            for c in triangle_range(a, mu):
                if c <= left:
                    folded[c] = folded.get(c, 0) + count
        ways = folded
    return ways.get(0, 0)


def _n_recurrence_steps(degrees: Sequence[int]) -> int:
    """An upper bound on the merged-degree moves of n_recurrence.  The live
    merged degrees stay in [lo, hi], from the last degree on; folding in a
    degree a moves each at most a + 1 times, into [max(0, lo - a, a - hi),
    min(hi + a, left)], with left the degree still to be folded in."""
    d = _degrees(degrees)
    lo = hi = d[-1]
    left = sum(d) - d[-1]
    steps = 0
    for a in reversed(d[:-1]):
        left -= a
        steps += max(0, hi - lo + 1) * (a + 1)
        lo, hi = max(0, lo - a, a - hi), min(hi + a, left)
    return steps


def rho_closed(n: int, m: int) -> int:
    """Count of non-crossing diagrams with m bonds on n vertices.

    The determinant ab - cd of a = C(m+n-1, n-1), b = C(m+n-2, n-2),
    c = C(m+n-2, n-1) and d = C(m+n-1, n-2); it evaluates to 1 at m = 0 for
    every n.  Only a is computed as a binomial: b = a(n-1)/(m+n-1),
    c = am/(m+n-1) and d = a(n-1)/(m+1), each an exact division.  The
    degenerate n = 1 case is 1 for m = 0 and 0 otherwise.
    """
    n, m = _cell(n, m)
    if n == 1:
        return 1 if m == 0 else 0
    a = binomial(m + n - 1, n - 1)
    b, c, d = a * (n - 1) // (m + n - 1), a * m // (m + n - 1), a * (n - 1) // (m + 1)
    return a * b - c * d


def rho_product(n: int, m: int) -> int:
    """Product form of the diagram count, defined for n >= 3:

        (m+1)(m+n-1) prod_{i=2}^{n-2} (m+i)^2 / ((n-1)! (n-2)!).

    The product is divided as it goes: after step i, a is
    (m+2)...(m+i) / (i-1)! = C(m+i, i-1), so each step's division is exact,
    and the count is (m+1)(m+n-1) a^2 / ((n-1)(n-2)^2).  That last division
    is asserted exact so a transcription bug cannot hide.
    """
    n, m = _cell(n, m)
    if n < 3:
        raise ValueError(f"product formula requires n >= 3, got n={n}")
    a = 1
    for i in range(2, n - 1):
        a = a * (m + i) // (i - 1)
    numerator = (m + 1) * (m + n - 1) * a * a
    denominator = (n - 1) * (n - 2) ** 2
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"product formula numerator {numerator} not divisible by {denominator}"
        )
    return quotient


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of `parts` nonnegative integers summing to `total`,
    in lexicographic order, each exactly once."""
    total, parts = operator.index(total), operator.index(parts)
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    return _compositions(total, parts)  # checked here, so bad input raises at the call


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    current = [0] * parts
    current[-1] = total
    while True:
        yield tuple(current)
        # Successor: move one unit from the last nonzero entry to the entry
        # before it, and put the rest of that entry's value at the end.
        p = parts - 1
        while p and not current[p]:
            p -= 1
        if not p:
            return
        rest = current[p] - 1
        current[p] = 0
        current[p - 1] += 1
        current[-1] = rest


def rho_sum_over_compositions(n: int, m: int) -> int:
    """Diagram count as the recurrence summed over all degree prescriptions.

    Runs the fold of n_recurrence with every vertex degree left free, so
    the sum over all C(2m+n-1, n-1) compositions of 2m is taken in one
    pass.  The state is (degree used so far, merged degree mu) -> ways,
    and the count is the number of ways to end at (2m, 0).
    """
    n, m = _cell(n, m)
    if n == 1:  # one vertex carries no bond; return before the table
        return int(m == 0)
    total = 2 * m
    # ways[used][mu]; a merged degree above total - used can no longer reach
    # 0, so each row stops there.  The last vertex takes any degree.
    ways = [[0] * (total - used + 1) for used in range(total + 1)]
    for s in range(m + 1):
        ways[s][s] = 1
    for _ in range(n - 1):
        # Fold in one more vertex, of any degree a.  The pairs (a, c) with c in
        # triangle_range(a, mu) are a = x + y, c = mu - x + y, each for exactly
        # one 0 <= x <= mu and y >= 0: x of its bonds close against the merged
        # vertex and y pass on.  So the fold is a running sum along
        # (used, mu) += (1, -1) over x, then along (1, 1) over y.
        for used in range(1, total + 1):
            row, prev = ways[used], ways[used - 1]
            for mu in range(total - used + 1):
                row[mu] += prev[mu + 1]
        for used in range(1, total + 1):
            row, prev = ways[used], ways[used - 1]
            for mu in range(1, total - used + 1):
                row[mu] += prev[mu - 1]
    return ways[total][0]


def _rho_sum_steps(n: int, m: int) -> int:
    """The (m+1)(2m+1) table entries of rho_sum_over_compositions, updated
    once per vertex after the first."""
    return (n - 1) * (m + 1) * (2 * m + 1)
