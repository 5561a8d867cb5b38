"""Output checks that share no code with rumer.

Each check takes a program output and returns None when it is right, or a
one-line reason when it is wrong.  The routes are independent of the modules
under test: counts come from closed formulas derived here from the
Cayley-Sylvester formula, straightened polynomials are compared with their
input by exact evaluation at random integer points, and crossings, degrees and
duplicates are recomputed from the raw edge lists.  This module never imports
rumer.

Run it as a script to check that the checks flag deliberately corrupted
outputs:  python3 bench/checks.py
"""
from __future__ import annotations

import json
import math
import re
import sys
from itertools import combinations_with_replacement

Chord = tuple[int, int]
Term = tuple[int, list[Chord]]


def rho(n: int, m: int) -> int:
    """Number of non-crossing diagrams with m chords on n points.

    Summing the Cayley-Sylvester count of every degree vector with sum 2m
    gives C(n-1+m, n-1)^2 - C(n+m, n-1) C(n+m-2, n-1).  rumer computes the
    same number from a different closed form, so agreement is a real check.
    """
    if m == 0:
        return 1
    return math.comb(n - 1 + m, n - 1) ** 2 - math.comb(n + m, n - 1) * math.comb(n + m - 2, n - 1)


def multidegree_count(degrees) -> int:
    """Non-crossing diagrams with these vertex degrees, by Cayley-Sylvester.

    The count is the dimension of the SL2 invariants of the tensor product of
    Sym^d over the degrees: the weight-0 multiplicity minus the weight-2
    multiplicity, read off the product of the polynomials 1 + q + ... + q^d.
    """
    total = sum(degrees)
    if total % 2:
        return 0
    coeffs = [1]
    for d in degrees:
        grown = [0] * (len(coeffs) + d)
        for i, c in enumerate(coeffs):
            for j in range(d + 1):
                grown[i + j] += c
        coeffs = grown
    half = total // 2
    return coeffs[half] - (coeffs[half - 1] if half else 0)


def scheme_space(n: int, m: int) -> int:
    """Number of loop-free multigraphs with m edges on n points."""
    return math.comb(math.comb(n, 2) + m - 1, m) if m else 1


def crossings(chords: list[Chord]) -> int:
    """Number of crossing pairs among the chords, parallel copies counted."""
    ends = [(i, j) if i < j else (j, i) for i, j in chords]
    count = 0
    for x, (a, b) in enumerate(ends):
        for c, d in ends[x + 1:]:
            if a < c < b < d or c < a < d < b:
                count += 1
    return count


def _degrees(n: int, chords) -> tuple[int, ...]:
    degs = [0] * n
    for i, j in chords:
        degs[i - 1] += 1
        degs[j - 1] += 1
    return tuple(degs)


def diagram_list(n: int, expected: int, diagrams, m: int | None = None,
                 degrees: tuple[int, ...] | None = None) -> str | None:
    """Check an enumeration: the right count, no repeats, every diagram a
    sorted non-crossing loop-free edge list with m edges or these degrees."""
    if len(diagrams) != expected:
        return f"{len(diagrams)} diagrams, expected {expected}"
    seen = set()
    for edges in diagrams:
        edges = tuple(tuple(e) for e in edges)
        if any(not 1 <= i < j <= n for i, j in edges) or list(edges) != sorted(edges):
            return f"malformed diagram {edges}"
        if edges in seen:
            return f"duplicate diagram {edges}"
        seen.add(edges)
        if crossings(sorted(set(edges))):
            return f"crossing diagram {edges}"
        if m is not None and len(edges) != m:
            return f"diagram {edges} does not have {m} edges"
        if degrees is not None and _degrees(n, edges) != tuple(degrees):
            return f"diagram {edges} does not have degrees {degrees}"
    return None


def enumerated(n: int, m: int, output: tuple[int, str]) -> str | None:
    """Check `rumer enumerate --n N --m M --format json`."""
    code, text = output
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    if doc["count"] != rho(n, m):
        return f"count {doc['count']}, expected {rho(n, m)}"
    if any(d["n"] != n for d in doc["diagrams"]):
        return f"a diagram is not on {n} points"
    return diagram_list(n, rho(n, m), [d["edges"] for d in doc["diagrams"]], m=m)


def by_multidegree(degrees: tuple[int, ...], diagrams) -> str | None:
    """Check enumerate_rumer_by_multidegree, given each diagram's edge list."""
    return diagram_list(len(degrees), multidegree_count(degrees), diagrams, degrees=degrees)


def counted(n: int, m: int, output: tuple[int, str]) -> str | None:
    """Check `rumer count --n N --m M --format json`."""
    code, text = output
    if code != 0:
        return f"exit code {code}"
    count = json.loads(text)["count"]
    return None if count == rho(n, m) else f"count {count}, expected {rho(n, m)}"


def verify_cell(n: int, m: int, output: tuple[int, str]) -> str | None:
    """Check `rumer verify --n N..N --m M..M --format json`: exit 0, the cell
    passes, and every count and rank in it equals rho(n, m)."""
    code, text = output
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    if not doc["ok"] or len(doc["cells"]) != 1:
        return "report is not a single passing cell"
    cell = doc["cells"][0]
    basis = cell["basis"]
    expected = rho(n, m)
    numbers = [basis[k] for k in ("rho", "rumer_count", "rumer_rank", "full_rank")]
    numbers += list(cell["counts"].values())
    if (cell["n"], cell["m"]) != (n, m) or not cell["ok"]:
        return f"cell ({cell['n']},{cell['m']}) not ok"
    if any(x != expected for x in numbers):
        return f"counts and ranks {numbers}, expected all {expected}"
    if basis["straighten_failures"] or cell["bijection_failures"]:
        return "failures listed in a passing cell"
    return None


_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?((?:\[\d+,\d+\])+|\d+)")
_BRACKET = re.compile(r"\[(\d+),(\d+)\]")


def parse_text(text: str) -> list[Term] | None:
    """Read rumer's polynomial text form; None when it does not parse."""
    text = text.replace(" ", "")
    if text == "0":
        return []
    terms, pos = [], 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None or (pos and not match.group(1)):
            return None
        sign = -1 if match.group(1) == "-" else 1
        body = match.group(3)
        if body.startswith("["):
            coeff = int(match.group(2) or 1)
            chords = [(int(a), int(b)) for a, b in _BRACKET.findall(body)]
        else:
            coeff, chords = int(body), []
        terms.append((sign * coeff, chords))
        pos = match.end()
    return terms


def evaluate(terms: list[Term], point: list[tuple[int, int]]) -> int:
    """Exact value with [i,j] = x_i y_j - y_i x_j at the given coordinates."""
    total = 0
    for coeff, chords in terms:
        value = coeff
        for i, j in chords:
            (xi, yi), (xj, yj) = point[i - 1], point[j - 1]
            value *= xi * yj - yi * xj
        total += value
    return total


def straightened(n: int, poly: list[Term], points, text: str) -> str | None:
    """Check a straightened polynomial against its input.

    Every output term must be a sorted non-crossing bracket product with the
    degrees of some input term, and input and output must take the same
    exact value at each of the given integer points.
    """
    out = parse_text(text)
    if out is None:
        return f"unparseable output {text[:60]!r}"
    in_degrees = {_degrees(n, chords) for _, chords in poly}
    for _, chords in out:
        if any(not 1 <= i < j <= n for i, j in chords) or chords != sorted(chords):
            return f"malformed output term {chords}"
        if crossings(sorted(set(chords))):
            return f"crossing output term {chords}"
        if _degrees(n, chords) not in in_degrees:
            return f"output term {chords} changes the multidegree"
    for point in points:
        if evaluate(poly, point) != evaluate(out, point):
            return "output and input differ in value"
    return None


def self_test() -> list[str]:
    """Feed the checks right outputs and deliberately corrupted ones; return
    the cases where a check answered wrongly (empty when all is well)."""
    wrong = []

    def expect(label: str, reason: str | None, flagged: bool) -> None:
        if (reason is not None) != flagged:
            wrong.append(f"{label}: check returned {reason!r}")

    points = [[(3, -7), (5, 2), (-4, 9), (8, 1)], [(11, 6), (-2, 13), (7, -5), (1, 4)]]
    crossing = [(1, [(1, 3), (2, 4)])]
    expect("straighten right", straightened(4, crossing, points, "[1,2][3,4] + [1,4][2,3]"), False)
    expect("straighten coefficient", straightened(4, crossing, points, "[1,2][3,4] + 2*[1,4][2,3]"), True)
    expect("straighten crossing", straightened(4, crossing, points, "[1,3][2,4]"), True)
    expect("straighten degrees", straightened(4, crossing, points, "[1,2][3,4] + [1,4][2,4]"), True)

    n, m = 4, 2
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    good = [list(c) for c in combinations_with_replacement(chords, m) if not crossings(list(c))]
    doc = {"n": n, "m": m, "count": len(good), "diagrams": [{"n": n, "edges": e} for e in good]}
    expect("enumerate right", enumerated(n, m, (0, json.dumps(doc))), False)
    twice = dict(doc, diagrams=doc["diagrams"][:-1] + doc["diagrams"][:1])
    expect("enumerate duplicate", enumerated(n, m, (0, json.dumps(twice))), True)
    crossed = dict(doc, diagrams=doc["diagrams"][:-1] + [{"n": n, "edges": [[1, 3], [2, 4]]}])
    expect("enumerate crossing", enumerated(n, m, (0, json.dumps(crossed))), True)
    short = dict(doc, count=len(good) - 1, diagrams=doc["diagrams"][:-1])
    expect("enumerate count", enumerated(n, m, (0, json.dumps(short))), True)
    expect("multidegree duplicate", by_multidegree((1, 1, 1, 1), [[(1, 2), (3, 4)]] * 2), True)

    expect("count right", counted(9, 6, (0, json.dumps({"count": 736164}))), False)
    expect("count wrong", counted(9, 6, (0, json.dumps({"count": 736165}))), True)

    def cell(rank: int, ok: bool = True) -> str:
        basis = {"rho": 490, "rumer_count": 490, "rumer_rank": rank, "full_rank": 490,
                 "straighten_failures": []}
        report = {"n": 5, "m": 4, "counts": {"formula": 490}, "basis": basis,
                  "bijection_failures": [], "ok": ok}
        return json.dumps({"ok": ok, "cells": [report]})
    expect("verify right", verify_cell(5, 4, (0, cell(490))), False)
    expect("verify rank", verify_cell(5, 4, (0, cell(489))), True)
    expect("verify exit code", verify_cell(5, 4, (1, cell(490, ok=False))), True)
    return wrong


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self-test failed" if problems else "self-test passed: every corrupted output was flagged")
    sys.exit(1 if problems else 0)
