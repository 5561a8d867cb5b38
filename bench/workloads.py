"""The three workloads: seeded inputs, the operations run on them, and the
check each output must pass.

Every operation goes through rumer's public API or `rumer.cli.main`, looked
up as a module attribute at call time so that the tracer's wrappers see it.
Inputs come only from the seed: the same seed gives the same inputs, in every
round of a run.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import rumer
import rumer.cli

import checks


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    items: int = 0        # outputs counted by items_per_s; 0 leaves the op out of it
    heavy: bool = False   # part of heavy_s


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rumer.cli.main(list(argv))
    return code, out.getvalue()


# verify_grid: the ROADMAP grid `rumer verify --n 2..5 --m 0..4`, one `verify`
# call per cell, ascending as the CLI itself runs it.  The grid is fixed, so
# the seed has nothing to vary here.
GRID = [(n, m) for n in range(2, 6) for m in range(0, 5)]
LARGEST_CELL = (5, 4)


def verify_grid(seed: int) -> list[Op]:
    return [
        Op(f"verify n={n} m={m}",
           partial(_cli, "verify", "--n", f"{n}..{n}", "--m", f"{m}..{m}", "--format", "json"),
           partial(checks.verify_cell, n, m),
           items=checks.scheme_space(n, m), heavy=(n, m) == LARGEST_CELL)
        for n, m in GRID
    ]


# straighten_batch: straightening cost grows about 1.3x per crossing pair and
# hardly depends on anything else, so the batch is stratified by chord count
# and by crossing count.  Each (chords, crossings) cell gets two polynomials
# each with 1, 2 and 3 terms; the crossing ranges are those that random chords
# on 6-12 points hit at least 1% of the time, capped at 12 crossings so that
# the slowest 5% holds about thirty polynomials.  Fixing the cells keeps the
# batch's cost steady from seed to seed, which a plain random mix does not.
CROSSINGS = {2: (0, 1), 3: (0, 2), 4: (0, 4), 5: (0, 6), 6: (0, 8), 7: (0, 10),
             8: (0, 12), 9: (0, 12), 10: (0, 12), 11: (1, 12), 12: (2, 12)}
TERMS = (1, 1, 2, 2, 3, 3)
# One fixed deep input: 7 pairwise-crossing diameters on 14 points, run three
# times at spread positions in the batch.  A short operation run several
# times gives a steadier fastest time than one long run.
DIAMETERS = 7
DEEP_RUNS = 3
CHECK_POINTS = 2


def _chord(rng: random.Random, n: int) -> tuple[int, int]:
    a = rng.randrange(n)
    b = rng.randrange(n - 1)
    return a + 1, b + 1 + (b >= a)


def _monomial(rng: random.Random, chords: int, crossing: int) -> tuple[int, list]:
    while True:
        n = rng.randint(6, 12)
        drawn = [_chord(rng, n) for _ in range(chords)]
        if checks.crossings(drawn) == crossing:
            return n, drawn


def _poly_text(poly) -> str:
    parts = []
    for coeff, chords in poly:
        body = "".join(f"[{a},{b}]" for a, b in chords)
        parts.append(("- " if coeff < 0 else "+ ") + (body if abs(coeff) == 1 else f"{abs(coeff)}*{body}"))
    return " ".join(parts).lstrip("+ ")


def _straighten(text: str, n: int) -> str:
    return rumer.straighten(rumer.parse(text, n)).to_text()


def _straighten_op(rng: random.Random, label: str, n: int, poly, heavy: bool = False) -> Op:
    points = [[(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(n)]
              for _ in range(CHECK_POINTS)]
    return Op(label, partial(_straighten, _poly_text(poly), n),
              partial(checks.straightened, n, poly, points), items=1, heavy=heavy)


def straighten_batch(seed: int) -> list[Op]:
    rng = random.Random(f"straighten_batch/{seed}")
    ops = []
    for chords, (low, high) in CROSSINGS.items():
        for crossing in range(low, high + 1):
            for terms in TERMS:
                n, first = _monomial(rng, chords, crossing)
                poly = []
                for _ in range(terms):
                    # Rotating the labels keeps the crossing count; flipping a
                    # bracket's order exercises sign normalization.
                    shift = rng.randrange(n)
                    term = [((a + shift - 1) % n + 1, (b + shift - 1) % n + 1) for a, b in first]
                    term = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in term]
                    poly.append((rng.choice((-1, 1)) * rng.randint(1, 9), term))
                ops.append(_straighten_op(rng, f"straighten k={chords} c={crossing} t={terms}", n, poly))
    rng.shuffle(ops)
    n = 2 * DIAMETERS
    diameters = [(1, [(i, i + DIAMETERS) for i in range(1, DIAMETERS + 1)])]
    for run in range(DEEP_RUNS, 0, -1):
        ops.insert(run * len(ops) // DEEP_RUNS, _straighten_op(
            rng, f"straighten {DIAMETERS} diameters", n, diameters, heavy=True))
    return ops


# enumerate_count: enumeration by (n, m) walks every composition of 2m and
# hits many dead ends; enumeration by one degree vector walks one.  The degree
# vector is a seeded permutation of a fixed multiset, which keeps the count
# (it depends only on the multiset) but moves the backtracking work.  The
# count cells run the memoized recurrence, whose cache grows without bound;
# each cell runs once per interpreter, as for a CLI user.  The degree vectors
# are the cheapest operations, so the median operation is a fixed one.
ENUMERATE_CELLS = [(6, 5), (7, 4), (9, 3)]
MULTIDEGREE = (1, 1, 2, 2, 2, 2, 2, 2, 3, 3)
PERMUTATIONS = 4
COUNT_CELLS = [(12, 4), (9, 6)]


def _by_multidegree(degrees: tuple[int, ...]):
    return rumer.enumerate_rumer_by_multidegree(degrees)


def _check_by_multidegree(degrees: tuple[int, ...], diagrams) -> str | None:
    return checks.by_multidegree(degrees, [[(e.i, e.j) for e in d.edges] for d in diagrams])


def enumerate_count(seed: int) -> list[Op]:
    rng = random.Random(f"enumerate_count/{seed}")
    ops = [Op(f"enumerate n={n} m={m}",
              partial(_cli, "enumerate", "--n", str(n), "--m", str(m), "--format", "json"),
              partial(checks.enumerated, n, m), items=checks.rho(n, m))
           for n, m in ENUMERATE_CELLS]
    for _ in range(PERMUTATIONS):
        degrees = list(MULTIDEGREE)
        rng.shuffle(degrees)
        degrees = tuple(degrees)
        ops.append(Op(f"enumerate multidegree {degrees}", partial(_by_multidegree, degrees),
                      partial(_check_by_multidegree, degrees),
                      items=checks.multidegree_count(degrees)))
    ops += [Op(f"count n={n} m={m}",
               partial(_cli, "count", "--n", str(n), "--m", str(m), "--method", "recurrence",
                       "--format", "json"),
               partial(checks.counted, n, m), heavy=True)
            for n, m in COUNT_CELLS]
    return ops


WORKLOADS = {
    "verify_grid": verify_grid,
    "straighten_batch": straighten_batch,
    "enumerate_count": enumerate_count,
}
