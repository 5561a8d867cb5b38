"""Benchmark of rumer: three workloads, end-to-end metrics from untraced
rounds and per-layer metrics from traced ones.

    python3 bench/run.py --workload verify_grid --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all --trace 0     # every workload in turn
    python3 bench/checks.py                           # the checks' self-test

Single-threaded, closed loop with one caller: rounds run one after another,
each in a fresh interpreter (see round.py), as long as one more round is
expected to end within --seconds, and at least MIN_ROUNDS of them.  Every
round runs each operation of the workload once, on the same seeded inputs,
and checks every output.  Time metrics use each operation's fastest round,
scaled to a reference machine speed by a calibration kernel timed between
the rounds; set-up time and memory are medians over rounds.  With --trace 1 every
round is paired with a traced one; the per-layer metrics are medians over the
traced rounds, and trace.overhead_s is the traced minus the untraced time.

Prints a table of the metrics, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json.  Exits 1 when an output check fails and 2 when the benchmark
cannot run at all, such as when the checkout has no rumer source.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ["verify_grid", "straighten_batch", "enumerate_count"]
DEFAULT_SEED = 1
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
LAST_START_S = 100  # start no round later than this, so a run ends within 180 s
# Times are reported at the speed at which calibration_s() takes this long:
# about its fastest run on a 2-vCPU x86 VM.
REFERENCE_CALIBRATION_S = 0.02
CALIBRATION_RUNS = 5  # before every round and after the last

COMMON = {
    "setup_s": "import rumer and build the round's inputs",
    "peak_rss_mb": "peak resident memory of a round",
}
MEANING = {
    "verify_grid": {
        "wall_s": "verify_wall_s: all 20 cells n=2..5, m=0..4",
        "heavy_s": "verify_largest_cell_s: cell (5,4)",
        "p50_ms": "per verify cell",
        "p95_ms": "per verify cell",
        "items_per_s": "valence schemes verified per second",
    },
    "straighten_batch": {
        "wall_s": "the whole batch of 597 polynomials",
        "heavy_s": "7 pairwise-crossing diameters on 14 points, 3 runs",
        "p50_ms": "straighten_p50_ms: parse, straighten, to_text",
        "p95_ms": "straighten_p95_ms",
        "items_per_s": "straighten_polys_per_s",
    },
    "enumerate_count": {
        "wall_s": "3 enumerate cells, 4 degree vectors, 2 count cells",
        "heavy_s": "count_wall_s: count cells (12,4) and (9,6)",
        "p50_ms": "per operation",
        "p95_ms": "per operation",
        "items_per_s": "enumerate_diagrams_per_s",
    },
}


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, index: int, trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, "-I", str(BENCH / "round.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload} round {index} ran over {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RoundError(f"{workload} round {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def best_times(rounds: list[dict]) -> list[float]:
    """Each operation's fastest time over the rounds."""
    return [min(times) for times in zip(*([op["seconds"] for op in r["ops"]] for r in rounds))]


def calibration_s() -> float:
    """Time a fixed pure-Python kernel that no change to rumer can affect.

    On a shared 2-vCPU VM the same operation ran up to 1.8x slower for tens of
    seconds at a time, slowing every round of a run in that spell.  The
    kernel's fastest run slows with it, so times multiplied by
    REFERENCE_CALIBRATION_S over that fastest run stay steadier than raw
    times.  Half of the kernel churns small tuples and dicts in cache, half
    builds a table of a few MB, because memory-heavy operations slowed more
    than the rest.  It runs here, between rounds, so that it adds nothing to
    a round's time or memory.
    """
    began = time.perf_counter()
    small: dict = {}
    for i in range(12000):
        key = (i % 97, i % 89, i)
        small[key] = small.get(key, 0) + i * i
    sorted(small.items())
    large = {(i, i * 7 % 1013): [i] for i in range(20000)}
    sum(len(v) for v in large.values())
    return time.perf_counter() - began


def end_to_end(rounds: list[dict], scale: float) -> dict[str, float]:
    ops = rounds[0]["ops"]
    best = best_times(rounds)
    cuts = statistics.quantiles(best, n=20, method="inclusive")
    return {
        "setup_s": scale * statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "wall_s": scale * sum(best),
        "p50_ms": scale * 1000 * cuts[9],
        "p95_ms": scale * 1000 * cuts[18],
        "heavy_s": scale * sum(t for op, t in zip(ops, best) if op["heavy"]),
        "items_per_s": sum(op["items"] for op in ops)
        / (scale * sum(t for op, t in zip(ops, best) if op["items"])),
    }


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[dict], float]:
    """Run rounds until the time is up; return the metric values, every round
    run (traced ones included) and the kernel's fastest time."""
    start = time.monotonic()
    plain, traced, layers = [], [], []
    index, last = 0, 0.0
    kernel = min(calibration_s() for _ in range(CALIBRATION_RUNS))
    # Start another round only if one more like the last still ends in time.
    while index < MIN_ROUNDS or time.monotonic() - start + last <= seconds:
        if index and time.monotonic() - start > LAST_START_S:
            break
        began = time.monotonic()
        if not trace:
            plain.append(run_round(workload, seed, index))
        else:
            # Alternate which of the pair runs first, so that drift over the
            # run does not bias the overhead.
            path = OUT / f"trace-{workload}-{index}.jsonl"
            for traced_now in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_now:
                    traced.append(run_round(workload, seed, index, path))
                else:
                    plain.append(run_round(workload, seed, index))
            layers.append(spans.layer_metrics(path))
        kernel = min(kernel, *(calibration_s() for _ in range(CALIBRATION_RUNS)))
        last = time.monotonic() - began
        index += 1
    scale = REFERENCE_CALIBRATION_S / kernel
    if not trace:
        return end_to_end(plain, scale), plain, kernel
    names = {name for layer in layers for name in layer}
    values = {name: statistics.median(layer.get(name, 0) for layer in layers)
              * (scale if name.endswith("_s") else 1) for name in names}
    values["trace.overhead_s"] = scale * (sum(best_times(traced)) - sum(best_times(plain)))
    return values, plain + traced, kernel


def report(workload: str, seed: int, trace: bool, group: list[dict], values: dict,
           rounds: list[dict], kernel: float) -> tuple[dict, int, int]:
    """Print the table for one workload; return its metrics, attempted, failed."""
    ops = [op for rnd in rounds for op in rnd["ops"]]
    failures = [op for op in ops if op["error"]]
    for op in failures[:10]:
        print(f"check failed: {op['label']}: {op['error']}", file=sys.stderr)
    meaning = {**COMMON, **MEANING[workload]}
    print(f"{workload}  seed {seed}  rounds {len(rounds)}{' (half traced)' if trace else ''}  "
          f"operations {len(ops)}  calibration {1000 * kernel:.3f} ms "
          f"(times scaled to {1000 * REFERENCE_CALIBRATION_S:g} ms)")
    metrics = {}
    for metric in group:
        value = values.get(metric["name"], 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        note = "" if trace else meaning[metric["name"]]
        print(f"  {metric['name']:<46} {value:>14.6g} {metric['unit']:<6} {note}")
    print(f"  {'error_rate':<46} {len(failures) / len(ops):>14.6g} {'ratio':<6} "
          f"{len(failures)} of {len(ops)} operations failed their check")
    return metrics, len(ops), len(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rumer" / "__init__.py").is_file():
        print(f"error: no rumer source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = checks.self_test()
    if problems:
        print("error: the output checks missed corrupted outputs:", *problems, sep="\n  ",
              file=sys.stderr)
        return 2
    if args.trace:
        OUT.mkdir(exist_ok=True)

    group = spec["per_layer" if args.trace else "end_to_end"]
    chosen = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for workload in chosen:
        try:
            values, rounds, kernel = measure(workload, args.seed, args.seconds,
                                             bool(args.trace))
        except RoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        own, tried, bad = report(workload, args.seed, bool(args.trace), group, values, rounds,
                                 kernel)
        prefix = f"{workload}." if len(chosen) > 1 else ""
        metrics.update({prefix + name: value for name, value in own.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
