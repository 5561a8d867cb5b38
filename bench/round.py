"""One round of one workload, in a fresh interpreter.

    python3 -I bench/round.py --workload NAME --seed N [--trace-file PATH]

Imports rumer from the checkout's `src`, builds the round's inputs, runs each
operation once, timing it alone, then checks its output.  Prints one JSON
line: set-up seconds, peak RSS and, per operation, its label, seconds, output
items and check result.  With --trace-file the public functions are
wrapped by the tracer and the spans are written to that file at the end.

A fresh interpreter per round matters: rumer.counting memoizes its
recurrence in a process-wide lru_cache, so a warm repeat would measure cache
hits that a CLI user never gets.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _peak_rss_mb() -> float:
    """Peak resident memory of this interpreter.  VmHWM starts afresh at exec;
    ru_maxrss would also count the parent's memory at fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(BENCH)]

    start = time.perf_counter()
    import rumer.cli
    import workloads
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start
    if Path(rumer.__file__).resolve().parent != SRC / "rumer":
        print(f"rumer imported from {rumer.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_file:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    results, peak = [], 0.0
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        error = None
        began = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - began
        peak = max(peak, _peak_rss_mb())
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:  # malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
            del output
        results.append({"label": op.label, "seconds": seconds, "items": op.items,
                        "heavy": op.heavy, "error": error})

    if tracer:
        tracer.write(args.trace_file)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak, "ops": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
