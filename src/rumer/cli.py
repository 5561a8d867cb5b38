"""Command-line front end: count, enumerate, straighten, verify, render.

Machine-readable contract: with --format json, which every subcommand but
render (SVG only) accepts, a subcommand writes a single JSON document to
stdout and diagnostics to stderr only.  Exit codes are stable: 0 success,
1 verification failure, 2 usage or parse error.
Work guards are explicit flags with safe defaults, never silent truncation.
Straightening needs no guard: every exchange lowers a nonnegative integer
weight of the scheme, so it always ends.  Its --verify expansion is estimated
before it starts and refused over 10^7 terms.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from typing import Callable, Sequence

from .brackets import ParseError, parse as parse_polynomial, straighten
from .counting import (
    _n_recurrence_steps,
    _rho_sum_steps,
    binomial,
    n_recurrence,
    rho_closed,
    rho_product,
    rho_sum_over_compositions,
)
from .diagrams import ValenceScheme, enumerate_rumer, enumerate_rumer_by_multidegree
from .oracle import _new_stats, _same_expansion, _verify_cell
from .render import render_svg

OK, FAIL, USAGE = 0, 1, 2
DEFAULT_MAX_SCHEMES = 10**7
#: Smallest accepted value of each numeric option, by argparse dest.
MINIMUM = {"n": 1, "m": 0, "max_schemes": 0, "size": 1}


def _parse_multidegree(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not parts or any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError(f"multidegree entries must be nonnegative: {text!r}")
    return parts


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or LO..HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


class _UsageError(Exception):
    """A usage error; main reports it and exits 2."""


def _check_max_schemes(amount: int, limit: int, what: str = "diagrams") -> None:
    if amount > limit:
        raise _UsageError(f"{amount} {what} exceed the --max-schemes guard ({limit})")


def _check_steps(steps: int, limit: int, route: str = "recurrence") -> None:
    # never below the default: by --multidegree the recurrence is also the
    # count that the diagram guard compares, so a lower limit must reach it
    _check_max_schemes(steps, max(limit, DEFAULT_MAX_SCHEMES), f"{route} steps")


def _guarded(route: str, steps: int, limit: int, count: Callable[..., int], *args) -> int:
    """count(*args), once its steps are held to the guard."""
    _check_steps(steps, limit, route)
    return count(*args)


def _check_minimums(args) -> None:
    """Raise a usage error for the first numeric option below its minimum."""
    for name, low in MINIMUM.items():
        value = getattr(args, name, None)
        first = value[0] if isinstance(value, tuple) else value  # LO of a LO..HI range
        if first is not None and first < low:
            raise _UsageError(f"--{name.replace('_', '-')} must be at least {low}, got {first}")


def _emit(payload: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(payload if payload.endswith("\n") else payload + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        print(payload)


def _emit_json(document, out: str | None) -> None:
    _emit(json.dumps(document, indent=2), out)


def _diagrams_json(label: dict, diagrams: list) -> str:
    """The bytes of json.dumps({**label, "count": ..., "diagrams": [d.to_json_dict()
    for d in diagrams]}, indent=2), written without the pure-Python encoder
    that indent selects: each distinct chord's text is formatted once per
    call, and each diagram is one join of those texts."""
    head = json.dumps({**label, "count": len(diagrams), "diagrams": []}, indent=2)
    if not diagrams:
        return head
    chord = functools.cache("        [\n          {0[0]},\n          {0[1]}\n        ]".format)

    def item(diagram) -> str:
        n, edges = diagram
        body = "[\n" + ",\n".join(map(chord, edges)) + "\n      ]" if edges else "[]"
        return f'{{\n      "n": {n},\n      "edges": {body}\n    }}'

    return head[: -len("[]\n}")] + "[\n    " + ",\n    ".join(map(item, diagrams)) + "\n  ]\n}"


def _diagrams_text(diagrams: list) -> str:
    """The lines d.to_text() of the diagrams and a count line, written with
    each distinct chord's text formatted once per call, as in _diagrams_json."""
    chord = functools.cache("({0[0]},{0[1]})".format)
    lines = [f"n={n}; " + "".join(map(chord, edges)) if edges else f"n={n};"
             for n, edges in diagrams]
    lines.append(f"count: {len(diagrams)}")
    return "\n".join(lines)


def _scheme_space(n: int, m: int) -> int:
    """Number of loop-free multigraphs with m edges on n vertices."""
    return binomial(binomial(n, 2) + m - 1, m) if m else 1


def _selection(args) -> tuple[dict, dict[str, Callable[[], int]], Callable[[], list]]:
    """The diagrams a count or enumerate call asks about, by --n/--m or by
    --multidegree: the report label, the counting routes that apply, in
    table order, and the function that lists the diagrams.  The first route
    predicts their number for the --max-schemes guard, which the listing
    checks first, and then the walk: one step per vertex and per bond of
    each diagram."""
    if args.multidegree is not None:
        if args.n is not None or args.m is not None:
            raise _UsageError("--multidegree excludes --n/--m")
        d = args.multidegree
        n, m = len(d), sum(d) // 2
        _check_steps(_n_recurrence_steps(d), args.max_schemes)
        label = {"multidegree": list(d)}
        routes = {"recurrence": functools.partial(n_recurrence, d)}
        enumerate_ = functools.partial(enumerate_rumer_by_multidegree, d)
    else:
        if args.n is None or args.m is None:
            raise _UsageError("need --n and --m, or --multidegree")
        n, m = args.n, args.m
        label = {"n": n, "m": m}
        # each route's steps: the formula's binomial multiplies min(m, n - 1)
        # times, the product n - 3 times, and the recurrence fills its table
        routes = {
            route: functools.partial(_guarded, route, steps, args.max_schemes, count, n, m)
            for route, steps, count in (
                ("formula", min(m, n - 1), rho_closed),
                ("product", n - 3, rho_product),
                ("recurrence", _rho_sum_steps(n, m), rho_sum_over_compositions),
            )
            if route != "product" or n >= 3
        }
        enumerate_ = functools.partial(enumerate_rumer, n, m)
    predict = next(iter(routes.values()))

    def listing() -> list:
        diagrams = predict()
        _check_max_schemes(diagrams, args.max_schemes)
        _check_max_schemes(diagrams * (n + m), args.max_schemes, "walk steps (diagrams x (n + m))")
        return enumerate_()

    return label, routes, listing


def _cmd_count(args) -> int:
    label, routes, listing = _selection(args)
    method = args.method or next(iter(routes))
    routes["enumerate"] = lambda: len(listing())
    if method not in routes and method != "all":
        raise _UsageError(f"method {method!r} applies to --n/--m, not --multidegree"
                          if "multidegree" in label else "--method product requires n >= 3")
    counts = {name: route() for name, route in routes.items() if method in (name, "all")}

    agree = len(set(counts.values())) == 1  # one method always agrees
    rows = list(counts.items())
    if method == "all":
        rows.append(("agree", str(agree).lower()))
    if args.format == "json":
        if method == "all":
            _emit_json({**label, "counts": counts, "agree": agree}, args.out)
        else:
            _emit_json({**label, "method": method, "count": counts[method]}, args.out)
    elif args.format == "csv":
        _emit("\n".join(["method,count", *(f"{name},{value}" for name, value in rows)]), args.out)
    elif method == "all":
        _emit("\n".join(f"{name}: {value}" for name, value in rows), args.out)
    else:
        _emit(str(counts[method]), args.out)
    return OK if agree else FAIL


def _cmd_enumerate(args) -> int:
    label, _, listing = _selection(args)
    diagrams = listing()
    if args.format == "json":
        _emit(_diagrams_json(label, diagrams), args.out)
    else:
        _emit(_diagrams_text(diagrams), args.out)
    return OK


def _cmd_straighten(args) -> int:
    try:
        poly = parse_polynomial(args.polynomial, args.n)
    except ParseError as exc:
        raise _UsageError(str(exc)) from None
    stats: dict = {}
    flat = straighten(poly, stats)
    verified = None
    if args.verify:
        # a monomial of the difference input - output expands to at most the
        # product, over its distinct chords, of (multiplicity + 1) terms
        terms = stats["verify_terms"] = sum(
            math.prod(c + 1 for c in Counter(mono.edges).values()) for mono in (poly - flat).terms
        )
        if terms > DEFAULT_MAX_SCHEMES:
            raise _UsageError(
                f"--verify would expand {terms} terms, over the bound {DEFAULT_MAX_SCHEMES}")
        verified = _same_expansion(poly.terms, flat.terms)
    if args.format == "json":
        document = {"input": args.polynomial, **flat.to_json_dict()}
        if verified is not None:
            document["verified"] = verified
        _emit_json(document, args.out)
    else:
        lines = [flat.to_text()]
        if verified is not None:
            lines.append(f"verify: {'pass' if verified else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    if args.stats:
        print(json.dumps(stats), file=sys.stderr)
    return OK if verified in (None, True) else FAIL


def _cmd_verify(args) -> int:
    (n_lo, n_hi), (m_lo, m_hi) = args.n, args.m

    def grid():
        return ((n, m) for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1))

    # the grid is checked in order before any cell runs.  A cell counts at
    # least 1 scheme and at least the C(n, 2) edges it lists, so a grid of
    # more cells than the guard is refused at once; then the running total
    # of schemes and each cell's recurrence steps are held to the guard
    _check_max_schemes((n_hi - n_lo + 1) * (m_hi - m_lo + 1), args.max_schemes, "cells")
    total = 0
    for n, m in grid():
        _check_steps(_rho_sum_steps(n, m), args.max_schemes)
        total += max(1, binomial(n, 2), _scheme_space(n, m))
        _check_max_schemes(total, args.max_schemes, f"schemes up to (n={n}, m={m})")
    stats = _new_stats()
    cells = [_verify_cell(n, m, stats) for n, m in grid()]
    all_ok = all(cell["ok"] for cell in cells)
    if args.format == "json":
        _emit_json({"ok": all_ok, "cells": cells}, args.out)
    else:
        lines = []
        for cell in cells:
            basis = cell["basis"]
            status = "ok" if cell["ok"] else "FAIL"
            lines.append(
                f"n={cell['n']} m={cell['m']}: {status} "
                f"(rho={basis['rho']} rumer_rank={basis['rumer_rank']} "
                f"full_rank={basis['full_rank']} counts_agree={str(cell['counts_agree']).lower()})"
            )
        lines.append("all checks passed" if all_ok else "FAILURES detected")
        _emit("\n".join(lines), args.out)
    if args.stats:
        stats["seconds"] = {stage: round(spent, 6) for stage, spent in stats["seconds"].items()}
        print(json.dumps(stats), file=sys.stderr)
    return OK if all_ok else FAIL


def _cmd_render(args) -> int:
    text = args.diagram.strip()
    try:
        scheme = (ValenceScheme.from_json if text.startswith("{") else ValenceScheme.from_text)(text)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # nested JSON recurses
        raise _UsageError(f"bad diagram: {exc}") from None
    try:
        float(args.size), float(scheme.n)
    except OverflowError:  # the drawing's coordinates are floats
        raise _UsageError("--size and the vertex count must fit a float") from None
    p, q = math.pi.as_integer_ratio()  # one vertex per pixel of the circumference 2 pi 0.38 size
    most = 76 * p * args.size // (100 * q)
    if scheme.n > most:
        raise _UsageError(f"{scheme.n} vertices would sit less than a pixel apart "
                          f"(at most {most} at --size {args.size})")
    _emit(render_svg(scheme, size=args.size), args.out)
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and each new parser would leave reference cycles for the collector."""
    parser = argparse.ArgumentParser(
        prog="rumer",
        description="Count, enumerate, straighten, verify, and render non-crossing "
        "valence diagrams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    count = sub.add_parser("count", help="count diagrams by (n, m) or by multidegree")
    count.add_argument("--n", type=int)
    count.add_argument("--m", type=int)
    count.add_argument("--multidegree", type=_parse_multidegree)
    count.add_argument(
        "--method", choices=["formula", "product", "recurrence", "enumerate", "all"],
        help="default: formula for --n/--m, recurrence for --multidegree",
    )
    count.add_argument("--format", choices=["text", "json", "csv"], default="text")
    count.add_argument("--max-schemes", type=int)
    count.add_argument("--out")
    count.set_defaults(func=_cmd_count)

    enum = sub.add_parser("enumerate", help="list diagrams in canonical order")
    enum.add_argument("--n", type=int)
    enum.add_argument("--m", type=int)
    enum.add_argument("--multidegree", type=_parse_multidegree)
    enum.add_argument("--format", choices=["text", "json"], default="text")
    enum.add_argument("--max-schemes", type=int)
    enum.add_argument("--out")
    enum.set_defaults(func=_cmd_enumerate)

    flat = sub.add_parser("straighten", help="rewrite a bracket polynomial into the "
                          "non-crossing basis")
    flat.add_argument("polynomial", help="e.g. \"[1,3][2,4]\" or \"2*[1,2] - [2,1]\"")
    flat.add_argument("--n", type=int, required=True)
    flat.add_argument("--verify", action="store_true",
                      help="check the result against full coordinate expansion")
    flat.add_argument("--format", choices=["text", "json"], default="text")
    flat.add_argument("--out")
    flat.add_argument("--stats", action="store_true",
                      help="print the rewrite counters to stderr as one JSON line")
    flat.set_defaults(func=_cmd_straighten)

    verify = sub.add_parser("verify", help="run the full verification suite over ranges")
    verify.add_argument("--n", type=_parse_range, required=True, metavar="LO..HI")
    verify.add_argument("--m", type=_parse_range, required=True, metavar="LO..HI")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--max-schemes", type=int)
    verify.add_argument("--out")
    verify.add_argument("--stats", action="store_true",
                        help="print seconds per stage and work counters to stderr as one "
                        "JSON line")
    verify.set_defaults(func=_cmd_verify)

    render = sub.add_parser("render", help="emit an SVG drawing of one diagram")
    render.add_argument(
        "--diagram", required=True,
        help="text form 'n=4; (1,2)(3,4)' or JSON {\"n\":..., \"edges\":[[i,j],...]}",
    )
    render.add_argument("--size", type=int, default=360)
    render.add_argument("--format", choices=["svg"], default="svg")
    render.add_argument("--out")
    render.set_defaults(func=_cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "max_schemes" in vars(args) and args.max_schemes is None:
        args.max_schemes = DEFAULT_MAX_SCHEMES  # read per call: the parser is cached
    # exact integers parse and print in full past CPython's int/str digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _check_minimums(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
