"""Spans around rumer's public functions, recorded from outside the package.

`Tracer.install` wraps each function in TARGETS at every module attribute
that refers to it, so a caller that imported the name (`from .oracle import
verify_basis`) reaches the wrapper too.  Each call records a span: id, name,
start, end, parent span, operation index, call id and counters.  A generator
records one span per resumption, all sharing the call id, so it is timed only
while it runs.  Spans stay in memory until `write` is called at exit;
`layer_metrics` turns a span file into per-layer totals, where a layer's self
time is its span time minus the time of its child spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict


def _compositions(args, kwargs, result) -> dict:
    n, m = args[:2]
    return {"counting.compositions_visited": math.comb(2 * m + n - 1, n - 1)}


#: (layer name, module, attribute, counters taken from args, kwargs and result)
TARGETS = [
    ("cli.main", "rumer.cli", "main", None),
    ("counting.rho_sum_over_compositions", "rumer.counting", "rho_sum_over_compositions",
     _compositions),
    ("diagrams.enumerate_rumer", "rumer.diagrams", "enumerate_rumer",
     lambda a, k, r: {"diagrams_out": len(r)}),
    ("diagrams.enumerate_rumer_by_multidegree", "rumer.diagrams",
     "enumerate_rumer_by_multidegree", lambda a, k, r: {"nonempty": int(bool(r))}),
    ("diagrams.enumerate_valence_schemes", "rumer.diagrams", "enumerate_valence_schemes", None),
    ("brackets.parse", "rumer.brackets", "parse", None),
    ("brackets.straighten", "rumer.brackets", "straighten",
     lambda a, k, r: {"terms_in": len(a[0].terms), "terms_out": len(r.terms)}),
    ("brackets.to_text", "rumer.brackets", "BracketPolynomial.to_text", None),
    ("oracle.expand", "rumer.oracle", "expand", lambda a, k, r: {"xterms_out": len(r.terms)}),
    ("oracle.rank_of_span", "rumer.oracle", "rank_of_span",
     lambda a, k, r: {"rows_in": len(a[0]), "rank_out": r}),
    ("oracle.verify_basis", "rumer.oracle", "verify_basis", None),
    ("bijection.psi", "rumer.bijection", "psi", None),
    ("bijection.verify_psi_bijection", "rumer.bijection", "verify_psi_bijection", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._ids = 0

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def _record(self, sid, name, start, call, attrs) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans.append((sid, name, start, end, parent, self.op, call, attrs))

    def wrap(self, name, fn, counters=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                call = tracer._new_id()
                inner = fn(*args, **kwargs)
                while True:
                    sid = tracer._new_id()
                    tracer.stack.append(sid)
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._record(sid, name, start, call, None)
                        return
                    except BaseException:
                        tracer._record(sid, name, start, call, None)
                        raise
                    tracer._record(sid, name, start, call, {"schemes_out": 1})
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._new_id()
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._record(sid, name, start, sid, None)
                raise
            tracer._record(sid, name, start, sid, counters and counters(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        """Replace every reference to each target inside the rumer package."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "rumer" or key.startswith("rumer.")]
        for name, module, attr, counters in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), counters))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(path) -> dict[str, float]:
    """Per-layer totals of one span file: calls, self seconds and counters."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            spans.append(json.loads(line))
    child_time: dict[int, float] = defaultdict(float)
    for sid, name, start, end, parent, op, call, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, set] = defaultdict(set)
    for sid, name, start, end, parent, op, call, attrs in spans:
        calls[name].add(call)
        totals[f"{name}.self_s"] += (end - start) - child_time[sid]
        for key, value in (attrs or {}).items():
            totals[key if "." in key else f"{name}.{key}"] += value
    for name, ids in calls.items():
        totals[f"{name}.calls"] = len(ids)
    nonempty = totals.pop("diagrams.enumerate_rumer_by_multidegree.nonempty", 0)
    by_degree = totals.get("diagrams.enumerate_rumer_by_multidegree.calls", 0)
    totals["diagrams.enumerate_rumer_by_multidegree.yield"] = nonempty / by_degree if by_degree else 0
    return dict(totals)
