"""Span recorder for the traced run.

The benchmark wraps public ``etbell`` functions wherever they are bound
(the defining module, the package namespace, ``etbell.cli`` and every other
module that imported the name), records one span per call and exact work
counters computed from the arguments and results, and restores the
originals afterwards. Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from statistics import median, median_low

# (metric prefix, defining module, attribute path)
TARGETS = [
    ("cli.main", "etbell.cli", "main"),
    ("lhv.saturating_model", "etbell.lhv", "saturating_model"),
    ("lhv.scaled_model", "etbell.lhv", "scaled_model"),
    ("lhv.evaluate_postselected", "etbell.lhv", "evaluate_postselected"),
    ("lhv.marginal_distribution", "etbell.lhv", "marginal_distribution"),
    ("lhv.max_mu_setting_dependent", "etbell.lhv", "max_mu_setting_dependent"),
    ("lhv.max_mu_setting_independent", "etbell.lhv", "max_mu_setting_independent"),
    ("lhv.mermin_classical_bound", "etbell.lhv", "mermin_classical_bound"),
    ("lhv.event_stream", "etbell.lhv", "event_stream"),
    ("events.EventTable.write_csv", "etbell.events", "EventTable.write_csv"),
    ("events.EventTable.read_csv", "etbell.events", "EventTable.read_csv"),
    ("events.mermin_estimate", "etbell.events", "mermin_estimate"),
    ("source.locality_audit", "etbell.source", "locality_audit"),
    ("source.source_event_stream", "etbell.source", "source_event_stream"),
    ("states.mermin_n", "etbell.states", "mermin_n"),
    ("states.mermin3", "etbell.states", "mermin3"),
    ("states.expectation", "etbell.states", "expectation"),
    ("states.stabilizer_expectations", "etbell.states", "stabilizer_expectations"),
    ("states.sample_measurement_events", "etbell.states", "sample_measurement_events"),
    ("states.prepare_postselected", "etbell.states", "prepare_postselected"),
    ("optics.reck_decompose", "etbell.optics", "reck_decompose"),
    ("optics.compose", "etbell.optics", "compose"),
    ("numerics.matrix_from_json", "etbell.numerics", "matrix_from_json"),
    ("numerics.unitarity_defect", "etbell.numerics", "unitarity_defect"),
]

COUNTERS = [
    "lhv.strategies_examined",
    "lhv.assignments_enumerated",
    "lhv.trials_generated",
    "lhv.trials_selected",
    "events.bytes_written",
    "events.rows_written",
    "events.bytes_read",
    "events.rows_read",
    "states.expectation_calls",
    "states.kron_flops_computed",
    "optics.mesh_elements",
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def kron_flops(observables) -> int:
    """Complex multiplications of ``expectation``'s dense path, computed
    from the operand shapes: each ``kron`` step fills a D_k x D_k matrix,
    then one D x D mat-vec and one length-D inner product."""
    dims = [len(o) for o in observables]
    total, size = 0, dims[0]
    for d in dims[1:]:
        size *= d
        total += size * size
    return total + size * size + size


def _count(name, args, kwargs, result) -> dict:
    """Exact work counters of one call, from its arguments and result."""
    if name.startswith("lhv.max_mu_"):
        return {"lhv.strategies_examined": result.strategies_examined}
    if name == "lhv.mermin_classical_bound":
        return {"lhv.assignments_enumerated": 4 ** _arg(args, kwargs, 0, "n")}
    if name == "lhv.event_stream":
        return {
            "lhv.trials_generated": result.n_trials,
            "lhv.trials_selected": int(result.selected.sum()),
        }
    if name == "events.EventTable.write_csv":
        return {
            "events.bytes_written": os.path.getsize(_arg(args, kwargs, 1, "path")),
            "events.rows_written": len(args[0]),
        }
    if name == "events.EventTable.read_csv":
        return {
            "events.bytes_read": os.path.getsize(_arg(args, kwargs, 1, "path")),
            "events.rows_read": len(result),
        }
    if name == "states.expectation":
        return {
            "states.expectation_calls": 1,
            "states.kron_flops_computed": kron_flops(_arg(args, kwargs, 1, "observables")),
        }
    if name == "optics.compose":
        return {"optics.mesh_elements": len(_arg(args, kwargs, 0, "network").elements)}
    return {}


class Tracer:
    """In-memory spans ``[name, start, end, parent index, op id]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counters.update(_count(name, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "etbell" or k.startswith("etbell.")]
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            if "." in path:  # a method of a class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarise(tracer: Tracer, pass_bounds) -> dict:
    """Per-pass layer metrics, medians over the traced passes.

    ``pass_bounds`` lists ``(first span index, end span index, counters)``
    for each traced pass.
    """
    per_pass = []
    for first, last, counters in pass_bounds:
        calls, busy, covered = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in tracer.spans[first:last]:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                covered[tracer.spans[parent][0]] += end - start
        values = {}
        for name, _, _ in TARGETS:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.busy_s"] = busy[name]
            values[f"{name}.self_s"] = busy[name] - covered[name]
        for key in COUNTERS:
            values[key] = counters.get(key, 0)
        values["trace.spans"] = last - first
        per_pass.append(values)
    # Counts repeat exactly from pass to pass; times are medians.
    out = {
        key: (median if key.endswith("_s") else median_low)(p[key] for p in per_pass)
        for key in per_pass[0]
    }
    generated = out["lhv.trials_generated"]
    out["lhv.selected_ratio"] = out.pop("lhv.trials_selected") / generated if generated else 0.0
    return out
