"""Spans around the calls into each package module, for the traced run.

`Tracer.install()` wraps every function in `TARGETS` and rebinds each
module-level name of the package that refers to it (both `geometry.collide`
and, say, `narrative.collision_schedule` as imported there).  The wrappers are
bound only while a traced op runs.  A target that no longer exists is
recorded as absent and its metrics read 0.  Spans are kept
in memory as [name, start_ns, end_ns, parent span, op] and written out when
the run ends.  The untraced run never touches these names.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TARGETS = {
    "geometry": ("collide", "collision_schedule"),
    "quantum": ("apply_group", "overlap", "angular_momentum_norms", "singlet_product"),
    "narrative": ("evolve", "compare_histories", "narratability_report", "render_report"),
    "fileio": ("parse_scenario", "parse_kernel", "parse_matrix"),
    "clusterkit": ("analyze", "canonicalize", "_rref"),
    "algebra": ("solve_W", "same_history_check"),
    "cli": ("main",),
}


def _nonhermitian(args, kwargs):
    h0, va, vb = args[:3]
    return any(not np.allclose(h0 + v, (h0 + v).conj().T, atol=1e-10) for v in (va, vb))


# what a span remembers about its call, besides its times
NOTES = {
    "geometry.collide": lambda args, kwargs, result: result is not None,
    "narrative.evolve": lambda args, kwargs, result: (len(result.groups), len(result.inert_groups)),
    "algebra.same_history_check": lambda args, kwargs, result: _nonhermitian(args, kwargs),
}

def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.ops = []  # per traced op: {"pairs", "nonrest", "kind", "warnings"}
        self.absent = []
        self._bindings = []

    def install(self):
        """Find every package name bound to a target and wrap it (disabled)."""
        package = [m for name, m in sys.modules.items()
                   if name == "narratables" or name.startswith("narratables.")]
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"narratables.{module_name}")
            for name in names:
                target = getattr(module, name, None)
                full = f"{module_name}.{name}"
                if not callable(target):
                    self.absent.append(full)
                    continue
                wrapper = self._wrap(full, target)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is target:
                            self._bindings.append((m, attr, target, wrapper))

    def enable(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def disable(self):
        for module, attr, target, _ in self._bindings:
            setattr(module, attr, target)

    def uninstall(self):
        self.disable()
        self._bindings.clear()

    def _wrap(self, full, fn):
        spans, stack, note = self.spans, self.stack, NOTES.get(full)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [full, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op):
        self.enable()
        self.op = len(self.ops)
        self.ops.append({"index": op.index, "kind": op.kind, "pairs": op.pairs,
                         "foliations": op.foliations, "nonrest": op.nonrest,
                         "warnings": Counter()})
        self.stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, self.op, op.index])

    def end_op(self, caught_warnings):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()
        self.ops[self.op]["warnings"].update(w.category.__name__ for w in caught_warnings)
        self.op = -1
        self.disable()

    def per_op_counts(self, name) -> list:
        """Calls to `name` in each traced op."""
        counts = [0] * len(self.ops)
        for span in self.spans:
            if span[0] == name:
                counts[span[4]] += 1
        return counts

    def _collide_per_pair(self) -> list:
        """(op kind, collide calls / worldline pairs) of each traced op with a scenario."""
        return [(op["kind"], calls / op["pairs"])
                for calls, op in zip(self.per_op_counts("geometry.collide"), self.ops)
                if op["pairs"]]

    def calls_per_pair_by_kind(self) -> dict:
        ratios = defaultdict(list)
        for kind, ratio in self._collide_per_pair():
            ratios[kind].append(ratio)
        return {kind: sum(r) / len(r) for kind, r in ratios.items()}

    def metrics(self) -> dict:
        """Per-op layer metrics: calls and self_ms of every target, and the ratios."""
        n_ops = max(1, len(self.ops))
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        calls, self_ns = Counter(), Counter()
        notes = defaultdict(list)
        for i, span in enumerate(self.spans):
            calls[span[0]] += 1
            self_ns[span[0]] += span[2] - span[1] - child_ns[i]
            if span[5] is not None and span[0] != "op":
                notes[span[0]].append(span[5])
        out = {}
        for module_name, names in TARGETS.items():
            for name in names:
                full = f"{module_name}.{name}"
                out[f"{full}.calls"] = calls[full] / n_ops
                out[f"{full}.self_ms"] = self_ns[full] / 1e6 / n_ops
        per_pair = [ratio for _, ratio in self._collide_per_pair()]
        out["geometry.collide.hit_ratio"] = _ratio(sum(notes["geometry.collide"]),
                                                   calls["geometry.collide"])
        out["geometry.collide.calls_per_pair"] = _ratio(sum(per_pair), len(per_pair))
        fired = sum(f for f, _ in notes["narrative.evolve"])
        groups = sum(f + i for f, i in notes["narrative.evolve"])
        out["narrative.evolve.fired_ratio"] = _ratio(fired, groups)
        out["narrative.warnings.little_group"] = sum(
            op["warnings"]["LittleGroupWarning"] for op in self.ops) / n_ops
        out["geometry.warnings.exactness"] = sum(
            op["warnings"]["ExactnessWarning"] for op in self.ops) / n_ops
        kernels = sum(op["kind"] == "kernel" for op in self.ops)
        out["clusterkit._rref.calls_per_kernel"] = _ratio(calls["clusterkit._rref"], kernels)
        out["algebra.same_history_check.nonhermitian_share"] = _ratio(
            sum(notes["algebra.same_history_check"]), calls["algebra.same_history_check"])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent, "ops": [
                {**op, "warnings": dict(op["warnings"])} for op in self.ops]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:5]) + "\n")
