"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ``swapqkd`` modules from outside:
each wrapper replaces the attribute that the function's callers resolve at
call time, so nothing under ``src/`` changes.  Every wrapped call is a span
(name, start, end, parent, op id).  Calls and self time (span duration
minus the time covered by its child spans) are counted for every op; spans
themselves are kept in memory for the first ``keep_ops`` ops of a run only,
which bounds memory, and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# Metric name -> the (module, attribute path) sites its callers resolve.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "qstate.measure_in_basis": (("swapqkd.qstate", "measure_in_basis"),),
    "qstate.apply_gate": (("swapqkd.qstate", "apply_gate"),),
    "qstate.collapse_onto": (("swapqkd.qstate", "collapse_onto"),),
    "qstate.basis_probabilities": (("swapqkd.qstate", "basis_probabilities"),),
    "qstate.prepare_pairs": (("swapqkd.qstate", "prepare_pairs"),),
    # harness imports the class by name, so construction is seen there.
    "qstate.RandomSource": (("swapqkd.harness", "RandomSource"),),
    "protocol.run_plan": (("swapqkd.protocol", "run_plan"),),
    "protocol.run_round": (("swapqkd.protocol", "_ProtocolBase.run_round"),),
    # adversary imports enumerate_plan by name for the tailored-attack search.
    "protocol.enumerate_plan": (
        ("swapqkd.protocol", "enumerate_plan"),
        ("swapqkd.adversary", "enumerate_plan"),
    ),
    "protocol.derive_inference_table": (("swapqkd.protocol", "derive_inference_table"),),
    "bell.all_conventions": (("swapqkd.bell", "all_conventions"),),
    "bell.convention_residuals": (("swapqkd.bell", "convention_residuals"),),
    "bell.derive_swap_table": (("swapqkd.bell", "derive_swap_table"),),
    "adversary.derive_tailored_attack": (("swapqkd.adversary", "derive_tailored_attack"),),
    "adversary.attack_detection_probability": (
        ("swapqkd.adversary", "attack_detection_probability"),
    ),
    "adversary.eve_information_probability": (
        ("swapqkd.adversary", "eve_information_probability"),
    ),
    "adversary.eve_record": (("swapqkd.adversary", "_PosteriorMixin.eve_record"),),
    "harness.run_simulation": (("swapqkd.harness", "run_simulation"),),
    "harness.detection_curve": (("swapqkd.harness", "detection_curve"),),
    "cli.main": (("swapqkd.cli", "main"),),
}

# Spans whose result length is counted as work done.
BRANCH_COUNTED = "protocol.enumerate_plan"


def _resolve(module: str, path: str):
    """(owner, attribute name) for a site, or None if the site is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # Only an attribute defined on the owner itself is what callers resolve.
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Counts calls and self time per layer, and keeps spans of early ops."""

    def __init__(self, keep_ops: int):
        self.keep_ops = keep_ops
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_ns = dict.fromkeys(TARGETS, 0)
        self.branches = 0
        self.covered_ns = 0  # time inside top-level spans
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.op = 0
        self._keep = False
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._installed: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._keep = op < self.keep_ops

    def install(self) -> None:
        """Wrap every present target; record absent ones instead of failing."""
        for name, sites in TARGETS.items():
            found = False
            for module, path in sites:
                site = _resolve(module, path)
                if site is None:
                    continue
                owner, attr = site
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._installed.append((owner, attr, original))
                found = True
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        count_branches = name == BRANCH_COUNTED

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            span = [span_id, clock(), 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - span[1]
                self.calls[name] += 1
                self.self_ns[name] += duration - span[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.covered_ns += duration
                if self._keep:
                    self.spans.append((self.op, span_id, parent, name, span[1], end))
            if count_branches:
                self.branches += len(result)
            return result

        return traced

    def counters(self) -> dict:
        """Totals, as plain data that can cross a process boundary."""
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "branches": self.branches,
            "covered_ns": self.covered_ns,
            "absent": self.absent,
        }

    def write_spans(self, path) -> None:
        """Append the kept spans to ``path`` as JSON lines."""
        fields = ("op", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
        self.spans.clear()
