"""Spans around the calls the CLI makes into each layer, recorded from
outside the program by swapping module attributes for timing wrappers.

A span is ``(span_id, parent_id, op_id, name, start, end, attrs)``.  Spans
live in memory until the run ends; ``per_layer_metrics`` turns them into
per-op means.  Nothing is patched while the tracer is not installed, so
untraced ops run the program exactly as shipped.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

import limid.cli as cli
import limid.milp_backend as milp_backend
import limid.solve as solve
from limid.inference import UtilityDistribution, cvar_of_distribution

CHECK = "solve.check_solution"
OP = "cli.main"


def _model_counts(args, result, attrs) -> None:
    model = args[0]
    attrs["vars"] = len(model.variables)
    attrs["rows"] = len(model.constraints)
    attrs["nnz"] = sum(len(row.terms) for row in model.constraints)


def _after_build(args, result, attrs) -> None:
    _, ctx = result
    attrs["max_cluster_states"] = max(lay.total for lay in ctx.layouts.values())


def _after_reference(args, result, attrs) -> None:
    _model_counts(args, result, attrs)
    attrs["strategies"] = result.info.get("strategies", 0)


# (module, attribute, span name, hook run after the call, outside its span)
LAYERS = [
    (cli, "load_diagram", "diagram_io.load_diagram", None),
    (cli, "validate_diagram", "diagram.validate_diagram", None),
    (cli, "merge_value_nodes", "transform.merge_value_nodes", None),
    (cli, "build_rjt", "rjt.build_rjt", None),
    (cli, "modify_rjt", "rjt.modify_rjt", None),
    (cli, "build_base_model", "mip.build_base_model", _after_build),
    (cli, "add_risk", "mip.add_risk", None),
    (cli, "solve_external", "solve.solve_external", _model_counts),
    (cli, "solve_reference", "solve.solve_reference", _after_reference),
    (cli, "decode", "solve.decode", None),
    (cli, "oracle_optimize", "inference.oracle_optimize",
     lambda args, result, attrs: attrs.update(strategies=result.n_strategies)),
    (solve, "export_lp", "solve.export_lp",
     lambda args, result, attrs: attrs.update(bytes=len(result))),
    (milp_backend, "parse_lp", "milp_backend.parse_lp", None),
]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.op_id: Optional[int] = None
        self.captured: Dict[str, object] = {}
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.op_id, name, time.perf_counter(),
                None, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable, after) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.captured[name] = (args, result)
            if after is not None:
                after(args, result, span[6])
            return result
        return traced

    def _wrap_check(self, fn: Callable) -> Callable:
        # RowSystem also serves solve_reference once per strategy; only the
        # re-check of an external answer is the check_solution layer.
        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]][3] if self._stack else None
            if parent != "solve.solve_external":
                return fn(*args, **kwargs)
            return self.call(CHECK, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for owner, attr, name, after in LAYERS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, after))
        for attr in ("__init__", "violations"):
            original = getattr(solve.RowSystem, attr)
            self._saved.append((solve.RowSystem, attr, original))
            setattr(solve.RowSystem, attr, self._wrap_check(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def exact_drift(captured) -> Optional[float]:
    """Relative gap between the external solver's objective and the exact
    value of the strategy decoded from its answer, or None without one."""
    if "solve.decode" not in captured or "solve.solve_external" not in captured:
        return None
    (model, *_), solution = captured["solve.solve_external"]
    _, (_, ctx) = captured["mip.build_base_model"]
    _, decoded = captured["solve.decode"]
    mu = solve.propagate_cluster_marginals(ctx, decoded.strategy)
    diagram = ctx.diagram
    values = {
        v: diagram.utilities[v].values[ctx.layouts[v].root_state]
        for v in diagram.value_nodes
    }
    if model.cvar is not None and model.cvar.mode == "objective":
        (v, per_cfg), = values.items()
        dist = UtilityDistribution.from_values(per_cfg, mu[v])
        exact = cvar_of_distribution(dist, model.cvar.alpha).cvar
    else:
        exact = sum(float(np.dot(per_cfg, mu[v])) for v, per_cfg in values.items())
    return abs(solution.objective_value - exact) / abs(exact)


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [span[5] - span[4] for span in spans]
    for span in spans:
        if span[1] is not None:
            own[span[1]] -= span[5] - span[4]
    return own


TIMED = [
    "diagram_io.load_diagram", "diagram.validate_diagram",
    "transform.merge_value_nodes", "rjt.build_rjt", "rjt.modify_rjt",
    "mip.build_base_model", "mip.add_risk", "solve.export_lp", CHECK,
    "solve.solve_external", "solve.decode", "solve.solve_reference",
    "inference.oracle_optimize", "milp_backend.parse_lp",
]
COUNTS = [
    ("solve.export_lp", "bytes", "solve.lp_bytes"),
    ("mip.build_base_model", "max_cluster_states", "rjt.max_cluster_states"),
    ("solve.solve_reference", "strategies", "solve.reference_strategies"),
    ("inference.oracle_optimize", "strategies", "inference.oracle_strategies"),
]
MODEL_COUNTS = ["vars", "rows", "nnz"]


def per_layer_metrics(spans: List[list], n_ops: int, untraced_op_s: float,
                      drifts: List[float]) -> Dict[str, tuple]:
    """Per-op means of layer times and counts, as name -> (value, unit)."""
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[3]
        total[name] = total.get(name, 0.0) + span[5] - span[4]
        own[name] = own.get(name, 0.0) + self_s

    def mean(table, name):
        return table.get(name, 0.0) / n_ops

    out = {f"{name}_s": (mean(total, name), "s") for name in TIMED}
    out["solve.bridge_overhead_s"] = (
        mean(own, "solve.solve_external") - mean(total, "milp_backend.solve_lp_text"),
        "s",
    )
    out["milp_backend.highs_s"] = (mean(own, "milp_backend.solve_lp_text"), "s")
    out["cli.glue_s"] = (mean(own, OP), "s")
    out["cli.op_s"] = (mean(total, OP), "s")
    out["trace.overhead_s"] = (mean(total, OP) - untraced_op_s, "s")

    for span_name, key, metric in COUNTS:
        value = sum(s[6].get(key, 0) for s in spans if s[3] == span_name)
        out[metric] = (value / n_ops, "count")
    # Every op solves its final model once, externally or by enumeration.
    solved = [s for s in spans
              if s[3] in ("solve.solve_external", "solve.solve_reference")]
    for key in MODEL_COUNTS:
        value = sum(s[6].get(key, 0) for s in solved)
        out[f"mip.{key}"] = (value / n_ops, "count")
    out["solve.drift_rel_max"] = (max(drifts, default=0.0), "ratio")
    return out
