"""The benchmark's tracer still reads the program: it wraps the CLI's calls
into each layer and reads the model they build, so a change of those names
or of the model's row store must keep its spans and counts right."""

import importlib.util
import math
from pathlib import Path

import pytest

from limid import cli, mip
from limid.diagram_io import save_diagram
from limid.generators import PigFarmSpec, gen_pigfarm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_op(tracing, tracer, argv):
    """Run one CLI op under the tracer; its spans and captured calls."""
    tracer.op_id = 0 if tracer.op_id is None else tracer.op_id + 1
    tracer.captured = {}
    assert tracer.call(tracing.OP, cli.main, argv) == 0
    spans = {span[3]: span for span in tracer.spans if span[2] == tracer.op_id}
    return spans, tracer.captured


def assert_model_counts(span, model):
    assert span[6]["vars"] == len(model.variables)
    assert span[6]["rows"] == len(model.rows)
    assert span[6]["nnz"] == model.rows.indptr[-1]


def test_spans_counts_and_drift_of_traced_ops(tracing, tmp_path, capsys):
    path = tmp_path / "pig2.json"
    save_diagram(gen_pigfarm(PigFarmSpec(n_periods=2)), path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spans, captured = traced_op(
            tracing, tracer, ["solve", str(path), "--backend", "external", "--json"])
        for name in ("mip.build_base_model", "solve.solve_external",
                     "solve.decode", "solve.export_lp"):
            assert name in spans
        (model, *_), _ = captured["solve.solve_external"]
        assert_model_counts(spans["solve.solve_external"], model)
        assert math.isfinite(tracing.exact_drift(captured))

        spans, captured = traced_op(
            tracing, tracer, ["compare", str(path), "--json", "--merge-values",
                              "--objective", "cvar:0.15"])
        for name in ("mip.build_base_model", "mip.add_risk",
                     "solve.solve_reference", "inference.oracle_optimize"):
            assert name in spans
        (model, *_), _ = captured["solve.solve_reference"]
        assert model.cvar is not None
        assert_model_counts(spans["solve.solve_reference"], model)
    finally:
        tracer.uninstall()
    assert cli.build_base_model is mip.build_base_model
    assert "mismatch" not in capsys.readouterr().out
