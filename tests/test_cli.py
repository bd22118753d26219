"""End-to-end tests for the ``limid`` command line interface.

Every test shells out to ``python -m limid.cli`` the way a user would,
then inspects exit codes, stdout/stderr text, and any files the command
wrote.  A two-period pig farm diagram saved to a temp directory serves
as the shared input.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from limid import cli
from limid.diagram import Cpt, UtilityMap
from limid.diagram_io import load_diagram, save_diagram
from limid.generators import (
    NMonitoringSpec,
    PigFarmSpec,
    gen_nmonitoring,
    gen_pigfarm,
)
from limid.inference import oracle_optimize
from limid.solve import RowSystem, Solution

from helpers import compile_case, enumerate_strategies, listing_command, strategy_vector
from test_modify_rjt import two_branch_diagram

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, cwd=None):
    """Run ``python <args>`` and return the completed process.

    The child runs in ``cwd``, where a relative ``PYTHONPATH`` no longer
    resolves, so the checkout's ``src`` goes first on it as an absolute path
    (the ``limid-milp`` solver grandchild inherits it).
    """
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([inherited] if inherited else [])
    )
    return subprocess.run(
        [sys.executable, *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def run_cli(*args, cwd=None):
    """Run ``python -m limid.cli <args>`` (see ``run_python``)."""
    return run_python("-m", "limid.cli", *args, cwd=cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Directory holding a saved two-period pig farm and a valid strategy."""
    path = tmp_path_factory.mktemp("cli")
    save_diagram(gen_pigfarm(PigFarmSpec(n_periods=2)), path / "pig2.json")
    (path / "strategy.json").write_text(
        json.dumps({"D1": ["pass", "treat"], "D2": ["pass", "treat"]})
    )
    (path / "short_strategy.json").write_text(
        json.dumps({"D1": ["treat", "treat"], "D2": ["pass"]})
    )
    (path / "budget.json").write_text(
        json.dumps(
            {"costs": {"D1": {"treat": 1.0}, "D2": {"treat": 1.0}}, "limit": 1.0}
        )
    )
    (path / "broken.json").write_text("{not json")
    (path / "unknown_solver.py").write_text('print("status unknown")\n')
    return path


# Malformed diagram and strategy files, each with the message naming the
# part that is wrong.
MALFORMED_DIAGRAMS = {
    "empty_object": ({}, "a diagram is a JSON object with a 'nodes' list"),
    "node_without_kind": (
        {"nodes": [{"name": "A", "states": ["x"]}]}, "node 0 lacks 'kind'"),
    "list": ([1, 2], "a diagram is a JSON object with a 'nodes' list"),
    "utilities_list": (
        {"nodes": [], "utilities": []},
        "a diagram's 'utilities' must map node names to lists"),
    "cpt_of_strings": (
        {"nodes": [{"name": "A", "kind": "chance", "states": ["a", "b"]}],
         "cpts": {"A": ["a", "b"]}},
        "CPT for 'A' must be a list of numbers"),
    "unknown_kind": (
        {"nodes": [{"name": "A", "kind": "bogus", "states": ["x"]}]},
        "node 'A' has unknown kind 'bogus'; expected chance, decision or value"),
}
# One chance node and nothing else: a valid diagram with no value node.
NO_VALUE_DIAGRAM = {
    "nodes": [{"name": "A", "kind": "chance", "states": ["x", "y"]}],
    "cpts": {"A": [0.3, 0.7]},
}
MALFORMED_STRATEGIES = {
    "list": ([1], "a strategy is a JSON object mapping decisions to lists"),
    "number_rule": (
        {"D1": 5}, "strategy for 'D1' must be a list of state labels"),
}


class TestValidate:
    def test_clean_diagram_prints_ok(self, workdir):
        proc = run_cli("validate", "pig2.json", cwd=workdir)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"

    def test_strategy_file_accepted(self, workdir):
        proc = run_cli(
            "validate", "pig2.json", "--strategy", "strategy.json", cwd=workdir
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"

    def test_short_strategy_listed_as_problem(self, workdir):
        proc = run_cli(
            "validate", "pig2.json", "--strategy", "short_strategy.json", cwd=workdir
        )
        assert proc.returncode == 1
        assert "'D2' has 1 entries, expected 2" in proc.stdout

    def test_empty_diagram_is_a_problem(self, workdir):
        (workdir / "empty.json").write_text(json.dumps({"nodes": []}))
        proc = run_cli("validate", "empty.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stdout == "diagram has no nodes\n"
        proc = run_cli("solve", "empty.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == "error: diagram has no nodes\n"

    def test_missing_file_is_an_error(self, workdir):
        proc = run_cli("validate", "nope.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_unparseable_json_is_an_error(self, workdir):
        proc = run_cli("validate", "broken.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("shape", sorted(MALFORMED_DIAGRAMS))
    def test_malformed_diagram_is_an_error(self, workdir, shape):
        data, message = MALFORMED_DIAGRAMS[shape]
        (workdir / f"bad_{shape}.json").write_text(json.dumps(data))
        proc = run_cli("validate", f"bad_{shape}.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("shape", sorted(MALFORMED_STRATEGIES))
    def test_malformed_strategy_is_an_error(self, workdir, shape):
        data, message = MALFORMED_STRATEGIES[shape]
        (workdir / f"bad_strategy_{shape}.json").write_text(json.dumps(data))
        proc = run_cli("validate", "pig2.json", "--strategy",
                       f"bad_strategy_{shape}.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"


class TestRjt:
    def test_listing_shows_every_cluster(self, workdir):
        proc = run_cli("rjt", "pig2.json", cwd=workdir)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "clusters: 10  width: 2"
        assert "  C[H1]: {H1} (top)" in lines
        assert "  C[T1]: {H1 T1} <- H1" in lines
        assert "  C[D2]: {H2 T2 D2} <- T2" in lines
        # One line per cluster plus the header.
        assert len(lines) == 11

    def test_modify_widens_clusters_over_targets(self, workdir):
        proc = run_cli("rjt", "pig2.json", "--modify", "H1,H2,H3", cwd=workdir)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("clusters: 10  width: 3")
        # Some cluster must now hold all three health nodes.
        assert any(
            "H1" in ln and "H2" in ln and "H3" in ln for ln in lines[1:]
        )

    def test_merge_values_collapses_value_nodes(self, workdir):
        proc = run_cli("rjt", "pig2.json", "--merge-values", cwd=workdir)
        assert proc.returncode == 0
        assert "V_merged" in proc.stdout
        assert "V1" not in proc.stdout

    def test_chained_modify_gathers_below_an_earlier_rehang(self, workdir):
        # The second group's C_C lies above C_B after the first re-hang.
        save_diagram(two_branch_diagram(), workdir / "two_branch.json")
        proc = run_cli(
            "rjt", "two_branch.json", "--modify", "C,D,E", "--modify", "B,C",
            cwd=workdir,
        )
        assert proc.returncode == 0, proc.stderr
        assert "  C[B]: {B C} <- C" in proc.stdout.splitlines()

    @pytest.mark.parametrize("order", [
        "H1,T1,D1,V1,H2,T2,D2,V2,H3,V3",
        "H1,T1,D1,H2,T2,D2,H3,V3,V2,V1",
    ])
    def test_order_sets_the_cluster_order(self, workdir, order):
        proc = run_cli("rjt", "pig2.json", "--order", order, cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        listed = [ln.split("]")[0].split("[")[1]
                  for ln in proc.stdout.splitlines()[1:]]
        assert listed == order.split(",")

    def test_order_must_be_topological(self, workdir):
        proc = run_cli("rjt", "pig2.json", "--order",
                       "T1,H1,D1,V1,H2,T2,D2,V2,H3,V3", cwd=workdir)
        assert proc.returncode == 1
        assert "order puts 'H1' after its child 'T1'" in proc.stderr

    def test_dot_export_writes_file(self, workdir):
        proc = run_cli("rjt", "pig2.json", "--dot", "tree.dot", cwd=workdir)
        assert proc.returncode == 0
        assert "wrote tree.dot" in proc.stdout
        text = (workdir / "tree.dot").read_text()
        assert text.startswith("digraph")
        assert '"D1"' in text


class TestBuild:
    def test_writes_lp_and_prints_stats(self, workdir):
        proc = run_cli("build", "pig2.json", "--out", "model.lp", cwd=workdir)
        assert proc.returncode == 0
        stats_line, wrote_line = proc.stdout.splitlines()
        stats = json.loads(stats_line)
        # 6 of the 54 masses are dead, and 12 rows are left without terms
        assert stats["variables"]["mu"] == 48
        assert stats["variables"]["delta"] == 8
        assert stats["variables"]["total"] == 56
        assert stats["constraints"]["consistency"] == 26
        assert stats["constraints"]["total"] == 98
        assert wrote_line == "wrote model.lp"
        text = (workdir / "model.lp").read_text()
        assert text.splitlines()[0].startswith("\\ ")
        assert "Maximize" in text
        assert text.rstrip().endswith("End")

    def test_risk_flags_reach_the_model(self, workdir):
        proc = run_cli(
            "build",
            "pig2.json",
            "--out",
            "model_risk.lp",
            "--modify",
            "H1,H2,H3",
            "--chance",
            "P(H1=ill|H2=ill|H3=ill) <= 0.4",
            cwd=workdir,
        )
        assert proc.returncode == 0
        stats = json.loads(proc.stdout.splitlines()[0])
        assert stats["constraints"]["chance"] == 1
        assert "chance" in (workdir / "model_risk.lp").read_text()


class TestSolve:
    def test_reference_solve_reports_meu(self, workdir):
        proc = run_cli("solve", "pig2.json", "--json", cwd=workdir)
        assert proc.returncode == 0
        assert "status          : optimal" in proc.stdout
        assert "objective (meu) :" in proc.stdout
        assert "  D2: T2=negative -> pass; T2=positive -> treat" in proc.stdout
        record = json.loads(proc.stdout.splitlines()[-1])
        assert record["record"] == "solve"
        assert record["backend"] == "reference"
        assert record["status"] == "optimal"
        assert record["objective_value"] == pytest.approx(767.06, abs=1e-9)
        assert record["strategy"] == {"D1": [0, 0], "D2": [0, 1]}
        # Several value nodes, so no single utility distribution exists.
        assert record["expected_utility"] is None

    def test_external_backend_agrees(self, workdir):
        proc = run_cli(
            "solve", "pig2.json", "--backend", "external", "--json", cwd=workdir
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout.splitlines()[-1])
        assert record["backend"] == "external"
        assert record["objective_value"] == pytest.approx(767.06, abs=1e-6)
        assert record["strategy"] == {"D1": [0, 0], "D2": [0, 1]}

    def test_listing_value_that_is_no_number_fails_the_recheck(
        self, workdir, tmp_path
    ):
        # The bundled child's listing of the best strategy with one mass
        # replaced by nan: the re-check refuses it, and the record stays
        # JSON without NaN or Infinity.
        diagram = load_diagram(str(workdir / "pig2.json"))
        _, _, model, ctx, _, _ = compile_case("pig2", diagram)
        x = strategy_vector(model, ctx, oracle_optimize(diagram).best)
        names = model.variables.names()
        x[names.index("mu_H1_0")] = float("nan")
        cmd = listing_command(tmp_path / "answer.txt", names, x)
        proc = run_cli("solve", "pig2.json", "--backend", "external", "--json",
                       "--solver-cmd", shlex.join(cmd), cwd=workdir)
        assert proc.returncode == 1
        assert "status          : unknown" in proc.stdout
        assert "  row c1 [normalize[H1]] residual nan violates sense ==" \
            in proc.stdout

        def refuse(constant):
            raise ValueError(f"record holds {constant}")

        record = json.loads(proc.stdout.splitlines()[-1], parse_constant=refuse)
        assert record["status"] == "unknown"
        assert record["objective_value"] is None

    def test_value_out_of_bounds_printed_as_a_plain_number(self, workdir,
                                                          tmp_path):
        diagram = load_diagram(str(workdir / "pig2.json"))
        _, _, model, ctx, _, _ = compile_case("pig2", diagram)
        x = strategy_vector(model, ctx, oracle_optimize(diagram).best)
        names = model.variables.names()
        x[names.index("mu_H1_0")] = 1.5
        cmd = listing_command(tmp_path / "answer.txt", names, x)
        proc = run_cli("solve", "pig2.json", "--backend", "external",
                       "--solver-cmd", shlex.join(cmd), cwd=workdir)
        assert proc.returncode == 1
        assert "  variable mu_H1_0 = 1.5 outside [0, 1]" in proc.stdout.splitlines()

    def test_json_record_reports_solver_claim_and_drift(self, workdir):
        save_diagram(
            gen_nmonitoring(NMonitoringSpec(n_monitors=2)), workdir / "nm2.json"
        )
        proc = run_cli(
            "solve", "nm2.json", "--backend", "external", "--json", cwd=workdir
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout.splitlines()[-1])
        check = record["verification"]
        assert isinstance(check["solver_objective"], float)
        assert check["drift"] == (
            check["solver_objective"] - record["objective_value"]
        )
        assert abs(check["drift"]) < 1e-3

    def test_out_strategy_uses_state_names(self, workdir):
        proc = run_cli(
            "solve", "pig2.json", "--out-strategy", "best.json", cwd=workdir
        )
        assert proc.returncode == 0
        assert "wrote best.json" in proc.stdout
        saved = json.loads((workdir / "best.json").read_text())
        assert saved == {"D1": ["pass", "pass"], "D2": ["pass", "treat"]}

    def test_report_appends_jsonl_record(self, workdir):
        proc = run_cli("solve", "pig2.json", "--report", "runs.jsonl", cwd=workdir)
        assert proc.returncode == 0
        proc = run_cli("solve", "pig2.json", "--report", "runs.jsonl", cwd=workdir)
        assert proc.returncode == 0
        lines = (workdir / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["record"] == "solve"
            assert record["objective_value"] == pytest.approx(767.06, abs=1e-9)

    def test_unwritable_report_names_the_flag(self, workdir):
        proc = run_cli("solve", "pig2.json", "--report", "no_such_dir/r.jsonl",
                       cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == ("error: cannot write --report file "
                               "'no_such_dir/r.jsonl': No such file or directory\n")

    def test_cvar_objective_requires_merged_values(self, workdir):
        proc = run_cli("solve", "pig2.json", "--objective", "cvar:0.2", cwd=workdir)
        assert proc.returncode == 1
        assert "--merge-values" in proc.stderr

    def test_cvar_objective_without_value_node_has_no_merge_hint(self, workdir):
        # merging needs value nodes, so naming it would send the user astray
        (workdir / "no_value.json").write_text(json.dumps(NO_VALUE_DIAGRAM))
        proc = run_cli("solve", "no_value.json", "--objective", "cvar:0.5",
                       cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == "error: CVaR needs a single value node, found 0\n"

    def test_cvar_objective_after_merge(self, workdir):
        proc = run_cli(
            "solve",
            "pig2.json",
            "--merge-values",
            "--objective",
            "cvar:0.2",
            "--json",
            cwd=workdir,
        )
        assert proc.returncode == 0
        assert "utility distribution: 2 atoms" in proc.stdout
        record = json.loads(proc.stdout.splitlines()[-1])
        assert record["objective"] == "cvar:0.2"
        assert record["objective_value"] == pytest.approx(300.0, abs=1e-6)
        assert record["expected_utility"] == pytest.approx(727.7, abs=1e-6)
        assert record["n_atoms"] == 2
        assert record["stats"]["constraints"]["cvar_share_total"] == 1

    def test_chance_constraint_needs_a_covering_cluster(self, workdir):
        proc = run_cli(
            "solve",
            "pig2.json",
            "--chance",
            "P(H1=ill|H2=ill|H3=ill) <= 0.4",
            cwd=workdir,
        )
        assert proc.returncode == 1
        assert "--modify" in proc.stderr

    def test_chance_constraint_with_modify(self, workdir):
        proc = run_cli(
            "solve",
            "pig2.json",
            "--modify",
            "H1,H2,H3",
            "--chance",
            "P(H1=ill|H2=ill|H3=ill) <= 0.4",
            "--json",
            cwd=workdir,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout.splitlines()[-1])
        assert record["objective_value"] == pytest.approx(757.448, abs=1e-9)
        assert record["strategy"] == {"D1": [0, 1], "D2": [0, 1]}
        assert record["stats"]["constraints"]["chance"] == 1

    def test_budget_constraint_with_modify(self, workdir):
        proc = run_cli(
            "solve",
            "pig2.json",
            "--modify",
            "D1,D2",
            "--budget",
            "budget.json",
            "--json",
            cwd=workdir,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout.splitlines()[-1])
        # The unconstrained optimum treats only once, so it stays optimal.
        assert record["objective_value"] == pytest.approx(767.06, abs=1e-9)
        assert record["stats"]["constraints"]["budget"] == 1

    def test_missing_diagram_is_an_error(self, workdir):
        proc = run_cli("solve", "missing.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")


class TestOracle:
    def test_enumerates_and_reports_best(self, workdir):
        proc = run_cli("oracle", "pig2.json", "--json", cwd=workdir)
        assert proc.returncode == 0
        assert "strategies      : 16 feasible / 16" in proc.stdout
        record = json.loads(proc.stdout.splitlines()[-1])
        assert record["record"] == "oracle"
        assert record["objective_value"] == pytest.approx(767.06, abs=1e-9)
        assert record["n_strategies"] == 16
        assert record["n_feasible"] == 16
        assert record["strategy"] == {"D1": [0, 0], "D2": [0, 1]}

    def test_chance_constraint_filters_strategies(self, workdir):
        proc = run_cli(
            "oracle",
            "pig2.json",
            "--chance",
            "P(H1=ill|H2=ill|H3=ill) <= 0.4",
            "--json",
            cwd=workdir,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout.splitlines()[-1])
        assert record["objective_value"] == pytest.approx(757.448, abs=1e-9)
        assert record["n_feasible"] == 13
        assert record["n_strategies"] == 16

    def test_infeasible_constraint_reported(self, workdir):
        proc = run_cli(
            "oracle", "pig2.json", "--chance", "P(H1=ill) <= 0.05", cwd=workdir
        )
        assert proc.returncode == 1
        assert "no feasible strategy" in proc.stdout

    @pytest.mark.parametrize("flag, value", [("--objective", "cvar:0.5"),
                                             ("--cvar-floor", "0.5:0")])
    def test_cvar_without_value_node_refused(self, workdir, flag, value):
        # As ``solve`` refuses it: no value node, no utility distribution.
        (workdir / "no_value.json").write_text(json.dumps(NO_VALUE_DIAGRAM))
        proc = run_cli("oracle", "no_value.json", flag, value, cwd=workdir)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: CVaR needs a single value node, found 0\n"

    def test_successive_in_process_calls_share_no_flags(
        self, workdir, monkeypatch, capsys
    ):
        # One process, one parser: the second call must not see the first
        # call's --json or --chance.
        from limid import cli

        monkeypatch.chdir(workdir)
        assert cli.main(["oracle", "pig2.json", "--json",
                         "--chance", "P(H1=ill|H2=ill|H3=ill) <= 0.4"]) == 0
        parser = cli._PARSER
        first = capsys.readouterr().out
        assert json.loads(first.splitlines()[-1])["n_feasible"] == 13
        assert cli.main(["oracle", "pig2.json"]) == 0
        assert cli._PARSER is parser
        second = capsys.readouterr().out
        assert "strategies      : 16 feasible / 16" in second
        assert not second.splitlines()[-1].startswith("{")


class TestCompare:
    def test_oracle_and_reference_agree(self, workdir):
        proc = run_cli("compare", "pig2.json", cwd=workdir)
        assert proc.returncode == 0
        assert "oracle" in proc.stdout
        assert "reference" in proc.stdout
        assert "agree: reference within" in proc.stdout
        assert "mismatch" not in proc.stdout

    def test_external_row_included_on_request(self, workdir):
        proc = run_cli("compare", "pig2.json", "--external", cwd=workdir)
        assert proc.returncode == 0
        assert "agree: external within" in proc.stdout

    def test_both_sides_infeasible_agree(self, workdir):
        proc = run_cli(
            "compare", "pig2.json", "--chance", "P(H1=ill) <= 0.05",
            "--external", cwd=workdir,
        )
        assert proc.returncode == 0
        assert "infeasible" in proc.stdout
        assert "mismatch" not in proc.stdout
        assert "agree" not in proc.stdout

    def test_agreement_does_not_depend_on_utility_units(self, tmp_path):
        # At 1e9 times the utilities, oracle and reference differ in their
        # last bit: 1.2e-4 absolute, 1e-16 of the utility scale.
        diagram = gen_pigfarm(PigFarmSpec(n_periods=3))
        for name, u in list(diagram.utilities.items()):
            diagram.utilities[name] = UtilityMap(name, u.values * 1e9)
        save_diagram(diagram, tmp_path / "pig3.json")
        proc = run_cli("compare", "pig3.json", cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout
        assert "agree: reference within 1e-06 x utility scale" in proc.stdout
        # A gap of 1e-4 of the objective still disagrees.
        oracle = oracle_optimize(diagram)
        planted = Solution("optimal", oracle.objective_value * (1 + 1e-4), None)
        agree, gap = cli._agrees(oracle, planted, cli._utility_scale(diagram))
        assert not agree and gap == pytest.approx(oracle.objective_value * 1e-4)

    def test_tol_loosens_the_recheck_not_the_agreement(self, workdir, tmp_path):
        # A solver listing of a feasible strategy worse than the best passes
        # a --tol 0.5 re-check; its gap to the oracle is still a mismatch.
        diagram = load_diagram(str(workdir / "pig2.json"))
        _, _, model, ctx, _, _ = compile_case("pig2", diagram)
        oracle = oracle_optimize(diagram)
        worse = next(s for s in enumerate_strategies(diagram) if s != oracle.best)
        x = strategy_vector(model, ctx, worse)
        gap = oracle.objective_value - RowSystem(model).objective_value(x)
        assert 0 < gap <= 0.5 * cli._utility_scale(diagram)
        cmd = listing_command(tmp_path / "answer.txt", model.variables.names(), x)
        proc = run_cli("compare", "pig2.json", "--external", "--tol", "0.5",
                       "--solver-cmd", shlex.join(cmd), cwd=workdir)
        assert proc.returncode == 1
        assert "agree: reference within" in proc.stdout
        assert f"mismatch: external objective differs from oracle by {gap!r}" \
            in proc.stdout

    def test_unknown_status_disagrees_with_infeasible_oracle(self, workdir):
        proc = run_cli(
            "compare", "pig2.json", "--chance", "P(H1=ill) <= 0.05",
            "--external", "--solver-cmd",
            f"{sys.executable} unknown_solver.py {{lp}}", cwd=workdir,
        )
        assert proc.returncode == 1
        assert "mismatch: oracle feasible=False but external status=unknown" \
            in proc.stdout


class TestBench:
    def test_pigfarm_trials_write_report(self, workdir):
        proc = run_cli(
            "bench",
            "pigfarm",
            "--n",
            "1",
            "--trials",
            "2",
            "--seed",
            "3",
            "--report",
            "bench.jsonl",
            cwd=workdir,
        )
        assert proc.returncode == 0
        assert "trial seed=3:" in proc.stdout
        assert "trial seed=4:" in proc.stdout
        lines = (workdir / "bench.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["record"] == "bench"
            assert record["family"] == "pigfarm"
            assert record["status"] == "optimal"
            assert record["check_ok"] is True
            assert abs(record["oracle_gap"]) < 1e-6

    def test_no_check_skips_the_oracle(self, workdir):
        proc = run_cli(
            "bench",
            "nmonitoring",
            "--n",
            "1",
            "--trials",
            "1",
            "--seed",
            "0",
            "--no-check",
            cwd=workdir,
        )
        assert proc.returncode == 0
        assert "trial seed=0:" in proc.stdout
        assert "oracle_gap" not in proc.stdout

    def test_infeasible_answer_agreeing_with_oracle_passes(self, workdir):
        proc = run_cli(
            "bench", "pigfarm", "--n", "3", "--trials", "1",
            "--backend", "reference", "--modify", "H1,H2,H3",
            "--chance", "P(H2=ill|H3=ill)<=0.0", "--report", "infeasible.jsonl",
            cwd=workdir,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "trial seed=0: infeasible" in proc.stdout
        assert "oracle infeasible" in proc.stdout
        assert "CHECK FAILED" not in proc.stdout
        record = json.loads((workdir / "infeasible.jsonl").read_text())
        assert record["check_ok"] is True
        assert record["oracle_value"] is None

    def test_status_disagreeing_with_oracle_fails_the_check(self, workdir):
        proc = run_cli(
            "bench", "pigfarm", "--n", "2", "--trials", "1",
            "--backend", "external", "--solver-cmd",
            f"{sys.executable} unknown_solver.py {{lp}}", cwd=workdir,
        )
        assert proc.returncode == 1
        assert "trial seed=0: unknown" in proc.stdout
        assert "oracle optimal CHECK FAILED" in proc.stdout

    def test_record_shares_the_solve_fields(self, workdir):
        save_diagram(
            gen_pigfarm(PigFarmSpec(n_periods=1, seed=3)), workdir / "pig1s3.json"
        )
        solve = run_cli("solve", "pig1s3.json", "--json", cwd=workdir)
        bench = run_cli(
            "bench", "pigfarm", "--n", "1", "--seed", "3", "--trials", "1",
            "--json", cwd=workdir,
        )
        assert solve.returncode == 0 and bench.returncode == 0
        solved = json.loads(solve.stdout.splitlines()[-1])
        benched = json.loads(bench.stdout.splitlines()[-1])
        assert (solved["record"], benched["record"]) == ("solve", "bench")
        for key in ("backend", "objective", "status", "objective_value", "stats"):
            assert solved[key] == benched[key], key
        assert benched["check_ok"] is True


class TestArgumentErrors:
    def test_unknown_subcommand(self, workdir):
        proc = run_cli("frobnicate", cwd=workdir)
        assert proc.returncode == 2

    def test_bad_objective_spec(self, workdir):
        proc = run_cli(
            "solve", "pig2.json", "--objective", "cvar:2.0", cwd=workdir
        )
        assert proc.returncode != 0

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_tol_must_be_finite_and_above_zero(self, workdir, command, value):
        # A NaN tolerance would pass every re-check, a negative one fail every one
        proc = run_cli(command, "pig2.json", f"--tol={value}", cwd=workdir)
        assert proc.returncode == 2
        assert "argument --tol: must be a finite number above 0" in proc.stderr

    def test_nan_cvar_floor_refused(self, workdir):
        proc = run_cli(
            "solve", "pig2.json", "--merge-values", "--cvar-floor", "0.2:nan",
            cwd=workdir,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: CVaR bound must be a finite number, got nan\n"
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--cvar-floor", "abc", "bad --cvar-floor value 'abc'; expected ALPHA:BOUND"),
        ("--cvar-floor", "0.2:abc",
         "bad --cvar-floor value '0.2:abc'; expected ALPHA:BOUND"),
        ("--objective", "cvar:abc",
         "bad --objective value 'cvar:abc'; expected 'cvar:<alpha>'"),
    ], ids=["no-colon", "bad-bound", "bad-alpha"])
    def test_malformed_cvar_value_names_the_flag(self, workdir, flag, value, message):
        proc = run_cli("solve", "pig2.json", "--merge-values", flag, value, cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"

    def test_nan_budget_limit_refused(self, workdir):
        (workdir / "nan_budget.json").write_text(
            '{"costs": {"D1": {"treat": 100}, "D2": {"treat": 100}}, "limit": NaN}'
        )
        proc = run_cli(
            "oracle", "pig2.json", "--budget", "nan_budget.json", cwd=workdir
        )
        assert proc.returncode == 1
        assert "must be finite numbers" in proc.stderr

    def test_nan_cpt_entry_refused(self, workdir):
        diagram = gen_pigfarm(PigFarmSpec(n_periods=1))
        rows = diagram.cpts["H1"].rows.copy()
        rows[0, 0] = float("nan")
        diagram.cpts["H1"] = Cpt("H1", rows)
        save_diagram(diagram, workdir / "nan_cpt.json")
        proc = run_cli("validate", "nan_cpt.json", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stdout == "CPT for 'H1' has non-finite entries\n"
        proc = run_cli("oracle", "nan_cpt.json", cwd=workdir)
        assert proc.returncode == 1
        assert "non-finite" in proc.stderr

    def test_compare_takes_no_backend_flag(self, workdir):
        # compare always runs the reference; --external adds the other row
        proc = run_cli(
            "compare", "pig2.json", "--backend", "external", cwd=workdir
        )
        assert proc.returncode == 2
        assert "--backend" in proc.stderr


# Each command given a directory where it reads or writes a file.
DIRECTORY_ARGS = [
    ("validate", "adir"),
    ("build", "pig2.json", "--out", "adir"),
    ("rjt", "pig2.json", "--dot", "adir"),
    ("solve", "pig2.json", "--report", "adir"),
    ("solve", "pig2.json", "--out-strategy", "adir"),
    ("oracle", "pig2.json", "--out-strategy", "adir"),
]


@pytest.mark.parametrize("argv", DIRECTORY_ARGS, ids=" ".join)
def test_directory_for_a_file_is_an_error(workdir, argv):
    (workdir / "adir").mkdir(exist_ok=True)
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 1
    if argv[0] == "validate":  # a read error keeps the system's message
        assert proc.stderr == "error: [Errno 21] Is a directory: 'adir'\n"
    else:  # a write error names the flag
        assert proc.stderr == \
            f"error: cannot write {argv[-2]} file 'adir': Is a directory\n"


# The external backend under each subcommand that can run it.
EXTERNAL_RUNS = [
    ("solve", "pig2.json", "--backend", "external"),
    ("compare", "pig2.json", "--external"),
    ("bench", "pigfarm", "--n", "1", "--trials", "1", "--backend", "external"),
]


class TestSolverCommand:
    @pytest.mark.parametrize("argv", EXTERNAL_RUNS, ids=lambda a: a[0])
    def test_environment_variable_names_the_solver(
        self, workdir, monkeypatch, argv
    ):
        monkeypatch.setenv("LIMID_SOLVER_CMD", "bogus_env")
        proc = run_cli(*argv, cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: solver executable not found: 'bogus_env'\n"
        )

    @pytest.mark.parametrize("argv", EXTERNAL_RUNS, ids=lambda a: a[0])
    def test_flag_wins_over_environment_variable(
        self, workdir, monkeypatch, argv
    ):
        monkeypatch.setenv("LIMID_SOLVER_CMD", "bogus_env")
        proc = run_cli(*argv, "--solver-cmd", "bogus_flag", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: solver executable not found: 'bogus_flag'\n"
        )

    def test_malformed_flag_value_names_the_flag(self, workdir, monkeypatch):
        monkeypatch.setenv("LIMID_SOLVER_CMD", "bogus_env")
        proc = run_cli(*EXTERNAL_RUNS[0], "--solver-cmd", "'unclosed", cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: bad --solver-cmd value \"'unclosed\": No closing quotation\n"
        )

    def test_malformed_environment_value_names_the_variable(
        self, workdir, monkeypatch
    ):
        monkeypatch.setenv("LIMID_SOLVER_CMD", "'unclosed")
        proc = run_cli(*EXTERNAL_RUNS[0], cwd=workdir)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: bad LIMID_SOLVER_CMD value \"'unclosed\": "
            "No closing quotation\n"
        )
