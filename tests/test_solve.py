"""Solving the compiled models: LP text snapshots, row checking, mass
propagation, the enumerating reference solver, the external bridge, and
solution decoding."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from limid.generators import (
    NMonitoringSpec,
    PigFarmSpec,
    gen_nmonitoring,
    gen_pigfarm,
)
from limid.inference import Evaluator, UtilityDistribution, oracle_optimize
from limid.mip import (
    BINARY,
    EQ,
    UNIT,
    MipModel,
    add_risk,
    build_base_model,
)
from limid.risk import (
    BudgetConstraint,
    CvarConstraint,
    CvarObjective,
    parse_chance_text,
    parse_logical_text,
)
from limid.rjt import build_rjt, modify_rjt
from limid.solve import (
    ExternalSolverError,
    RowSystem,
    assignment_vector,
    decode,
    export_lp,
    parse_name_value_listing,
    propagate_cluster_marginals,
    reference_backend_command,
    solve_external,
    solve_reference,
    write_lp,
)
from limid.transform import merge_value_nodes

from helpers import enumerate_strategies, small_random_diagram

DATA = Path(__file__).parent / "data"


def pig_setup(n, merged=False, risk=None):
    d = gen_pigfarm(PigFarmSpec(n_periods=n))
    if merged:
        d, _ = merge_value_nodes(d)
    model, ctx = build_base_model(build_rjt(d), d)
    if risk is not None:
        add_risk(model, risk, ctx)
    return d, model, ctx


class TestLpExport:
    def test_plain_model_snapshot(self):
        _, model, _ = pig_setup(1)
        assert export_lp(model) == (DATA / "pigfarm1.lp").read_text()

    def test_cvar_model_snapshot(self):
        _, model, _ = pig_setup(1, merged=True, risk=CvarObjective(alpha=0.25))
        assert export_lp(model) == (DATA / "pigfarm1_merged_cvar.lp").read_text()

    @pytest.mark.parametrize("name, digest", [
        ("nmonitoring3",
         "9eb1de24df146212ca425b34da5507ee8ab632cd3600e24052da920d06d1eec5"),
        ("pigfarm4_chance",
         "4aa36531cff9a69b2b52b4297e4890e9428267c00b5fc1785856a0bdfeedcc95"),
        ("pigfarm3_merged_cvar",
         "d8ea69c053544c8f0f883772cbc261f59df65feed73c514d8b0539b0e682ab56"),
        ("pigfarm4_logical_budget",
         "677f2a71ee97d37c739b0d6f111b3b2685b83730b7c6ea251f34a9b2cc14ad1e"),
        ("pigfarm3_merged_cvar_floor",
         "78c622e12e19a424218ebb53c94e82508bbbb4848dab252828704923b273b51a"),
    ])
    def test_larger_model_text_pinned(self, name, digest):
        # Decision clusters, zero CPT entries, chance, logical, budget and
        # CVaR rows; the LP text of each must stay byte-for-byte what it was.
        if name == "nmonitoring3":
            d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
            model, _ = build_base_model(build_rjt(d), d)
        elif name == "pigfarm4_chance":
            d = gen_pigfarm(PigFarmSpec(n_periods=4))
            tree = modify_rjt(build_rjt(d), ["H1", "H2", "H3"])
            model, ctx = build_base_model(tree, d)
            add_risk(model, parse_chance_text("P(H2=ill|H3=ill)<=0.5"), ctx)
        elif name == "pigfarm4_logical_budget":
            d = gen_pigfarm(PigFarmSpec(n_periods=4))
            tree = modify_rjt(build_rjt(d), ["D1", "D2", "D3"])
            model, ctx = build_base_model(tree, d)
            add_risk(model, parse_logical_text("P(D1=treat&D3=treat)"), ctx)
            add_risk(model, BudgetConstraint(
                costs={f"D{i}": {"treat": 100.0} for i in (1, 2, 3)},
                limit=150.0), ctx)
        elif name == "pigfarm3_merged_cvar_floor":
            _, model, _ = pig_setup(3, merged=True,
                                    risk=CvarConstraint(alpha=0.15, bound=300.0))
        else:
            _, model, _ = pig_setup(3, merged=True,
                                    risk=CvarObjective(alpha=0.15))
        text = export_lp(model)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_export_is_deterministic(self):
        _, m1, _ = pig_setup(2)
        _, m2, _ = pig_setup(2)
        assert export_lp(m1) == export_lp(m2)

    def test_sections_present(self):
        _, model, _ = pig_setup(1, merged=True, risk=CvarObjective(alpha=0.25))
        text = export_lp(model)
        for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            assert f"\n{section}\n" in text or text.startswith(section)
        assert " eta free" in text
        assert "\\ cvar_share_total" in text

    def test_long_rows_wrap_with_indented_continuations(self):
        _, model, _ = pig_setup(3, merged=True)
        text = export_lp(model)
        lines = text.splitlines()
        assert all(len(line) <= 210 for line in lines)
        # the 256-config normalization row must span several lines
        start = next(
            i for i, l in enumerate(lines) if l == "\\ normalize[V_merged]"
        )
        row_lines = [lines[start + 1]]
        for line in lines[start + 2:]:
            if line.startswith("\\") or line.startswith(" c"):
                break
            row_lines.append(line)
        assert len(row_lines) > 1
        assert all(l.startswith(" ") for l in row_lines[1:])
        merged = " ".join(l.strip() for l in row_lines)
        assert merged.count("mu_V_merged_") == 256

    def test_rejects_unsafe_variable_names(self):
        model = MipModel()
        model.variables.add("this has spaces", (), UNIT)
        with pytest.raises(ValueError, match="LP-safe"):
            export_lp(model)
        model2 = MipModel()
        model2.variables.add("9starts_with_digit", (), UNIT)
        with pytest.raises(ValueError, match="LP-safe"):
            export_lp(model2)

    def test_empty_objective_uses_zero_coefficient(self):
        model = MipModel()
        model.variables.add("x", (), UNIT)
        model.rows.append([1], [0], [1.0], EQ, 1.0, ("pin",), indexed=False)
        text = export_lp(model)
        assert " obj: 0.0 x" in text

    def test_write_lp_round_trip(self, tmp_path):
        _, model, _ = pig_setup(1)
        path = tmp_path / "m.lp"
        write_lp(model, path)
        assert path.read_text() == export_lp(model)


class TestRowChecking:
    def test_reference_solution_is_clean(self):
        _, model, ctx = pig_setup(1)
        sol = solve_reference(model, ctx)
        assert RowSystem(model).violations(sol.x, 1e-9) == []

    def test_perturbed_mass_reports_row_and_residual(self):
        _, model, ctx = pig_setup(1)
        sol = solve_reference(model, ctx)
        bad = sol.x.copy()
        bad[model.mu["H1"].start] += 0.01
        msgs = RowSystem(model).violations(bad, 1e-6)
        assert msgs
        assert any("normalize[H1]" in m and "residual" in m for m in msgs)

    def test_fractional_policy_bit_reported(self):
        _, model, ctx = pig_setup(1)
        sol = solve_reference(model, ctx)
        bad = sol.x.copy()
        name = "delta_D1_0_0"
        bad[model.delta_var("D1", 0, 0)] = 0.5
        bad[model.delta_var("D1", 0, 1)] = 0.5
        msgs = RowSystem(model).violations(bad, 1e-6)
        assert any("not integral" in m and name in m for m in msgs)

    def test_out_of_bounds_variable_reported(self):
        _, model, ctx = pig_setup(1)
        sol = solve_reference(model, ctx)
        bad = sol.x.copy()
        bad[model.mu["H1"].start] = 1.5
        msgs = RowSystem(model).violations(bad, 1e-6)
        assert any("outside [0, 1]" in m for m in msgs)

    def test_messages_match_a_loop_over_rows_and_variables(self):
        _, model, _ = pig_setup(2, merged=True, risk=CvarObjective(alpha=0.25))
        x = np.random.default_rng(3).uniform(-0.5, 1.5, len(model.variables))
        want = []
        for i, row in enumerate(model.constraints):
            res = sum(coef * x[var] for coef, var in row.terms) - row.rhs
            if {"==": abs(res), "<=": res, ">=": -res}[row.sense] > 1e-6:
                want.append(f"row c{i + 1} [{row.tag}]")
        names = model.variables.names()
        for j, (name, kind) in enumerate(zip(names, model.variables.kinds)):
            val = x[j]
            if kind in (UNIT, BINARY) and not -1e-6 <= val <= 1 + 1e-6:
                want.append(f"variable {name} = {val!r} outside [0, 1]")
            if kind == BINARY and abs(val - round(val)) > 1e-6:
                want.append(f"variable {name} = {val!r} is not integral")
        got = [m.split(" residual")[0]
               for m in RowSystem(model).violations(x, 1e-6)]
        assert got == want

    def test_missing_variables_rejected(self):
        _, model, ctx = pig_setup(1)
        with pytest.raises(ExternalSolverError, match="misses"):
            assignment_vector(model, {"mu_H1_0": 1.0})


class TestPropagation:
    def test_matches_joint_marginals_for_sample_strategies(self):
        d, model, ctx = pig_setup(2)
        ev = Evaluator(d)
        for strategy in list(enumerate_strategies(d))[::5]:
            mu = propagate_cluster_marginals(ctx, strategy)
            for root in ctx.tree.order:
                lay = ctx.layouts[root]
                assert mu[root].sum() == pytest.approx(1.0, abs=1e-12)
                want = ev.marginal(strategy, lay.members)
                np.testing.assert_allclose(mu[root], want, atol=1e-12)

    def test_masses_satisfy_every_model_row(self):
        d, model, ctx = pig_setup(2)
        strategy = next(enumerate_strategies(d))
        sol_ref = solve_reference(model, ctx)
        mu = propagate_cluster_marginals(ctx, strategy)
        # rebuild a full assignment and let the row system judge it
        x = sol_ref.x.copy()
        for root in ctx.tree.order:
            for cfg, val in enumerate(mu[root]):
                x[model.mu[root].start + cfg] = float(val)
        for dn, rule in strategy.rules.items():
            n_pcfg, n_states = model.delta[dn].shape
            for pcfg in range(n_pcfg):
                for s in range(n_states):
                    x[model.delta_var(dn, pcfg, s)] = float(rule[pcfg] == s)
        assert RowSystem(model).violations(x, 1e-9) == []


class TestSolveReference:
    def test_single_period_farm(self):
        d, model, ctx = pig_setup(1)
        sol = solve_reference(model, ctx)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(821.8, abs=1e-9)
        assert sol.info == {"strategies": 4, "feasible": 4}
        # treat only on a positive test
        assert sol.strategy.rules == {"D1": (0, 1)}
        # the assignment is the one the returned strategy implies
        mu = propagate_cluster_marginals(ctx, sol.strategy)
        for root in ctx.tree.order:
            start = model.mu[root].start
            np.testing.assert_array_equal(
                sol.x[start:start + mu[root].size], mu[root])

    def test_matches_oracle_on_random_diagrams(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            d = small_random_diagram(
                rng, limit=64, max_nodes=6, require_value=True
            )
            model, ctx = build_base_model(build_rjt(d), d)
            sol = solve_reference(model, ctx)
            want = oracle_optimize(d)
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(
                want.objective_value, abs=1e-9
            )

    def test_constrained_solve_matches_constrained_oracle(self):
        con = parse_chance_text("P(H2=ill) <= 0.15")
        d, model, ctx = pig_setup(2, risk=con)
        sol = solve_reference(model, ctx)
        want = oracle_optimize(d, constraints=[con])
        assert sol.objective_value == pytest.approx(
            want.objective_value, abs=1e-9
        )
        assert sol.info["feasible"] == want.n_feasible

    def test_unsatisfiable_model_is_infeasible(self):
        con = parse_chance_text("P(H1=ill) <= 0.05")
        d, model, ctx = pig_setup(1, risk=con)
        sol = solve_reference(model, ctx)
        assert sol.status == "infeasible"
        assert sol.objective_value is None
        assert sol.x is None
        assert sol.strategy is None
        with pytest.raises(ValueError, match="status"):
            decode(sol, model, ctx)


class TestOracleReach:
    """The oracle against the reference where a full joint grid is costly:
    pigfarm n=7 would need 2^27 entries, above the cap of 2^26."""

    def test_pig_farm_seven_periods_meu(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=7, seed=1))
        model, ctx = build_base_model(build_rjt(d), d)
        sol = solve_reference(model, ctx)
        got = oracle_optimize(d)
        assert got.n_strategies == 1 << 14
        assert got.objective_value == pytest.approx(
            sol.objective_value, rel=1e-9)

    def test_merged_pig_farm_five_periods_cvar(self):
        d, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=5, seed=20)))
        objective = CvarObjective(alpha=0.5)
        model, ctx = build_base_model(build_rjt(d), d)
        add_risk(model, objective, ctx)
        sol = solve_reference(model, ctx)
        got = oracle_optimize(d, objective=objective)
        assert got.objective_value == pytest.approx(
            sol.objective_value, rel=1e-9)
        assert got.objective_value == pytest.approx(328.814765, abs=1e-6)


class TestParseListing:
    def test_parses_status_objective_and_pairs(self):
        text = """
        # solver log
        \\ another comment
        status OPTIMAL
        objective 12.5
        x 1
        y 0.25
        noise token line ignored
        z not_a_number
        """
        parsed = parse_name_value_listing(text)
        assert parsed["status"] == "optimal"
        assert parsed["objective"] == 12.5
        assert parsed["assignment"] == {"x": 1.0, "y": 0.25}

    def test_values_before_the_status_line_ignored(self):
        # a solver log line shaped like a pair must not become a value
        text = "presolve 12\nobjective 3\nstatus optimal\nobjective 2.5\nx 1\n"
        parsed = parse_name_value_listing(text)
        assert parsed["assignment"] == {"x": 1.0}
        assert parsed["objective"] == 2.5

    def test_empty_text(self):
        parsed = parse_name_value_listing("")
        assert parsed == {"status": None, "objective": None, "assignment": {}}


def listing_command(path, names, x):
    """A solver command that prints ``x`` as an optimal name/value listing."""
    path.write_text("status optimal\n" + "".join(
        f"{name} {value!r}\n" for name, value in zip(names, x.tolist())
    ))
    return [sys.executable, "-c",
            "import sys; print(open(sys.argv[1]).read())", str(path), "{lp}"]


class TestExternalBridge:
    def test_bundled_backend_matches_reference(self):
        d, model, ctx = pig_setup(2)
        ref = solve_reference(model, ctx)
        ext = solve_external(model, ctx, reference_backend_command(), tol=1e-6)
        assert ext.status == "optimal"
        assert ext.objective_value == pytest.approx(
            ref.objective_value, abs=1e-6
        )
        assert ext.strategy == ref.strategy
        # the objective is recomputed from the assignment, report kept aside
        assert ext.info["reported_objective"] == pytest.approx(
            ext.objective_value, abs=1e-6
        )

    def test_polished_answer_equals_the_reference_vector(self):
        _, model, ctx = pig_setup(3)
        ref = solve_reference(model, ctx)
        ext = solve_external(model, ctx, reference_backend_command())
        assert ext.status == "optimal"
        np.testing.assert_array_equal(ext.x, ref.x)

    def test_drifting_answer_polished_to_its_strategy(self):
        # On nmonitoring n=2 the solver's masses sit inside its feasibility
        # slack, and their objective is off by ~5e-6 at utilities of ~1e3.
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=2))
        model, ctx = build_base_model(build_rjt(d), d)
        ext = solve_external(model, ctx, reference_backend_command())
        assert ext.status == "optimal"
        assert RowSystem(model).violations(ext.x, 1e-9) == []
        assert ext.info["drift"] == (
            ext.info["solver_objective"] - ext.objective_value
        )
        mu = propagate_cluster_marginals(ctx, ext.strategy)
        for root in ctx.tree.order:
            start = model.mu[root].start
            np.testing.assert_array_equal(
                ext.x[start:start + mu[root].size], mu[root])

    def test_polish_failing_the_exact_recheck_leaves_no_objective(self, tmp_path):
        # A chance bound 5e-7 below the exact P(H2=ill) of the MEU strategy:
        # that strategy's exact assignment passes the 1e-6 re-check of the
        # solver's answer and fails the 1e-9 re-check of the polish.
        d, model, ctx = pig_setup(2)
        ref = solve_reference(model, ctx)
        p_ill = float(Evaluator(d).marginal(ref.strategy, ["H2"])[1])
        con = parse_chance_text(f"P(H2=ill) <= {p_ill - 5e-7!r}")
        _, cmodel, cctx = pig_setup(2, risk=con)
        names = cmodel.variables.names()
        assert names == model.variables.names()
        cmd = listing_command(tmp_path / "answer.txt", names, ref.x)
        ext = solve_external(cmodel, cctx, cmd)
        assert ext.status == "unknown"
        assert ext.objective_value is None
        assert len(ext.violations) == 1 and "chance" in ext.violations[0]
        assert ext.info["solver_objective"] == ref.objective_value
        assert "drift" not in ext.info
        assert ext.strategy == ref.strategy
        np.testing.assert_array_equal(ext.x, ref.x)

    def test_policy_bits_picking_no_state_rejected(self, tmp_path):
        # Halved bits pass a re-check at tol 0.6 but round to no state.
        _, model, ctx = pig_setup(1)
        x = solve_reference(model, ctx).x.copy()
        x[model.delta_var("D1", 0, 0)] = 0.5
        x[model.delta_var("D1", 0, 1)] = 0.5
        cmd = listing_command(tmp_path / "answer.txt", model.variables.names(), x)
        with pytest.raises(ValueError, match="parent config 0 picks 0 states"):
            solve_external(model, ctx, cmd, tol=0.6)

    def test_infeasible_model_reported(self):
        con = parse_chance_text("P(H1=ill) <= 0.05")
        d, model, ctx = pig_setup(1, risk=con)
        ext = solve_external(model, ctx, reference_backend_command())
        assert ext.status == "infeasible"
        assert ext.objective_value is None

    def test_missing_executable(self):
        _, model, ctx = pig_setup(1)
        with pytest.raises(ExternalSolverError, match="not found"):
            solve_external(model, ctx, ["definitely_not_a_solver_48151623"])

    def test_nonzero_exit_code(self):
        _, model, ctx = pig_setup(1)
        cmd = [sys.executable, "-c", "import sys; sys.exit(3)", "{lp}"]
        with pytest.raises(ExternalSolverError, match="code 3"):
            solve_external(model, ctx, cmd)

    def test_unrecognized_status_goes_unknown(self):
        _, model, ctx = pig_setup(1)
        cmd = [sys.executable, "-c", "print('status gibberish')", "{lp}"]
        sol = solve_external(model, ctx, cmd)
        assert sol.status == "unknown"
        assert sol.objective_value is None

    def test_optimal_claim_without_variables_rejected(self):
        _, model, ctx = pig_setup(1)
        cmd = [
            sys.executable, "-c",
            "print('status optimal'); print('objective 5.0')", "{lp}",
        ]
        with pytest.raises(ExternalSolverError, match="misses"):
            solve_external(model, ctx, cmd)

    @pytest.mark.parametrize("kind, reason", [
        ("directory", "Permission denied"),
        ("binary", "Exec format error"),
    ])
    def test_unrunnable_executable(self, tmp_path, kind, reason):
        _, model, ctx = pig_setup(1)
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\x00not a program\n")
            path.chmod(0o755)
        with pytest.raises(ExternalSolverError) as err:
            solve_external(model, ctx, [str(path)])
        assert str(err.value) == f"cannot run solver {str(path)!r}: {reason}"

    @pytest.mark.parametrize("tail", [["{lp}"], []], ids=["placeholder", "appended"])
    def test_command_argv_template(self, tail):
        d, model, ctx = pig_setup(1)
        cmd = [sys.executable, "-m", "limid.milp_backend", *tail]
        sol = solve_external(model, ctx, cmd)
        assert sol.objective_value == pytest.approx(821.8, abs=1e-6)


class TestDecode:
    def test_decoded_masses_match_strategy_propagation(self):
        d, model, ctx = pig_setup(2, merged=True)
        sol = solve_reference(model, ctx)
        dec = decode(sol, model, ctx)
        assert dec.strategy == sol.strategy
        v, = d.value_nodes
        want = UtilityDistribution.from_values(
            d.utilities[v].values[ctx.layouts[v].root_state],
            propagate_cluster_marginals(ctx, dec.strategy)[v],
        )
        np.testing.assert_array_equal(dec.distribution.utilities, want.utilities)
        np.testing.assert_array_equal(
            dec.distribution.probabilities, want.probabilities)

    def test_multi_value_diagram_has_no_distribution(self):
        d, model, ctx = pig_setup(2)
        sol = solve_reference(model, ctx)
        dec = decode(sol, model, ctx)
        assert dec.strategy == sol.strategy
        # no single total-utility distribution
        assert dec.distribution is None
        assert dec.expected_utility is None
        assert sol.objective_value == pytest.approx(767.06, abs=1e-9)

    def test_merged_model_decodes_distribution(self):
        d, model, ctx = pig_setup(2, merged=True)
        sol = solve_reference(model, ctx)
        dec = decode(sol, model, ctx)
        assert dec.distribution is not None
        assert dec.distribution.probabilities.sum() == pytest.approx(1.0)
        assert dec.expected_utility == pytest.approx(767.06, abs=1e-9)
        assert dec.expected_utility == pytest.approx(
            sol.objective_value, abs=1e-9
        )
