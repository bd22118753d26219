"""Solving the compiled models: LP text snapshots, row checking, mass
propagation, the enumerating reference solver, the external bridge, and
solution decoding."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from limid.diagram import Cpt, InfluenceDiagram, Node, NodeKind
from limid.diagram_io import save_diagram
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
    FREE,
    LE,
    SENSES,
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
from limid import solve
from limid.rjt import build_rjt, modify_rjt
from limid.solve import (
    ExternalSolverError,
    LP_LINE_WIDTH,
    RowSystem,
    assignment_vector,
    decode,
    export_lp,
    parse_name_value_listing,
    propagate_cluster_marginals,
    reference_backend_command,
    solve_external,
    solve_reference,
)
from limid.transform import merge_value_nodes

from helpers import enumerate_strategies, listing_command, small_random_diagram

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def pig_setup(n, merged=False, risk=None):
    d = gen_pigfarm(PigFarmSpec(n_periods=n))
    if merged:
        d, _ = merge_value_nodes(d)
    model, ctx = build_base_model(build_rjt(d), d)
    if risk is not None:
        add_risk(model, risk, ctx)
    return d, model, ctx


# The sha256 of the LP text of each pinned model, by model name.
TEXT_PINS = {
    "nmonitoring3":
        "0ca4ee819c1a6088a393e0334251d35afe8d11cc3da0b9a5f5affc6eb2f5f62c",
    "pigfarm4_chance":
        "d5e25596c990b4f65396c022f26864814a7a791c73282a8c693fb24966bab62b",
    "pigfarm3_merged_cvar":
        "804b25bf9cb40d1078ea5b60572b14818770fb8a463e068b02322c069d35005e",
    "pigfarm4_logical_budget":
        "4c0222e2d9a820eed7e35c6ca2d42d9f47f9d88550a88b916904dd2a1a5f340a",
    "pigfarm3_merged_cvar_floor":
        "a845a91a6c6551a18f124cafbda7eb22901670add206c133e281df3f31812bff",
}


class TestLpExport:
    def test_plain_model_snapshot(self):
        _, model, _ = pig_setup(1)
        assert export_lp(model) == (DATA / "pigfarm1.lp").read_text()

    def test_cvar_model_snapshot(self):
        _, model, _ = pig_setup(1, merged=True, risk=CvarObjective(alpha=0.25))
        assert export_lp(model) == (DATA / "pigfarm1_merged_cvar.lp").read_text()

    @pytest.mark.parametrize("name", TEXT_PINS)
    def test_larger_model_text_pinned(self, name):
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
        assert hashlib.sha256(text.encode()).hexdigest() == TEXT_PINS[name]

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
        body = lines[lines.index("Maximize") + 1:lines.index("Bounds") + 1]
        label = re.compile(r" (obj|c\d+):")
        term = re.compile(r" (?:[+-] )?\S+ \S+")
        for line, after in zip(body, body[1:]):
            if line.startswith("\\") or line == "Subject To":
                continue
            if after.startswith("\\") or after == "Bounds":
                # a row's relation and right-hand side follow its last term
                line = re.sub(r" (=|<=|>=) \S+$", "", line)
            # at most the width, unless a continuation holding one term
            assert len(line) <= LP_LINE_WIDTH or (
                not label.match(line) and term.fullmatch(line))
            if not (after.startswith("\\") or label.match(after)
                    or after in ("Subject To", "Bounds")):
                # a continuation starts with a term that did not fit
                assert len(line) + len(term.match(after).group()) > LP_LINE_WIDTH
        # the merged value cluster's normalization row spans several lines
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
        # the 16 of 256 configurations that the merged value's CPT allows
        assert merged.count("mu_V_merged_") == 16

    def test_rejects_unsafe_variable_names(self):
        model = MipModel()
        model.variables.add("this has spaces", (), UNIT)
        with pytest.raises(ValueError, match="LP-safe"):
            export_lp(model)
        model2 = MipModel()
        model2.variables.add("9starts_with_digit", (), UNIT)
        with pytest.raises(ValueError, match="LP-safe"):
            export_lp(model2)

    def test_rejects_model_without_columns(self):
        with pytest.raises(ValueError, match="no columns"):
            export_lp(MipModel())

    def test_empty_objective_uses_zero_coefficient(self):
        model = MipModel()
        model.variables.add("x", (), UNIT)
        model.rows.append([1], [0], [1.0], EQ, 1.0, ("pin",), indexed=False)
        text = export_lp(model)
        assert " obj: 0.0 x" in text

    def test_external_solver_reads_the_exported_text(self, tmp_path):
        _, model, ctx = pig_setup(1)
        path = tmp_path / "m.lp"
        copy = ("import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2]); "
                "print('status infeasible')")
        solve_external(model, ctx, [sys.executable, "-c", copy, "{lp}", str(path)])
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
            val = float(x[j])
            if kind in (UNIT, BINARY) and not -1e-6 <= val <= 1 + 1e-6:
                want.append(f"variable {name} = {val!r} outside [0, 1]")
            if kind == BINARY and abs(val - round(val)) > 1e-6:
                want.append(f"variable {name} = {val!r} is not integral")
        got = [m.split(" residual")[0]
               for m in RowSystem(model).violations(x, 1e-6)]
        assert got == want

    @pytest.mark.parametrize("case, broken", [
        # the ends of an interleaved policy_ub/policy_lb block, single-row
        # blocks, a row past 100 of an indexed block, and the rows of an
        # indexed block whose middle row was dropped
        ("nmonitoring-3", {193: "policy_ub[A3][c=0]", 256: "policy_lb[A3][c=31]",
                           8: "normalize[T]"}),
        ("pigfarm-3 chance", {144: "chance[T3]"}),
        ("merged pigfarm-2 cvar0.25", {190: "cvar_share_total"}),
        ("nmonitoring-5", {576: "cpt_link[F][c=123]"}),
        ("zero entry", {1: "cpt_link[A][c=0]", 2: "cpt_link[A][c=2]"}),
    ])
    def test_messages_print_literal_row_tags(self, case, broken):
        # An optimal answer made to break each row by a unit of its
        # right-hand side names exactly those rows, by label and tag.
        if case.startswith("nmonitoring"):
            d = gen_nmonitoring(NMonitoringSpec(n_monitors=int(case[-1]), seed=1))
            model, ctx = build_base_model(build_rjt(d), d)
        elif case == "zero entry":
            d = InfluenceDiagram(
                nodes=(Node("A", NodeKind.CHANCE, ("x", "y", "z")),),
                cpts={"A": Cpt("A", np.array([[0.5, 0.0, 0.5]]))}, utilities={})
            model, ctx = build_base_model(build_rjt(d), d)
            assert len(model.rows) == 3
        elif case == "pigfarm-3 chance":
            _, model, ctx = pig_setup(3, risk=parse_chance_text("P(H3=ill) <= 0.45"))
        else:
            _, model, ctx = pig_setup(2, merged=True, risk=CvarObjective(alpha=0.25))
        x = solve_reference(model, ctx).x
        rows = model.rows
        for i in broken:
            rows.rhs[i] += -1.0 if rows.sense[i] == LE else 1.0
        got = [m.split(" residual")[0] for m in RowSystem(model).violations(x, 1e-9)]
        assert got == [f"row c{i + 1} [{tag}]" for i, tag in sorted(broken.items())]

    def test_values_that_are_no_number_fail(self):
        # Every comparison with NaN is False, so each test asks whether a
        # value passes: NaN breaks each row it enters and each bound it has,
        # and a free variable must at least be finite.
        _, model, ctx = pig_setup(2, merged=True, risk=CvarObjective(alpha=0.25))
        x = solve_reference(model, ctx).x
        system = RowSystem(model)
        names = model.variables.names()
        rows = model.rows
        j = model.mu["H1"].start
        bad = x.copy()
        bad[j] = np.nan
        tags = list(rows.tags())
        in_rows = [f"row c{i + 1} [{tags[i]}] residual nan violates sense "
                   f"{SENSES[rows.sense[i]]}" for i in range(len(rows))
                   if j in rows.indices[rows.indptr[i]:rows.indptr[i + 1]]]
        assert in_rows
        assert system.violations(bad, 1e-6) == [
            *in_rows, f"variable {names[j]} = {float(bad[j])!r} outside [0, 1]"]
        bit = model.delta_var("D1", 0, 0)
        bad = x.copy()
        bad[bit] = np.nan
        msgs = system.violations(bad, 1e-6)
        assert msgs[-2:] == [
            f"variable {names[bit]} = {float(bad[bit])!r} outside [0, 1]",
            f"variable {names[bit]} = {float(bad[bit])!r} is not integral"]
        free = int(np.flatnonzero(model.variables.kinds == FREE)[0])
        for value in (np.inf, -np.inf, np.nan):
            bad = x.copy()
            bad[free] = value
            assert system.violations(bad, 1e-6)[-1] == (
                f"variable {names[free]} = {float(value)!r} is not finite")

    @pytest.mark.parametrize("case", [
        *[("pigfarm", n, None) for n in (3, 4, 5, 6)],
        *[("nmonitoring", n, None) for n in (3, 4, 5, 6)],
        *[("pigfarm", n, 0.05) for n in (3, 4, 5)],
    ], ids=lambda c: f"{c[0]}{c[1]}" + ("-merged-cvar" if c[2] else ""))
    def test_objective_vector_adds_terms_in_order(self, case):
        family, n, alpha = case
        if family == "pigfarm":
            d, model, ctx = pig_setup(n, merged=alpha is not None,
                                      risk=alpha and CvarObjective(alpha=alpha))
        else:
            d = gen_nmonitoring(NMonitoringSpec(n_monitors=n, seed=1))
            model, ctx = build_base_model(build_rjt(d), d)
        # One term per column, written by a loop over the value clusters'
        # live configurations, or over the CVaR tail levels.
        want = np.zeros(len(model.variables))
        if model.cvar is None:
            for root in ctx.tree_order:
                if d.kind(root) != NodeKind.VALUE:
                    continue
                lay = ctx.layouts[root]
                for i, cfg in enumerate(lay.live):
                    u = d.utilities[root].values[lay.root_state[cfg]]
                    want[model.mu[root].start + i] = u + 0.0
        else:
            block = model.cvar
            for k, u in enumerate(block.utilities):
                if u != 0.0:
                    want[block.rhobar[k]] = u / block.alpha
        assert model.objective.tobytes() == want.tobytes()
        assert RowSystem(model).objective_vector.tobytes() == want.tobytes()

    def test_objective_covers_every_column_after_risk_rows(self):
        d, model, ctx = pig_setup(3, merged=True)
        meu = model.objective.copy()
        for spec in (parse_chance_text("P(H2=ill|H3=ill)<=0.5"),
                     parse_logical_text("P(D1=treat&D3=treat)"),
                     BudgetConstraint(costs={"D1": {"treat": 100.0}}, limit=150.0),
                     CvarConstraint(alpha=0.15, bound=300.0)):
            add_risk(model, spec, ctx)
            assert model.objective.size == len(model.variables)
            assert model.objective[:meu.size].tobytes() == meu.tobytes()
        assert model.objective.size > meu.size
        assert not model.objective[meu.size:].any()

    def test_missing_variables_rejected(self):
        _, model, ctx = pig_setup(1)
        with pytest.raises(ExternalSolverError, match="misses"):
            assignment_vector(model, {"mu_H1_0": 1.0})


class TestCsr:
    """The holder's products equal ``scipy.sparse.csr_matrix``'s to the bit."""

    @staticmethod
    def pair(data, indices, indptr, shape):
        from scipy import sparse

        data = np.asarray(data, dtype=float)
        indices, indptr = np.asarray(indices), np.asarray(indptr)
        theirs = sparse.csr_matrix((data, indices, indptr), shape=shape, copy=True)
        theirs.sort_indices()
        return solve._Csr(data, indices, indptr, shape).sorted(), theirs

    def random_pair(self):
        """A 40x30 matrix with empty rows, unsorted rows and duplicates."""
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 9, 40)
        counts[[0, 7, 39]] = 0
        indices = rng.integers(0, 30, counts.sum())
        data = rng.normal(size=counts.sum()) * 10.0 ** rng.integers(-8, 8, counts.sum())
        return self.pair(data, indices, np.concatenate([[0], np.cumsum(counts)]),
                         (40, 30))

    @pytest.mark.parametrize("operand", [
        "vector", "column", "multi", "strided vector", "strided multi", "fortran",
    ])
    def test_products_match_scipy_byte_for_byte(self, operand):
        ours, theirs = self.random_pair()
        base = np.random.default_rng(8).normal(size=(30, 12))
        other = {
            "vector": base[:, 0].copy(),
            "column": base[:, :1].copy(),
            "multi": base.copy(),
            "strided vector": base[:, 3],
            "strided multi": base[:, ::3],
            "fortran": np.asfortranarray(base),
        }[operand]
        got, want = ours @ other, theirs @ other
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_unsorted_row_with_a_duplicate_column(self):
        # The duplicates' order in the sorted row fixes how the sum rounds.
        ours, theirs = self.pair([1e16, 1.0, -1e16, 3.0, 1.0], [4, 1, 4, 0, 4],
                                 [0, 0, 5], (2, 5))
        assert ours.indices.tolist() == theirs.indices.tolist()
        assert ours.data.tobytes() == theirs.data.tobytes()
        x = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        assert (ours @ x).tobytes() == (theirs @ x).tobytes()
        assert (ours @ np.c_[x, 2 * x]).tobytes() == (theirs @ np.c_[x, 2 * x]).tobytes()

    def test_sorting_leaves_the_source_arrays_alone(self):
        indices = np.array([2, 0, 1])
        holder = solve._Csr(np.array([1.0, 2.0, 3.0]), indices, np.array([0, 3]), (1, 3))
        assert holder.sorted().indices.tolist() == [0, 1, 2]
        assert indices.tolist() == [2, 0, 1]

    def test_operand_of_the_wrong_length_refused(self):
        ours, _ = self.random_pair()
        with pytest.raises(ValueError, match="40x30"):
            ours @ np.ones(29)


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
            x[model.mu[root].span] = mu[root][ctx.layouts[root].live]
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
            np.testing.assert_array_equal(sol.x[model.mu[root].span],
                                          mu[root][ctx.layouts[root].live])

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
        assert "objective" not in parsed  # read by no caller, so skipped
        assert parsed["assignment"] == {"x": 1.0, "y": 0.25}

    def test_values_before_the_status_line_ignored(self):
        # a solver log line shaped like a pair must not become a value
        text = "presolve 12\nobjective 3\nstatus optimal\nobjective 2.5\nx 1\n"
        parsed = parse_name_value_listing(text)
        assert parsed["assignment"] == {"x": 1.0}
        assert set(parsed) == {"status", "assignment"}

    def test_empty_text(self):
        parsed = parse_name_value_listing("")
        assert parsed == {"status": None, "assignment": {}}


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
            np.testing.assert_array_equal(ext.x[model.mu[root].span],
                                          mu[root][ctx.layouts[root].live])

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


# The bundled child run as a command of its own: one process per solve.
ONE_SHOT = reference_backend_command()[:-1]


def listed_answer(text):
    """The status, objective lines and column values of a listing."""
    parsed = parse_name_value_listing(text)
    objective = [float(line.split()[1]) for line in text.splitlines()
                 if line.startswith("objective ")]
    return parsed["status"], objective, parsed["assignment"]


class TestServedChild:
    """The bundled command's solves all go to one ``limid-milp -`` child of
    the process, and give what a child per solve gives."""

    def served(self, path):
        return solve._solver_listing(reference_backend_command(), str(path))

    def test_answers_equal_one_shot_answers(self, tmp_path):
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=5, seed=1))
        nmon = tmp_path / "nmonitoring5.lp"
        nmon.write_text(export_lp(build_base_model(build_rjt(d), d)[0]))
        # HiGHS prints its C stdio line to file descriptor 1 on this model
        d, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=4, seed=2)))
        model, ctx = build_base_model(build_rjt(d), d)
        add_risk(model, CvarObjective(alpha=0.05), ctx)
        cvar = tmp_path / "pigfarm4_merged_cvar.lp"
        cvar.write_text(export_lp(model))
        paths = [DATA / "pigfarm1.lp", DATA / "pigfarm1_merged_cvar.lp", nmon,
                 cvar]
        one_shot = {p: solve._solver_listing(ONE_SHOT, str(p)) for p in paths}
        assert "tmpSolver.run();" in one_shot[cvar]
        one_shot = {p: listed_answer(text) for p, text in one_shot.items()}
        assert [one_shot[p][0] for p in paths] == ["optimal"] * 4
        pids = set()
        for order in (paths, paths[::-1]):
            for path in order:
                text = self.served(path)
                status, objective, assignment = listed_answer(text)
                # nothing but the listing: no line HiGHS prints itself
                assert text.startswith("status ")
                assert len(text.splitlines()) == 1 + len(objective) + len(assignment)
                assert (status, objective, assignment) == one_shot[path]
                pids.add(solve._SERVED.proc.pid)
        assert len(pids) == 1

    @pytest.mark.parametrize("text, message", [
        ("Maximize\n obj: x\nSubject To\n c1: x + y\nEnd\n",
         "error HiGHS cannot read {path}"),
        ("Maximize\n obj: 0\nEnd\n",
         "error `c` must be a one-dimensional array of finite numbers with "
         "at least one element."),
    ], ids=["unreadable", "no-columns"])
    def test_refused_file_same_error_and_child_keeps_serving(
            self, tmp_path, text, message):
        path = tmp_path / "bad.lp"
        path.write_text(text)
        errors = []
        for command in (ONE_SHOT, reference_backend_command()):
            with pytest.raises(ExternalSolverError) as err:
                solve._solver_listing(command, str(path))
            errors.append(str(err.value))
        want = "solver exited with code 2: " + message.format(path=path)
        assert errors == [want, want]
        pid = solve._SERVED.proc.pid
        assert self.served(DATA / "pigfarm1.lp").startswith("status optimal\n")
        assert solve._SERVED.proc.pid == pid

    def test_killed_child_fails_one_solve_then_restarts(self):
        _, model, ctx = pig_setup(1)
        first = solve_external(model, ctx, reference_backend_command())
        killed = solve._SERVED.proc
        killed.send_signal(signal.SIGKILL)
        with pytest.raises(ExternalSolverError,
                           match=f"solver exited with code -{signal.SIGKILL}"):
            solve_external(model, ctx, reference_backend_command())
        assert solve._SERVED.proc is None
        again = solve_external(model, ctx, reference_backend_command())
        assert solve._SERVED.proc.pid != killed.pid
        assert (again.status, again.objective_value) == (
            first.status, first.objective_value)
        np.testing.assert_array_equal(again.x, first.x)

    def test_no_child_outlives_its_parent(self, tmp_path):
        path = tmp_path / "pig2.json"
        save_diagram(gen_pigfarm(PigFarmSpec(n_periods=2)), path)
        code = ("import sys\n"
                "from limid import cli, solve\n"
                f"code = cli.main(['solve', {str(path)!r}, '--backend', "
                "'external', '--json'])\n"
                "print(solve._SERVED.proc.pid, file=sys.stderr)\n"
                "sys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # stdout holds the summary and the JSON record, no line of the child
        *summary, record = proc.stdout.splitlines()
        assert json.loads(record)["status"] == "optimal"
        assert [line.split(":")[0].rstrip() for line in summary
                if not line.startswith("  ")] == [
            "status", "objective (meu)", "strategy", "wall time"]
        with pytest.raises(ProcessLookupError):
            os.kill(int(proc.stderr.split()[-1]), 0)


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
