"""Acceptance suite: ten end-to-end checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Each test pins its tolerance and a wall-clock budget; the
expected numbers are frozen from independent computations (exhaustive
strategy enumeration and plain-Python probability sweeps in
``tests/helpers.py``), not from the library paths under test.

The criteria:

 1. Golden junction trees for the three-period herd problem (plain,
    merged-values, widened over the health stages).
 2. Golden step-by-step trace of the tree-modification algorithm on a
    six-node example.
 3. Validator finds zero violations on trees built and modified for 200
    random diagrams.
 4. Reference and external MILP optima equal the enumeration oracle on
    five benchmark instances.
 5. CVaR optimum equals the enumerated best; decoded tail shares match
    the tail-witness bookkeeping entry by entry.
 6. Chance-constrained optimum equals the constrained oracle and the
    decoded strategy honours the probability bound.
 7. Merging value nodes never changes a strategy's utility distribution.
 8. Propagated cluster masses equal factorized marginals and satisfy
    every model row, for every strategy of the two-period herd.
 9. Local-consistency row counts grow linearly in the horizon for the
    plain tree and geometrically for the merged tree.
10. CVaR at alpha = 1 degenerates to expected utility.
"""

import time

import numpy as np
import pytest

from limid.diagram import NodeKind, Strategy
from limid.generators import NMonitoringSpec, PigFarmSpec, gen_nmonitoring, gen_pigfarm
from limid.inference import Evaluator, cvar_of_distribution, oracle_optimize
from limid.mip import add_risk, build_base_model, model_stats
from limid.risk import CvarObjective, parse_chance_text
from limid.rjt import build_rjt, modify_rjt, validate_rjt
from limid.solve import (
    RowSystem,
    assignment_vector,
    decode,
    propagate_cluster_marginals,
    reference_backend_command,
    solve_external,
    solve_reference,
)
from limid.transform import merge_value_nodes

from helpers import enumerate_strategies, random_diagram, tail_witness
from test_rjt import (
    PIG3_HEALTH_TREE,
    PIG3_MERGED_TREE,
    PIG3_TREE,
    chain_diagram,
    example_tree,
    tree_as_dict,
)

# Optima frozen from exhaustive strategy sweeps (helpers.slow_expected over
# every deterministic strategy), independent of the solver code under test.
PIGFARM_MEU = {1: 821.8, 2: 767.0600000000001, 3: 728.7420000000002}
PIGFARM3_CHANCE_OPT = 616.7832000000001  # P(ill at any stage) <= 0.4
PIGFARM3_CVAR015_OPT = 300.0  # merged values, lower 15 % tail


class Clock:
    """Context manager asserting a wall-clock budget for one criterion."""

    def __init__(self, budget_s):
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.budget_s, (
                f"criterion exceeded its {self.budget_s}s budget: {elapsed:.1f}s"
            )


def test_01_golden_trees_for_three_period_herd():
    with Clock(1.0):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        tree = build_rjt(d)
        assert tree_as_dict(tree) == PIG3_TREE
        assert len(tree.clusters) == 14 and len(tree.arcs()) == 13

        merged, _ = merge_value_nodes(d)
        assert tree_as_dict(build_rjt(merged)) == PIG3_MERGED_TREE

        widened = modify_rjt(tree, ["H1", "H2", "H3", "H4"])
        assert tree_as_dict(widened) == PIG3_HEALTH_TREE
        assert validate_rjt(widened, d) == []


def test_02_golden_modification_trace_on_six_node_example():
    with Clock(1.0):
        d = chain_diagram()
        tree = example_tree()
        assert validate_rjt(tree, d) == []

        trace = []
        final = modify_rjt(tree, ["A", "E", "F"], trace=trace)
        steps = [s for s, _ in trace]

        after_a = tree_as_dict(trace[steps.index(("extend", "A"))][1])
        assert after_a["D"] == ("A B D", "B")
        assert after_a["F"] == ("A B F", "D")

        after_fill = tree_as_dict(trace[steps.index(("fill", "E"))][1])
        assert after_fill["E"] == ("A B C E", "C")

        after_rehang = trace[steps.index(("rehang", "E"))][1]
        assert set(after_rehang.arcs()) == {
            ("A", "B"), ("B", "C"), ("C", "E"), ("E", "D"), ("D", "F")
        }

        assert tree_as_dict(final) == {
            "A": ("A", None),
            "B": ("A B", "A"),
            "C": ("A B C", "B"),
            "E": ("A B C E", "C"),
            "D": ("A B D E", "E"),
            "F": ("A B E F", "D"),
        }
        assert validate_rjt(final, d) == []


def test_03_validator_clean_on_200_random_diagrams():
    with Clock(30.0):
        rng = np.random.default_rng(20260814)
        for _ in range(200):
            d = random_diagram(rng, min_nodes=3, max_nodes=10, max_states=3)
            tree = build_rjt(d)
            assert validate_rjt(tree, d) == []
            names = [n.name for n in d.nodes]
            k = int(rng.integers(1, min(4, len(names)) + 1))
            targets = list(rng.choice(names, size=k, replace=False))
            modified = modify_rjt(tree, targets)
            assert validate_rjt(modified, d) == []


def test_04_meu_reference_and_external_match_oracle():
    with Clock(60.0):
        instances = [
            ("pigfarm", n, gen_pigfarm(PigFarmSpec(n_periods=n)))
            for n in (1, 2, 3)
        ] + [
            ("nmonitoring", n, gen_nmonitoring(NMonitoringSpec(n_monitors=n)))
            for n in (1, 2)
        ]
        for family, n, d in instances:
            oracle = oracle_optimize(d)
            model, ctx = build_base_model(build_rjt(d), d)
            ref = solve_reference(model, ctx)
            assert ref.status == "optimal", (family, n)
            assert ref.objective_value == pytest.approx(
                oracle.objective_value, abs=1e-9
            ), (family, n)
            ext = solve_external(model, ctx, reference_backend_command())
            assert ext.status == "optimal", (family, n)
            assert ext.objective_value == pytest.approx(
                oracle.objective_value, abs=1e-6
            ), (family, n)
            if family == "pigfarm":
                assert oracle.objective_value == pytest.approx(
                    PIGFARM_MEU[n], abs=1e-9
                )


def test_05_cvar_optimum_and_tail_share_semantics():
    with Clock(60.0):
        alpha = 0.15
        d, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=3)))
        model, ctx = build_base_model(build_rjt(d), d)
        add_risk(model, CvarObjective(alpha=alpha), ctx)

        # independent target: best CVaR over all 64 enumerated strategies
        ev = Evaluator(d)
        best = max(
            cvar_of_distribution(ev.distribution_of(ev.value_table(s)), alpha).cvar
            for s in enumerate_strategies(d)
        )
        assert best == pytest.approx(PIGFARM3_CVAR015_OPT, abs=1e-9)

        ref = solve_reference(model, ctx)
        assert ref.status == "optimal"
        assert ref.objective_value == pytest.approx(best, abs=1e-6)

        ext = solve_external(model, ctx, reference_backend_command())
        assert ext.status == "optimal"
        assert ext.objective_value == pytest.approx(best, abs=1e-6)

        # decoded tail shares must match the tail-witness bookkeeping of the
        # winning strategy's utility distribution, entry by entry
        dec = decode(ref, model, ctx)
        witness = tail_witness(dec.distribution, alpha)
        share_of = dict(
            zip(dec.distribution.utilities.tolist(), witness["tail_share"])
        )
        for k, u in enumerate(model.cvar.utilities.tolist()):
            expected = share_of.get(u, 0.0)
            got = ref.x[model.cvar.rhobar[k]]
            assert got == pytest.approx(expected, abs=1e-9), (k, u)


def test_06_chance_constrained_optimum_matches_oracle():
    with Clock(60.0):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        con = parse_chance_text("P(H1=ill|H2=ill|H3=ill|H4=ill) <= 0.4")

        oracle = oracle_optimize(d, constraints=[con])
        assert oracle.feasible
        assert oracle.objective_value == pytest.approx(
            PIGFARM3_CHANCE_OPT, abs=1e-9
        )

        tree = modify_rjt(build_rjt(d), ["H1", "H2", "H3", "H4"])
        model, ctx = build_base_model(tree, d)
        add_risk(model, con, ctx)
        ref = solve_reference(model, ctx)
        assert ref.status == "optimal"
        assert ref.objective_value == pytest.approx(
            oracle.objective_value, abs=1e-9
        )

        dec = decode(ref, model, ctx)
        m = Evaluator(d).marginal(dec.strategy, ("H1", "H2", "H3", "H4"))
        p_any_ill = float(m.sum() - m[0])  # config 0 is all-healthy
        assert p_any_ill <= 0.4 + 1e-9


def test_07_merging_value_nodes_preserves_utility_distributions():
    with Clock(30.0):
        rng = np.random.default_rng(77)
        for _ in range(100):
            d = random_diagram(rng, min_nodes=3, max_nodes=8, min_values=1)
            rules = {}
            for node in d.nodes:
                if node.kind != NodeKind.DECISION:
                    continue
                pcount = 1
                for p in node.parents:
                    pcount *= d.n_states(p)
                rules[node.name] = tuple(
                    int(rng.integers(len(node.states))) for _ in range(pcount)
                )
            strategy = Strategy(rules=rules)
            merged, _ = merge_value_nodes(d)
            ev, ev_merged = Evaluator(d), Evaluator(merged)
            before = ev.distribution_of(ev.value_table(strategy))
            after = ev_merged.distribution_of(ev_merged.value_table(strategy))
            np.testing.assert_allclose(
                before.utilities, after.utilities, atol=1e-12
            )
            np.testing.assert_allclose(
                before.probabilities, after.probabilities, atol=1e-12
            )


def test_08_propagated_masses_match_marginals_and_rows():
    with Clock(30.0):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        model, ctx = build_base_model(build_rjt(d), d)
        ev = Evaluator(d)
        count = 0
        for strategy in enumerate_strategies(d):
            count += 1
            mu = propagate_cluster_marginals(ctx, strategy)
            assignment = {}
            for root in ctx.tree.order:
                lay = ctx.layouts[root]
                want = ev.marginal(strategy, lay.members)
                np.testing.assert_allclose(mu[root], want, atol=1e-9)
                for cfg, val in enumerate(mu[root]):
                    assignment[f"mu_{root}_{cfg}"] = float(val)
            for dn, rule in strategy.rules.items():
                n_pcfg, n_states = model.delta[dn].shape
                for pcfg in range(n_pcfg):
                    for s in range(n_states):
                        assignment[f"delta_{dn}_{pcfg}_{s}"] = float(
                            rule[pcfg] == s
                        )
            x = assignment_vector(model, assignment)
            assert RowSystem(model).violations(x, 1e-9) == []
        assert count == 16


def test_09_consistency_rows_linear_plain_geometric_merged():
    with Clock(30.0):
        plain, merged = [], []
        for n in range(2, 6):
            d = gen_pigfarm(PigFarmSpec(n_periods=n))
            model, ctx = build_base_model(build_rjt(d), d)
            plain.append(model_stats(model)["constraints"]["consistency"])
            dm, _ = merge_value_nodes(d)
            mmodel, _ = build_base_model(build_rjt(dm), dm)
            merged.append(model_stats(mmodel)["constraints"]["consistency"])
        assert plain == [26, 38, 50, 62]  # constant increment: linear growth
        for a, b in zip(merged, merged[1:]):
            assert b / a >= 1.8  # geometric growth per added period
        assert merged[:2] == [38, 86]


def test_10_cvar_at_alpha_one_equals_meu():
    with Clock(10.0):
        d, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=2)))
        model, ctx = build_base_model(build_rjt(d), d)
        meu = solve_reference(model, ctx).objective_value

        cmodel, cctx = build_base_model(build_rjt(d), d)
        add_risk(cmodel, CvarObjective(alpha=1.0), cctx)
        cvar = solve_reference(cmodel, cctx).objective_value

        assert cvar == pytest.approx(meu, abs=1e-9)
        assert meu == pytest.approx(PIGFARM_MEU[2], abs=1e-9)
