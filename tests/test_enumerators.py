"""The block enumerators against one-strategy-at-a-time scoring.

``oracle_optimize`` and ``solve_reference`` score strategies a block at a
time.  Their answers on a fixed set of instances are frozen in
``data/enumerator_answers.json``, taken from the enumerators when they
still scored one strategy at a time, and must be reproduced to the bit.
The assignments the reference builds for a block must equal, bit for bit,
those ``helpers.strategy_vector`` builds one strategy at a time.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from limid import solve
from limid.diagram import Cpt, InfluenceDiagram, Node, NodeKind, UtilityMap
from limid.generators import (
    NMonitoringSpec, PigFarmSpec, gen_nmonitoring, gen_pigfarm)
from limid.inference import oracle_optimize, strategy_blocks, strategy_count
from limid.mip import BINARY, EQ, GE, LE, SENSES, UNIT
from limid.risk import CvarObjective, parse_chance_text
from limid.solve import (
    RowSystem, reference_backend_command, solve_external, solve_reference)
from limid.transform import merge_value_nodes

from helpers import (
    ENUMERATOR_GROUPS,
    compile_case,
    enumerate_strategies,
    enumerator_cases,
    full_masses,
    strategy_vector,
    widen,
)

FROZEN = json.loads(
    (Path(__file__).parent / "data" / "enumerator_answers.json").read_text())


def _rules(strategy):
    return None if strategy is None else {
        d: list(r) for d, r in strategy.rules.items()}


def _bits(value):
    return None if value is None else float(value).hex()


@pytest.mark.parametrize("group", ENUMERATOR_GROUPS)
def test_answers_equal_one_at_a_time_answers(group):
    names = []
    for name, d, model, ctx, objective, constraints in enumerator_cases(group):
        names.append(name)
        oracle = oracle_optimize(d, objective, constraints)
        ref = solve_reference(model, ctx)
        got = {
            "oracle": {
                "best": _rules(oracle.best),
                "objective": _bits(oracle.objective_value),
                "n_strategies": oracle.n_strategies,
                "n_feasible": oracle.n_feasible,
            },
            "reference": {
                "status": ref.status,
                "strategy": _rules(ref.strategy),
                "objective": _bits(ref.objective_value),
                "info": ref.info,
                # hashed in the layout of one column per configuration,
                # the one the answers were frozen in
                "x_sha256": None if ref.x is None
                else hashlib.sha256(widen(model, ctx, ref.x).tobytes()).hexdigest(),
            },
        }
        assert got == FROZEN[name], name
    assert names


def _no_decision_diagram() -> InfluenceDiagram:
    nodes = (
        Node("A", NodeKind.CHANCE, ("a0", "a1", "a2")),
        Node("B", NodeKind.CHANCE, ("b0", "b1"), ("A",)),
        Node("V", NodeKind.VALUE, ("v0", "v1", "v2", "v3", "v4", "v5"),
             ("A", "B")),
    )
    rows = np.array([[0.3, 0.7], [0.55, 0.45], [0.1, 0.9]])
    return InfluenceDiagram(
        nodes=nodes,
        cpts={"A": Cpt("A", np.array([[0.2, 0.5, 0.3]])),
              "B": Cpt("B", rows),
              "V": Cpt("V", np.eye(6))},
        utilities={"V": UtilityMap("V", np.array([-3.0, 1.5, 2.0, 7.25, 0.0, 4.0]))},
    )


def _bit_cases():
    for name, _, model, ctx, _, _ in enumerator_cases("verify"):
        yield name, model, ctx
    for n in (3, 4, 5):
        merged = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=n, seed=1)))[0]
        for alpha in (0.05, 0.5):
            name, _, model, ctx, _, _ = compile_case(
                f"merged pigfarm-{n} cvar{alpha}", merged, CvarObjective(alpha=alpha))
            yield name, model, ctx
    name, _, model, ctx, _, _ = compile_case("no decision", _no_decision_diagram())
    yield name, model, ctx


def test_block_vectors_equal_one_at_a_time_vectors():
    checked = 0
    for name, model, ctx in _bit_cases():
        d = ctx.diagram
        want = np.stack([strategy_vector(model, ctx, s)
                         for s in enumerate_strategies(d)], axis=1)
        system = RowSystem(model)
        products = solve._propagation(ctx)
        # The whole enumeration as one block, uneven blocks, and one alone.
        for size in (strategy_count(d), 7):
            got = np.concatenate(
                [solve._block_vectors(model, ctx, products, block)
                 for block in strategy_blocks(d, size)], axis=1)
            assert got.tobytes() == want.tobytes(), (name, size)
        for k in (0, want.shape[1] - 1):
            s = list(enumerate_strategies(d))[k]
            assert solve._score(system, ctx, s)[0].tobytes() \
                == want[:, k].tobytes(), name
        checked += 1
    assert checked == 21 + 6 + 1


def test_oracle_reference_and_external_agree_at_65536_strategies():
    d = gen_pigfarm(PigFarmSpec(n_periods=8, seed=1))
    oracle = oracle_optimize(d)
    assert oracle.n_strategies == strategy_count(d) == 65536
    _, _, model, ctx, _, _ = compile_case("pigfarm-8", d)
    ref = solve_reference(model, ctx)
    ext = solve_external(model, ctx, reference_backend_command())
    assert ref.info == {"strategies": 65536, "feasible": 65536}
    assert ref.strategy == oracle.best == ext.strategy
    assert ref.objective_value == pytest.approx(oracle.objective_value, rel=1e-12)
    assert ext.objective_value == ref.objective_value


def test_reference_equals_oracle_at_nmonitoring_6_seed_3():
    # The exact optimum of the instance on which the external path is known
    # to answer 685.18485.
    d = gen_nmonitoring(NMonitoringSpec(n_monitors=6, seed=3))
    oracle = oracle_optimize(d)
    _, _, model, ctx, _, _ = compile_case("nmonitoring-6", d)
    ref = solve_reference(model, ctx)
    assert ref.info == {"strategies": 4096, "feasible": 4096}
    assert ref.objective_value == oracle.objective_value == 685.3588739065634
    assert ref.strategy == oracle.best


# Every configuration of this event is dead at nmonitoring n=3: T's CPT
# copies A1's state, so T=fort0_... never meets A1=fort1.
DEAD_EVENT = "P(T=fort0_fort0_fort0_sev0&A1=fort1)"


def test_live_columns_and_rows():
    d = gen_nmonitoring(NMonitoringSpec(n_monitors=5, seed=1))
    _, _, model, ctx, _, _ = compile_case("nmonitoring-5", d)
    # 4,032 of T's 4,096 masses are dead, and with them go all of T's
    # cpt_link rows: a model of 4,618 columns and 5,183 rows would hold them.
    assert {root: (lay.total, lay.live.size) for root, lay in ctx.layouts.items()
            if lay.live.size < lay.total} == {"T": (4096, 64)}
    assert (len(model.variables), len(model.rows)) == (586, 1087)
    assert (len(model.variables) + 4032, len(model.rows) + 4096) == (4618, 5183)
    # Every configuration is live on a seeded pig farm.
    _, _, model, ctx, _, _ = compile_case(
        "pigfarm-4", gen_pigfarm(PigFarmSpec(n_periods=4, seed=1)))
    for lay in ctx.layouts.values():
        assert np.array_equal(lay.live, np.arange(lay.total))
    assert (len(model.variables), len(model.rows)) == (118, 210)


def _dead_event_case(sense):
    d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
    spec = parse_chance_text(f"{DEAD_EVENT}{sense}0.25")
    _, _, model, ctx, _, _ = compile_case("nmonitoring-3", d, constraints=[spec])
    return d, spec, model, ctx


def test_row_without_live_term_is_checked_once():
    # The row of P(event) >= 0.25 is left without terms and kept, since it
    # fails at zero: under every strategy, so every backend finds nothing.
    d, spec, model, ctx = _dead_event_case(">=")
    assert (np.diff(model.rows.indptr)[-1], model.rows.rhs[-1]) == (0, 0.25)
    oracle = oracle_optimize(d, constraints=[spec])
    ref = solve_reference(model, ctx)
    ext = solve_external(model, ctx, reference_backend_command())
    assert (oracle.feasible, oracle.n_feasible) == (False, 0)
    assert ref.info == {"strategies": 64, "feasible": 0}
    assert (ref.status, ref.strategy, ref.x, ref.objective_value) \
        == ("infeasible", None, None, None)
    assert ext.status == "infeasible"


def test_row_dropped_at_zero_keeps_the_oracle_optimum():
    # The row of P(event) <= 0.25 is left without terms and dropped, since
    # it holds at zero: every strategy meets it.
    d, spec, model, ctx = _dead_event_case("<=")
    assert "chance" not in model.rows.family_counts()
    oracle = oracle_optimize(d, constraints=[spec])
    ref = solve_reference(model, ctx)
    ext = solve_external(model, ctx, reference_backend_command())
    assert oracle.n_feasible == ref.info["feasible"] == 64
    assert ref.strategy == oracle.best == ext.strategy
    assert ref.objective_value == pytest.approx(oracle.objective_value, rel=1e-12)
    assert ext.objective_value == ref.objective_value


def _with_zeros(d: InfluenceDiagram) -> InfluenceDiagram:
    """``d`` with the smallest entry of each CPT row of two or more states
    set to 0.0 and the row scaled back to a sum of 1."""
    cpts = {}
    for name, cpt in d.cpts.items():
        rows = cpt.rows.copy()
        if rows.shape[1] > 1:
            rows[np.arange(len(rows)), rows.argmin(axis=1)] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        cpts[name] = Cpt(name, rows)
    return InfluenceDiagram(nodes=d.nodes, cpts=cpts, utilities=d.utilities)


def test_dropped_configurations_carry_no_mass():
    # The 150 random diagrams have no zero CPT entry, so each gets one per
    # row.  Under the reference's strategy, the mass of every configuration
    # left without a column, propagated over all of them, is 0.0; the live
    # masses are the ones the reference's answer holds; and its objective is
    # the oracle's.
    dead = 0
    for name, d, *_ in enumerator_cases("random"):
        if ":merged" in name:
            continue
        d = _with_zeros(d)
        _, _, model, ctx, _, _ = compile_case(name, d)
        ref = solve_reference(model, ctx)
        oracle = oracle_optimize(d)
        # zeros make ties, which rounding may break either way
        assert ref.objective_value == pytest.approx(oracle.objective_value,
                                                    rel=1e-9, abs=1e-12), name
        mu = full_masses(ctx, ref.strategy)
        marginals = solve.propagate_cluster_marginals(ctx, ref.strategy)
        for root, lay in ctx.layouts.items():
            off = np.ones(lay.total, dtype=bool)
            off[lay.live] = False
            assert not mu[root][off].any(), (name, root)
            assert marginals[root].tobytes() == mu[root].tobytes(), (name, root)
            assert marginals[root][lay.live].tobytes() \
                == ref.x[model.mu[root].span].tobytes(), (name, root)
            dead += int(off.sum())
    assert dead


def _agreement_cases():
    # Dead configurations without columns; then every configuration live,
    # with the CVaR block's rows and a chance row 4 of 16 strategies break.
    d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
    yield compile_case("nmonitoring-3", d)
    merged = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=2, seed=1)))[0]
    yield compile_case("merged pigfarm-2 cvar0.3", merged, CvarObjective(alpha=0.3),
                       [parse_chance_text("P(H3=ill) <= 0.45")])


def _plants(model, full):
    """``(kind, rhs shift, column, value shift, must fail)`` per planted
    violation, over the assignments ``full`` (one per strategy).  A row
    plant moves one row's rhs so that its residual passes 1e-3 (an EQ
    row) or the midpoint of its residuals (an LE or GE row).  A column
    plant moves one column by the same amount under every strategy
    and every row's rhs by what that adds to the row, so no row breaks:
    a mass pushed to at most 1 + 1e-3, and a policy bit moved by 0.5."""
    system = RowSystem(model)
    rows = model.rows
    res = system.matrix @ full - rows.rhs[:, None]
    has_term = np.diff(rows.indptr) > 0
    spread = res.max(axis=1) - res.min(axis=1)
    for sense in (EQ, LE, GE):
        fit = has_term & (rows.sense == sense) & ((sense == EQ) | (spread > 2e-3))
        if not fit.any():
            continue
        i = int(np.argmax(np.where(fit, spread, -1.0)))
        mid = 1e-3 if sense == EQ else (res[i].max() + res[i].min()) / 2
        shift = np.zeros(len(rows))
        shift[i] = -mid if sense == EQ else mid
        moved = res[i] - shift[i]
        yield (f"violates sense {SENSES[sense]}", shift, None, 0.0,
               np.abs(moved) > 1e-6 if sense == EQ else
               moved > 1e-6 if sense == LE else moved < -1e-6)
    varies = full.max(axis=1) - full.min(axis=1) > 2e-3
    for var_kind, kind in ((UNIT, "outside [0, 1]"), (BINARY, "is not integral")):
        j = int(np.flatnonzero(varies & (model.variables.kinds == var_kind))[0])
        delta = 1 + 1e-3 - full[j].max() if var_kind == UNIT else 0.5
        step = np.zeros(len(model.variables))
        step[j] = delta
        must_fail = full[j] + delta > 1 + 1e-6 if var_kind == UNIT \
            else np.ones(full.shape[1], dtype=bool)
        yield kind, system.matrix @ step, j, delta, must_fail


def _keys(messages):
    """A message without the residual it prints, which rounding moves."""
    return {re.sub(r" residual \S+", "", m) for m in messages}


def test_block_check_agrees_with_lone_check():
    planted = set()
    for name, d, model, ctx, _, _ in _agreement_cases():
        system = RowSystem(model)
        block = next(strategy_blocks(d, strategy_count(d)))
        xs = solve._block_vectors(model, ctx, solve._propagation(ctx), block)
        rows = model.rows
        base_rhs = rows.rhs.copy()
        names = model.variables.names()
        outcomes = set()
        for tol in (solve.EXACT_TOL, 1e-6):
            base = [system.violations(np.ascontiguousarray(xs[:, k]), tol)
                    for k in range(block.size)]
            for kind, shift, col, delta, must_fail in _plants(model, xs):
                rows.rhs[:] = base_rhs + shift
                p_system = RowSystem(model)
                p_xs = xs.copy()
                if col is not None:
                    p_xs[col] += delta
                ok = solve._passing(p_system, p_xs, tol)
                lone = [p_system.violations(np.ascontiguousarray(p_xs[:, k]), tol)
                        for k in range(block.size)]
                assert ok.tolist() == [not m for m in lone], (name, kind, tol)
                # The plant breaks where it must, and only in its own way.
                added = [_keys(m) - _keys(b) for m, b in zip(lone, base)]
                assert all(any(kind in m for m in new)
                           for new, fail in zip(added, must_fail) if fail), (name, kind)
                own = kind if col is None else f"variable {names[col]} = "
                assert all(own in m for new in added for m in new), (name, kind)
                planted.add(kind)
                outcomes.update(ok.tolist())
                rows.rhs[:] = base_rhs
        assert outcomes == {True, False}, name
    assert planted == {"violates sense ==", "violates sense <=", "violates sense >=",
                       "outside [0, 1]", "is not integral"}
