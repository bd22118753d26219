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
from pathlib import Path

import numpy as np
import pytest

from limid import solve
from limid.diagram import Cpt, InfluenceDiagram, Node, NodeKind, UtilityMap
from limid.generators import (
    NMonitoringSpec, PigFarmSpec, gen_nmonitoring, gen_pigfarm)
from limid.inference import oracle_optimize, strategy_blocks, strategy_count
from limid.risk import CvarObjective
from limid.solve import (
    RowSystem, reference_backend_command, solve_external, solve_reference)
from limid.transform import merge_value_nodes

from helpers import (
    ENUMERATOR_GROUPS,
    compile_case,
    enumerate_strategies,
    enumerator_cases,
    strategy_vector,
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
                "x_sha256": None if ref.x is None
                else hashlib.sha256(ref.x.tobytes()).hexdigest(),
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
        live = solve._live_columns(model, ctx)
        # The whole enumeration as one block, uneven blocks, and one alone.
        for size in (strategy_count(d), 7):
            got = np.concatenate(
                [solve._full(live, solve._block_vectors(model, ctx, live, block))
                 for block in strategy_blocks(d, size)], axis=1)
            assert got.tobytes() == want.tobytes(), (name, size)
        for k in (0, want.shape[1] - 1):
            s = list(enumerate_strategies(d))[k]
            assert solve._strategy_vector(model, ctx, s).tobytes() \
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


def _live_sizes(model, ctx):
    system = RowSystem(model)
    live = solve._live_columns(model, ctx)
    rows, holds = solve._live_rows(system, live)
    return system, live, rows, holds


def test_live_columns_and_rows():
    d = gen_nmonitoring(NMonitoringSpec(n_monitors=5, seed=1))
    _, _, model, ctx, _, _ = compile_case("nmonitoring-5", d)
    _, live, rows, holds = _live_sizes(model, ctx)
    assert (live.size, len(model.variables)) == (586, 4618)
    assert (rows.matrix.shape[0], len(model.rows)) == (1087, 5183)
    assert holds
    # Every column is live on a pig farm: the block arrays are the full ones.
    _, _, model, ctx, _, _ = compile_case(
        "pigfarm-4", gen_pigfarm(PigFarmSpec(n_periods=4, seed=1)))
    system, live, rows, holds = _live_sizes(model, ctx)
    assert (live.size, len(model.variables)) == (118, 118)
    assert live.cols is None and rows.matrix is system.matrix
    assert rows.matrix.shape[0] == len(model.rows) == 210


def test_row_without_live_term_is_checked_once():
    d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
    _, _, model, ctx, _, _ = compile_case("nmonitoring-3", d)
    xs = np.stack([strategy_vector(model, ctx, s)
                   for s in enumerate_strategies(d)], axis=1)
    _, live, _, _ = _live_sizes(model, ctx)
    dead = np.ones(len(model.variables), dtype=bool)
    dead[live.cols] = False
    # A dead column is 0.0 under every strategy.
    assert dead.any() and not xs[dead].any()
    # A cpt_link row of a zero CPT entry has one term, on a dead column:
    # with rhs 1.0 no strategy meets it.
    rows = model.rows
    one_term = np.flatnonzero(np.diff(rows.indptr) == 1)
    row = next(int(i) for i in one_term if rows.tag(i).startswith("cpt_link")
               and dead[rows.indices[rows.indptr[i]]])
    rows.rhs[row] = 1.0
    system = RowSystem(model)
    feasible = sum(not system.violations(xs[:, k], solve.EXACT_TOL)
                   for k in range(xs.shape[1]))
    ref = solve_reference(model, ctx)
    assert ref.info == {"strategies": xs.shape[1], "feasible": feasible} \
        == {"strategies": 64, "feasible": 0}
    assert (ref.status, ref.strategy, ref.x, ref.objective_value) \
        == ("infeasible", None, None, None)
