"""The LP text the external bridge exchanges, read back by HiGHS: the LP
HiGHS holds after reading ``export_lp(model)`` is the model it was written
from, float bits included.
"""

import numpy as np
import pytest

from limid.diagram import NodeKind
from limid.generators import PigFarmSpec, gen_pigfarm
from limid.milp_backend import parse_lp
from limid.mip import BINARY, FREE, GE, LE, add_risk, build_base_model
from limid.risk import (
    BudgetConstraint,
    CvarObjective,
    parse_chance_text,
    parse_logical_text,
)
from limid.rjt import build_rjt, modify_rjt
from limid.solve import export_lp
from limid.transform import merge_value_nodes

from helpers import random_diagram


def random_model(rng: np.random.Generator):
    """A small model with chance, logical and budget rows, or a merged one
    with a CVaR block."""
    while True:
        d = random_diagram(rng, min_nodes=3, max_nodes=5, max_states=2,
                           require_value=True)
        chance = [n for n in d.nodes if n.kind == NodeKind.CHANCE]
        decisions = [n for n in d.nodes if n.kind == NodeKind.DECISION]
        if chance and decisions:
            break
    if rng.random() < 0.3:
        merged, _ = merge_value_nodes(d)
        model, ctx = build_base_model(build_rjt(merged), merged)
        add_risk(model, CvarObjective(alpha=float(rng.choice([0.05, 0.5]))), ctx)
        return model
    c, dn = chance[-1], decisions[0]
    order = [n.name for n in d.nodes]
    model, ctx = build_base_model(
        modify_rjt(build_rjt(d), sorted({c.name, dn.name}, key=order.index)), d)
    for spec in (
        parse_chance_text(f"P({c.name}={c.states[0]})<={rng.uniform(0.2, 0.9):.3f}"),
        parse_logical_text(f"P({dn.name}={dn.states[-1]}&{c.name}={c.states[-1]})"),
        BudgetConstraint(costs={dn.name: {dn.states[0]: 1.0}},
                         limit=float(rng.integers(0, 3))),
    ):
        add_risk(model, spec, ctx)
    return model


def round_trip_models():
    rng = np.random.default_rng(17)
    for k in range(30):
        yield f"random{k}", random_model(rng)
    merged, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=3)))
    model, ctx = build_base_model(build_rjt(merged), merged)
    add_risk(model, CvarObjective(alpha=0.15), ctx)
    yield "pigfarm3-merged-cvar", model


@pytest.mark.parametrize("name, model", list(round_trip_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_export_then_parse_gives_the_model(name, model, tmp_path):
    path = tmp_path / "model.lp"
    path.write_text(export_lp(model))
    highs, sign, offset = parse_lp(str(path))
    lp = highs.getLp()
    names = model.variables.names()
    # the model's column of each column HiGHS holds
    col = np.array([names.index(n) for n in lp.col_names_])
    assert sorted(col) == list(range(len(names)))

    def hexed(values):
        return [float(v).hex() for v in values]

    assert (sign, offset) == (-1.0, 0.0)
    assert hexed(lp.col_cost_) == hexed(-(0.0 + model.objective[col]))
    # every term, as (row, model column) -> coefficient, each summed from 0.0
    rows = model.rows
    want = {}
    for i in range(len(rows)):
        for k in range(rows.indptr[i], rows.indptr[i + 1]):
            key = (i, int(rows.indices[k]))
            want[key] = want.get(key, 0.0) + float(rows.data[k])
    matrix = lp.a_matrix_
    got = {(int(matrix.index_[k]), int(col[j])): float(matrix.value_[k])
           for j in range(len(col))
           for k in range(matrix.start_[j], matrix.start_[j + 1])}
    assert got.keys() == want.keys()
    assert hexed(got.values()) == hexed(want[key] for key in got)
    assert len(lp.row_lower_) == len(rows)
    rhs = rows.rhs
    assert hexed(lp.row_lower_) == hexed(np.where(rows.sense == LE, -np.inf, rhs))
    assert hexed(lp.row_upper_) == hexed(np.where(rows.sense == GE, np.inf, rhs))
    kinds = model.variables.kinds[col]
    assert hexed(lp.col_lower_) == hexed(np.where(kinds == FREE, -np.inf, 0.0))
    assert hexed(lp.col_upper_) == hexed(np.where(kinds == FREE, np.inf, 1.0))
    integer = [int(v) for v in lp.integrality_] or [0] * len(col)
    assert integer == (kinds == BINARY).astype(int).tolist()
