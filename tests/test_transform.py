"""Value-node merging: one stochastic consequence node that carries the sum."""

import numpy as np
import pytest

from limid import transform
from limid.diagram import (
    CapExceededError,
    Cpt,
    InfluenceDiagram,
    Node,
    NodeKind,
    UtilityMap,
    validate_diagram,
)
from limid.generators import PigFarmSpec, gen_pigfarm
from limid.inference import Evaluator
from limid.transform import MERGED_NAME, merge_value_nodes

from helpers import random_diagram, slow_distribution, slow_strategies


def test_merged_diagram_is_valid_and_single_valued():
    d = gen_pigfarm(PigFarmSpec(n_periods=3))
    merged, mapping = merge_value_nodes(d)
    assert validate_diagram(merged) == []
    assert merged.value_nodes == [MERGED_NAME]
    assert mapping.components == ("V1", "V2", "V3", "V4")
    # merged parents: union of component parents, topologically ordered
    assert merged.parents(MERGED_NAME) == ("D1", "D2", "D3", "H4")


def test_merged_states_enumerate_component_combinations():
    d = gen_pigfarm(PigFarmSpec(n_periods=1))
    merged, mapping = merge_value_nodes(d)
    states = merged.states(MERGED_NAME)
    assert len(states) == 4  # (skip/inject) x (sell_healthy/sell_ill)
    assert states[0].count("|") == 1
    idx = mapping.merged_index((1, 0))
    assert mapping.component_states(idx) == (1, 0)


def test_merged_utilities_are_componentwise_sums():
    d = gen_pigfarm(PigFarmSpec(n_periods=1))
    merged, mapping = merge_value_nodes(d)
    values = merged.utilities[MERGED_NAME].values
    for idx in range(values.size):
        s1, s2 = mapping.component_states(idx)
        expect = d.utilities["V1"].values[s1] + d.utilities["V2"].values[s2]
        assert values[idx] == expect


def test_merge_preserves_utility_distribution_exactly():
    # the core guarantee: same total-utility law for every strategy
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(12):
        d = random_diagram(rng, min_nodes=4, max_nodes=7, min_values=2)
        if len(d.value_nodes) < 2:
            continue
        merged, _ = merge_value_nodes(d)
        assert validate_diagram(merged) == []
        ev0, ev1 = Evaluator(d), Evaluator(merged)
        for s in slow_strategies(d):
            d0, d1 = ev0.distribution(s), ev1.distribution(s)
            np.testing.assert_array_equal(d0.utilities, d1.utilities)
            np.testing.assert_allclose(
                d0.probabilities, d1.probabilities, atol=1e-12
            )
            checked += 1
    assert checked > 10


def test_merge_agrees_with_slow_enumeration():
    rng = np.random.default_rng(29)
    d = random_diagram(rng, min_nodes=4, max_nodes=6, min_values=2)
    merged, _ = merge_value_nodes(d)
    ev = Evaluator(merged)
    for s in slow_strategies(d):
        slow = slow_distribution(d, s, round_digits=6)
        fast = ev.distribution(s)
        fast_dict = {round(u, 6): p for u, p in fast.atoms}
        assert set(fast_dict) == set(slow)
        for u, p in slow.items():
            assert fast_dict[u] == pytest.approx(p, abs=1e-12)


def test_custom_name_and_collision():
    nodes = [
        Node(MERGED_NAME, NodeKind.CHANCE, ("x", "y")),
        Node("U", NodeKind.VALUE, ("a", "b"), (MERGED_NAME,)),
    ]
    d = InfluenceDiagram(
        nodes=nodes,
        cpts={MERGED_NAME: Cpt(MERGED_NAME, np.array([[0.5, 0.5]])),
              "U": Cpt("U", np.eye(2))},
        utilities={"U": UtilityMap("U", np.array([0.0, 1.0]))},
    )
    with pytest.raises(ValueError, match=MERGED_NAME):
        merge_value_nodes(d)


def test_no_value_nodes_rejected():
    nodes = (Node("A", NodeKind.CHANCE, ("x", "y"), ()),)
    d = InfluenceDiagram(
        nodes=nodes, cpts={"A": Cpt("A", np.array([[0.5, 0.5]]))}, utilities={}
    )
    with pytest.raises(ValueError, match="value"):
        merge_value_nodes(d)


def test_state_cap_enforced(monkeypatch):
    d = gen_pigfarm(PigFarmSpec(n_periods=3))
    monkeypatch.setattr(transform, "MERGED_STATES_CAP", 8)
    with pytest.raises(CapExceededError):
        merge_value_nodes(d)
