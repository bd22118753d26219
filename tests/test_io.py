"""JSON round trips for diagrams and strategies."""

import json

import numpy as np
import pytest

from limid.diagram import Strategy, validate_diagram
from limid.diagram_io import (
    diagram_from_dict,
    diagram_to_dict,
    load_diagram,
    load_strategy,
    save_diagram,
    strategy_from_dict,
    strategy_to_dict,
)
from limid.generators import PigFarmSpec, gen_pigfarm
from limid.inference import Evaluator

from helpers import enumerate_strategies, random_diagram


def test_diagram_round_trip_preserves_tables():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_diagram(rng)
        d2 = diagram_from_dict(diagram_to_dict(d))
        assert [n.name for n in d2.nodes] == [n.name for n in d.nodes]
        for n in d.nodes:
            assert d2.kind(n.name) == d.kind(n.name)
            assert d2.states(n.name) == d.states(n.name)
            assert d2.parents(n.name) == d.parents(n.name)
            if n.name in d.cpts:
                np.testing.assert_array_equal(
                    d2.cpts[n.name].rows, d.cpts[n.name].rows
                )
            if n.name in d.utilities:
                np.testing.assert_array_equal(
                    d2.utilities[n.name].values, d.utilities[n.name].values
                )
        assert validate_diagram(d2) == []


def test_diagram_file_round_trip(tmp_path):
    d = gen_pigfarm(PigFarmSpec(n_periods=2))
    path = tmp_path / "pig.json"
    save_diagram(d, path)
    raw = json.loads(path.read_text())
    assert isinstance(raw["nodes"], list)
    d2 = load_diagram(path)
    assert [n.name for n in d2.nodes] == [n.name for n in d.nodes]
    np.testing.assert_allclose(d2.cpts["H2"].rows, d.cpts["H2"].rows)


def test_strategy_round_trip_by_labels(tmp_path):
    d = gen_pigfarm(PigFarmSpec(n_periods=2))
    s = Strategy(rules={"D1": (0, 1), "D2": (1, 0)})
    blob = strategy_to_dict(d, s)
    # labels, not indices, in the serialized form
    assert blob == {"D1": ["pass", "treat"], "D2": ["treat", "pass"]}
    s2 = strategy_from_dict(d, blob)
    assert s2.rules == s.rules
    path = tmp_path / "s.json"
    path.write_text(json.dumps(blob, indent=2) + "\n")
    s3 = load_strategy(d, path)
    assert s3.rules == s.rules
    ev = Evaluator(d)
    assert ev.expected_of(ev.value_table(s3)) == pytest.approx(
        ev.expected_of(ev.value_table(s))
    )


def test_strategy_unknown_names_rejected():
    d = gen_pigfarm(PigFarmSpec(n_periods=1))
    with pytest.raises(ValueError, match="ghost"):
        strategy_from_dict(d, {"ghost": ["pass", "pass"]})
    with pytest.raises(ValueError, match="fly"):
        strategy_from_dict(d, {"D1": ["pass", "fly"]})


def test_every_random_strategy_survives_round_trip():
    rng = np.random.default_rng(17)
    d = random_diagram(rng, min_nodes=4, max_nodes=6)
    for s in enumerate_strategies(d):
        s2 = strategy_from_dict(d, strategy_to_dict(d, s))
        assert s2.rules == s.rules
