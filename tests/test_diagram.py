"""Core data model: nodes, CPTs, indexing, validation, topological order."""

import numpy as np
import pytest

from limid.diagram import (
    CapExceededError,
    ConfigIndexer,
    Cpt,
    InfluenceDiagram,
    Node,
    NodeKind,
    Strategy,
    UtilityMap,
    check_order,
    check_strategy,
    topological_order,
    validate_diagram,
)

from helpers import random_diagram


def two_node_diagram():
    nodes = (
        Node("A", NodeKind.CHANCE, ("lo", "hi"), ()),
        Node("V", NodeKind.VALUE, ("bad", "good"), ("A",)),
    )
    cpts = {
        "A": Cpt("A", np.array([[0.3, 0.7]])),
        "V": Cpt("V", np.array([[0.9, 0.1], [0.2, 0.8]])),
    }
    utilities = {"V": UtilityMap("V", np.array([0.0, 10.0]))}
    return InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities)


class TestConfigIndexer:
    def test_round_trip_every_config(self):
        indexer = ConfigIndexer(("A", "B", "C"), (2, 3, 2))
        assert indexer.total == 12
        seen = set()
        for idx in range(indexer.total):
            states = indexer.states_of(idx)
            assert indexer.index_of(states) == idx
            seen.add(states)
        assert len(seen) == 12

    def test_first_node_most_significant(self):
        indexer = ConfigIndexer(("A", "B"), (2, 3))
        assert indexer.states_of(0) == (0, 0)
        assert indexer.states_of(1) == (0, 1)
        assert indexer.states_of(3) == (1, 0)

    def test_empty_scope_single_config(self):
        indexer = ConfigIndexer((), ())
        assert indexer.total == 1
        assert indexer.states_of(0) == ()


class TestValidation:
    def test_valid_diagram_is_clean(self):
        assert validate_diagram(two_node_diagram()) == []

    def test_random_diagrams_are_clean(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            assert validate_diagram(random_diagram(rng)) == []

    def test_duplicate_names_reported(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
        )
        cpts = {"A": Cpt("A", np.array([[0.5, 0.5]]))}
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        assert any("duplicate" in p for p in validate_diagram(d))

    def test_arc_out_of_value_node_reported(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("V", NodeKind.VALUE, ("u",), ("A",)),
            Node("B", NodeKind.CHANCE, ("x", "y"), ("V",)),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5]])),
            "V": Cpt("V", np.array([[1.0], [1.0]])),
            "B": Cpt("B", np.array([[0.5, 0.5]])),
        }
        utilities = {"V": UtilityMap("V", np.array([1.0]))}
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities)
        assert any("leaves a value node" in p for p in validate_diagram(d))

    def test_bad_row_sum_reported_with_row_index(self):
        d = two_node_diagram()
        bad = dict(d.cpts)
        bad["V"] = Cpt("V", np.array([[0.9, 0.1], [0.2, 0.9]]))
        d2 = InfluenceDiagram(nodes=d.nodes, cpts=bad, utilities=d.utilities)
        problems = validate_diagram(d2)
        assert any("row 1" in p for p in problems)

    def test_negative_probability_reported(self):
        d = two_node_diagram()
        bad = dict(d.cpts)
        bad["A"] = Cpt("A", np.array([[-0.3, 1.3]]))
        d2 = InfluenceDiagram(nodes=d.nodes, cpts=bad, utilities=d.utilities)
        assert any("outside [0, 1]" in p for p in validate_diagram(d2))

    def test_nan_probability_reported(self):
        # NaN fails both the range test and the row-sum test silently
        d = two_node_diagram()
        bad = dict(d.cpts)
        bad["V"] = Cpt("V", np.array([[0.9, 0.1], [np.nan, 0.8]]))
        d2 = InfluenceDiagram(nodes=d.nodes, cpts=bad, utilities=d.utilities)
        assert validate_diagram(d2) == ["CPT for 'V' has non-finite entries"]

    def test_decision_with_cpt_reported(self):
        nodes = (
            Node("D", NodeKind.DECISION, ("a", "b"), ()),
            Node("V", NodeKind.VALUE, ("u",), ("D",)),
        )
        cpts = {
            "D": Cpt("D", np.array([[0.5, 0.5]])),
            "V": Cpt("V", np.array([[1.0], [1.0]])),
        }
        utilities = {"V": UtilityMap("V", np.array([1.0]))}
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities)
        assert any("decision" in p.lower() for p in validate_diagram(d))

    def test_missing_utilities_reported(self):
        d = two_node_diagram()
        d2 = InfluenceDiagram(nodes=d.nodes, cpts=d.cpts, utilities={})
        assert any("utilit" in p for p in validate_diagram(d2))

    def test_unknown_parent_reported(self):
        nodes = (Node("A", NodeKind.CHANCE, ("x", "y"), ("ghost",)),)
        cpts = {"A": Cpt("A", np.array([[0.5, 0.5]]))}
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        assert any("ghost" in p for p in validate_diagram(d))

    def test_cycle_reported(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ("B",)),
            Node("B", NodeKind.CHANCE, ("x", "y"), ("A",)),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5], [0.5, 0.5]])),
            "B": Cpt("B", np.array([[0.5, 0.5], [0.5, 0.5]])),
        }
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        assert any("cycle" in p for p in validate_diagram(d))


class TestTopologicalOrder:
    def test_respects_arcs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = random_diagram(rng)
            order = topological_order(d)
            pos = {n: i for i, n in enumerate(order)}
            assert sorted(order) == sorted(n.name for n in d.nodes)
            for node in d.nodes:
                for p in node.parents:
                    assert pos[p] < pos[node.name]

    def test_prefers_declaration_order(self):
        # A and B are both ready at the start; A is declared first.
        nodes = (
            Node("B", NodeKind.CHANCE, ("x", "y"), ()),
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
        )
        cpts = {
            "B": Cpt("B", np.array([[0.5, 0.5]])),
            "A": Cpt("A", np.array([[0.5, 0.5]])),
        }
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        assert topological_order(d) == ["B", "A"]

    def test_cycle_raises_with_node_names(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ("B",)),
            Node("B", NodeKind.CHANCE, ("x", "y"), ("A",)),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5], [0.5, 0.5]])),
            "B": Cpt("B", np.array([[0.5, 0.5], [0.5, 0.5]])),
        }
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        with pytest.raises(ValueError, match="A|B"):
            topological_order(d)

    def test_check_order_accepts_valid_permutation(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("B", NodeKind.CHANCE, ("x", "y"), ()),
            Node("C", NodeKind.CHANCE, ("x", "y"), ("A", "B")),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5]])),
            "B": Cpt("B", np.array([[0.5, 0.5]])),
            "C": Cpt("C", np.full((4, 2), 0.5)),
        }
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        check_order(d, ["B", "A", "C"])  # fine: arcs still respected
        with pytest.raises(ValueError):
            check_order(d, ["C", "A", "B"])
        with pytest.raises(ValueError):
            check_order(d, ["A", "B"])  # not a permutation


class TestStrategy:
    def test_check_strategy_happy_path(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("D", NodeKind.DECISION, ("no", "yes"), ("A",)),
        )
        cpts = {"A": Cpt("A", np.array([[0.5, 0.5]]))}
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        s = Strategy(rules={"D": (0, 1)})
        assert check_strategy(d, s) == []

    def test_check_strategy_reports_problems(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("D", NodeKind.DECISION, ("no", "yes"), ("A",)),
        )
        cpts = {"A": Cpt("A", np.array([[0.5, 0.5]]))}
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        assert check_strategy(d, Strategy(rules={})) != []
        assert check_strategy(d, Strategy(rules={"D": (0,)})) != []
        assert check_strategy(d, Strategy(rules={"D": (0, 5)})) != []
        assert check_strategy(
            d, Strategy(rules={"D": (0, 1), "X": (0,)})
        ) != []

    def test_rule_length_is_the_parent_configuration_count(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("B", NodeKind.CHANCE, ("p", "q", "r"), ()),
            Node("D", NodeKind.DECISION, ("no", "yes"), ("A", "B")),
            Node("E", NodeKind.DECISION, ("no", "yes"), ()),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5]])),
            "B": Cpt("B", np.array([[0.2, 0.3, 0.5]])),
        }
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        ok = Strategy(rules={"D": (0,) * 6, "E": (1,)})
        assert check_strategy(d, ok) == []
        short = Strategy(rules={"D": (0,) * 5, "E": (1, 0)})
        assert check_strategy(d, short) == [
            "strategy for 'D' has 5 entries, expected 6",
            "strategy for 'E' has 2 entries, expected 1",
        ]


class TestCapError:
    def test_fields_and_message(self):
        err = CapExceededError("joint state space", 1 << 30, 1 << 26)
        assert err.size == 1 << 30
        assert err.cap == 1 << 26
        assert "joint state space" in str(err)
