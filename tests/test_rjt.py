"""Rooted junction trees: construction goldens, modification walkthrough,
validator properties on random diagrams."""

from collections import Counter

import numpy as np
import pytest

from limid.diagram import Cpt, InfluenceDiagram, Node, NodeKind, topological_order
from limid.generators import PigFarmSpec, gen_pigfarm
from limid.rjt import (
    build_rjt,
    modify_rjt,
    reachable_roots,
    to_dot,
    tree_from_members,
    validate_rjt,
)
from limid.transform import merge_value_nodes

from helpers import random_diagram, tree_path

# Pig farm, three periods: the expected tree as {root: (members, parent)}.
PIG3_TREE = {
    "H1": ("H1", None),
    "T1": ("H1 T1", "H1"),
    "D1": ("H1 T1 D1", "T1"),
    "V1": ("D1 V1", "D1"),
    "H2": ("H1 D1 H2", "D1"),
    "T2": ("H2 T2", "H2"),
    "D2": ("H2 T2 D2", "T2"),
    "V2": ("D2 V2", "D2"),
    "H3": ("H2 D2 H3", "D2"),
    "T3": ("H3 T3", "H3"),
    "D3": ("H3 T3 D3", "T3"),
    "V3": ("D3 V3", "D3"),
    "H4": ("H3 D3 H4", "D3"),
    "V4": ("H4 V4", "H4"),
}

# Same diagram after merging value nodes: a simple chain of 11 clusters.
PIG3_MERGED_TREE = {
    "H1": ("H1", None),
    "T1": ("H1 T1", "H1"),
    "D1": ("H1 T1 D1", "T1"),
    "H2": ("H1 D1 H2", "D1"),
    "T2": ("D1 H2 T2", "H2"),
    "D2": ("D1 H2 T2 D2", "T2"),
    "H3": ("D1 H2 D2 H3", "D2"),
    "T3": ("D1 D2 H3 T3", "H3"),
    "D3": ("D1 D2 H3 T3 D3", "T3"),
    "H4": ("D1 D2 H3 D3 H4", "D3"),
    "V_merged": ("D1 D2 D3 H4 V_merged", "H4"),
}

# Pig farm tree widened so one cluster holds every health stage.
PIG3_HEALTH_TREE = {
    "H1": ("H1", None),
    "T1": ("H1 T1", "H1"),
    "D1": ("H1 T1 D1", "T1"),
    "V1": ("D1 V1", "D1"),
    "H2": ("H1 D1 H2", "D1"),
    "T2": ("H1 H2 T2", "H2"),
    "D2": ("H1 H2 T2 D2", "T2"),
    "V2": ("D2 V2", "D2"),
    "H3": ("H1 H2 D2 H3", "D2"),
    "T3": ("H1 H2 H3 T3", "H3"),
    "D3": ("H1 H2 H3 T3 D3", "T3"),
    "V3": ("D3 V3", "D3"),
    "H4": ("H1 H2 H3 D3 H4", "D3"),
    "V4": ("H4 V4", "H4"),
}


def tree_as_dict(tree):
    return {
        root: (" ".join(tree.members(root)), tree.parent.get(root))
        for root in tree.order
    }


def chain_diagram():
    """Six chance nodes wired A->B->{C,D,F}, C->E; admits the example tree."""
    names = ["A", "B", "C", "D", "E", "F"]
    parents = {"A": (), "B": ("A",), "C": ("B",), "D": ("B",),
               "E": ("C",), "F": ("B",)}
    nodes = tuple(
        Node(n, NodeKind.CHANCE, ("0", "1"), parents[n]) for n in names
    )
    cpts = {
        n: Cpt(n, np.full((2 ** len(parents[n]), 2), 0.5)) for n in names
    }
    return InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})


def example_tree():
    """The hand-drawn six-cluster tree used in the modification walkthrough."""
    member_map = {
        "A": ("A",),
        "B": ("A", "B"),
        "C": ("A", "B", "C"),
        "E": ("B", "C", "E"),
        "D": ("B", "D"),
        "F": ("B", "F"),
    }
    parent = {"A": None, "B": "A", "C": "B", "E": "C", "D": "B", "F": "D"}
    return tree_from_members(
        ["A", "B", "C", "D", "E", "F"], member_map, parent
    )


class TestBuildGoldens:
    def test_pig_farm_tree_matches_expected_structure(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        tree = build_rjt(d)
        assert tree_as_dict(tree) == PIG3_TREE
        assert len(tree.arcs()) == 13
        assert tree.width() == 2  # largest cluster has 3 nodes
        assert validate_rjt(tree, d) == []

    def test_merged_pig_farm_tree_is_a_chain(self):
        d, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=3)))
        tree = build_rjt(d)
        assert tree_as_dict(tree) == PIG3_MERGED_TREE
        # a chain: every cluster except the last has exactly one child
        kids = Counter(tree.parent.values())
        for root in tree.order[:-1]:
            assert kids[root] == 1
        assert tree.width() == 4

    def test_explicit_order_must_be_topological(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=1))
        good = ["H1", "T1", "D1", "V1", "H2", "V2"]
        tree = build_rjt(d, order=good)
        assert validate_rjt(tree, d) == []
        with pytest.raises(ValueError):
            build_rjt(d, order=["T1", "H1", "D1", "V1", "H2", "V2"])

    def test_disconnected_diagram_still_yields_one_tree(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("B", NodeKind.CHANCE, ("x", "y"), ()),
        )
        cpts = {n: Cpt(n, np.array([[0.5, 0.5]])) for n in ("A", "B")}
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        tree = build_rjt(d)
        assert validate_rjt(tree, d) == []
        assert tree.parent["B"] == "A"


class TestValidator:
    def test_detects_dropped_member(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        tree = build_rjt(d)
        # delete H2 from the cluster rooted at D2
        broken_members = dict(
            (r, tree.members(r)) for r in tree.order
        )
        broken_members["D2"] = ("T2", "D2")
        broken = tree_from_members(
            list(tree.order), broken_members, dict(tree.parent)
        )
        problems = validate_rjt(broken, d)
        assert problems != []
        assert any("H2" in p for p in problems)

    def test_detects_missing_information_set(self):
        d = chain_diagram()
        tree = build_rjt(d)
        members = {r: tree.members(r) for r in tree.order}
        members["E"] = ("E",)  # drops I(E) = {C}
        broken = tree_from_members(list(tree.order), members, dict(tree.parent))
        assert any("I(" in p or "C" in p for p in validate_rjt(broken, d))

    def test_detects_two_top_clusters(self):
        d = chain_diagram()
        tree = build_rjt(d)
        parent = dict(tree.parent)
        parent["F"] = None
        members = {r: tree.members(r) for r in tree.order}
        broken = tree_from_members(list(tree.order), members, parent)
        assert validate_rjt(broken, d) != []


class TestModificationWalkthrough:
    def test_example_tree_is_valid(self):
        d = chain_diagram()
        tree = example_tree()
        assert validate_rjt(tree, d) == []

    def test_path_queries(self):
        tree = example_tree()
        assert tree_path(tree, "A", "F") == ("A", "B", "D", "F")
        assert tree_path(tree, "E", "F") == ()
        assert tree_path(tree, "E", "E") == ("E",)
        assert reachable_roots(tree, "B") == {"B", "C", "D", "E", "F"}
        assert reachable_roots(tree, "A") == set("ABCDEF")

    def test_modify_trace_matches_walkthrough(self):
        tree = example_tree()
        trace = []
        final = modify_rjt(tree, ["A", "E", "F"], trace=trace)
        steps = [s for s, _ in trace]
        # first target A is extended into the clusters of D and F
        assert ("extend", "A") in steps
        after_a = tree_as_dict(trace[steps.index(("extend", "A"))][1])
        assert after_a["D"] == ("A B D", "B")
        assert after_a["F"] == ("A B F", "D")
        # then E: fill with the separator, re-hang, extend
        assert ("fill", "E") in steps
        after_fill = tree_as_dict(trace[steps.index(("fill", "E"))][1])
        assert after_fill["E"] == ("A B C E", "C")
        assert ("rehang", "E") in steps
        after_rehang = trace[steps.index(("rehang", "E"))][1]
        assert after_rehang.parent["D"] == "E"
        assert set(after_rehang.arcs()) == {
            ("A", "B"), ("B", "C"), ("C", "E"), ("E", "D"), ("D", "F")
        }
        assert ("extend", "E") in steps
        # final tree: the walkthrough's last figure
        assert tree_as_dict(final) == {
            "A": ("A", None),
            "B": ("A B", "A"),
            "C": ("A B C", "B"),
            "E": ("A B C E", "C"),
            "D": ("A B D E", "E"),
            "F": ("A B E F", "D"),
        }
        assert validate_rjt(final, chain_diagram()) == []

    def test_modify_covers_targets_in_last_target_cluster(self):
        tree = example_tree()
        final = modify_rjt(tree, ["A", "E", "F"])
        assert {"A", "E", "F"} <= set(final.members("F"))

    def test_modify_pig_farm_health_stages(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        tree = modify_rjt(build_rjt(d), ["H1", "H2", "H3", "H4"])
        assert tree_as_dict(tree) == PIG3_HEALTH_TREE
        assert validate_rjt(tree, d) == []
        assert {"H1", "H2", "H3", "H4"} <= set(tree.members("H4"))

    def test_modify_noop_when_already_covered(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        tree = build_rjt(d)
        same = modify_rjt(tree, ["H1", "T1"])  # both already in C_D1 chain
        assert tree_as_dict(same) == tree_as_dict(tree)

    def test_modify_unknown_target_rejected(self):
        tree = example_tree()
        with pytest.raises(ValueError, match="Z"):
            modify_rjt(tree, ["A", "Z"])


class TestRandomProperties:
    def test_build_and_modify_stay_valid(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            d = random_diagram(rng, max_nodes=10)
            tree = build_rjt(d)
            assert validate_rjt(tree, d) == []
            names = [n.name for n in d.nodes]
            k = int(rng.integers(1, min(4, len(names)) + 1))
            targets = list(
                rng.choice(names, size=k, replace=False)
            )
            modified = modify_rjt(tree, targets)
            assert validate_rjt(modified, d) == []
            pos = {n: i for i, n in enumerate(modified.order)}
            last = max(targets, key=lambda n: pos[n])
            assert set(targets) <= set(modified.members(last))

    def test_tree_respects_alternative_orders(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            d = random_diagram(rng, max_nodes=7)
            base = topological_order(d)
            # reverse-stable shuffle that keeps parents before children
            perm = sorted(
                base, key=lambda n: (len(d.parents(n)), rng.random())
            )
            try:
                tree = build_rjt(d, order=perm)
            except ValueError:
                continue  # shuffle broke topological order; skip draw
            assert validate_rjt(tree, d) == []


def test_to_dot_mentions_every_cluster():
    d = gen_pigfarm(PigFarmSpec(n_periods=2))
    tree = build_rjt(d)
    dot = to_dot(tree)
    assert dot.startswith("digraph")
    for root in tree.order:
        assert root in dot
