"""``modify_rjt`` against results frozen before it found the re-hang point
as the lowest common ancestor on the parent links, a reproducer of the
routing that frozen code got wrong, and the cluster-tree walks against
brute-force definitions on the parent links.

``data/modify_rjt_golden.json`` holds 300 seeded draws: a random diagram,
then one to three chained ``modify_rjt`` calls of one to five targets each,
starting from ``build_rjt``.  Each call is frozen as its final tree and its
trace or, when it raised, its error; a chain stops at its first error.  The
frozen code took the topologically largest cluster reaching both targets as
their common ancestor, which stops holding once a re-hang has put a cluster
above an earlier one, and then raised ``expected one branch ...`` on valid
input.  Running this file as a script rewrites the data with the installed
``limid``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from limid.diagram import Cpt, InfluenceDiagram, Node, NodeKind, UtilityMap
from limid.rjt import (
    build_rjt,
    modify_rjt,
    reachable_roots,
    validate_rjt,
)

from helpers import random_diagram, tree_path

GOLDEN = Path(__file__).parent / "data" / "modify_rjt_golden.json"
SEED = 2024
N_DRAWS = 300


def draws():
    """(diagram, target lists of the chained calls) for every seeded draw."""
    rng = np.random.default_rng(SEED)
    for _ in range(N_DRAWS):
        d = random_diagram(rng, max_nodes=10)
        names = [n.name for n in d.nodes]
        calls = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, min(5, len(names)) + 1))
            calls.append([str(t) for t in rng.choice(names, size=k, replace=False)])
        yield d, calls


def encode(tree):
    return {r: [" ".join(tree.members(r)), tree.parent.get(r)] for r in tree.order}


def run_call(tree, targets):
    """Frozen form of one call, and the tree it returned (None on error)."""
    trace = []
    try:
        out = modify_rjt(tree, targets, trace=trace)
    except ValueError as exc:
        return {"targets": targets, "error": str(exc)}, None
    steps = [[step, node, encode(snap)] for (step, node), snap in trace]
    return {"targets": targets, "tree": encode(out), "trace": steps}, out


def freeze():
    frozen = []
    for d, calls in draws():
        tree, record = build_rjt(d), []
        for targets in calls:
            entry, tree = run_call(tree, targets)
            record.append(entry)
            if tree is None:
                break
        frozen.append({"nodes": d.names(), "calls": record})
    GOLDEN.write_text(json.dumps(frozen, separators=(",", ":")) + "\n")


# Brute-force definitions on the parent links.


def ancestors(tree, r):
    return {r} | (ancestors(tree, tree.parent[r]) if tree.parent[r] else set())


def brute_preorder(tree):
    def visit(r):
        out = [r]
        for c in tree.order:
            if tree.parent[c] == r:
                out += visit(c)
        return out

    (top,) = [r for r in tree.order if tree.parent[r] is None]
    return visit(top)


def check_walks(tree):
    up = {r: ancestors(tree, r) for r in tree.order}
    assert tree.preorder() == brute_preorder(tree)
    for a in tree.order:
        assert reachable_roots(tree, a) == {r for r in tree.order if a in up[r]}
        for b in tree.order:
            path = sorted(
                (c for c in up[b] if a in up[c]), key=lambda c: len(up[c])
            )
            assert tree_path(tree, a, b) == tuple(path)


def check_covered(tree, diagram, targets):
    """The tree is valid and one target's cluster holds every target."""
    assert validate_rjt(tree, diagram) == []
    assert any(set(targets) <= set(tree.members(t)) for t in targets)


def test_frozen_calls_reproduced_and_wrong_branch_errors_resolved():
    frozen = json.loads(GOLDEN.read_text())
    assert len(frozen) == N_DRAWS
    counts = {"same": 0, "resolved": 0, "refused": 0}
    for (d, calls), draw in zip(draws(), frozen):
        assert d.names() == draw["nodes"]
        tree = build_rjt(d)
        check_walks(tree)
        for targets, entry in zip(calls, draw["calls"]):
            assert entry["targets"] == targets
            if "error" not in entry:
                got, tree = run_call(tree, targets)
                assert got == entry
                counts["same"] += 1
                check_walks(tree)
                continue
            assert entry["error"].startswith("expected one branch from ")
            try:
                out = modify_rjt(tree, targets)
            except ValueError:
                counts["refused"] += 1
                break
            check_covered(out, d, targets)
            check_walks(out)
            counts["resolved"] += 1
            break
    assert counts == {"same": 603, "resolved": 7, "refused": 0}


def two_branch_diagram():
    """Chance roots A and B; value C under A; chance D and E under B."""
    two = ("0", "1")
    nodes = (
        Node("A", NodeKind.CHANCE, two, ()),
        Node("B", NodeKind.CHANCE, two, ()),
        Node("C", NodeKind.VALUE, two, ("A",)),
        Node("D", NodeKind.CHANCE, two, ("B",)),
        Node("E", NodeKind.CHANCE, two, ("B",)),
    )
    cpts = {
        n.name: Cpt(n.name, np.full((2 ** len(n.parents), 2), 0.5)) for n in nodes
    }
    utilities = {"C": UtilityMap("C", np.array([0.0, 1.0]))}
    return InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities)


def test_rehang_routed_through_lowest_common_ancestor():
    # Routing C re-hangs C_B below C_C.  C_B is then the lowest cluster
    # above both C_D and C_E, though C_C comes later in node order.
    d = two_branch_diagram()
    tree = modify_rjt(build_rjt(d), ["C", "D", "E"])
    assert validate_rjt(tree, d) == []
    assert {"C", "D", "E"} <= set(tree.members("E"))

    # C_C now sits above C_B, and the targets gather in C_B below it.
    check_covered(modify_rjt(tree, ["B", "C"]), d, ["B", "C"])


# (draw, call) of the three frozen calls in which C_m comes to lie above
# another target's cluster, so the targets gather below C_m.
ONCE_REFUSED = [(88, 1), (91, 2), (99, 1)]


@pytest.mark.parametrize("draw, call", ONCE_REFUSED)
def test_targets_gather_below_a_cluster_above_another_target(draw, call):
    d, calls = list(draws())[draw]
    assert "error" in json.loads(GOLDEN.read_text())[draw]["calls"][call]
    tree = build_rjt(d)
    for targets in calls[:call]:
        tree = modify_rjt(tree, targets)
    targets = calls[call]
    out = modify_rjt(tree, targets)
    check_covered(out, d, targets)
    # The targets gathered in a cluster below C_m, which lacks one of them.
    pos = {n: i for i, n in enumerate(d.names())}
    assert not set(targets) <= set(out.members(max(targets, key=pos.__getitem__)))


def test_second_call_on_the_reproducer_keeps_the_tree():
    # C_B already holds {B, C} below C_C, so there is nothing to route.
    d = two_branch_diagram()
    tree = modify_rjt(build_rjt(d), ["C", "D", "E"])
    assert {"B", "C"} <= set(tree.members("B"))
    assert modify_rjt(tree, ["B", "C"]) == tree


if __name__ == "__main__":
    sys.exit(freeze())
