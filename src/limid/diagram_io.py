"""JSON serialization for diagrams and strategies.

Diagram files look like::

    {
      "nodes": [{"name": "H1", "kind": "chance",
                 "states": ["healthy", "ill"], "parents": []}, ...],
      "cpts": {"H1": [0.9, 0.1], ...},
      "utilities": {"V4": [1000.0, 300.0], ...}
    }

CPT arrays are flat, ordered parent-config outer / state inner (the parent
configuration index comes from the node's declared parent order, first
parent most significant).  Strategy files map each decision name to the
chosen state label per parent configuration index.

Probabilities are parsed as decimal literals by the JSON reader and written
back with the shortest round-tripping representation, so load(save(d))
reproduces bit-identical floats and save(load(path)) is byte-stable.
"""

from __future__ import annotations

import json
from typing import Any, Dict

import numpy as np

from .diagram import Cpt, InfluenceDiagram, Node, NodeKind, Strategy, UtilityMap


def diagram_to_dict(diagram: InfluenceDiagram) -> Dict[str, Any]:
    return {
        "nodes": [
            {
                "name": n.name,
                "kind": n.kind.value,
                "states": list(n.states),
                "parents": list(n.parents),
            }
            for n in diagram.nodes
        ],
        "cpts": {
            name: [float(x) for x in cpt.rows.ravel()]
            for name, cpt in diagram.cpts.items()
        },
        "utilities": {
            name: [float(x) for x in um.values]
            for name, um in diagram.utilities.items()
        },
    }


def diagram_from_dict(data: Dict[str, Any]) -> InfluenceDiagram:
    """Raises ``ValueError`` naming the first part of ``data`` that does not
    have the shape shown above."""
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ValueError("a diagram is a JSON object with a 'nodes' list")
    for key in ("cpts", "utilities"):
        if not isinstance(data.get(key, {}), dict):
            raise ValueError(f"a diagram's {key!r} must map node names to lists")
    nodes = [_node_from_dict(i, nd) for i, nd in enumerate(data["nodes"])]
    by_name = {n.name: n for n in nodes}
    cpts = {}
    for name, flat in data.get("cpts", {}).items():
        node = by_name.get(name)
        if node is None:
            raise ValueError(f"CPT given for unknown node {name!r}")
        if not isinstance(flat, list):
            raise ValueError(f"CPT for {name!r} must be a list of numbers")
        n_states = len(node.states)
        if n_states == 0 or len(flat) % n_states != 0:
            raise ValueError(
                f"CPT for {name!r} has {len(flat)} entries, "
                f"not a multiple of {n_states} states"
            )
        rows = np.asarray(flat, dtype=float).reshape(-1, n_states)
        cpts[name] = Cpt(owner=name, rows=rows)
    utilities = {}
    for name, vals in data.get("utilities", {}).items():
        if not isinstance(vals, list):
            raise ValueError(f"utilities for {name!r} must be a list of numbers")
        utilities[name] = UtilityMap(owner=name, values=np.asarray(vals, dtype=float))
    return InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities)


def _node_from_dict(i: int, nd: Any) -> Node:
    if not isinstance(nd, dict):
        raise ValueError(f"node {i} must be a JSON object")
    for key in ("name", "kind", "states"):
        if key not in nd:
            raise ValueError(f"node {i} lacks {key!r}")
    labels = [nd["name"]]
    for key in ("states", "parents"):
        if not isinstance(nd.get(key, []), list):
            raise ValueError(f"node {i}'s {key!r} must be a list of names")
        labels += nd.get(key, [])
    if not all(isinstance(x, str) for x in labels):
        raise ValueError(f"node {i}'s name, states and parents must be strings")
    return Node(
        name=nd["name"],
        kind=NodeKind(nd["kind"]),
        states=tuple(nd["states"]),
        parents=tuple(nd.get("parents", ())),
    )


def save_diagram(diagram: InfluenceDiagram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diagram_to_dict(diagram), fh, indent=2)
        fh.write("\n")


def load_diagram(path: str) -> InfluenceDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        return diagram_from_dict(json.load(fh))


def strategy_to_dict(diagram: InfluenceDiagram, strategy: Strategy) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for d, rule in sorted(strategy.rules.items()):
        labels = diagram.states(d)
        out[d] = [labels[s] for s in rule]
    return out


def strategy_from_dict(diagram: InfluenceDiagram, data: Dict[str, Any]) -> Strategy:
    if not isinstance(data, dict):
        raise ValueError("a strategy is a JSON object mapping decisions to lists")
    rules: Dict[str, tuple] = {}
    for d, labels in data.items():
        if not diagram.has_node(d):
            raise ValueError(f"strategy names unknown node {d!r}")
        if not isinstance(labels, list):
            raise ValueError(f"strategy for {d!r} must be a list of state labels")
        states = diagram.states(d)
        try:
            rules[d] = tuple(states.index(lab) for lab in labels)
        except ValueError:
            bad = next(lab for lab in labels if lab not in states)
            raise ValueError(f"strategy for {d!r} uses unknown state {bad!r}") from None
    return Strategy(rules=rules)


def save_strategy(diagram: InfluenceDiagram, strategy: Strategy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strategy_to_dict(diagram, strategy), fh, indent=2)
        fh.write("\n")


def load_strategy(diagram: InfluenceDiagram, path: str) -> Strategy:
    with open(path, "r", encoding="utf-8") as fh:
        return strategy_from_dict(diagram, json.load(fh))
