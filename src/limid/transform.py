"""Collapse all value nodes of a diagram into a single combined value node.

The combined node's states enumerate the joint states of the original value
nodes (declaration order, first component most significant), its parents are
the deduplicated union of the components' parents, each row is the product
of the component rows, and each state's utility is the sum of the component
utilities.  Under any fixed strategy the distribution of total utility is
unchanged; only its bookkeeping moves into one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Tuple

import numpy as np

from ._tensor import place_table
from .diagram import (
    CapExceededError,
    ConfigIndexer,
    Cpt,
    InfluenceDiagram,
    Node,
    NodeKind,
    UtilityMap,
    topological_order,
)

MERGED_STATES_CAP = 1 << 24
MERGED_NAME = "V_merged"


@dataclass(frozen=True)
class MergedValueMap:
    """Bijection between original value-node states and merged-node states.

    Identity on chance/decision coordinates; on value coordinates it is the
    mixed-radix index over the components in declaration order.
    """

    components: Tuple[str, ...]
    indexer: ConfigIndexer

    def merged_index(self, component_states) -> int:
        return self.indexer.index_of(component_states)

    def component_states(self, merged_index: int) -> Tuple[int, ...]:
        return self.indexer.states_of(merged_index)


def merge_value_nodes(diagram: InfluenceDiagram) -> Tuple[InfluenceDiagram, MergedValueMap]:
    components = tuple(diagram.value_nodes)
    if not components:
        raise ValueError("diagram has no value nodes to merge")
    if diagram.has_node(MERGED_NAME) and MERGED_NAME not in components:
        raise ValueError(f"merged node name {MERGED_NAME!r} is already taken")

    radices = [diagram.n_states(v) for v in components]
    total = 1
    for r in radices:
        total *= r
        if total > MERGED_STATES_CAP:
            raise CapExceededError("merged value node state space", total,
                                   MERGED_STATES_CAP)
    vmap = MergedValueMap(
        components=components,
        indexer=ConfigIndexer(components, radices),
    )

    # Merged parents: union of component parents, deduplicated, ordered by
    # the diagram's deterministic topological order.
    parent_set = {p for v in components for p in diagram.parents(v)}
    order = topological_order(diagram)
    merged_parents = tuple(n for n in order if n in parent_set)

    merged_states = _merged_state_labels(diagram, components)
    merged_rows = _merged_cpt(diagram, components, merged_parents, total)
    merged_utils = _merged_utilities(diagram, components)

    kept = [n for n in diagram.nodes if n.kind != NodeKind.VALUE]
    nodes = kept + [
        Node(
            name=MERGED_NAME,
            kind=NodeKind.VALUE,
            states=merged_states,
            parents=merged_parents,
        )
    ]
    cpts = {n.name: diagram.cpts[n.name] for n in kept if n.name in diagram.cpts}
    cpts[MERGED_NAME] = Cpt(owner=MERGED_NAME, rows=merged_rows)
    utilities = {MERGED_NAME: UtilityMap(owner=MERGED_NAME, values=merged_utils)}
    return InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities), vmap


def _merged_state_labels(diagram, components) -> Tuple[str, ...]:
    labels = [""]
    for v in components:
        labels = [
            (prefix + "|" + s if prefix else s)
            for prefix in labels
            for s in diagram.states(v)
        ]
    if len(set(labels)) != len(labels):
        raise ValueError("combined state labels collide; rename value-node states")
    return tuple(labels)


def _merged_utilities(diagram, components) -> np.ndarray:
    # Sum of component utilities per combined state, added left to right in
    # declaration order so the floats match a sequential per-config sum.
    grids = [
        place_table(
            [diagram.n_states(v) for v in components],
            [i],
            diagram.utilities[v].values,
        )
        for i, v in enumerate(components)
    ]
    return reduce(np.add, grids).ravel()


def _merged_cpt(diagram, components, merged_parents, n_merged_states) -> np.ndarray:
    scope = list(merged_parents) + list(components)
    sizes = [diagram.n_states(x) for x in scope]
    pos = {x: i for i, x in enumerate(scope)}
    factors = []
    for v in components:
        table = diagram.cpts[v].rows
        pv = diagram.parents(v)
        shaped = table.reshape([diagram.n_states(p) for p in pv] + [diagram.n_states(v)])
        factors.append(place_table(sizes, [pos[p] for p in pv] + [pos[v]], shaped))
    grid = reduce(np.multiply, factors) if factors else np.ones(sizes)
    grid = np.broadcast_to(grid, sizes)
    return grid.reshape(-1, n_merged_states)
