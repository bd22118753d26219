"""Shared test utilities: a seeded random-diagram generator and slow
pure-Python reference computations used as independent oracles.

The slow oracles deliberately avoid the package's vectorized evaluation
paths: they walk full joint assignments with plain loops and dicts, so a
bug in the numpy broadcasting or the MIP compilation cannot hide in the
expected values.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from limid._tensor import place_table
from limid.diagram import (
    ConfigIndexer,
    Cpt,
    InfluenceDiagram,
    Node,
    NodeKind,
    Strategy,
    UtilityMap,
    topological_order,
)
from limid.rjt import RootedJunctionTree


def random_diagram(
    rng: np.random.Generator,
    min_nodes: int = 3,
    max_nodes: int = 8,
    max_states: int = 3,
    max_parents: int = 3,
    require_value: bool = False,
    min_values: int = 0,
) -> InfluenceDiagram:
    """A random valid influence diagram in declaration = topological order."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    nodes: List[Node] = []
    cpts: Dict[str, Cpt] = {}
    utilities: Dict[str, UtilityMap] = {}
    non_value: List[Node] = []
    n_values = 0
    for i in range(n):
        name = f"N{i}"
        if i == 0:
            kind = NodeKind.CHANCE
        else:
            roll = rng.random()
            remaining = n - i
            must_add_value = (
                (require_value or min_values > 0)
                and n_values < max(min_values, 1 if require_value else 0)
                and remaining <= max(min_values, 1) - n_values
            )
            if must_add_value or roll < 0.25:
                kind = NodeKind.VALUE
            elif roll < 0.45:
                kind = NodeKind.DECISION
            else:
                kind = NodeKind.CHANCE
        n_states = int(rng.integers(2, max_states + 1))
        k = int(rng.integers(0, min(len(non_value), max_parents) + 1))
        if k:
            picks = rng.choice(len(non_value), size=k, replace=False)
            parents = tuple(non_value[int(j)].name for j in sorted(picks))
        else:
            parents = ()
        states = tuple(f"s{j}" for j in range(n_states))
        node = Node(name=name, kind=kind, states=states, parents=parents)
        nodes.append(node)
        if kind != NodeKind.VALUE:
            non_value.append(node)
        else:
            n_values += 1
        pcount = 1
        for p in parents:
            pcount *= len(next(nd for nd in nodes if nd.name == p).states)
        if kind != NodeKind.DECISION:
            raw = rng.random((pcount, n_states)) + 0.1
            cpts[name] = Cpt(owner=name, rows=raw / raw.sum(axis=1, keepdims=True))
        if kind == NodeKind.VALUE:
            utilities[name] = UtilityMap(
                owner=name,
                values=np.round(rng.uniform(-100.0, 100.0, size=n_states), 3),
            )
    return InfluenceDiagram(nodes=tuple(nodes), cpts=cpts, utilities=utilities)


def small_random_diagram(
    rng: np.random.Generator, limit: int = 128, **kwargs
) -> InfluenceDiagram:
    """Redraw until the strategy space has at most ``limit`` members.

    Keeps tests that enumerate every strategy away from draws where a
    decision node happens to get a huge parent-configuration table.
    """
    while True:
        d = random_diagram(rng, **kwargs)
        total = 1
        for node in d.nodes:
            if node.kind == NodeKind.DECISION:
                pcount = 1
                for p in node.parents:
                    pcount *= d.n_states(p)
                total *= len(node.states) ** pcount
                if total > limit:
                    break
        if total <= limit:
            return d


def merged_indexer(diagram: InfluenceDiagram, mapping) -> ConfigIndexer:
    """Index of a merged value node's states over the original value nodes
    of ``diagram`` that ``mapping`` (a ``MergedValueMap``) names."""
    components = mapping.components
    return ConfigIndexer(components, [diagram.n_states(v) for v in components])


def tree_path(tree: RootedJunctionTree, start: str, end: str) -> Tuple[str, ...]:
    """Roots on the directed path C_start -> C_end, both ends included, up
    ``tree.parent``; empty when C_start is not an ancestor of C_end."""
    chain = [end]
    while chain[-1] != start and tree.parent[chain[-1]] is not None:
        chain.append(tree.parent[chain[-1]])
    return tuple(reversed(chain)) if chain[-1] == start else ()


def slow_strategies(diagram: InfluenceDiagram):
    """All deterministic strategies via plain itertools, package-free math."""
    decisions = [n.name for n in diagram.nodes if n.kind == NodeKind.DECISION]
    spaces = []
    for d in decisions:
        pcount = 1
        for p in diagram.parents(d):
            pcount *= diagram.n_states(p)
        spaces.append(
            itertools.product(range(diagram.n_states(d)), repeat=pcount)
        )
    for combo in itertools.product(*spaces):
        yield Strategy(rules=dict(zip(decisions, combo)))


def _parent_row(diagram: InfluenceDiagram, name: str, assignment: Dict[str, int]) -> int:
    row = 0
    for p in diagram.parents(name):
        row = row * diagram.n_states(p) + assignment[p]
    return row


def slow_distribution(
    diagram: InfluenceDiagram, strategy: Strategy, round_digits: int = 9
) -> Dict[float, float]:
    """Total-utility distribution by explicit joint enumeration."""
    order = topological_order(diagram)
    dist: Dict[float, float] = {}
    ranges = [range(diagram.n_states(n)) for n in order]
    for combo in itertools.product(*ranges):
        assignment = dict(zip(order, combo))
        prob = 1.0
        utility = 0.0
        for name in order:
            s = assignment[name]
            kind = diagram.kind(name)
            if kind == NodeKind.DECISION:
                row = _parent_row(diagram, name, assignment)
                if strategy.rules[name][row] != s:
                    prob = 0.0
                    break
            else:
                row = _parent_row(diagram, name, assignment)
                prob *= float(diagram.cpts[name].rows[row, s])
                if prob == 0.0:
                    break
                if kind == NodeKind.VALUE:
                    utility += float(diagram.utilities[name].values[s])
        if prob > 0.0:
            key = round(utility, round_digits)
            dist[key] = dist.get(key, 0.0) + prob
    return dist


def slow_expected(diagram: InfluenceDiagram, strategy: Strategy) -> float:
    return sum(u * p for u, p in slow_distribution(diagram, strategy).items())


def slow_meu(diagram: InfluenceDiagram) -> Tuple[float, Optional[Strategy]]:
    best, best_s = None, None
    for strategy in slow_strategies(diagram):
        eu = slow_expected(diagram, strategy)
        if best is None or eu > best:
            best, best_s = eu, strategy
    return best, best_s


def slow_cvar(dist: Dict[float, float], alpha: float) -> float:
    """Lower-tail CVaR of a utility->probability dict, by sorting."""
    atoms = sorted(dist.items())
    cum = 0.0
    acc = 0.0
    for u, p in atoms:
        if cum + p >= alpha - 1e-15:
            acc += (alpha - cum) * u
            return acc / alpha
        cum += p
        acc += p * u
    return acc / alpha


def slow_marginal(
    diagram: InfluenceDiagram,
    strategy: Strategy,
    scope: List[str],
) -> Dict[Tuple[int, ...], float]:
    """Joint marginal over scope by explicit enumeration."""
    order = topological_order(diagram)
    out: Dict[Tuple[int, ...], float] = {}
    ranges = [range(diagram.n_states(n)) for n in order]
    for combo in itertools.product(*ranges):
        assignment = dict(zip(order, combo))
        prob = 1.0
        for name in order:
            s = assignment[name]
            if diagram.kind(name) == NodeKind.DECISION:
                row = _parent_row(diagram, name, assignment)
                if strategy.rules[name][row] != s:
                    prob = 0.0
                    break
            else:
                row = _parent_row(diagram, name, assignment)
                prob *= float(diagram.cpts[name].rows[row, s])
                if prob == 0.0:
                    break
        if prob > 0.0:
            key = tuple(assignment[n] for n in scope)
            out[key] = out.get(key, 0.0) + prob
    return out


def dense_joint(
    diagram: InfluenceDiagram,
    strategy: Optional[Strategy],
    base: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The joint under ``strategy`` as a plain product over the full grid.

    One axis per node in topological order; every CPT and every decision
    rule's 0/1 table is broadcast in and multiplied, one full-grid multiply
    per factor: the reference the evaluator's contractions must match.
    ``strategy=None`` gives the product of the CPTs alone; passing that as
    ``base`` multiplies in only the rule tables.
    """
    order = topological_order(diagram)
    sizes = [diagram.n_states(n) for n in order]
    pos = {n: i for i, n in enumerate(order)}
    grid = np.ones(sizes) if base is None else base
    for name in order:
        if diagram.kind(name) == NodeKind.DECISION:
            if strategy is None:
                continue
            rule = strategy.rules[name]
            rows = np.zeros((len(rule), diagram.n_states(name)))
            rows[np.arange(len(rule)), list(rule)] = 1.0
        elif base is None:
            rows = diagram.cpts[name].rows
        else:
            continue
        ps = diagram.parents(name)
        shaped = rows.reshape(
            [diagram.n_states(p) for p in ps] + [diagram.n_states(name)]
        )
        grid = grid * place_table(sizes, [pos[p] for p in ps] + [pos[name]], shaped)
    return grid
