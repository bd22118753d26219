"""Core influence-diagram types and structural operations.

An influence diagram is a DAG over three kinds of nodes: chance nodes and
value nodes carry conditional probability tables over their own states given
their parents' states; decision nodes carry no table and are controlled by a
strategy.  Value nodes additionally map each of their states to a real
utility, so deterministic consequences (prices, costs) are modeled as
degenerate 0/1 rows rather than as a separate function type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROW_SUM_TOL = 1e-9


class CapExceededError(ValueError):
    """A requested enumeration or table would exceed a configured size cap."""

    def __init__(self, what: str, size: int, cap: int):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what} needs {size} entries, above the cap of {cap}")


class NodeKind(str, Enum):
    CHANCE = "chance"
    DECISION = "decision"
    VALUE = "value"


@dataclass(frozen=True)
class Node:
    """One diagram node: a name, a kind, ordered state labels, ordered parents."""

    name: str
    kind: NodeKind
    states: Tuple[str, ...]
    parents: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "kind", NodeKind(self.kind))


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one node.

    ``rows[i][s]`` is the probability of state ``s`` given the i-th parent
    configuration, where parent configurations are indexed by a
    ConfigIndexer over the node's declared parent order (first parent most
    significant).  Rows must each sum to 1 within ROW_SUM_TOL.
    """

    owner: str
    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"CPT for {self.owner} must be 2-d (rows x states)")
        object.__setattr__(self, "rows", arr)


@dataclass(frozen=True)
class UtilityMap:
    """Per-state utilities for one value node."""

    owner: str
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"utilities for {self.owner} must be 1-d")
        object.__setattr__(self, "values", arr)


class ConfigIndexer:
    """Mixed-radix index over the joint states of an ordered node scope.

    The first node in the scope is the most significant digit, so the last
    node varies fastest.  For scope (A: 2 states, B: 3 states) the tuple
    (1, 2) maps to index 1*3 + 2 = 5.
    """

    def __init__(self, scope: Sequence[str], radices: Sequence[int]):
        if len(scope) != len(radices):
            raise ValueError("scope and radices must have equal length")
        if any(r < 1 for r in radices):
            raise ValueError("every radix must be at least 1")
        self.scope = tuple(scope)
        self.radices = tuple(int(r) for r in radices)
        strides = []
        acc = 1
        for r in reversed(self.radices):
            strides.append(acc)
            acc *= r
        self.strides = tuple(reversed(strides))
        self.total = acc

    def coordinates(self) -> Dict[str, np.ndarray]:
        """The state of each scope node in every configuration, ascending."""
        configs = np.arange(self.total)
        return {n: configs // stride % radix for n, stride, radix
                in zip(self.scope, self.strides, self.radices)}

    def index_array(self, coords: Dict[str, np.ndarray], size: int) -> np.ndarray:
        """Config index of each row k, whose state of scope node n is
        ``coords[n][k]``."""
        index = np.zeros(size, dtype=np.int64)
        for n, stride in zip(self.scope, self.strides):
            index += coords[n] * stride
        return index

    def states_of(self, index: int) -> Tuple[int, ...]:
        if not 0 <= index < self.total:
            raise ValueError(f"config index {index} out of range [0, {self.total})")
        out = []
        for st, r in zip(self.strides, self.radices):
            out.append((index // st) % r)
        return tuple(out)


@dataclass
class InfluenceDiagram:
    """A diagram: ordered nodes plus tables keyed by node name.

    Construction is permissive; use :func:`validate_diagram` to get the full
    list of structural violations as data.
    """

    nodes: List[Node]
    cpts: Dict[str, Cpt] = field(default_factory=dict)
    utilities: Dict[str, UtilityMap] = field(default_factory=dict)

    def __post_init__(self):
        self._by_name = {n.name: n for n in self.nodes}

    def node(self, name: str) -> Node:
        return self._by_name[name]

    def has_node(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def kind(self, name: str) -> NodeKind:
        return self._by_name[name].kind

    def states(self, name: str) -> Tuple[str, ...]:
        return self._by_name[name].states

    def n_states(self, name: str) -> int:
        return len(self._by_name[name].states)

    def parents(self, name: str) -> Tuple[str, ...]:
        return self._by_name[name].parents

    def of_kind(self, kind: NodeKind) -> List[str]:
        return [n.name for n in self.nodes if n.kind == kind]

    @property
    def decision_nodes(self) -> List[str]:
        return self.of_kind(NodeKind.DECISION)

    @property
    def value_nodes(self) -> List[str]:
        return self.of_kind(NodeKind.VALUE)

    def parent_indexer(self, name: str) -> ConfigIndexer:
        ps = self.parents(name)
        return ConfigIndexer(ps, [self.n_states(p) for p in ps])

    def indexer(self, scope: Sequence[str]) -> ConfigIndexer:
        return ConfigIndexer(scope, [self.n_states(s) for s in scope])


@dataclass(frozen=True)
class Strategy:
    """Deterministic policy: one chosen state index per parent configuration.

    ``rules[d][i]`` is the chosen state index of decision ``d`` under its
    i-th parent configuration (parent configs indexed by the decision's
    parent indexer).  Feasible strategies pick exactly one state everywhere,
    which this representation enforces by construction.
    """

    rules: Dict[str, Tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "rules", {d: tuple(int(s) for s in r) for d, r in self.rules.items()}
        )


def check_strategy(diagram: InfluenceDiagram, strategy: Strategy) -> List[str]:
    """Return violations of a strategy against a diagram's decision nodes."""
    problems: List[str] = []
    decisions = set(diagram.decision_nodes)
    for d, rule in strategy.rules.items():
        if d not in decisions:
            problems.append(f"strategy covers {d!r}, which is not a decision node")
            continue
        want = math.prod(diagram.n_states(p) for p in diagram.parents(d))
        if len(rule) != want:
            problems.append(
                f"strategy for {d!r} has {len(rule)} entries, expected {want}"
            )
            continue
        n = diagram.n_states(d)
        for i, s in enumerate(rule):
            if not 0 <= s < n:
                problems.append(f"strategy for {d!r} picks state {s} at config {i}")
    for d in decisions - set(strategy.rules):
        problems.append(f"strategy missing decision node {d!r}")
    return problems


def validate_diagram(diagram: InfluenceDiagram) -> List[str]:
    """Structural validation; returns all violations, never raises."""
    problems: List[str] = []
    if not diagram.nodes:
        problems.append("diagram has no nodes")
    seen = set()
    for n in diagram.nodes:
        if n.name in seen:
            problems.append(f"duplicate node name {n.name!r}")
        seen.add(n.name)
        if not n.states:
            problems.append(f"node {n.name!r} has no states")
        if len(set(n.states)) != len(n.states):
            problems.append(f"node {n.name!r} has duplicate state labels")
        if len(set(n.parents)) != len(n.parents):
            problems.append(f"node {n.name!r} lists a parent twice")
        for p in n.parents:
            if p not in diagram._by_name:
                problems.append(f"node {n.name!r} has unknown parent {p!r}")
            elif diagram.kind(p) == NodeKind.VALUE:
                problems.append(f"arc {p}->{n.name} leaves a value node")

    try:
        topological_order(diagram)
    except ValueError as exc:
        problems.append(str(exc))

    for n in diagram.nodes:
        if n.kind == NodeKind.DECISION:
            if n.name in diagram.cpts:
                problems.append(f"decision node {n.name!r} must not have a CPT")
            continue
        cpt = diagram.cpts.get(n.name)
        if cpt is None:
            problems.append(f"{n.kind.value} node {n.name!r} is missing its CPT")
            continue
        want_rows = 1
        for p in n.parents:
            if p in diagram._by_name:
                want_rows *= diagram.n_states(p)
        if cpt.rows.shape != (want_rows, len(n.states)):
            problems.append(
                f"CPT for {n.name!r} has shape {cpt.rows.shape}, "
                f"expected ({want_rows}, {len(n.states)})"
            )
            continue
        if not np.all(np.isfinite(cpt.rows)):
            problems.append(f"CPT for {n.name!r} has non-finite entries")
        elif np.any(cpt.rows < -ROW_SUM_TOL) or np.any(cpt.rows > 1 + ROW_SUM_TOL):
            problems.append(f"CPT for {n.name!r} has entries outside [0, 1]")
        sums = cpt.rows.sum(axis=1)
        for i in np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]:
            problems.append(
                f"CPT row {int(i)} of {n.name!r} sums to {sums[i]!r}, expected 1"
            )

    for n in diagram.nodes:
        um = diagram.utilities.get(n.name)
        if n.kind == NodeKind.VALUE:
            if um is None:
                problems.append(f"value node {n.name!r} is missing its utilities")
            elif um.values.shape != (len(n.states),):
                problems.append(
                    f"utilities for {n.name!r} have length {um.values.shape[0]}, "
                    f"expected {len(n.states)}"
                )
            elif not np.all(np.isfinite(um.values)):
                problems.append(f"utilities for {n.name!r} contain non-finite values")
        elif um is not None:
            problems.append(f"{n.kind.value} node {n.name!r} must not carry utilities")

    extra = (set(diagram.cpts) | set(diagram.utilities)) - seen
    for name in sorted(extra):
        problems.append(f"table given for unknown node {name!r}")
    return problems


def topological_order(diagram: InfluenceDiagram) -> List[str]:
    """Deterministic topological order: Kahn's algorithm where the ready
    queue is kept in node declaration order.

    Raises ValueError naming one cycle if the arcs are cyclic.
    """
    names = diagram.names()
    pos = {n: i for i, n in enumerate(names)}
    indeg = {n: 0 for n in names}
    children: Dict[str, List[str]] = {n: [] for n in names}
    for n in names:
        for p in diagram.parents(n):
            if p in pos:  # unknown parents are validate_diagram's to report
                indeg[n] += 1
                children[p].append(n)
    order: List[str] = []
    ready = [n for n in names if indeg[n] == 0]
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        fresh = []
        for c in children[cur]:
            indeg[c] -= 1
            if indeg[c] == 0:
                fresh.append(c)
        if fresh:
            # Keep the queue sorted by declaration position so ties always
            # break the same way.
            ready = sorted(ready + fresh, key=pos.__getitem__)
    if len(order) != len(names):
        stuck = [n for n in names if n not in set(order)]
        cycle = _find_cycle(diagram, stuck)
        raise ValueError(f"arcs contain a cycle: {' -> '.join(cycle)}")
    return order


def _find_cycle(diagram: InfluenceDiagram, stuck: List[str]) -> List[str]:
    # Walk parent pointers inside the stuck set until a node repeats.
    inside = set(stuck)
    cur = stuck[0]
    seen: List[str] = []
    while cur not in seen:
        seen.append(cur)
        cur = next(p for p in diagram.parents(cur) if p in inside)
    start = seen.index(cur)
    return seen[start:] + [cur]


def check_order(diagram: InfluenceDiagram, order: Sequence[str]) -> None:
    """Raise if ``order`` is not a topological permutation of the nodes."""
    if sorted(order) != sorted(diagram.names()):
        raise ValueError("order is not a permutation of the diagram's nodes")
    pos = {n: i for i, n in enumerate(order)}
    for n in diagram.names():
        for p in diagram.parents(n):
            if pos[p] >= pos[n]:
                raise ValueError(
                    f"order puts {p!r} after its child {n!r}; not topological"
                )
