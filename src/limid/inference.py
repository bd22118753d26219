"""Exact inference by contracting the diagram's factors.

Each CPT, and each decision rule as a 0/1 table, sits on its family's axes
(the parents plus the node).  A query contracts all of them straight onto
its output axes along a pairwise path that ``np.einsum_path`` plans
(greedy, the ordering of opt_einsum) and the evaluator keeps per output
scope.  Nothing is pruned or approximated: the answer is the product of
every factor summed onto the output, and simplicity is the guarantee of
correctness, which is what an oracle is for.  The largest tensor one
step spans is guarded by a cap and refused beyond it.

The oracle scores strategies in blocks: the rule tables of the last few
decisions carry one more axis, over every rule of that decision, so one
contraction yields the tables of a whole block in enumeration order.
A scope is planned at most twice: alone, and at the deepest block worth
trying; shallower blocks walk the deepest one's order.  Enumerations of
more than ``STRATEGY_CAP`` strategies or ``BLOCK_CAP`` blocks are refused.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .diagram import (
    CapExceededError,
    InfluenceDiagram,
    NodeKind,
    Strategy,
    check_strategy,
)
from .risk import (
    BudgetConstraint,
    ChanceConstraint,
    CvarConstraint,
    CvarObjective,
    LogicalConstraint,
    MeuObjective,
    trigger_mask,
)

CONTRACTION_CAP = 1 << 26
_LABELS = string.ascii_letters  # the 52 subscript labels np.einsum accepts
STRATEGY_CAP = 1 << 24
# Blocks one enumeration may take: each pays a contraction or a sparse
# product, and at one strategy a block 2^17 of them is minutes of work.
BLOCK_CAP = 1 << 17
# Floats one array of a block of strategies may hold: an operand or result
# of the oracle's contraction, the reference's assignments.
BLOCK_FLOATS = 1 << 16
# A block scores its strategies along another rounding path than a lone
# query does.  Every strategy whose block value lies within this share of
# the utility scale of the best is scored alone, and the lone values decide.
NEAR_TIE = 1e-9
ATOM_PROB_FLOOR = 1e-15
UTILITY_SIG_DIGITS = 12
ORACLE_TOL = 1e-9  # slack of the oracle's constraint checks


def round_to_sig(values: np.ndarray) -> np.ndarray:
    """Round to 12 significant digits (aggregation key for utilities)."""
    arr = np.asarray(values, dtype=float)
    out = arr.copy()
    nz = (arr != 0) & np.isfinite(arr)
    mag = np.floor(np.log10(np.abs(arr[nz])))
    scale = np.power(10.0, UTILITY_SIG_DIGITS - 1 - mag)
    out[nz] = np.round(arr[nz] * scale) / scale
    return out


@dataclass(frozen=True)
class UtilityDistribution:
    """Distribution of total utility: ascending atoms, probabilities > 0.

    Atoms are aggregated by exact equality of the utility after rounding to
    12 significant digits; atoms below probability 1e-15 are dropped; the
    remaining probabilities must sum to 1 within 1e-9.
    """

    utilities: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.utilities, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if u.shape != p.shape or u.ndim != 1:
            raise ValueError("utilities and probabilities must be equal-length 1-d")
        if u.size and np.any(np.diff(u) <= 0):
            raise ValueError("utilities must be strictly ascending")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        object.__setattr__(self, "utilities", u)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def from_values(
        cls, values: np.ndarray, probs: np.ndarray
    ) -> "UtilityDistribution":
        keys = round_to_sig(np.asarray(values, dtype=float))
        uniq, inverse = np.unique(keys, return_inverse=True)
        mass = np.bincount(inverse, weights=np.asarray(probs, dtype=float),
                           minlength=uniq.size)
        keep = mass > ATOM_PROB_FLOOR
        return cls(utilities=uniq[keep], probabilities=mass[keep])

    @property
    def atoms(self) -> List[Tuple[float, float]]:
        return list(zip(self.utilities.tolist(), self.probabilities.tolist()))

    def expected(self) -> float:
        return float(np.dot(self.utilities, self.probabilities))


@dataclass(frozen=True)
class TailRisk:
    var: float
    cvar: float


def cvar_of_distribution(dist: UtilityDistribution, alpha: float) -> TailRisk:
    """Lower-tail value at risk and conditional value at risk.

    The value at risk is the smallest utility whose cumulative probability
    reaches alpha; CVaR averages utility over that worst alpha-tail, taking
    only the needed share of probability at the boundary atom.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    cum = np.cumsum(dist.probabilities)
    idx = int(np.searchsorted(cum, alpha - 1e-15))
    idx = min(idx, dist.utilities.size - 1)
    var = float(dist.utilities[idx])
    below = float(np.dot(dist.utilities[:idx], dist.probabilities[:idx]))
    boundary_mass = alpha - (float(cum[idx - 1]) if idx > 0 else 0.0)
    return TailRisk(var=var, cvar=(below + boundary_mass * var) / alpha)


class Evaluator:
    """Contracts the CPTs and a strategy's rule tables afresh per query.

    The utility grid over the value nodes and the contraction path of each
    output scope (and block depth) are built once; per query, only the rule
    tables are new.
    """

    def __init__(self, diagram: InfluenceDiagram):
        names = [n.name for n in diagram.nodes]
        if len(names) > len(_LABELS):
            raise CapExceededError("a label per node for np.einsum", len(names),
                                   len(_LABELS))
        self.diagram = diagram
        self._label = dict(zip(names, _LABELS))
        self._size = {self._label[n]: diagram.n_states(n) for n in names}
        # One factor per node on its family's axes: the CPT, or (None) the
        # rule table a query's strategy supplies.
        self._nodes = names
        self._terms = ["".join(self._label[p] for p in (*diagram.parents(n), n))
                       for n in names]
        self._shapes = [tuple(self._size[c] for c in t) for t in self._terms]
        self._tables = [
            None if diagram.kind(n) == NodeKind.DECISION
            else diagram.cpts[n].rows.reshape(shape)
            for n, shape in zip(names, self._shapes)
        ]
        self._plans: Dict[Tuple[Tuple[str, ...], int],
                          Tuple[List[Tuple[List[int], str]], int, int]] = {}
        self._stacks: Dict[str, np.ndarray] = {}

        self._values = tuple(diagram.value_nodes)
        self._steps(self._values)  # checks the cap before the grid is built
        grid = sum(np.ix_(*(diagram.utilities[v].values for v in self._values)),
                   np.zeros(()))
        self._utils = np.ravel(grid)
        self.unique_utilities, self._inverse = np.unique(
            round_to_sig(self._utils), return_inverse=True)
        # Grid states grouped by rounded utility, for a block's masses.
        self._by_utility = np.argsort(self._inverse, kind="stable")
        self._utility_starts = np.searchsorted(
            self._inverse[self._by_utility], np.arange(self.unique_utilities.size))

    def _plan(self, scope: Tuple[str, ...], m: int = 0
              ) -> Tuple[List[Tuple[List[int], str]], int, int]:
        """Steps contracting every factor onto ``scope``, with the last
        ``m`` decisions' rule axes leading: the operand positions each step
        pops (descending, as numpy's paths count them) and its subscripts;
        the largest span of a step; and the most entries an operand or
        result holds.

        ``np.einsum_path`` (greedy) orders the lone contraction (m=0) and
        the deepest block worth trying (``_top``); a shallower block walks
        the deepest one's order with fewer rule axes, so a scope is planned
        at most twice.  Along one order no span or array shrinks as m
        grows.  Each plan is kept per scope and m."""
        plan = self._plans.get((scope, m))
        if plan is not None:
            return plan
        rule_labels = _LABELS[len(self._nodes):len(self._nodes) + m]
        size = dict(self._size)
        terms = list(self._terms)
        shapes = list(self._shapes)
        for label, d in zip(rule_labels, self._batched(m)):
            i = self._nodes.index(d)
            size[label] = self._rule_count(d)
            terms[i] = label + terms[i]
            shapes[i] = (size[label], *shapes[i])
        out = rule_labels + "".join(self._label[n] for n in scope)
        top = self._top(scope) if m else 0
        if m < top:
            path = [step for step, _ in self._plan(scope, top)[0]]
        else:
            shaped = [np.broadcast_to(0.0, shape) for shape in shapes]
            # The memory limit keeps greedy off intermediates above the cap;
            # a step it cannot avoid is refused in _steps.
            path = np.einsum_path(",".join(terms) + "->" + out, *shaped,
                                  optimize=("greedy", CONTRACTION_CAP))[0][1:]
        steps = []
        largest = 0
        held = max(map(math.prod, shapes))
        for step in path:
            step = sorted(step, reverse=True)
            picked = [terms.pop(i) for i in step]
            touched = set("".join(picked))
            largest = max(largest, math.prod(size[c] for c in touched))
            kept = "".join(sorted(touched & set("".join(terms) + out)))
            terms.append(kept if terms else out)
            held = max(held, math.prod(size[c] for c in terms[-1]))
            steps.append((step, ",".join(picked) + "->" + terms[-1]))
        self._plans[(scope, m)] = steps, largest, held
        return steps, largest, held

    def _bound(self, scope: Tuple[str, ...]) -> int:
        """The most entries an array of a block onto ``scope`` may hold:
        ``BLOCK_FLOATS``, or what the lone contraction already holds."""
        return max(BLOCK_FLOATS, self._plan(scope)[2])

    def _top(self, scope: Tuple[str, ...]) -> int:
        """The largest m whose block output alone (every rule of the last m
        decisions times the states of ``scope``) fits in ``_bound`` and
        whose rule axes einsum has labels for."""
        bound = self._bound(scope)
        entries = math.prod(self._size[self._label[n]] for n in scope)
        top = 0
        for d in self.diagram.decision_nodes[::-1][:len(_LABELS) - len(self._nodes)]:
            entries *= self._rule_count(d)
            if entries > bound:
                break
            top += 1
        return top

    def _steps(self, scope: Tuple[str, ...], m: int = 0
               ) -> List[Tuple[List[int], str]]:
        steps, span, _ = self._plan(scope, m)
        if span > CONTRACTION_CAP:
            raise CapExceededError("a contraction step", span, CONTRACTION_CAP)
        return steps

    def _batched(self, m: int) -> List[str]:
        """The last ``m`` decisions."""
        decisions = self.diagram.decision_nodes
        return decisions[len(decisions) - m:]

    def _rule_count(self, decision: str) -> int:
        return (self.diagram.n_states(decision)
                ** self.diagram.parent_indexer(decision).total)

    def _stack(self, decision: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Every rule's 0/1 table of a decision, along a leading axis in
        lexicographic rule order."""
        stack = self._stacks.get(decision)
        if stack is None:
            n_pcfg, n_states = math.prod(shape[:-1]), shape[-1]
            rules = rule_digits(np.arange(self._rule_count(decision)),
                                [n_states] * n_pcfg)
            stack = np.eye(n_states)[rules].reshape(-1, *shape)
            self._stacks[decision] = stack
        return stack

    def blocking(self, scopes: Sequence[Sequence[str]]) -> Tuple[int, int]:
        """``(m, size)``: the count of last decisions whose every rule one
        contraction takes, and the strategies that makes a block.  m is the
        largest for which no array of a contraction onto any of ``scopes``
        holds more than ``_bound`` entries, no step spans more than
        ``CONTRACTION_CAP``, and einsum has a label for each rule axis; 0
        (one strategy a block) when even the last decision's rules exceed
        it.  Each scope tries depths from its ``_top`` down, along one
        order, so the first that fits is the deepest."""
        def depth(scope: Tuple[str, ...]) -> int:
            for k in range(self._top(scope), 0, -1):
                _, span, held = self._plan(scope, k)
                if held <= self._bound(scope) and span <= CONTRACTION_CAP:
                    return k
            return 0

        m = min(depth(tuple(s)) for s in scopes)
        return m, math.prod(self._rule_count(d) for d in self._batched(m))

    def _contract(self, strategy: Strategy, scope: Sequence[str], m: int = 0
                  ) -> np.ndarray:
        """Probability table over ``scope`` (axes in scope order).  With
        ``m`` > 0, the last m decisions take every rule on leading axes in
        place of the strategy's: one table per strategy of a block."""
        problems = check_strategy(self.diagram, strategy)
        if problems:
            raise ValueError("; ".join(problems))
        batched = self._batched(m)
        # A rule's 0/1 table: row i is the one-hot of the state it picks.
        ops = [table if table is not None
               else self._stack(n, shape) if n in batched
               else np.eye(shape[-1])[list(strategy.rules[n])].reshape(shape)
               for n, shape, table in zip(self._nodes, self._shapes, self._tables)]
        for step, subscripts in self._steps(tuple(scope), m):
            ops.append(np.einsum(subscripts, *[ops.pop(i) for i in step]))
        return ops[0]

    def value_table(self, strategy: Strategy) -> np.ndarray:
        """Flat probability table over the value nodes' joint states, from
        which ``distribution_of`` and ``expected_of`` read."""
        return self._contract(strategy, self._values).ravel()

    def distribution_of(self, table: np.ndarray) -> UtilityDistribution:
        mass = np.bincount(self._inverse, weights=table,
                           minlength=self.unique_utilities.size)
        keep = mass > ATOM_PROB_FLOOR
        return UtilityDistribution(
            utilities=self.unique_utilities[keep], probabilities=mass[keep]
        )

    def _masses(self, tables: np.ndarray) -> np.ndarray:
        """Each row's mass per rounded utility, zero below
        ``ATOM_PROB_FLOOR``: ``distribution_of`` for a block of tables."""
        mass = np.add.reduceat(tables[:, self._by_utility],
                               self._utility_starts, axis=1)
        return np.where(mass > ATOM_PROB_FLOOR, mass, 0.0)

    def expected_of(self, table: np.ndarray) -> float:
        """Expected total utility: the value table dotted with the
        unrounded utility grid.

        More precise than ``distribution_of(...).expected()``, whose atoms
        are rounded to 12 significant digits for aggregation.
        """
        return float(np.dot(self._utils, table))

    def marginal(self, strategy: Strategy, scope: Sequence[str]) -> np.ndarray:
        """Flat probability table over ``scope`` in the given node order."""
        if len(set(scope)) != len(scope):
            raise ValueError("marginal scope repeats a node")
        return self._contract(strategy, scope).ravel()


def strategy_count(diagram: InfluenceDiagram) -> int:
    total = 1
    for d in diagram.decision_nodes:
        total *= diagram.n_states(d) ** diagram.parent_indexer(d).total
    return total


def rule_digits(index: np.ndarray, radix: Sequence[int]) -> np.ndarray:
    """The mixed-radix digits of each index, most significant first: one
    row per index, one column per entry of ``radix``."""
    radix = np.asarray(radix, dtype=np.int64)
    place = np.ones_like(radix)
    place[:-1] = np.cumprod(radix[:0:-1])[::-1]
    return np.asarray(index, dtype=np.int64)[:, None] // place % radix


@dataclass(frozen=True)
class StrategyBlock:
    """Consecutive strategies of the lexicographic enumeration:
    ``rules[d][i]`` is strategy i's rule for decision d, the state it picks
    per parent configuration."""

    size: int
    rules: Dict[str, np.ndarray]

    def strategy(self, i: int) -> Strategy:
        return Strategy(rules={d: tuple(r[i].tolist())
                               for d, r in self.rules.items()})


def strategy_blocks(diagram: InfluenceDiagram, size: int) -> Iterator[StrategyBlock]:
    """All deterministic strategies, each exactly once, ``size`` a block
    (the last may be shorter).

    Order: decisions in declaration order, each rule read as a tuple of
    chosen state indices per ascending parent configuration; earlier
    decisions are more significant.  More than ``STRATEGY_CAP`` strategies,
    or more than ``BLOCK_CAP`` blocks, are refused before a block is built.
    """
    count = strategy_count(diagram)
    if count > STRATEGY_CAP:
        raise CapExceededError("strategy enumeration", count, STRATEGY_CAP)
    blocks = -(-count // size)
    if blocks > BLOCK_CAP:
        raise CapExceededError("blocks of strategies", blocks, BLOCK_CAP)
    radix, cuts = [], [0]
    for d in diagram.decision_nodes:
        radix += [diagram.n_states(d)] * diagram.parent_indexer(d).total
        cuts.append(len(radix))
    for start in range(0, count, size):
        digits = rule_digits(np.arange(start, min(start + size, count)), radix)
        yield StrategyBlock(size=len(digits), rules={
            d: digits[:, a:b]
            for d, a, b in zip(diagram.decision_nodes, cuts, cuts[1:])})


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    best: Optional[Strategy]
    objective_value: Optional[float]
    n_strategies: int
    n_feasible: int


_SCOPED = (ChanceConstraint, LogicalConstraint, BudgetConstraint)


def _scoped_ok(tables: np.ndarray, spec, hit) -> np.ndarray:
    """Which rows of ``tables`` (one marginal over the spec's scope per
    strategy) satisfy a chance, logical or budget spec; ``hit`` is its
    ``trigger_mask`` over the scope."""
    picked = np.concatenate([np.zeros((len(tables), 1)), tables[:, hit]], axis=1)
    prob = np.cumsum(picked, axis=1)[:, -1]  # left to right, as a loop would
    if isinstance(spec, ChanceConstraint) and spec.sense == ">=":
        return prob >= spec.p - ORACLE_TOL
    bound = spec.p if isinstance(spec, ChanceConstraint) else 0.0
    return prob <= bound + ORACLE_TOL


def near_best(vals: np.ndarray, ok: np.ndarray, incumbent: Optional[float],
              slack: float) -> List[int]:
    """Positions, ascending, of the entries of ``vals`` that ``ok`` admits
    and that come within ``slack`` of the best of them and of
    ``incumbent``: the strategies of a block that may win once scored
    alone."""
    top = float(vals.max(where=ok, initial=-np.inf))
    if incumbent is not None:
        top = max(top, incumbent)
    return np.flatnonzero(ok & (vals >= top - slack)).tolist()


def _block_cvar(utilities: np.ndarray, masses: np.ndarray, alpha: float
                ) -> np.ndarray:
    """``cvar_of_distribution`` of each row of ``masses`` over the ascending
    ``utilities``, a zero mass standing for a dropped atom."""
    cum = np.cumsum(masses, axis=1)
    last = masses.shape[1] - 1 - np.argmax(masses[:, ::-1] > 0, axis=1)
    idx = np.minimum((cum < alpha - 1e-15).sum(axis=1), last)
    rows = np.arange(len(masses))
    before = np.arange(masses.shape[1]) < idx[:, None]
    below = (np.where(before, masses, 0.0) * utilities).sum(axis=1)
    boundary = alpha - np.where(idx > 0, cum[rows, idx - 1], 0.0)
    return (below + boundary * utilities[idx]) / alpha


def oracle_optimize(
    diagram: InfluenceDiagram,
    objective=MeuObjective(),
    constraints: Iterable = (),
) -> OracleResult:
    """Best feasible strategy by exhaustive enumeration.

    Strategies are scored a block at a time, in lexicographic order.  The
    feasible strategies whose block value comes within ``NEAR_TIE`` of the
    best are checked and scored again alone (``marginal``, ``value_table``),
    and the incumbent is replaced only on a strict improvement of that
    value, so exact ties break toward the lexicographically smallest
    strategy.  Strategies whose values differ only at the rounding level
    (about 1e-15 relative) are not exact ties: which of them wins depends
    on how the lone contraction rounds, and may differ from what a dense
    product of all factors would pick.
    """
    if not isinstance(objective, (MeuObjective, CvarObjective)):
        raise ValueError(f"unsupported objective type {type(objective).__name__}")
    evaluator = Evaluator(diagram)
    scoped, floors = [], []
    for c in constraints:
        if isinstance(c, _SCOPED):
            scoped.append((c, trigger_mask(diagram, c.scope, c)))
        elif isinstance(c, CvarConstraint):
            floors.append(c)
        else:
            raise ValueError(f"unsupported constraint type {type(c).__name__}")
    needs_dist = bool(floors) or isinstance(objective, CvarObjective)
    values = evaluator._values
    if needs_dist and not values:
        raise ValueError("CVaR needs a single value node, found 0")
    m, size = evaluator.blocking([values] + [c.scope for c, _ in scoped])
    scale = float(np.abs(evaluator._utils).max(initial=0.0))
    if isinstance(objective, CvarObjective):
        scale /= objective.alpha

    def alone(strategy: Strategy) -> Optional[float]:
        """The strategy's objective with its constraints checked, scored on
        its own (no rule axes); None when a constraint fails."""
        if not all(_scoped_ok(evaluator.marginal(strategy, c.scope)[None], c, hit)[0]
                   for c, hit in scoped):
            return None
        table = evaluator.value_table(strategy)
        dist = evaluator.distribution_of(table) if needs_dist else None
        if not all(cvar_of_distribution(dist, c.alpha).cvar >= c.bound - ORACLE_TOL
                   for c in floors):
            return None
        if isinstance(objective, MeuObjective):
            return evaluator.expected_of(table)
        return cvar_of_distribution(dist, objective.alpha).cvar

    best: Optional[Strategy] = None
    best_val: Optional[float] = None
    n_total = 0
    n_feasible = 0
    for block in strategy_blocks(diagram, size):
        n_total += block.size
        prefix = block.strategy(0)  # the rules the block's strategies share
        ok = np.ones(block.size, dtype=bool)
        for c, hit in scoped:
            ok &= _scoped_ok(
                evaluator._contract(prefix, c.scope, m).reshape(block.size, -1),
                c, hit)
        if not ok.any():
            continue
        # One contraction onto the value nodes serves floors and objective.
        tables = evaluator._contract(prefix, values, m).reshape(block.size, -1)
        if needs_dist:
            masses = evaluator._masses(tables)
        for c in floors:
            ok &= (_block_cvar(evaluator.unique_utilities, masses, c.alpha)
                   >= c.bound - ORACLE_TOL)
        n_feasible += int(ok.sum())
        if not ok.any():
            continue
        if isinstance(objective, MeuObjective):
            vals = tables @ evaluator._utils
        else:
            vals = _block_cvar(evaluator.unique_utilities, masses, objective.alpha)
        for i in near_best(vals, ok, best_val, NEAR_TIE * scale):
            strategy = block.strategy(i)
            val = alone(strategy)
            if val is not None and (best_val is None or val > best_val):
                best, best_val = strategy, val
    return OracleResult(
        feasible=best is not None,
        best=best,
        objective_value=best_val,
        n_strategies=n_total,
        n_feasible=n_feasible,
    )
