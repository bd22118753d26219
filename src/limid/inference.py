"""Exact inference by contracting the diagram's factors.

Each CPT, and each decision rule as a 0/1 table, sits on its family's axes
(the parents plus the node).  A query contracts all of them straight onto
its output axes along a pairwise path that ``np.einsum_path`` plans once
per output scope.  Nothing is pruned or approximated: the answer is the
product of every factor summed onto the output, and simplicity is the
guarantee of correctness, which is what an oracle is for.  The largest
tensor one step spans is guarded by a cap and refused beyond it.
"""

from __future__ import annotations

import itertools
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


def tail_witness(dist: UtilityDistribution, alpha: float) -> Dict[str, np.ndarray]:
    """Per-atom tail bookkeeping for a distribution at level alpha.

    Returns arrays over the atoms, with eta the alpha-quantile: ``below``
    marks utilities under eta, ``at_or_below`` marks utilities not above
    eta, ``tail_share`` is the probability each atom contributes to the
    worst alpha-tail (full mass under eta, the remaining share at eta, zero
    above), and ``eta`` itself.  The shares sum to alpha and average to CVaR.
    """
    eta = cvar_of_distribution(dist, alpha).var
    u = dist.utilities
    p = dist.probabilities
    below = u < eta
    at_or_below = u <= eta
    tail = np.where(below, p, 0.0)
    remaining = alpha - tail.sum()
    shares = tail.copy()
    shares[u == eta] = remaining
    return {
        "eta": float(eta),
        "below": below,
        "at_or_below": at_or_below,
        "tail_share": shares,
    }


class Evaluator:
    """Contracts the CPTs and a strategy's rule tables afresh per query.

    The utility grid over the value nodes and the contraction path of each
    output scope are built once; per query, only the rule tables are new.
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
        self._plans: Dict[Tuple[str, ...], List[Tuple[List[int], str]]] = {}

        self._values = tuple(diagram.value_nodes)
        self._plan(self._values)  # checks the cap before the grid is built
        grid = sum(np.ix_(*(diagram.utilities[v].values for v in self._values)),
                   np.zeros(()))
        self._utils = np.ravel(grid)
        self.unique_utilities, self._inverse = np.unique(
            round_to_sig(self._utils), return_inverse=True)

    def _plan(self, scope: Tuple[str, ...]) -> List[Tuple[List[int], str]]:
        """Steps contracting every factor onto ``scope``: the operand
        positions each step pops (descending, as numpy's paths count them)
        and its subscripts.  Planned once per scope."""
        plan = self._plans.get(scope)
        if plan is not None:
            return plan
        out = "".join(self._label[n] for n in scope)
        terms = list(self._terms)
        shaped = [np.broadcast_to(0.0, shape) for shape in self._shapes]
        # The memory limit keeps greedy off intermediates above the cap; a
        # step it cannot avoid is refused below.
        path = np.einsum_path(",".join(terms) + "->" + out, *shaped,
                              optimize=("greedy", CONTRACTION_CAP))[0][1:]
        plan = []
        for step in path:
            step = sorted(step, reverse=True)
            picked = [terms.pop(i) for i in step]
            touched = set("".join(picked))
            span = math.prod(self._size[c] for c in touched)
            if span > CONTRACTION_CAP:
                raise CapExceededError("a contraction step", span, CONTRACTION_CAP)
            kept = "".join(sorted(touched & set("".join(terms) + out)))
            terms.append(kept if terms else out)
            plan.append((step, ",".join(picked) + "->" + terms[-1]))
        self._plans[scope] = plan
        return plan

    def _contract(self, strategy: Strategy, scope: Sequence[str]) -> np.ndarray:
        """Probability table over ``scope`` (axes in scope order)."""
        problems = check_strategy(self.diagram, strategy)
        if problems:
            raise ValueError("; ".join(problems))
        # A rule's 0/1 table: row i is the one-hot of the state it picks.
        ops = [np.eye(shape[-1])[list(strategy.rules[n])].reshape(shape)
               if table is None else table
               for n, shape, table in zip(self._nodes, self._shapes, self._tables)]
        for step, subscripts in self._plan(tuple(scope)):
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


def enumerate_strategies(diagram: InfluenceDiagram) -> Iterator[Strategy]:
    """All feasible deterministic strategies, lexicographic, each exactly once.

    Order: decisions in declaration order, each rule read as a tuple of
    chosen state indices per ascending parent configuration; earlier
    decisions are more significant.
    """
    count = strategy_count(diagram)
    if count > STRATEGY_CAP:
        raise CapExceededError("strategy enumeration", count, STRATEGY_CAP)
    decisions = diagram.decision_nodes
    rule_spaces = [
        itertools.product(
            range(diagram.n_states(d)), repeat=diagram.parent_indexer(d).total
        )
        for d in decisions
    ]
    for combo in itertools.product(*rule_spaces):
        yield Strategy(rules=dict(zip(decisions, combo)))


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    best: Optional[Strategy]
    objective_value: Optional[float]
    n_strategies: int
    n_feasible: int


_SCOPED = (ChanceConstraint, LogicalConstraint, BudgetConstraint)


def _scoped_ok(evaluator: Evaluator, strategy: Strategy, spec, hit) -> bool:
    """Whether a chance, logical or budget spec holds; ``hit`` is its
    ``trigger_mask`` over its scope."""
    table = evaluator.marginal(strategy, spec.scope)
    prob = sum(table[hit].tolist())  # left to right, as a loop would
    if isinstance(spec, ChanceConstraint) and spec.sense == ">=":
        return prob >= spec.p - ORACLE_TOL
    bound = spec.p if isinstance(spec, ChanceConstraint) else 0.0
    return prob <= bound + ORACLE_TOL


def oracle_optimize(
    diagram: InfluenceDiagram,
    objective=MeuObjective(),
    constraints: Iterable = (),
) -> OracleResult:
    """Best feasible strategy by exhaustive enumeration.

    Exact ties break toward the lexicographically smallest strategy because
    the incumbent is replaced only on strict improvement along the
    lexicographic enumeration order.  Strategies whose values differ only
    at the rounding level (about 1e-15 relative) are not exact ties: which
    of them wins depends on how the contraction rounds, and may differ from
    what a dense product of all factors would pick.
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
    best: Optional[Strategy] = None
    best_val: Optional[float] = None
    n_total = 0
    n_feasible = 0
    for strategy in enumerate_strategies(diagram):
        n_total += 1
        if not all(_scoped_ok(evaluator, strategy, c, hit) for c, hit in scoped):
            continue
        # One contraction onto the value nodes serves floors and objective.
        table = evaluator.value_table(strategy)
        dist = evaluator.distribution_of(table) if needs_dist else None
        if not all(cvar_of_distribution(dist, c.alpha).cvar >= c.bound - ORACLE_TOL
                   for c in floors):
            continue
        n_feasible += 1
        if isinstance(objective, MeuObjective):
            val = evaluator.expected_of(table)
        else:
            val = cvar_of_distribution(dist, objective.alpha).cvar
        if best_val is None or val > best_val:
            best, best_val = strategy, val
    return OracleResult(
        feasible=best is not None,
        best=best,
        objective_value=best_val,
        n_strategies=n_total,
        n_feasible=n_feasible,
    )
