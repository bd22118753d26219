"""Exact inference over the full joint state space.

Everything here works on the explicit joint probability tensor: one axis
per node in topological order, each CPT (and each decision rule, as a 0/1
mask) broadcast in.  No elimination order, no message passing; simplicity
is the guarantee of correctness, which is what an oracle is for.  Per
strategy, the work is a refresh of the rule masks that changed plus one
scatter of the CPT product onto the strategy's support.  Sizes are guarded
by caps and refused beyond them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._tensor import place_table
from .diagram import (
    CapExceededError,
    InfluenceDiagram,
    NodeKind,
    Strategy,
    check_strategy,
    topological_order,
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

JOINT_STATES_CAP = 1 << 26
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


def tail_witness(
    dist: UtilityDistribution, alpha: float, eta: Optional[float] = None
) -> Dict[str, np.ndarray]:
    """Per-atom tail bookkeeping for a distribution at level alpha.

    Returns arrays over the atoms: ``below`` marks utilities under eta,
    ``at_or_below`` marks utilities not above eta, ``tail_share`` is the
    probability each atom contributes to the worst alpha-tail (full mass
    under eta, the remaining share at eta, zero above), and ``eta`` itself.
    With the default eta (the alpha-quantile) the shares sum to alpha and
    average to CVaR.
    """
    if eta is None:
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
    """Joint-tensor evaluator; the CPT product and utility grid are built once.

    Per strategy, the rule masks are refreshed from the first decision whose
    rule changed since the last query, and the CPT product is scattered onto
    the support.  The last strategy's support and joint are kept.
    """

    def __init__(self, diagram: InfluenceDiagram, cap: int = JOINT_STATES_CAP):
        self.diagram = diagram
        self.order = topological_order(diagram)
        self.sizes = [diagram.n_states(n) for n in self.order]
        total = 1
        for s in self.sizes:
            total *= s
            if total > cap:
                raise CapExceededError("joint state space", total, cap)
        self.total = total
        self.pos = {n: i for i, n in enumerate(self.order)}

        factors = []
        for name in self.order:
            if diagram.kind(name) == NodeKind.DECISION:
                continue
            factors.append(self._placed_table(name, diagram.cpts[name].rows))
        self.base = reduce(np.multiply, factors) if factors else np.ones(self.sizes)
        self._flat_base = np.ascontiguousarray(
            np.broadcast_to(self.base, self.sizes)).ravel()

        value_axes = [
            place_table(self.sizes, [self.pos[v]], diagram.utilities[v].values)
            for v in diagram.value_nodes
        ]
        if value_axes:
            utils = np.broadcast_to(reduce(np.add, value_axes), self.sizes)
        else:
            utils = np.zeros(self.sizes)
        flat_utils = utils.ravel()
        keys = round_to_sig(flat_utils)
        self.unique_utilities, self._inverse = np.unique(keys, return_inverse=True)
        self._inverse = self._inverse.ravel()
        self._flat_utils = np.ascontiguousarray(flat_utils)

        # Per decision k in declaration order: its rule at the last query and
        # the AND of the rule masks of decisions 1..k, in broadcast shape.
        self._decisions = diagram.decision_nodes
        self._rules = [None] * len(self._decisions)
        self._masks = [None] * len(self._decisions)
        self._support = self._joint = None

    def _placed_table(self, name: str, rows: np.ndarray) -> np.ndarray:
        ps = self.diagram.parents(name)
        shaped = rows.reshape(
            [self.diagram.n_states(p) for p in ps] + [self.diagram.n_states(name)]
        )
        return place_table(self.sizes, [self.pos[p] for p in ps] + [self.pos[name]], shaped)

    def _rule_mask(self, d: str, rule: Tuple[int, ...]) -> np.ndarray:
        rows = np.zeros((len(rule), self.diagram.n_states(d)), dtype=bool)
        rows[np.arange(len(rule)), list(rule)] = True
        return self._placed_table(d, rows)

    def _select(self, strategy: Strategy) -> np.ndarray:
        """Flat grid indices where every rule of ``strategy`` holds."""
        problems = check_strategy(self.diagram, strategy)
        if problems:
            raise ValueError("; ".join(problems))
        rules = [tuple(strategy.rules[d]) for d in self._decisions]
        k = 0
        while k < len(rules) and rules[k] == self._rules[k]:
            k += 1
        if self._support is not None and k == len(rules):
            return self._support
        self._support = self._joint = None
        mask = self._masks[k - 1] if k else np.ones([1] * len(self.sizes), dtype=bool)
        for i in range(k, len(rules)):
            mask = mask & self._rule_mask(self._decisions[i], rules[i])
            self._masks[i], self._rules[i] = mask, rules[i]
        self._support = np.flatnonzero(np.broadcast_to(mask, self.sizes))
        return self._support

    def joint(self, strategy: Strategy) -> np.ndarray:
        """Read-only joint: the CPT product times every rule's 0/1 table."""
        support = self._select(strategy)
        if self._joint is None:
            # Rule entries are exactly 0.0 or 1.0 and the CPT product holds
            # finite probabilities >= 0, so the product of all factors is
            # the CPT product on the support and +0.0 elsewhere, bit for bit.
            # (Validation lets a CPT entry sit within ROW_SUM_TOL below 0;
            # the product has -0.0 there, which compares equal.)
            flat = np.zeros(self.total)
            flat[support] = self._flat_base[support]
            flat.flags.writeable = False
            self._joint = flat.reshape(self.sizes)
        return self._joint

    def distribution(self, strategy: Strategy) -> UtilityDistribution:
        # bincount adds in ascending index order and every entry off the
        # support is +0.0, so skipping them leaves each mass bit-identical
        # to the sum over the full joint.
        support = self._select(strategy)
        mass = np.bincount(
            self._inverse[support],
            weights=self._flat_base[support],
            minlength=self.unique_utilities.size,
        )
        keep = mass > ATOM_PROB_FLOOR
        return UtilityDistribution(
            utilities=self.unique_utilities[keep], probabilities=mass[keep]
        )

    def expected(self, strategy: Strategy) -> float:
        """Expected total utility from the unrounded utility grid.

        More precise than ``distribution(...).expected()``, whose atoms are
        rounded to 12 significant digits for aggregation.  The dot runs over
        the full grid so that its blocking is the same for every strategy:
        equal joints get equal values, and ties break the same way.
        """
        return float(np.dot(self._flat_utils, self.joint(strategy).ravel()))

    def marginal(self, strategy: Strategy, scope: Sequence[str]) -> np.ndarray:
        """Flat probability table over ``scope`` in the given node order."""
        axes_keep = [self.pos[n] for n in scope]
        if len(set(axes_keep)) != len(axes_keep):
            raise ValueError("marginal scope repeats a node")
        drop = tuple(i for i in range(len(self.sizes)) if i not in set(axes_keep))
        table = self.joint(strategy).sum(axis=drop)
        # Axes of ``table`` follow ascending grid position; rearrange to the
        # caller's scope order.
        rank = {a: i for i, a in enumerate(sorted(axes_keep))}
        table = np.transpose(table, [rank[a] for a in axes_keep])
        return table.ravel()


def evaluate_strategy(
    diagram: InfluenceDiagram, strategy: Strategy, cap: int = JOINT_STATES_CAP
) -> UtilityDistribution:
    """Distribution of total utility under a fixed deterministic strategy."""
    return Evaluator(diagram, cap=cap).distribution(strategy)


def joint_marginal(
    diagram: InfluenceDiagram,
    strategy: Strategy,
    scope: Sequence[str],
) -> np.ndarray:
    """Marginal probability table over ``scope`` (flat, scope order given)."""
    return Evaluator(diagram).marginal(strategy, scope)


def strategy_count(diagram: InfluenceDiagram) -> int:
    total = 1
    for d in diagram.decision_nodes:
        total *= diagram.n_states(d) ** diagram.parent_indexer(d).total
    return total


def enumerate_strategies(
    diagram: InfluenceDiagram, cap: int = STRATEGY_CAP
) -> Iterator[Strategy]:
    """All feasible deterministic strategies, lexicographic, each exactly once.

    Order: decisions in declaration order, each rule read as a tuple of
    chosen state indices per ascending parent configuration; earlier
    decisions are more significant.
    """
    count = strategy_count(diagram)
    if count > cap:
        raise CapExceededError("strategy enumeration", count, cap)
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


def _constraint_ok(evaluator: Evaluator, strategy: Strategy, spec, hit) -> bool:
    """``hit``: the spec's ``trigger_mask`` over its scope, None for CVaR."""
    if isinstance(spec, _SCOPED):
        table = evaluator.marginal(strategy, spec.scope)
        prob = sum(table[hit].tolist())  # left to right, as a loop would
        if isinstance(spec, ChanceConstraint) and spec.sense == ">=":
            return prob >= spec.p - ORACLE_TOL
        bound = spec.p if isinstance(spec, ChanceConstraint) else 0.0
        return prob <= bound + ORACLE_TOL
    if isinstance(spec, CvarConstraint):
        dist = evaluator.distribution(strategy)
        return cvar_of_distribution(dist, spec.alpha).cvar >= spec.bound - ORACLE_TOL
    raise ValueError(f"unsupported constraint type {type(spec).__name__}")


def oracle_optimize(
    diagram: InfluenceDiagram,
    objective=MeuObjective(),
    constraints: Iterable = (),
) -> OracleResult:
    """Best feasible strategy by exhaustive enumeration.

    Ties break toward the lexicographically smallest strategy because the
    incumbent is replaced only on strict improvement along the lexicographic
    enumeration order.
    """
    evaluator = Evaluator(diagram)
    constraints = list(constraints)
    hits = [trigger_mask(diagram, c.scope, c) if isinstance(c, _SCOPED) else None
            for c in constraints]
    best: Optional[Strategy] = None
    best_val: Optional[float] = None
    n_total = 0
    n_feasible = 0
    for strategy in enumerate_strategies(diagram):
        n_total += 1
        if not all(_constraint_ok(evaluator, strategy, c, hit)
                   for c, hit in zip(constraints, hits)):
            continue
        n_feasible += 1
        if isinstance(objective, MeuObjective):
            val = evaluator.expected(strategy)
        elif isinstance(objective, CvarObjective):
            dist = evaluator.distribution(strategy)
            val = cvar_of_distribution(dist, objective.alpha).cvar
        else:
            raise ValueError(f"unsupported objective type {type(objective).__name__}")
        if best_val is None or val > best_val:
            best, best_val = strategy, val
    return OracleResult(
        feasible=best is not None,
        best=best,
        objective_value=best_val,
        n_strategies=n_total,
        n_feasible=n_feasible,
    )
