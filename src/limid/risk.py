"""Risk objectives and constraint specifications.

These are solver-agnostic descriptions shared by the exact enumeration
oracle and the MIP compiler, so both sides evaluate the very same predicate
code.  An event is a disjunction ("any") or conjunction ("all") of
node=state literals; a chance constraint bounds the probability of an
event; a logical constraint forbids it outright; a budget constraint
forbids joint states whose summed per-state costs exceed a limit.

CVaR here is lower-tail: for a utility distribution and confidence level
alpha, the value at risk is the smallest utility whose cumulative
probability reaches alpha, and CVaR averages the utility over that worst
alpha-tail.  It can serve as the objective or as a lower-bounded
constraint next to expected utility.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .diagram import InfluenceDiagram


@dataclass(frozen=True)
class EventSpec:
    """Literals over node states joined by one connective.

    mode "any": the event holds when at least one literal matches.
    mode "all": the event holds when every literal matches.
    """

    terms: Tuple[Tuple[str, str], ...]
    mode: str = "any"

    def __post_init__(self):
        if self.mode not in ("any", "all"):
            raise ValueError(f"event mode must be 'any' or 'all', got {self.mode!r}")
        if not self.terms:
            raise ValueError("event needs at least one node=state literal")
        object.__setattr__(self, "terms", tuple((n, s) for n, s in self.terms))

    @property
    def scope(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for n, _ in self.terms:
            if n not in seen:
                seen.append(n)
        return tuple(seen)


@dataclass(frozen=True)
class ChanceConstraint:
    """Bound the probability of an event: P(event) <= p or >= p."""

    event: EventSpec
    sense: str
    p: float

    def __post_init__(self):
        if self.sense not in ("<=", ">="):
            raise ValueError(f"sense must be '<=' or '>=', got {self.sense!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability bound must lie in [0, 1], got {self.p!r}")

    @property
    def scope(self) -> Tuple[str, ...]:
        return self.event.scope


@dataclass(frozen=True)
class LogicalConstraint:
    """Forbid an event entirely (probability forced to zero)."""

    event: EventSpec

    @property
    def scope(self) -> Tuple[str, ...]:
        return self.event.scope


@dataclass(frozen=True)
class BudgetConstraint:
    """Forbid joint states whose summed per-state costs exceed the limit.

    ``costs[node][state_label]`` is the cost contributed by that state;
    unlisted states cost nothing.
    """

    costs: Dict[str, Dict[str, float]]
    limit: float

    @property
    def scope(self) -> Tuple[str, ...]:
        return tuple(self.costs.keys())


def trigger_mask(
    diagram: InfluenceDiagram, scope: Sequence[str], spec
) -> np.ndarray:
    """Which joint states of ``scope`` trigger a chance or logical event or
    break a budget, as a bool array over the scope's configurations (first
    node most significant).  The scope must hold the spec's nodes."""
    indexer = diagram.indexer(scope)
    states = indexer.coordinates()
    if isinstance(spec, BudgetConstraint):
        cost = np.zeros(indexer.total)
        for n, table in spec.costs.items():
            per_state = [table.get(s, 0.0) for s in diagram.states(n)]
            cost += np.array(per_state, dtype=float)[states[n]]
        return cost > spec.limit
    hits = []
    for n, s in spec.event.terms:
        labels = diagram.states(n)
        # a label the node lacks matches no state
        hits.append(states[n] == (labels.index(s) if s in labels else -1))
    join = np.logical_or if spec.event.mode == "any" else np.logical_and
    return join.reduce(hits)


@dataclass(frozen=True)
class MeuObjective:
    """Maximize expected total utility."""


@dataclass(frozen=True)
class CvarObjective:
    """Maximize lower-tail CVaR of total utility at level alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class CvarConstraint:
    """Require lower-tail CVaR at level alpha to reach at least ``bound``."""

    alpha: float
    bound: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not np.isfinite(self.bound):
            raise ValueError(f"CVaR bound must be a finite number, got {self.bound!r}")


_EVENT_RE = re.compile(r"^\s*P\((?P<body>[^()]+)\)\s*(?:(?P<sense><=|>=)\s*(?P<p>\S+))?\s*$")


def parse_event(body: str) -> EventSpec:
    """Parse 'H1=ill|H2=ill' (any) or 'D1=treat&D2=treat' (all)."""
    if "|" in body and "&" in body:
        raise ValueError(f"event {body!r} mixes '|' and '&'; use one connective")
    mode = "all" if "&" in body else "any"
    sep = "&" if mode == "all" else "|"
    terms = []
    for raw in body.split(sep):
        part = raw.strip()
        if part.count("=") != 1:
            raise ValueError(f"bad event literal {part!r}; expected node=state")
        n, s = (x.strip() for x in part.split("="))
        if not n or not s:
            raise ValueError(f"bad event literal {part!r}; expected node=state")
        terms.append((n, s))
    return EventSpec(terms=tuple(terms), mode=mode)


def parse_chance_text(text: str) -> ChanceConstraint:
    """Parse 'P(H1=ill|H2=ill)<=0.4' into a chance constraint."""
    m = _EVENT_RE.match(text)
    if m is None or m.group("sense") is None:
        raise ValueError(f"cannot parse chance constraint {text!r}")
    try:
        p = float(m.group("p"))
    except ValueError:
        raise ValueError(f"bad probability bound {m.group('p')!r} in {text!r}") from None
    return ChanceConstraint(event=parse_event(m.group("body")), sense=m.group("sense"), p=p)


def parse_logical_text(text: str) -> LogicalConstraint:
    """Parse 'P(D1=treat&D2=treat&D3=treat)' into a logical constraint."""
    m = _EVENT_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse logical constraint {text!r}")
    if m.group("sense") is not None and (m.group("sense"), m.group("p")) != ("<=", "0"):
        raise ValueError(f"logical constraints take no bound (got {text!r})")
    return LogicalConstraint(event=parse_event(m.group("body")))


def budget_from_dict(data: Mapping) -> BudgetConstraint:
    """Build a budget constraint from sidecar data {'costs': ..., 'limit': ...}."""
    try:
        costs = {
            str(node): {str(s): float(c) for s, c in table.items()}
            for node, table in data["costs"].items()
        }
        limit = float(data["limit"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"budget sidecar needs 'costs' and 'limit': {exc}") from None
    if not np.isfinite([limit, *(c for t in costs.values() for c in t.values())]).all():
        raise ValueError("budget sidecar costs and limit must be finite numbers")
    return BudgetConstraint(costs=costs, limit=limit)


def validate_risk_spec(diagram: InfluenceDiagram, spec) -> List[str]:
    """Check that a spec's nodes and state labels exist in the diagram."""
    problems: List[str] = []
    if isinstance(spec, (ChanceConstraint, LogicalConstraint)):
        for n, s in spec.event.terms:
            if not diagram.has_node(n):
                problems.append(f"event names unknown node {n!r}")
            elif s not in diagram.states(n):
                problems.append(f"event uses unknown state {s!r} of node {n!r}")
    elif isinstance(spec, BudgetConstraint):
        for n, table in spec.costs.items():
            if not diagram.has_node(n):
                problems.append(f"budget names unknown node {n!r}")
                continue
            for s in table:
                if s not in diagram.states(n):
                    problems.append(f"budget uses unknown state {s!r} of node {n!r}")
    elif isinstance(spec, (CvarObjective, CvarConstraint, MeuObjective)):
        pass
    else:
        problems.append(f"unknown risk spec type {type(spec).__name__}")
    return problems
