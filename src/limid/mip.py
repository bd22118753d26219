"""Compile a junction tree into a mixed-integer linear program.

Variables: one probability-mass variable per cluster configuration
(``mu_<root>_<config>``) and one binary policy variable per decision,
parent configuration, and state (``delta_<d>_<pcfg>_<state>``), stored as
one block per cluster and one per decision; names are built on request.

Rows: each cluster's mass sums to one; adjacent clusters agree on the
marginal of their shared nodes; inside a chance or value cluster, the
mass of a configuration is the cluster's own marginal over the root node
times the root's CPT entry; inside a decision cluster, the analogous
product against the binary policy variable is written exactly with two
linear rows per configuration (valid because all masses live in [0, 1]),
plus one pick-one row per parent configuration.

Risk extensions: chance / logical / budget rows bound the mass of marked
configurations inside one covering cluster, and a CVaR block introduces
tail-bookkeeping variables over the distinct utilities of a single value
node, usable as objective or as a lower-bound constraint.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .diagram import CapExceededError, InfluenceDiagram, NodeKind
from .inference import round_to_sig
from .risk import (
    BudgetConstraint,
    ChanceConstraint,
    CvarConstraint,
    CvarObjective,
    LogicalConstraint,
    trigger_mask,
    validate_risk_spec,
)
from .rjt import RootedJunctionTree

CLUSTER_STATES_CAP = 1 << 20

# Variable kinds, stored in a model as their codes UNIT, BINARY and FREE.
VAR_UNIT = "unit"
VAR_BINARY = "binary"
VAR_FREE = "free"
KINDS = (VAR_UNIT, VAR_BINARY, VAR_FREE)
UNIT, BINARY, FREE = range(len(KINDS))


@dataclass(frozen=True)
class VarBlock:
    """Variables ``start`` to ``start + size`` of one kind code, laid out
    in C order over ``shape``.  The variable at coordinates ``(i, j)`` is
    named ``head + "i_j"``; a block of shape ``()`` is the variable
    ``head``."""

    start: int
    shape: Tuple[int, ...]
    head: str
    kind: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def names(self) -> List[str]:
        if not self.shape:
            return [self.head]
        heads = [self.head]
        for n in self.shape[:-1]:
            heads = [f"{h}{i}_" for h in heads for i in range(n)]
        return [f"{h}{i}" for h in heads for i in range(self.shape[-1])]


class VarStore:
    """Every variable of a model as blocks of consecutive indices.

    A variable is its index; ``kinds`` gives the kind codes as an array and
    ``names()`` the LP names, built only when asked for.
    """

    def __init__(self):
        self.blocks: List[VarBlock] = []
        self._n = 0

    def add(self, head: str, shape: Tuple[int, ...], kind: str) -> int:
        """Append a block; returns the index of its first variable."""
        block = VarBlock(self._n, tuple(shape), head, KINDS.index(kind))
        self.blocks.append(block)
        self._n += block.size
        return block.start

    def __len__(self) -> int:
        return self._n

    @property
    def kinds(self) -> np.ndarray:
        return np.repeat(
            np.array([b.kind for b in self.blocks], dtype=np.int8),
            [b.size for b in self.blocks],
        )

    def names(self) -> List[str]:
        return [name for block in self.blocks for name in block.names()]


# Row senses, stored in a model as their codes EQ, LE and GE.
SENSES = ("==", "<=", ">=")
EQ, LE, GE = range(len(SENSES))


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coef * var) sense rhs, with a provenance tag.

    Terms are merged per variable (no duplicates) and zero coefficients are
    dropped at construction.
    """

    terms: Tuple[Tuple[float, int], ...]
    sense: str
    rhs: float
    tag: str

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"bad constraint sense {self.sense!r}")

    @property
    def family(self) -> str:
        return self.tag.split("[", 1)[0]


def make_constraint(terms, sense: str, rhs: float, tag: str) -> LinearConstraint:
    merged: Dict[int, float] = {}
    order: List[int] = []
    for coef, var in terms:
        if var not in merged:
            merged[var] = 0.0
            order.append(var)
        merged[var] += coef
    packed = tuple((merged[v], v) for v in order if merged[v] != 0.0)
    return LinearConstraint(terms=packed, sense=sense, rhs=float(rhs), tag=tag)


@dataclass(frozen=True)
class RowBlock:
    """Rows ``start`` to ``stop`` (exclusive), emitted in one step.

    A single row is tagged ``heads[0]``.  In an indexed block, row
    ``start + j`` is tagged ``heads[j % p] + str(j // p) + "]"`` with
    ``p = len(heads)``, so two heads interleave two row families.
    """

    start: int
    stop: int
    heads: Tuple[str, ...]
    indexed: bool

    def tag(self, row: int) -> str:
        if not self.indexed:
            return self.heads[0]
        j, p = row - self.start, len(self.heads)
        return f"{self.heads[j % p]}{j // p}]"

    def tags(self) -> List[str]:
        if not self.indexed:
            return [self.heads[0]] * (self.stop - self.start)
        p = len(self.heads)
        return [f"{self.heads[j % p]}{j // p}]"
                for j in range(self.stop - self.start)]

    def family_counts(self) -> Iterator[Tuple[str, int]]:
        n, p = self.stop - self.start, len(self.heads)
        for j, head in enumerate(self.heads):
            yield head.split("[", 1)[0], len(range(j, n, p))


class RowStore(Sequence):
    """Every row of a model in compressed sparse row form.

    Row ``i`` has the terms ``data[k] * x[indices[k]]`` for ``k`` in
    ``indptr[i]:indptr[i + 1]``, the sense ``SENSES[sense[i]]`` and the
    right-hand side ``rhs[i]``; ``blocks`` give the row families and tags.
    Appended rows are gathered and joined into the arrays on first read.
    As a sequence the store is a read-only view of ``LinearConstraint``
    objects, each built on demand.
    """

    def __init__(self):
        self.blocks: List[RowBlock] = []
        self._pending: list = []
        self._n = 0
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.zeros(0, dtype=np.int64)
        self._data = np.zeros(0)
        self._sense = np.zeros(0, dtype=np.int8)
        self._rhs = np.zeros(0)

    def append(self, counts, indices, data, sense, rhs, heads, indexed=True):
        """Add ``len(counts)`` rows whose terms lie in ``indices``/``data``
        row after row; ``sense`` and ``rhs`` are per row or scalars."""
        n = len(counts)
        sense = np.broadcast_to(np.asarray(sense, dtype=np.int8), (n,))
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (n,))
        self._pending.append((counts, indices, data, sense, rhs))
        self.blocks.append(RowBlock(self._n, self._n + n, tuple(heads), indexed))
        self._n += n

    def append_terms(self, n_rows, row, var, coef, sense, rhs, heads):
        """Add ``n_rows`` rows from terms ``coef * x[var]`` on rows ``row``
        (numbered from 0 in this block).  A row keeps its terms in the
        order given, less those with a zero coefficient."""
        keep = coef != 0.0
        row = row[keep]
        order = np.argsort(row, kind="stable")
        self.append(np.bincount(row, minlength=n_rows), var[keep][order],
                    coef[keep][order], sense, rhs, heads)

    def _join(self) -> None:
        if not self._pending:
            return
        parts = list(zip(*self._pending))
        self._pending = []
        counts = np.concatenate(parts[0]).astype(np.int64)
        self._indptr = np.concatenate(
            [self._indptr, self._indptr[-1] + np.cumsum(counts)])
        self._indices = np.concatenate(
            [self._indices] + [np.asarray(a, dtype=np.int64) for a in parts[1]])
        self._data = np.concatenate(
            [self._data] + [np.asarray(a, dtype=float) for a in parts[2]])
        self._sense = np.concatenate([self._sense, *parts[3]])
        self._rhs = np.concatenate([self._rhs, *parts[4]])

    @property
    def indptr(self) -> np.ndarray:
        self._join()
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        self._join()
        return self._indices

    @property
    def data(self) -> np.ndarray:
        self._join()
        return self._data

    @property
    def sense(self) -> np.ndarray:
        self._join()
        return self._sense

    @property
    def rhs(self) -> np.ndarray:
        self._join()
        return self._rhs

    def tag(self, row: int) -> str:
        at = bisect_right(self.blocks, row, key=lambda block: block.start)
        return self.blocks[at - 1].tag(row)

    def tags(self) -> Iterator[str]:
        for block in self.blocks:
            yield from block.tags()

    def family_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for block in self.blocks:
            for family, n in block.family_counts():
                if n:
                    counts[family] = counts.get(family, 0) + n
        return counts

    def __len__(self) -> int:
        return self._n

    def _row(self, i: int, tag: str) -> LinearConstraint:
        a, b = self.indptr[i], self.indptr[i + 1]
        terms = tuple(zip(self.data[a:b].tolist(), self.indices[a:b].tolist()))
        return LinearConstraint(terms=terms, sense=SENSES[self.sense[i]],
                                rhs=float(self.rhs[i]), tag=tag)

    def __getitem__(self, i: int) -> LinearConstraint:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("row index out of range")
        return self._row(i, self.tag(i))

    def __iter__(self) -> Iterator[LinearConstraint]:
        for i, tag in enumerate(self.tags()):
            yield self._row(i, tag)


@dataclass(frozen=True)
class ClusterLayout:
    """Precomputed index arithmetic for one cluster.

    ``group_of[cfg]`` drops the root node's coordinate (identifying the
    configuration of the other members), ``root_state[cfg]`` extracts it,
    and ``table_row[cfg]`` is the root's CPT row (its parents' configuration
    in declared parent order).  ``parent_groups`` maps each configuration of
    the tree-parent cluster to the group it projects onto, so local
    consistency and downward propagation use the same arithmetic.
    """

    root: str
    members: Tuple[str, ...]
    radices: Tuple[int, ...]
    total: int
    n_groups: int
    group_of: np.ndarray
    root_state: np.ndarray
    table_row: np.ndarray
    parent_groups: Optional[np.ndarray]


class CompileContext:
    """Diagram + tree + per-cluster layouts, shared by compiler and solvers."""

    def __init__(self, diagram: InfluenceDiagram, tree: RootedJunctionTree):
        self.diagram = diagram
        self.tree = tree
        self.layouts: Dict[str, ClusterLayout] = {}
        self.tree_order = tree.preorder()
        for root in tree.order:
            self.layouts[root] = self._layout(root)

    def _layout(self, root: str) -> ClusterLayout:
        d, tree = self.diagram, self.tree
        members = tree.members(root)
        indexer = d.indexer(members)
        total = indexer.total
        if total > CLUSTER_STATES_CAP:
            raise CapExceededError(
                f"cluster {root!r} state space (width drives exponential growth)",
                total,
                CLUSTER_STATES_CAP,
            )
        coords = indexer.coordinates()
        others = d.indexer([m for m in members if m != root])
        group_of = others.index_array(coords, total)

        parents = d.parents(root)
        absent = [p for p in parents if p not in coords]
        if absent:
            raise ValueError(
                f"cluster {root!r} lacks the information set {absent}; "
                f"the tree is invalid (see validate_rjt)"
            )
        table_row = d.parent_indexer(root).index_array(coords, total)

        parent_root = tree.parent.get(root)
        parent_groups = None
        if parent_root is not None:
            pmembers = tree.members(parent_root)
            missing = [m for m in others.scope if m not in pmembers]
            if missing:
                raise ValueError(
                    f"tree is not gradual: cluster {root!r} members {missing} "
                    f"are absent from parent {parent_root!r}"
                )
            pindexer = d.indexer(pmembers)
            parent_groups = others.index_array(pindexer.coordinates(),
                                               pindexer.total)

        return ClusterLayout(
            root=root,
            members=members,
            radices=indexer.radices,
            total=total,
            n_groups=total // d.n_states(root),
            group_of=group_of,
            root_state=coords[root],
            table_row=table_row,
            parent_groups=parent_groups,
        )


@dataclass
class CvarBlock:
    """Catalog of one CVaR tail block over a value cluster's utilities."""

    value_root: str
    alpha: float
    eps: float
    big_m: float
    utilities: np.ndarray
    level: np.ndarray  # value-cluster config -> index into utilities
    eta: int
    lam: np.ndarray  # variable indices, one per utility level
    lambar: np.ndarray
    rho: np.ndarray
    rhobar: np.ndarray
    mode: str  # "objective" or "constraint"
    bound: Optional[float] = None


@dataclass
class MipModel:
    """Solver-agnostic model: variables, rows, objective, catalogs."""

    variables: VarStore = field(default_factory=VarStore, repr=False,
                                compare=False)
    rows: RowStore = field(default_factory=RowStore, repr=False, compare=False)
    objective: Tuple[Tuple[float, int], ...] = ()  # maximized
    mu_start: Dict[str, int] = field(default_factory=dict)
    mu_total: Dict[str, int] = field(default_factory=dict)
    delta_start: Dict[str, int] = field(default_factory=dict)
    delta_shape: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    cvar: Optional[CvarBlock] = None
    # Set by build_base_model; lets a solver bridge rebuild the exact
    # assignment of a strategy.  Hand-built models leave it None.
    context: Optional[CompileContext] = field(
        default=None, repr=False, compare=False
    )

    @property
    def constraints(self) -> RowStore:
        """The rows as a read-only sequence of ``LinearConstraint``."""
        return self.rows

    def add_var(self, name: str, kind: str) -> int:
        return self.variables.add(name, (), kind)

    def add_row(self, terms, sense: str, rhs: float, tag: str) -> None:
        row = make_constraint(terms, sense, rhs, tag)
        coefs = [coef for coef, _ in row.terms]
        self.rows.append([len(coefs)], [var for _, var in row.terms], coefs,
                         SENSES.index(row.sense), row.rhs, (tag,), indexed=False)

    def mu_var(self, root: str, cfg: int) -> int:
        if not 0 <= cfg < self.mu_total[root]:
            raise IndexError(f"config {cfg} out of range for cluster {root!r}")
        return self.mu_start[root] + cfg

    def delta_var(self, decision: str, pcfg: int, state: int) -> int:
        n_pcfg, n_states = self.delta_shape[decision]
        if not (0 <= pcfg < n_pcfg and 0 <= state < n_states):
            raise IndexError(f"bad policy coordinates for {decision!r}")
        return self.delta_start[decision] + pcfg * n_states + state


def build_base_model(
    tree: RootedJunctionTree, diagram: InfluenceDiagram
) -> Tuple[MipModel, CompileContext]:
    """Emit the expected-utility model for a diagram and its junction tree.

    Deterministic emission: clusters in topological root order with
    configurations ascending; mass variables first, then policy variables;
    row families in the order normalization, local consistency, chance
    coupling, decision coupling, pick-one.  The objective sums utility
    times mass over every value cluster (zero-utility terms omitted).
    Each family is emitted one cluster at a time as a block of arrays.
    """
    ctx = CompileContext(diagram, tree)
    model = MipModel(context=ctx)
    rows = model.rows

    for root in tree.order:
        total = ctx.layouts[root].total
        model.mu_start[root] = model.variables.add(
            f"mu_{root}_", (total,), VAR_UNIT)
        model.mu_total[root] = total
    for d in diagram.decision_nodes:
        shape = (diagram.parent_indexer(d).total, diagram.n_states(d))
        model.delta_start[d] = model.variables.add(
            f"delta_{d}_", shape, VAR_BINARY)
        model.delta_shape[d] = shape

    for root in tree.order:
        total = ctx.layouts[root].total
        rows.append([total], model.mu_start[root] + np.arange(total),
                    np.ones(total), EQ, 1.0,
                    (f"normalize[{root}]",), indexed=False)

    for child in tree.order:
        parent = tree.parent.get(child)
        if parent is None:
            continue
        lay = ctx.layouts[child]
        # row g: + parent configs, then - child configs, projecting onto g
        n_parent = lay.parent_groups.size
        rows.append_terms(
            lay.n_groups,
            np.concatenate([lay.parent_groups, lay.group_of]),
            np.concatenate([model.mu_start[parent] + np.arange(n_parent),
                            model.mu_start[child] + np.arange(lay.total)]),
            np.concatenate([np.ones(n_parent), -np.ones(lay.total)]),
            EQ, 0.0, (f"consistency[{parent}->{child}][g=",),
        )

    for root in tree.order:
        if diagram.kind(root) == NodeKind.DECISION:
            continue
        lay = ctx.layouts[root]
        p = diagram.cpts[root].rows[lay.table_row, lay.root_state]
        # row c: mass_c - p_c * (mass of c's group) = 0, where the own term
        # merges to 1 - p_c and the siblings follow in ascending order
        cfgs = np.arange(lay.total)
        linked = np.nonzero(p)[0]
        siblings = _siblings(lay, linked)
        rows.append_terms(
            lay.total,
            np.concatenate([cfgs, np.repeat(linked, siblings.shape[1])]),
            model.mu_start[root] + np.concatenate([cfgs, siblings.ravel()]),
            np.concatenate([1.0 - p, np.repeat(-p[linked], siblings.shape[1])]),
            EQ, 0.0, (f"cpt_link[{root}][c=",),
        )

    for root in tree.order:
        if diagram.kind(root) != NodeKind.DECISION:
            continue
        linearize_decision_coupling(model, ctx, root)
    for d in diagram.decision_nodes:
        n_pcfg, n_states = model.delta_shape[d]
        rows.append([n_states] * n_pcfg,
                    model.delta_start[d] + np.arange(n_pcfg * n_states),
                    np.ones(n_pcfg * n_states), EQ, 1.0,
                    (f"policy_pick[{d}][i=",))

    coefs: List[float] = []
    variables: List[int] = []
    for root in tree.order:
        if diagram.kind(root) != NodeKind.VALUE:
            continue
        lay = ctx.layouts[root]
        u = diagram.utilities[root].values[lay.root_state].astype(float)
        hit = np.nonzero(u != 0.0)[0]
        coefs += u[hit].tolist()
        variables += (model.mu_start[root] + hit).tolist()
    model.objective = tuple(zip(coefs, variables))
    return model, ctx


def _siblings(lay: ClusterLayout, cfgs: np.ndarray) -> np.ndarray:
    """Line ``j``: the other configurations of ``cfgs[j]``'s group, in
    ascending order.  Every group has one configuration per state of the
    root, ascending with that state, so ``root_state`` is the own place."""
    members = np.argsort(lay.group_of, kind="stable").reshape(lay.n_groups, -1)
    cols = np.arange(members.shape[1] - 1)
    skip_own = cols + (cols >= lay.root_state[cfgs][:, None])
    return members[lay.group_of[cfgs][:, None], skip_own]


def linearize_decision_coupling(model: MipModel, ctx: CompileContext, root: str) -> None:
    """Exact two-row linearization of mass = marginal * policy.

    For each configuration: mass is capped by the policy bit, and mass must
    reach the cluster's own root-marginal less the bit's slack.  Both rows
    are exact because masses live in [0, 1]; the root marginal is written as
    the sum over the root node's states inside the same cluster.  The two
    rows of configuration c are rows 2c and 2c + 1 of the block.
    """
    lay = ctx.layouts[root]
    n_states = model.delta_shape[root][1]
    cfgs = np.arange(lay.total)
    mu = model.mu_start[root] + cfgs
    bit = model.delta_start[root] + lay.table_row * n_states + lay.root_state
    siblings = model.mu_start[root] + _siblings(lay, cfgs)
    ub, lb = 2 * cfgs, 2 * cfgs + 1
    ones = np.ones(lay.total)
    model.rows.append_terms(
        2 * lay.total,
        # policy_ub: mass - bit <= 0.  policy_lb: mass - group mass - bit
        # >= -1, in which the own mass cancels.
        np.concatenate([ub, ub, np.repeat(lb, siblings.shape[1]), lb]),
        np.concatenate([mu, bit, siblings.ravel(), bit]),
        np.concatenate([ones, -ones, -np.ones(siblings.size), -ones]),
        np.tile([LE, GE], lay.total),
        np.tile([0.0, -1.0], lay.total),
        (f"policy_ub[{root}][c=", f"policy_lb[{root}][c="),
    )


def _select_cluster(ctx: CompileContext, scope: Sequence[str]) -> str:
    """The smallest cluster holding ``scope``, the first in root order on
    ties."""
    tree = ctx.tree
    need = set(scope)
    covering = [r for r in tree.order if need <= set(tree.members(r))]
    if not covering:
        raise ValueError(
            f"no cluster contains {sorted(need)}; extend the tree with "
            f"modify_rjt over {sorted(need)} (or merge value nodes) first"
        )
    pos = {n: i for i, n in enumerate(tree.order)}
    return min(covering, key=lambda r: (len(tree.members(r)), pos[r]))


def add_risk(model: MipModel, spec, ctx: CompileContext) -> MipModel:
    """Install a risk constraint or objective into the model."""
    problems = validate_risk_spec(ctx.diagram, spec)
    if problems:
        raise ValueError("; ".join(problems))
    if isinstance(spec, (ChanceConstraint, LogicalConstraint, BudgetConstraint)):
        root = _select_cluster(ctx, spec.scope)
        members = ctx.layouts[root].members
        hits = np.flatnonzero(trigger_mask(ctx.diagram, members, spec))
        terms = [(1.0, model.mu_start[root] + c) for c in hits.tolist()]
        if isinstance(spec, ChanceConstraint):
            model.add_row(terms, spec.sense, spec.p, f"chance[{root}]")
        elif isinstance(spec, LogicalConstraint):
            model.add_row(terms, "<=", 0.0, f"logical[{root}]")
        else:
            model.add_row(terms, "<=", 0.0, f"budget[{root}]")
        return model
    if isinstance(spec, (CvarObjective, CvarConstraint)):
        _add_cvar_block(model, spec, ctx)
        return model
    raise ValueError(f"unsupported risk spec {type(spec).__name__}")


def _add_cvar_block(model: MipModel, spec, ctx: CompileContext) -> None:
    if model.cvar is not None:
        raise ValueError("model already carries a CVaR block")
    d = ctx.diagram
    values = d.value_nodes
    if len(values) != 1:
        raise ValueError(
            f"CVaR needs a single value node, found {len(values)}; "
            f"run merge_value_nodes first"
        )
    v = values[0]
    lay = ctx.layouts[v]
    per_cfg = round_to_sig(d.utilities[v].values[lay.root_state])
    utils, level = np.unique(per_cfg, return_inverse=True)
    eps = float(np.min(np.diff(utils))) / 2.0 if utils.size > 1 else 1.0
    big_m = float(utils[-1] - utils[0]) + eps

    eta = model.add_var("eta", VAR_FREE)
    lam, lambar, rho, rhobar = (
        model.variables.add(head, utils.shape, kind) + np.arange(utils.size)
        for head, kind in (("lam_", VAR_BINARY), ("lambar_", VAR_BINARY),
                           ("rho_", VAR_UNIT), ("rhobar_", VAR_UNIT))
    )

    alpha = spec.alpha
    for k, (u, lk, lbk, rk, rbk) in enumerate(zip(
            utils.tolist(), lam.tolist(), lambar.tolist(), rho.tolist(),
            rhobar.tolist())):
        mass = [(1.0, model.mu_start[v] + c)
                for c in np.flatnonzero(level == k).tolist()]
        for terms, sense, rhs, head in (
            ([(1.0, eta), (-big_m, lk)], "<=", u, "cvar_below_ub"),
            ([(1.0, eta), (-(big_m + eps), lk)], ">=", u - big_m,
             "cvar_below_lb"),
            ([(1.0, eta), (-(big_m + eps), lbk)], "<=", u - eps, "cvar_at_ub"),
            ([(1.0, eta), (-big_m, lbk)], ">=", u - big_m, "cvar_at_lb"),
            ([(1.0, rbk), (-1.0, lbk)], "<=", 0.0, "cvar_share_cap"),
            (mass + [(1.0, lk), (-1.0, rk)], "<=", 1.0, "cvar_tail_lo"),
            ([(1.0, rk), (-1.0, lk)], "<=", 0.0, "cvar_tail_hi"),
            ([(1.0, rk), (-1.0, rbk)], "<=", 0.0, "cvar_share_order"),
            ([(1.0, rbk)] + [(-c, j) for c, j in mass], "<=", 0.0,
             "cvar_share_mass"),
        ):
            model.add_row(terms, sense, rhs, f"{head}[k={k}]")
    model.add_row(
        [(1.0, r) for r in rhobar.tolist()], "==", alpha, "cvar_share_total"
    )

    tail_terms = tuple(
        (u / alpha, r) for u, r in zip(utils.tolist(), rhobar.tolist())
        if u != 0.0
    )
    if isinstance(spec, CvarObjective):
        mode = "objective"
        bound = None
        model.objective = tail_terms
    else:
        mode = "constraint"
        bound = spec.bound
        model.add_row(list(tail_terms), ">=", spec.bound, "cvar_floor")
    model.cvar = CvarBlock(
        value_root=v,
        alpha=alpha,
        eps=eps,
        big_m=big_m,
        utilities=utils,
        level=level,
        eta=eta,
        lam=lam,
        lambar=lambar,
        rho=rho,
        rhobar=rhobar,
        mode=mode,
        bound=bound,
    )


def model_stats(model: MipModel) -> Dict[str, Dict[str, int]]:
    """Variable counts by name family and kind, row counts by tag family."""
    variables: Dict[str, int] = {"total": len(model.variables)}
    for block in model.variables.blocks:
        if block.size:
            for key in (block.head.split("_", 1)[0], KINDS[block.kind]):
                variables[key] = variables.get(key, 0) + block.size
    constraints: Dict[str, int] = {"total": len(model.rows)}
    constraints.update(model.rows.family_counts())
    return {"variables": variables, "constraints": constraints}
