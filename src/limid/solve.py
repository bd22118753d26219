"""Solve compiled models: LP text export, feasibility checking, an exact
reference solver, an external-solver bridge, and solution decoding.

The reference solver enumerates deterministic strategies a block at a
time, propagates the implied cluster masses down the tree with one column
per strategy, synthesizes any tail-bookkeeping variables from the resulting
utility distributions, and keeps the best assignment that satisfies every
row.  It is exact (no LP relaxation) and meant for small diagrams and for
cross-checking external solvers.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from .diagram import NodeKind, Strategy
from .inference import (
    BLOCK_FLOATS,
    NEAR_TIE,
    StrategyBlock,
    UtilityDistribution,
    near_best,
    strategy_blocks,
)
from .mip import (
    BINARY,
    EQ,
    FREE,
    GE,
    LE,
    SENSES,
    UNIT,
    CompileContext,
    MipModel,
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNKNOWN = "unknown"

# Row tolerance for assignments built exactly from a strategy (reference
# solver, polished external answers): only floating-point rounding is left.
EXACT_TOL = 1e-9

LP_LINE_WIDTH = 200
_LP_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_."
)


class ExternalSolverError(RuntimeError):
    """Raised when an external solver run cannot produce a usable solution."""


@dataclass
class Solution:
    """A solver's answer: the strategy it scored and ``x``, the assignment
    that strategy implies (``x[j]`` is the value of variable ``j``).  Both
    are None when there is no answer, and the strategy also when the
    solver's own assignment fails its rows."""

    status: str
    objective_value: Optional[float]
    x: Optional[np.ndarray]
    strategy: Optional[Strategy] = None
    violations: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)


@dataclass
class DecodedSolution:
    strategy: Strategy
    expected_utility: Optional[float]
    distribution: Optional[UtilityDistribution]


# ---------------------------------------------------------------------------
# LP text export


def _terms_text(coefs: List[float], names: List[str]) -> List[str]:
    """One ``+ c name`` or ``- c name`` token per term."""
    return [
        f"- {-c!r} {name}" if c < 0 else f"+ {c!r} {name}"
        for c, name in zip(coefs, names)
    ]


def _wrap(prefix: str, tokens: List[str], tail: str = "") -> List[str]:
    """Lines of ``prefix``, the terms and ``tail``, wrapped before a term
    that would pass ``LP_LINE_WIDTH``; a leading plus sign is dropped."""
    body = " ".join(tokens)
    if body.startswith("+"):
        body = body[2:]
    if len(prefix) + 1 + len(body) <= LP_LINE_WIDTH:
        # no term can overflow: the line is the whole expression
        line = f"{prefix} {body}" if body else prefix
        return [f"{line} {tail}" if tail else line]
    lines = []
    cur = prefix
    for k, tok in enumerate(tokens):
        if k == 0 and tok.startswith("+"):
            tok = tok[2:]
        if len(cur) + 1 + len(tok) > LP_LINE_WIDTH and cur.strip():
            lines.append(cur)
            cur = " " + tok
        else:
            cur = cur + " " + tok
    if tail:
        cur = cur + " " + tail
    lines.append(cur)
    return lines


def export_lp(model: MipModel) -> str:
    """Render the model as deterministic LP-format text.

    One comment line (``\\ tag``) precedes each row; rows are named c1..cN in
    emission order; coefficients use shortest round-trip decimal form; lines
    wrap near 200 characters with continuations indented by one space.
    """
    blocks = model.variables.blocks
    for block in blocks:
        # a name is its block's head followed by digits and '_'
        if block.size and (not set(block.head) <= _LP_NAME_OK
                           or block.head[:1].isdigit()):
            raise ValueError(
                f"variable name {block.names()[0]!r} is not LP-safe; "
                f"rename diagram nodes to use letters, digits, '_' or '.'"
            )
    names = model.variables.names()
    out: List[str] = ["\\ influence diagram mixed-integer program", "Maximize"]
    if model.objective:
        obj_tokens = _terms_text(
            [float(c) for c, _ in model.objective],
            [names[v] for _, v in model.objective],
        )
    else:
        obj_tokens = [f"0.0 {names[0]}"]
    out.extend(_wrap(" obj:", obj_tokens))
    out.append("Subject To")
    rows = model.rows
    indptr = rows.indptr.tolist()
    tokens = _terms_text(
        rows.data.tolist(), [names[v] for v in rows.indices.tolist()]
    )
    relations = [("=", "<=", ">=")[code] for code in rows.sense.tolist()]
    for i, (tag, rel, rhs) in enumerate(
        zip(rows.tags(), relations, rows.rhs.tolist())
    ):
        out.append(f"\\ {tag}")
        out.extend(_wrap(f" c{i + 1}:", tokens[indptr[i]:indptr[i + 1]],
                         tail=f"{rel} {rhs!r}"))
    out.append("Bounds")
    binaries: List[str] = []
    for block in blocks:
        block_names = names[block.start:block.start + block.size]
        if block.kind == UNIT:
            out += [f" 0 <= {name} <= 1" for name in block_names]
        elif block.kind == FREE:
            out += [f" {name} free" for name in block_names]
        else:
            binaries += [f" {name}" for name in block_names]
    if binaries:
        out.append("Binaries")
        out += binaries
    out.append("End")
    return "\n".join(out) + "\n"


def write_lp(model: MipModel, path: Union[str, Path]) -> None:
    Path(path).write_text(export_lp(model))


# ---------------------------------------------------------------------------
# Row checking


def _any_per_column(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=0)``, which numpy computes slowly for a tall mask
    of few columns, one short row at a time."""
    hit = np.zeros(mask.shape[1], dtype=bool)
    hit[np.flatnonzero(mask) % mask.shape[1]] = True
    return hit


class RowSystem:
    """Sparse row matrix of a model for fast repeated feasibility checks."""

    def __init__(self, model: MipModel):
        self.model = model
        rows = model.rows
        n = len(model.variables)
        self.matrix = sparse.csr_matrix(
            (rows.data, rows.indices, rows.indptr), shape=(len(rows), n),
            copy=True,
        )
        self.matrix.sort_indices()  # ascending columns within each row
        self.rhs = rows.rhs
        self.senses = rows.sense
        kinds = model.variables.kinds
        self.binary = kinds == BINARY
        self.bounded = self.binary | (kinds == UNIT)
        obj = np.zeros(n)
        for coef, var in model.objective:
            obj[var] += coef
        self.objective_vector = obj

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective_vector @ x)

    def violations(self, x: np.ndarray, tol: float) -> List[str]:
        problems: List[str] = []
        res = self.matrix @ x - self.rhs
        bad_eq = (self.senses == EQ) & (np.abs(res) > tol)
        bad_le = (self.senses == LE) & (res > tol)
        bad_ge = (self.senses == GE) & (res < -tol)
        for i in np.nonzero(bad_eq | bad_le | bad_ge)[0]:
            problems.append(
                f"row c{i + 1} [{self.model.rows.tag(i)}] residual "
                f"{res[i]:.3e} violates sense {SENSES[self.senses[i]]}"
            )
        outside = self.bounded & ((x < -tol) | (x > 1.0 + tol))
        fractional = self.binary & (np.abs(x - np.round(x)) > tol)
        bad = np.nonzero(outside | fractional)[0]
        names = self.model.variables.names() if bad.size else []
        for j in bad:
            name, val = names[j], x[j]
            if outside[j]:
                problems.append(f"variable {name} = {val!r} outside [0, 1]")
            if fractional[j]:
                problems.append(f"variable {name} = {val!r} is not integral")
        return problems


def _off_sense(res: np.ndarray, senses: np.ndarray, tol: float) -> np.ndarray:
    """Which residuals (one row of ``res`` per row) break their row's
    sense at ``tol``."""
    over = res > tol
    over[np.flatnonzero(senses == GE)] = False
    under = res < -tol
    under[np.flatnonzero(senses == LE)] = False
    return over | under


@dataclass(frozen=True)
class _LiveRows:
    """The rows of a ``RowSystem`` with a term on a live column, over the
    live columns (see ``_LiveColumns``), with those columns' bounds,
    integrality and objective: what the reference checks and scores for
    every block."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    senses: np.ndarray
    bounded: np.ndarray
    binary: np.ndarray
    objective_vector: np.ndarray

    def passing(self, xs: np.ndarray, tol: float) -> np.ndarray:
        """Which columns of ``xs`` (one live assignment each) satisfy every
        row, bound and integrality requirement at ``tol``: ``violations``
        for many assignments at once, without the messages."""
        res = self.matrix @ xs
        shifted = np.flatnonzero(self.rhs)  # subtracting zero changes nothing
        res[shifted] -= self.rhs[shifted, None]
        outside = (xs < -tol) | (xs > 1.0 + tol)
        outside[np.flatnonzero(~self.bounded)] = False
        bits = xs[np.flatnonzero(self.binary)]
        fractional = np.abs(bits - np.round(bits)) > tol
        return ~(_any_per_column(_off_sense(res, self.senses, tol))
                 | _any_per_column(outside) | _any_per_column(fractional))


def assignment_vector(model: MipModel, assignment: Dict[str, float]) -> np.ndarray:
    """The values of a name -> value listing in variable order."""
    names = model.variables.names()
    missing = [name for name in names if name not in assignment]
    if missing:
        shown = ", ".join(missing[:10])
        raise ExternalSolverError(
            f"solution misses {len(missing)} model variables ({shown}"
            + (", ..." if len(missing) > 10 else "") + ")"
        )
    return np.array([float(assignment[name]) for name in names])


# ---------------------------------------------------------------------------
# Reference solver


def _one_hot_rows(groups: np.ndarray, n_groups: int) -> sparse.csr_matrix:
    """The 0/1 matrix with a one at ``(groups[i], i)``.  Its product adds
    each group's entries in ascending i, the order ``np.bincount`` adds
    them in, so the sums are the same to the bit."""
    order = np.argsort(groups, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(groups, minlength=n_groups))])
    return sparse.csr_matrix((np.ones(groups.size), order, indptr),
                             shape=(n_groups, groups.size))


def _at(arr: np.ndarray, live: Optional[np.ndarray]) -> np.ndarray:
    """The entries of ``arr`` at ``live``, or ``arr`` itself when None."""
    return arr if live is None else arr[live]


@dataclass(frozen=True)
class _Cluster:
    """One cluster's part of the propagation, over its live configurations,
    the ones some strategy can give a nonzero mass.

    ``live`` lists them, ascending (None when all are live).  ``sums``
    adds the tree parent's live masses onto the groups of the members they
    share (None at the top), and ``group_of`` is the group of each live
    configuration.  A chance or value root's mass is its group's times its
    CPT entry in ``entries``; a decision root's is its group's times the
    strategy's indicator at its policy row and state, in ``policy``.
    """

    live: Optional[np.ndarray]
    sums: Optional[sparse.csr_matrix]
    group_of: np.ndarray
    entries: Optional[np.ndarray]
    policy: Optional[Tuple[np.ndarray, np.ndarray]]


def _propagation(ctx: CompileContext) -> Dict[str, _Cluster]:
    """Per cluster in tree order, what ``_block_masses`` applies.

    A group is live when some live configuration of the tree parent
    projects onto it (the one group of the top cluster is).  A decision
    configuration is live when its group is, and a chance or value
    configuration when its CPT entry is also nonzero.  Every other mass is
    0.0 under every strategy, so leaving its terms out of the sums changes
    no live mass by a bit.
    """
    d = ctx.diagram
    out: Dict[str, _Cluster] = {}
    for root in ctx.tree_order:
        lay = ctx.layouts[root]
        sums = groups = None  # groups: which are live, None when all are
        if lay.parent_groups is None:
            if lay.n_groups != 1:
                raise ValueError(
                    f"top cluster {root!r} has extra members; the tree is "
                    f"not a valid rooted junction tree"
                )
        else:
            parent_live = out[ctx.tree.parent[root]].live
            sums = _one_hot_rows(_at(lay.parent_groups, parent_live), lay.n_groups)
            if parent_live is not None:
                groups = np.diff(sums.indptr) > 0  # a group's live terms
        keep = None if groups is None else groups[lay.group_of]
        entries = policy = None
        if d.kind(root) == NodeKind.DECISION:
            policy = lay.table_row, lay.root_state
        else:
            entries = d.cpts[root].rows[lay.table_row, lay.root_state]
            keep = entries != 0 if keep is None else keep & (entries != 0)
        live = None if keep is None or keep.all() else np.flatnonzero(keep)
        if entries is not None:
            entries = _at(entries, live)[:, None]
        if policy is not None:
            policy = tuple(_at(arr, live) for arr in policy)
        out[root] = _Cluster(live, sums, _at(lay.group_of, live), entries, policy)
    return out


def _block_masses(
    ctx: CompileContext, products: Dict[str, _Cluster], block: StrategyBlock
) -> Dict[str, np.ndarray]:
    """Exact masses of the live cluster configurations implied by each
    strategy of a block, one column per strategy; ``products`` is
    ``_propagation(ctx)``.

    Walks the tree from its root: each cluster's mass over the inherited
    members is the parent's marginal, multiplied by the root node's CPT row
    (or by the strategy's indicator for decisions).
    """
    mu: Dict[str, np.ndarray] = {}
    for root, cluster in products.items():
        if cluster.sums is None:
            inherited = np.ones((1, block.size))
        else:
            inherited = cluster.sums @ mu[ctx.tree.parent[root]]
        mu[root] = inherited[cluster.group_of]
        if cluster.entries is not None:
            mu[root] *= cluster.entries
        else:
            table_row, root_state = cluster.policy
            mu[root] *= (block.rules[root][:, table_row] == root_state).T
    return mu


@dataclass(frozen=True)
class _LiveColumns:
    """The columns of a model some strategy can make nonzero: every policy
    bit and CVaR column, and the masses of the live configurations of
    ``products`` (``_propagation(ctx)``).  ``cols`` lists them, ascending
    (None when all ``n`` are live); ``before[j]`` counts the live columns
    before column ``j``, the place of column ``j`` among them when it is
    live.  ``spans`` gives each cluster's live masses their place, and
    ``levels`` adds the CVaR value cluster's live masses per utility
    level."""

    products: Dict[str, _Cluster]
    n: int
    cols: Optional[np.ndarray]
    before: np.ndarray
    spans: Dict[str, slice]
    levels: Optional[sparse.csr_matrix]

    @property
    def size(self) -> int:
        return int(self.before[-1])


def _live_columns(model: MipModel, ctx: CompileContext) -> _LiveColumns:
    products = _propagation(ctx)
    keep = np.ones(len(model.variables), dtype=bool)
    for root, cluster in products.items():
        if cluster.live is not None:
            span = model.mu[root].span
            keep[span] = False
            keep[span.start + cluster.live] = True
    before = np.concatenate([[0], np.cumsum(keep)])
    spans = {root: slice(int(before[b.start]), int(before[b.start + b.size]))
             for root, b in model.mu.items()}
    cv = model.cvar
    levels = None
    if cv is not None:
        level = _at(cv.level, products[cv.value_root].live)
        levels = _one_hot_rows(level, cv.utilities.size)
    return _LiveColumns(products, keep.size,
                        None if keep.all() else np.flatnonzero(keep),
                        before, spans, levels)


def _block_vectors(
    model: MipModel, ctx: CompileContext, live: _LiveColumns, block: StrategyBlock
) -> np.ndarray:
    """Assignments of the live columns implied by a block of strategies,
    one column each (masses, policy bits, and canonical tail bookkeeping
    when the model carries a CVaR block); ``_full`` widens them."""
    x = np.zeros((live.size, block.size))
    mu = _block_masses(ctx, live.products, block)
    for root, arr in mu.items():
        x[live.spans[root]] = arr
    columns = np.arange(block.size)[:, None]
    for dnode, rules in block.rules.items():
        pcfgs = np.arange(model.delta[dnode].shape[0])
        x[live.before[model.delta_var(dnode, pcfgs, rules)], columns] = 1.0
    cv = model.cvar
    if cv is not None:
        # One row per strategy: a row's sum then adds its levels as a lone
        # distribution's sum would, and the cumulative sums run left to right.
        probs = np.ascontiguousarray((live.levels @ mu[cv.value_root]).T)
        u = cv.utilities
        # eta is the alpha-quantile: the first level whose cumulative
        # probability reaches alpha (else the top one).
        idx = np.minimum((np.cumsum(probs, axis=1) < cv.alpha - 1e-15).sum(axis=1),
                         u.size - 1)
        eta = u[idx]
        below = u < eta[:, None]
        tail = np.where(below, probs, 0.0)
        # the tail shares: full mass under eta, what alpha leaves at eta
        shares = np.where(u == eta[:, None],
                          (cv.alpha - tail.sum(axis=1))[:, None], tail)
        at = live.before
        x[at[cv.eta]] = eta
        x[at[cv.lam]] = below.T
        x[at[cv.lambar]] = (u <= eta[:, None]).T
        x[at[cv.rho]] = tail.T
        x[at[cv.rhobar]] = shares.T
    return x


def _full(live: _LiveColumns, xs: np.ndarray) -> np.ndarray:
    """Assignments of every column from those of the live columns (one
    per column of ``xs``); a dead column is 0.0."""
    if live.cols is None:
        return xs
    full = np.zeros((live.n,) + xs.shape[1:])
    full[live.cols] = xs
    return full


def _live_rows(system: RowSystem, live: _LiveColumns) -> Tuple[_LiveRows, bool]:
    """The rows of ``system`` with a term on a live column, over the live
    columns, and whether every other row holds at ``EXACT_TOL``: its
    residual is ``-rhs`` under every strategy."""
    if live.cols is None:
        return _LiveRows(system.matrix, system.rhs, system.senses, system.bounded,
                         system.binary, system.objective_vector), True
    m = system.matrix
    kept = np.zeros(live.n, dtype=bool)
    kept[live.cols] = True
    kept = kept[m.indices]
    row_of = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    counts = np.bincount(row_of[kept], minlength=m.shape[0])
    rows = np.flatnonzero(counts)
    matrix = sparse.csr_matrix(
        (m.data[kept], live.before[m.indices[kept]],
         np.concatenate([[0], np.cumsum(counts[rows])])),
        shape=(rows.size, live.size))
    steady = np.flatnonzero(counts == 0)
    holds = not _off_sense(-system.rhs[steady], system.senses[steady],
                           EXACT_TOL).any()
    return _LiveRows(matrix, system.rhs[rows], system.senses[rows],
                     system.bounded[live.cols], system.binary[live.cols],
                     system.objective_vector[live.cols]), holds


def _single(strategy: Strategy) -> StrategyBlock:
    return StrategyBlock(size=1, rules={
        d: np.asarray([rule], dtype=np.int64) for d, rule in strategy.rules.items()})


def propagate_cluster_marginals(
    ctx: CompileContext, strategy: Strategy
) -> Dict[str, np.ndarray]:
    """Exact cluster-configuration masses implied by a strategy (see
    ``_block_masses``), one flat array per cluster."""
    products = _propagation(ctx)
    out = {}
    for root, arr in _block_masses(ctx, products, _single(strategy)).items():
        live = products[root].live
        if live is None:
            out[root] = arr[:, 0]
        else:
            out[root] = np.zeros(ctx.layouts[root].total)
            out[root][live] = arr[:, 0]
    return out


def _strategy_vector(
    model: MipModel, ctx: CompileContext, strategy: Strategy
) -> np.ndarray:
    """Full variable assignment implied by a strategy (masses, policy bits,
    and canonical tail bookkeeping when the model carries a CVaR block)."""
    live = _live_columns(model, ctx)
    return _full(live, _block_vectors(model, ctx, live, _single(strategy)))[:, 0]


def _score(
    system: RowSystem, ctx: CompileContext, strategy: Strategy
) -> Tuple[np.ndarray, List[str], Optional[float]]:
    """The assignment a strategy implies, its row violations at
    ``EXACT_TOL``, and its objective, which is None unless it passes."""
    x = _strategy_vector(system.model, ctx, strategy)
    violations = system.violations(x, EXACT_TOL)
    return x, violations, None if violations else system.objective_value(x)


def solve_reference(model: MipModel, ctx: CompileContext) -> Solution:
    """Exact optimum by strategy enumeration with full row checking.

    Every deterministic strategy is converted to an assignment of the live
    columns (``_LiveColumns``), a block of strategies at a time, and
    checked against the rows with a live term; the other rows do not
    depend on the strategy and are checked once.  Assignments violating
    any row are discarded.  The strategies whose block objective comes
    within ``NEAR_TIE`` of the best are widened to full assignments,
    checked and scored again alone, as ``_score`` does, and ties of that
    score break toward the lexicographically smallest strategy (the
    incumbent changes only on strict improvement).
    """
    system = RowSystem(model)
    live = _live_columns(model, ctx)
    rows, holds = _live_rows(system, live)
    # A block's assignments and row residuals take BLOCK_FLOATS floats each.
    size = max(1, BLOCK_FLOATS // max(live.size, rows.matrix.shape[0]))
    weights = np.abs(rows.objective_vector)
    best: Optional[Strategy] = None
    best_val: Optional[float] = None
    best_x: Optional[np.ndarray] = None
    n_total = 0
    n_feasible = 0
    for block in strategy_blocks(ctx.diagram, size):
        n_total += block.size
        if not holds:
            continue
        xs = _block_vectors(model, ctx, live, block)
        ok = rows.passing(xs, EXACT_TOL)
        n_feasible += int(ok.sum())
        if not ok.any():
            continue
        vals = rows.objective_vector @ xs
        # Each candidate is checked and scored alone, from its column
        # widened: the assignment _strategy_vector builds, to the bit.
        slack = NEAR_TIE * float((weights @ np.abs(xs)).max())
        for i in near_best(vals, ok, best_val, slack):
            x = np.ascontiguousarray(_full(live, xs[:, i]))
            if system.violations(x, EXACT_TOL):
                continue
            val = system.objective_value(x)
            if best_val is None or val > best_val:
                best, best_val, best_x = block.strategy(i), val, x
    return Solution(
        status=STATUS_INFEASIBLE if best_x is None else STATUS_OPTIMAL,
        objective_value=best_val,
        x=best_x,
        strategy=best,
        info={"strategies": n_total, "feasible": n_feasible},
    )


# ---------------------------------------------------------------------------
# External solver bridge


def parse_name_value_listing(text: str) -> Dict[str, object]:
    """Parse ``status <word>``, ``objective <num>``, and ``<name> <num>``
    lines into a dict with keys "status", "objective", "assignment".

    Only lines after the status line count: whatever a solver prints on
    stdout before it, such as its log, never becomes a value."""
    status = None
    objective = None
    assignment: Dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", "\\")):
            continue
        parts = line.split()
        if len(parts) != 2:
            continue
        key, value = parts
        if key == "status":
            status = value.lower()
            continue
        if status is None:
            continue
        try:
            num = float(value)
        except ValueError:
            continue
        if key == "objective":
            objective = num
        else:
            assignment[key] = num
    return {"status": status, "objective": objective, "assignment": assignment}


def _command_argv(command: Sequence[str], lp_path: str) -> List[str]:
    if any("{lp}" in a for a in command):
        return [a.replace("{lp}", lp_path) for a in command]
    return [*command, lp_path]


def _strategy_from_bits(model: MipModel, x: np.ndarray) -> Strategy:
    """The strategy whose policy bits ``x`` sets, each bit rounded.

    The bits have passed the integrality re-check, so only a tolerance of
    0.5 or more lets a parent configuration round to other than one state.
    """
    rules: Dict[str, Tuple[int, ...]] = {}
    for dnode, block in model.delta.items():
        near = np.round(x[block.span].reshape(block.shape))
        picks = (near == 1).sum(axis=1)
        if (picks != 1).any():
            pcfg = int(np.argmax(picks != 1))  # the first parent config at fault
            raise ValueError(
                f"decision {dnode!r} parent config {pcfg} picks "
                f"{picks[pcfg]} states instead of one"
            )
        rules[dnode] = tuple(np.argmax(near == 1, axis=1).tolist())
    return Strategy(rules=rules)


def solve_external(
    model: MipModel,
    ctx: CompileContext,
    command: Sequence[str],
    tol: float = 1e-6,
) -> Solution:
    """Run an external MILP solver over the exported LP text.

    The command is an argv template; ``{lp}`` is replaced by the LP file
    path, or the path is appended when no placeholder appears.
    The solver must print a ``status`` line and whitespace-separated
    name/value pairs.  Reported solutions are re-checked against every row
    at ``tol``; a failing re-check downgrades the status to "unknown" and
    records the violations.

    A solution that passes is then polished: the strategy is read from the
    policy bits, the full assignment that strategy implies is rebuilt
    exactly from ``ctx``, the ``CompileContext`` the model was compiled
    from, and that assignment is re-checked at ``EXACT_TOL`` (1e-9), the
    reference solver's tolerance.  The strategy, the polished assignment and
    its exact objective are returned; the objective of the solver's own
    assignment, whose masses may sit anywhere inside the solver's
    feasibility slack, is kept as ``info["solver_objective"]`` and the
    difference as ``info["drift"]`` (solver minus exact).  A polished
    assignment that violates a row is returned with status "unknown", its
    violations and no objective (and so no drift).
    """
    with tempfile.TemporaryDirectory(prefix="limid_lp_") as tmp:
        lp_path = str(Path(tmp) / "model.lp")
        write_lp(model, lp_path)
        argv = _command_argv(command, lp_path)
        try:
            proc = subprocess.run(argv, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise ExternalSolverError(
                f"solver executable not found: {argv[0]!r}"
            ) from exc
        except OSError as exc:
            raise ExternalSolverError(
                f"cannot run solver {argv[0]!r}: {exc.strerror}"
            ) from exc
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout or "").strip()[-500:]
        raise ExternalSolverError(
            f"solver exited with code {proc.returncode}: {tail}"
        )
    parsed = parse_name_value_listing(proc.stdout)
    status_word = parsed.get("status")
    if status_word in ("optimal", "solved"):
        status = STATUS_OPTIMAL
    elif status_word == "infeasible":
        status = STATUS_INFEASIBLE
    else:
        status = STATUS_UNKNOWN
    info: Dict[str, object] = {}
    if parsed.get("objective") is not None:
        info["reported_objective"] = parsed["objective"]
    if status != STATUS_OPTIMAL:
        return Solution(status=status, objective_value=None, x=None, info=info)
    x = assignment_vector(model, parsed["assignment"])  # raises when short
    system = RowSystem(model)
    violations = system.violations(x, tol)
    objective = system.objective_value(x)
    strategy = None
    if not violations:
        strategy = _strategy_from_bits(model, x)
        x, violations, exact = _score(system, ctx, strategy)
        info["solver_objective"] = objective
        if exact is not None:
            info["drift"] = objective - exact
        objective = exact
    return Solution(
        status=STATUS_UNKNOWN if violations else STATUS_OPTIMAL,
        objective_value=objective,
        x=x,
        strategy=strategy,
        violations=violations,
        info=info,
    )


def reference_backend_command() -> List[str]:
    """Command template running the bundled scipy/HiGHS backend."""
    return [sys.executable, "-m", "limid.milp_backend", "{lp}"]


# ---------------------------------------------------------------------------
# Decoding


def decode(
    solution: Solution, model: MipModel, ctx: CompileContext
) -> DecodedSolution:
    """The strategy of an optimal answer and, for a single value node, the
    utility distribution of the value cluster's masses in its exact
    assignment."""
    if solution.status != STATUS_OPTIMAL:
        raise ValueError(f"cannot decode a solution with status {solution.status!r}")
    d = ctx.diagram
    distribution = None
    expected = None
    if len(d.value_nodes) == 1:
        v = d.value_nodes[0]
        per_cfg = d.utilities[v].values[ctx.layouts[v].root_state]
        distribution = UtilityDistribution.from_values(
            per_cfg, solution.x[model.mu[v].span])
        expected = distribution.expected()
    return DecodedSolution(
        strategy=solution.strategy,
        expected_utility=expected,
        distribution=distribution,
    )
