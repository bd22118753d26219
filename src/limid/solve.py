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

import atexit
import contextlib
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from itertools import filterfalse
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .diagram import NodeKind, Strategy
from .inference import (
    BLOCK_FLOATS,
    NEAR_TIE,
    StrategyBlock,
    UtilityDistribution,
    near_best,
    strategy_blocks,
)
from . import milp_backend
from .milp_backend import sparsetools
from .mip import (
    BINARY,
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


def _distinct(values: np.ndarray) -> Tuple[List[float], np.ndarray]:
    """The distinct floats of ``values``, told apart by their bits (so -0.0
    is not 0.0), and where each entry of ``values`` is among them."""
    bits, at = np.unique(np.ascontiguousarray(values, dtype=np.float64)
                         .view(np.int64), return_inverse=True)
    return bits.view(np.float64).tolist(), at


def _terms(coefs: np.ndarray, variables: np.ndarray, firsts: np.ndarray,
           names: np.ndarray) -> List[str]:
    """One ``+ c name`` or ``- c name`` token per term, where the terms at
    ``firsts``, each the first of its expression, drop a leading "+ ".
    ``names`` holds every variable's name.  Each distinct coefficient is
    formatted once."""
    values, at = _distinct(coefs)
    signed = [f"- {-c!r} " if c < 0 else f"+ {c!r} " for c in values]
    texts = signed + [t[2:] if t[0] == "+" else t for t in signed]
    at[firsts] += len(signed)
    return (np.array(texts, dtype=object)[at] + names[variables]).tolist()


def _wrap(lead: str, tokens: List[str]) -> str:
    """``lead`` and ``tokens`` joined by spaces into lines of at most
    ``LP_LINE_WIDTH`` characters: a token that would pass the width, with
    the space before it, starts a continuation line indented by one space,
    where it stays however wide it is."""
    lines, line, width = [], [lead], len(lead)
    for token in tokens:
        width += 1 + len(token)
        if width > LP_LINE_WIDTH:
            lines.append(" ".join(line))
            line, width = [""], 1 + len(token)
        line.append(token)
    lines.append(" ".join(line))
    return "\n".join(lines)


def export_lp(model: MipModel) -> str:
    """Render the model as deterministic LP-format text.

    One comment line (``\\ tag``) precedes each row; rows are named c1..cN in
    emission order; coefficients use shortest round-trip decimal form.  The
    objective and each row wrap at ``LP_LINE_WIDTH`` characters: a term,
    with the space before it, starts a continuation line, indented by one
    space, when it would pass the width, so a label may end its line and a
    term wider than the width has a line to itself.  A row's relation and
    right-hand side follow its last term and do not count.  A model without
    columns, or with a name that is not LP-safe, raises ValueError.
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
    if not names:
        raise ValueError("the model has no columns; LP text needs at least one")
    name_array = np.array(names, dtype=object)
    variables = np.flatnonzero(model.objective)
    if variables.size:
        tokens = _terms(model.objective[variables], variables, np.zeros(1, int), name_array)
    else:
        tokens = [f"0.0 {names[0]}"]
    out: List[str] = ["\\ influence diagram mixed-integer program", "Maximize",
                      _wrap(" obj:", tokens), "Subject To"]

    rows = model.rows
    tokens = _terms(rows.data, rows.indices, rows.indptr[:-1][np.diff(rows.indptr) > 0],
                    name_array)
    values, at = _distinct(rows.rhs)
    tails = (np.array([" = ", " <= ", " >= "], dtype=object)[rows.sense]
             + np.array(list(map(repr, values)), dtype=object)[at]).tolist()
    indptr = rows.indptr.tolist()
    out += [f"\\ {tag}\n" + _wrap(f" c{i + 1}:", tokens[indptr[i]:indptr[i + 1]]) + tail
            for i, (tag, tail) in enumerate(zip(rows.tags(), tails))]

    out.append("Bounds")
    binaries: List[str] = []
    for block in blocks:
        block_names = names[block.start:block.start + block.size]
        if not block_names:
            continue
        if block.kind == UNIT:
            out.append(" 0 <= " + " <= 1\n 0 <= ".join(block_names) + " <= 1")
        elif block.kind == FREE:
            out.append(" " + " free\n ".join(block_names) + " free")
        else:
            binaries += block_names
    if binaries:
        out.append("Binaries")
        out.append(" " + "\n ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Row checking


class _Csr(NamedTuple):
    """A sparse matrix in compressed sparse row form whose products run
    the compiled kernels ``scipy.sparse.csr_matrix`` runs, called the way it
    calls them, so they equal its products to the bit.  Loading the kernels
    alone spares a process the import of ``scipy.sparse``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: Tuple[int, int]

    def sorted(self) -> "_Csr":
        """This matrix with ascending columns within each row, as
        ``csr_matrix.sort_indices`` leaves it: itself when every row is in
        order (duplicates and all), else a sorted copy."""
        tools = sparsetools()
        if tools.csr_has_sorted_indices(self.shape[0], self.indptr, self.indices):
            return self
        out = _Csr(self.data.copy(), self.indices.copy(), self.indptr, self.shape)
        tools.csr_sort_indices(self.shape[0], out.indptr, out.indices, out.data)
        return out

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        m, n = self.shape
        other = np.ascontiguousarray(other, dtype=np.float64)
        if other.ndim not in (1, 2) or other.shape[0] != n:
            raise ValueError(f"cannot multiply a {m}x{n} matrix by shape {other.shape}")
        if other.ndim == 1 or other.shape[1] == 1:  # scipy's vector kernel
            out = np.zeros(m)
            sparsetools().csr_matvec(m, n, self.indptr, self.indices, self.data,
                                     other.ravel(), out)
            return out.reshape((m,) + other.shape[1:])
        out = np.zeros((m, other.shape[1]))
        sparsetools().csr_matvecs(m, n, other.shape[1], self.indptr, self.indices,
                                  self.data, other.ravel(), out.ravel())
        return out


def _any_per_column(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=0)``, which numpy computes slowly for a tall mask
    of few columns, one short row at a time."""
    hit = np.zeros(mask.shape[1], dtype=bool)
    hit[np.flatnonzero(mask) % mask.shape[1]] = True
    return hit


def _check(
    system: RowSystem, xs: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The row residuals of the assignments ``xs`` (one per column) and
    where they fail at ``tol``: the rows that break their sense, the
    bounded entries outside [0, 1] and the binary entries that are not
    integral.  Every test is a comparison, which NaN passes; ``violations``
    adds what is no number, which assignments built from a strategy never
    hold."""
    res = system.matrix @ xs
    shifted = np.flatnonzero(system.rhs)  # subtracting zero changes nothing
    res[shifted] -= system.rhs[shifted, None]
    off = res > tol
    off[np.flatnonzero(system.senses == GE)] = False
    under = res < -tol
    under[np.flatnonzero(system.senses == LE)] = False
    outside = (xs < -tol) | (xs > 1.0 + tol)
    outside[np.flatnonzero(~system.bounded)] = False
    bits = np.flatnonzero(system.binary)
    fractional = np.zeros(xs.shape, dtype=bool)
    fractional[bits] = np.abs(xs[bits] - np.round(xs[bits])) > tol
    return res, off | under, outside, fractional


class RowSystem:
    """Sparse row matrix of a model for fast repeated feasibility checks."""

    def __init__(self, model: MipModel):
        self.model = model
        rows = model.rows
        n = len(model.variables)
        # ascending columns within each row fix the order of every sum
        self.matrix = _Csr(rows.data, rows.indices, rows.indptr, (len(rows), n)).sorted()
        self.rhs = rows.rhs
        self.senses = rows.sense
        kinds = model.variables.kinds
        self.binary = kinds == BINARY
        self.bounded = self.binary | (kinds == UNIT)
        self.objective_vector = model.objective

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective_vector @ x)

    def violations(self, x: np.ndarray, tol: float) -> List[str]:
        """What ``_check`` finds wrong with the one assignment ``x``, and
        what in it is no number, in words: the rows in order, then the
        variables in order."""
        res, off, outside, fractional = _check(self, x[:, None], tol)
        # A residual or value that is no number fails too; a free variable
        # must at least be finite.
        off |= np.isnan(res)
        unfit = ~np.isfinite(x)
        outside[unfit] = True
        fractional[unfit & self.binary] = True
        failed = np.flatnonzero(off)
        tags = list(self.model.rows.tags()) if failed.size else []
        problems = [
            f"row c{i + 1} [{tags[i]}] residual "
            f"{res[i, 0]:.3e} violates sense {SENSES[self.senses[i]]}"
            for i in failed
        ]
        bad = np.flatnonzero(outside | fractional)
        names = self.model.variables.names() if bad.size else []
        for j in bad:
            name, val = names[j], float(x[j])
            if outside[j, 0]:
                problems.append(f"variable {name} = {val!r} outside [0, 1]"
                                if self.bounded[j] else
                                f"variable {name} = {val!r} is not finite")
            if fractional[j, 0]:
                problems.append(f"variable {name} = {val!r} is not integral")
        return problems


def assignment_vector(model: MipModel, assignment: Dict[str, float]) -> np.ndarray:
    """The values of a name -> value listing in variable order."""
    names = model.variables.names()
    missing = list(filterfalse(assignment.__contains__, names))
    if missing:
        shown = ", ".join(missing[:10])
        raise ExternalSolverError(
            f"solution misses {len(missing)} model variables ({shown}"
            + (", ..." if len(missing) > 10 else "") + ")"
        )
    return np.fromiter(map(float, map(assignment.__getitem__, names)),
                       dtype=float, count=len(names))


# ---------------------------------------------------------------------------
# Reference solver


def _one_hot_rows(groups: np.ndarray, n_groups: int) -> _Csr:
    """The 0/1 matrix with a one at ``(groups[i], i)``.  Its product adds
    each group's entries in ascending i, the order ``np.bincount`` adds
    them in, so the sums are the same to the bit."""
    order = np.argsort(groups, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(groups, minlength=n_groups))])
    return _Csr(np.ones(groups.size), order, indptr, (n_groups, groups.size))


@dataclass(frozen=True)
class _Cluster:
    """One cluster's part of the propagation, over its live configurations
    (``ClusterLayout.live``), the model's columns of its masses.

    ``sums`` adds the tree parent's live masses onto the groups of the
    members they share (None at the top), and ``group_of`` is the group of
    each live configuration.  A chance or value root's mass is its group's
    times its CPT entry in ``entries``; a decision root's is its group's
    times the strategy's indicator at its policy row and state, in
    ``policy``.
    """

    sums: Optional[_Csr]
    group_of: np.ndarray
    entries: Optional[np.ndarray]
    policy: Optional[Tuple[np.ndarray, np.ndarray]]


def _propagation(ctx: CompileContext) -> Dict[str, _Cluster]:
    """Per cluster in tree order, what ``_block_masses`` applies.  A dead
    configuration's mass is 0.0 under every strategy, so leaving its terms
    out of the sums changes no live mass by a bit."""
    d = ctx.diagram
    out: Dict[str, _Cluster] = {}
    for root in ctx.tree_order:
        lay = ctx.layouts[root]
        live = lay.live
        if lay.parent_groups is None:
            if lay.n_groups != 1:
                raise ValueError(
                    f"top cluster {root!r} has extra members; the tree is "
                    f"not a valid rooted junction tree"
                )
            sums = None
        else:
            parent_live = ctx.layouts[ctx.tree.parent[root]].live
            sums = _one_hot_rows(lay.parent_groups[parent_live], lay.n_groups)
        entries = policy = None
        if d.kind(root) == NodeKind.DECISION:
            policy = lay.table_row[live], lay.root_state[live]
        else:
            entries = d.cpts[root].rows[lay.table_row[live], lay.root_state[live]][:, None]
        out[root] = _Cluster(sums, lay.group_of[live], entries, policy)
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


def _passing(system: RowSystem, xs: np.ndarray, tol: float) -> np.ndarray:
    """Which columns of ``xs`` (one assignment each) pass ``_check`` at
    ``tol``: ``violations`` for many assignments at once, without the
    messages."""
    _, off, outside, fractional = _check(system, xs, tol)
    return ~(_any_per_column(off) | _any_per_column(outside)
             | _any_per_column(fractional))


def _block_vectors(model: MipModel, ctx: CompileContext,
                   products: Dict[str, _Cluster], block: StrategyBlock) -> np.ndarray:
    """Assignments implied by a block of strategies, one column each
    (masses, policy bits, and canonical tail bookkeeping when the model
    carries a CVaR block); ``products`` is ``_propagation(ctx)``."""
    x = np.zeros((len(model.variables), block.size))
    mu = _block_masses(ctx, products, block)
    for root, arr in mu.items():
        x[model.mu[root].span] = arr
    columns = np.arange(block.size)[:, None]
    for dnode, rules in block.rules.items():
        pcfgs = np.arange(model.delta[dnode].shape[0])
        x[model.delta_var(dnode, pcfgs, rules), columns] = 1.0
    cv = model.cvar
    if cv is not None:
        # One row per strategy: a row's sum then adds its levels as a lone
        # distribution's sum would, and the cumulative sums run left to right.
        levels = _one_hot_rows(cv.level, cv.utilities.size)
        probs = np.ascontiguousarray((levels @ mu[cv.value_root]).T)
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
        x[cv.eta] = eta
        x[cv.lam] = below.T
        x[cv.lambar] = (u <= eta[:, None]).T
        x[cv.rho] = tail.T
        x[cv.rhobar] = shares.T
    return x


def _single(strategy: Strategy) -> StrategyBlock:
    return StrategyBlock(size=1, rules={
        d: np.asarray([rule], dtype=np.int64) for d, rule in strategy.rules.items()})


def propagate_cluster_marginals(
    ctx: CompileContext, strategy: Strategy
) -> Dict[str, np.ndarray]:
    """Exact cluster-configuration masses implied by a strategy (see
    ``_block_masses``), one flat array over every configuration per
    cluster."""
    out = {}
    for root, arr in _block_masses(ctx, _propagation(ctx), _single(strategy)).items():
        out[root] = np.zeros(ctx.layouts[root].total)
        out[root][ctx.layouts[root].live] = arr[:, 0]
    return out


def _score(
    system: RowSystem, ctx: CompileContext, strategy: Strategy
) -> Tuple[np.ndarray, List[str], Optional[float]]:
    """The assignment a strategy implies (masses, policy bits, and
    canonical tail bookkeeping when the model carries a CVaR block), its
    row violations at ``EXACT_TOL``, and its objective, which is None
    unless it passes."""
    x = _block_vectors(system.model, ctx, _propagation(ctx), _single(strategy))[:, 0]
    violations = system.violations(x, EXACT_TOL)
    return x, violations, None if violations else system.objective_value(x)


def solve_reference(model: MipModel, ctx: CompileContext) -> Solution:
    """Exact optimum by strategy enumeration with full row checking.

    Every deterministic strategy is converted to an assignment, a block of
    strategies at a time.  One routine, ``_check``, tests the rows, bounds
    and integrality of each block; assignments violating any row are
    discarded.  The strategies whose block objective comes within
    ``NEAR_TIE`` of the best are checked and scored again alone, as
    ``_score`` does, and ties of that score break toward the
    lexicographically smallest strategy (the incumbent changes only on
    strict improvement).
    """
    system = RowSystem(model)
    products = _propagation(ctx)
    # A block's assignments and row residuals take BLOCK_FLOATS floats each.
    size = max(1, BLOCK_FLOATS // max(system.matrix.shape))
    weights = np.abs(model.objective)
    best: Optional[Strategy] = None
    best_val: Optional[float] = None
    best_x: Optional[np.ndarray] = None
    n_total = 0
    n_feasible = 0
    for block in strategy_blocks(ctx.diagram, size):
        n_total += block.size
        xs = _block_vectors(model, ctx, products, block)
        ok = _passing(system, xs, EXACT_TOL)
        n_feasible += int(ok.sum())
        if not ok.any():
            continue
        vals = model.objective @ xs
        # Each candidate is checked and scored alone: the assignment _score
        # builds, to the bit.
        slack = NEAR_TIE * float((weights @ np.abs(xs)).max())
        for i in near_best(vals, ok, best_val, slack):
            x = np.ascontiguousarray(xs[:, i])
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
    """Parse ``status <word>`` and ``<name> <num>`` lines into a dict with
    keys "status" and "assignment".

    Only lines after the first status line count: whatever a solver prints
    on stdout before it, such as its log, never becomes a value.  A later
    status line replaces the word.  Blank lines, comments (``#`` or ``\\``),
    lines of other than two words, ``objective`` lines and values that are
    no number are skipped."""
    status = None
    assignment: Dict[str, float] = {}
    # Bulk passes over the lines (split, filter, zip) measured slower than
    # this loop.
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 2 or parts[0][0] in "#\\":
            continue
        key, value = parts
        if key == "status":
            status = value.lower()
        elif status is not None and key != "objective":
            try:
                assignment[key] = float(value)
            except ValueError:
                continue
    return {"status": status, "assignment": assignment}


def _command_argv(command: Sequence[str], lp_path: str) -> List[str]:
    if any("{lp}" in a for a in command):
        return [a.replace("{lp}", lp_path) for a in command]
    return [*command, lp_path]


class _ServedChild:
    """This process's ``limid-milp -`` child.  The first bundled solve
    starts it, and so does the solve after one that found it dead; every
    bundled solve sends it the path of its LP file.  At exit its stdin is
    closed and it is waited for."""

    def __init__(self):
        self.lock = threading.Lock()
        self.proc: Optional[subprocess.Popen] = None
        self.owner = 0  # the process that started ``proc``
        self.stderr = None  # what ``proc`` writes there, read if it dies

    def run(self, lp_path: str) -> subprocess.CompletedProcess:
        """What a one-shot child gives for the file ``lp_path``: its exit
        code, its listing, and what it wrote to stderr if it died."""
        with self.lock:
            if self.proc is None or self.owner != os.getpid():
                self.stderr = tempfile.TemporaryFile()
                self.proc = subprocess.Popen(
                    [*reference_backend_command()[:-1], "-"], text=True,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=self.stderr)
                self.owner = os.getpid()
            proc, lines = self.proc, []
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.write(lp_path + "\n")
                proc.stdin.flush()
                for line in proc.stdout:
                    if line.startswith("end "):
                        return subprocess.CompletedProcess(
                            proc.args, int(line[4:]), "".join(lines), "")
                    lines.append(line)
            proc.wait()  # it died
            self.stderr.seek(0)
            stderr = self.stderr.read().decode(errors="replace")
            self.close()
            return subprocess.CompletedProcess(proc.args, proc.returncode,
                                               "".join(lines), stderr)

    def close(self) -> None:
        """End the child, if this process started one, and wait for it."""
        proc, self.proc = self.proc, None
        if proc is not None and self.owner == os.getpid():
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            proc.wait()
            proc.stdout.close()
            self.stderr.close()


_SERVED = _ServedChild()
atexit.register(_SERVED.close)


def _solver_listing(command: Sequence[str], lp_path: str) -> str:
    """What ``command`` prints on stdout for the LP file ``lp_path``.  The
    bundled command's answer comes from this process's served child, any
    other command's from a process of its own.  A solver that cannot be
    run or exits with a nonzero code raises ExternalSolverError."""
    argv = _command_argv(command, lp_path)
    try:
        if list(command) == reference_backend_command():
            proc = _SERVED.run(lp_path)
        else:
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
    return proc.stdout


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
    path, or the path is appended when no placeholder appears.  The bundled
    command, ``reference_backend_command()``, is not started per solve:
    one ``limid-milp -`` child per process answers every path sent to it.
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
    violations and no objective (and so no drift); so is a solver's
    assignment whose objective is no finite number.
    """
    with tempfile.TemporaryDirectory(prefix="limid_lp_") as tmp:
        lp_path = Path(tmp) / "model.lp"
        lp_path.write_text(export_lp(model))
        listing = _solver_listing(command, str(lp_path))
    parsed = parse_name_value_listing(listing)
    status_word = parsed.get("status")
    if status_word in ("optimal", "solved"):
        status = STATUS_OPTIMAL
    elif status_word == "infeasible":
        status = STATUS_INFEASIBLE
    else:
        status = STATUS_UNKNOWN
    if status != STATUS_OPTIMAL:
        return Solution(status=status, objective_value=None, x=None)
    x = assignment_vector(model, parsed["assignment"])  # raises when short
    system = RowSystem(model)
    violations = system.violations(x, tol)
    objective = system.objective_value(x)
    strategy = None
    info: Dict[str, object] = {}
    if not violations:
        strategy = _strategy_from_bits(model, x)
        x, violations, exact = _score(system, ctx, strategy)
        info["solver_objective"] = objective
        if exact is not None:
            info["drift"] = objective - exact
        objective = exact
    elif not np.isfinite(objective):
        objective = None  # a value that is no number: nothing to report
    return Solution(
        status=STATUS_UNKNOWN if violations else STATUS_OPTIMAL,
        objective_value=objective,
        x=x,
        strategy=strategy,
        violations=violations,
        info=info,
    )


def reference_backend_command() -> List[str]:
    """Command template running the bundled scipy/HiGHS backend: its file,
    without ``site``, so that it needs neither ``PYTHONPATH`` nor an
    installed ``limid``."""
    return [sys.executable, "-S", milp_backend.__file__, "{lp}"]


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
        lay = ctx.layouts[v]
        per_cfg = d.utilities[v].values[lay.root_state[lay.live]]
        distribution = UtilityDistribution.from_values(
            per_cfg, solution.x[model.mu[v].span])
        expected = distribution.expected()
    return DecodedSolution(
        strategy=solution.strategy,
        expected_utility=expected,
        distribution=distribution,
    )
