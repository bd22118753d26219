"""Solve compiled models: LP text export, feasibility checking, an exact
reference solver, an external-solver bridge, and solution decoding.

The reference solver enumerates deterministic strategies, propagates the
implied cluster masses down the tree, synthesizes any tail-bookkeeping
variables from the resulting utility distribution, and keeps the best
assignment that satisfies every row.  It is exact (no LP relaxation) and
meant for small diagrams and for cross-checking external solvers.
"""

from __future__ import annotations

import shlex
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
    UtilityDistribution,
    enumerate_strategies,
    tail_witness,
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


def propagate_cluster_marginals(
    ctx: CompileContext, strategy: Strategy
) -> Dict[str, np.ndarray]:
    """Exact cluster-configuration masses implied by a strategy.

    Walks the tree from its root: each cluster's mass over the inherited
    members is the parent's marginal, multiplied by the root node's CPT row
    (or by the strategy's indicator for decisions).
    """
    d = ctx.diagram
    mu: Dict[str, np.ndarray] = {}
    for root in ctx.tree_order:
        lay = ctx.layouts[root]
        if lay.parent_groups is None:
            if lay.n_groups != 1:
                raise ValueError(
                    f"top cluster {root!r} has extra members; the tree is "
                    f"not a valid rooted junction tree"
                )
            inherited = np.ones(1)
        else:
            parent_root = ctx.tree.parent[root]
            inherited = np.bincount(
                lay.parent_groups, weights=mu[parent_root],
                minlength=lay.n_groups,
            )
        if d.kind(root) == NodeKind.DECISION:
            rule = np.asarray(strategy.rules[root], dtype=np.int64)
            factor = (rule[lay.table_row] == lay.root_state).astype(float)
        else:
            rows = d.cpts[root].rows
            factor = rows[lay.table_row, lay.root_state]
        mu[root] = inherited[lay.group_of] * factor
    return mu


def _strategy_vector(
    model: MipModel, ctx: CompileContext, strategy: Strategy
) -> np.ndarray:
    """Full variable assignment implied by a strategy (masses, policy bits,
    and canonical tail bookkeeping when the model carries a CVaR block)."""
    x = np.zeros(len(model.variables))
    mu = propagate_cluster_marginals(ctx, strategy)
    for root, arr in mu.items():
        start = model.mu_start[root]
        x[start:start + arr.size] = arr
    for dnode, rule in strategy.rules.items():
        for pcfg, s in enumerate(rule):
            x[model.delta_var(dnode, pcfg, s)] = 1.0
    block = model.cvar
    if block is not None:
        # bincount adds each level's masses in ascending config order
        probs = np.bincount(block.level, weights=mu[block.value_root],
                            minlength=block.utilities.size)
        dist = UtilityDistribution(
            utilities=block.utilities, probabilities=probs
        )
        wit = tail_witness(dist, block.alpha)
        x[block.eta] = wit["eta"]
        x[block.lam] = wit["below"]
        x[block.lambar] = wit["at_or_below"]
        x[block.rho] = np.where(wit["below"], probs, 0.0)
        x[block.rhobar] = wit["tail_share"]
    return x


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

    Every deterministic strategy is converted to a complete variable
    assignment; assignments violating any row are discarded; ties break
    toward the lexicographically smallest strategy (the incumbent changes
    only on strict improvement).
    """
    system = RowSystem(model)
    best_x: Optional[np.ndarray] = None
    best_val: Optional[float] = None
    best: Optional[Strategy] = None
    n_total = 0
    n_feasible = 0
    for strategy in enumerate_strategies(ctx.diagram):
        n_total += 1
        x, _, val = _score(system, ctx, strategy)
        if val is None:
            continue
        n_feasible += 1
        if best_val is None or val > best_val:
            best_val, best_x, best = val, x, strategy
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


def _command_argv(command: Union[str, Sequence[str]], lp_path: str) -> List[str]:
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    if any("{lp}" in a for a in argv):
        return [a.replace("{lp}", lp_path) for a in argv]
    return argv + [lp_path]


def _strategy_from_bits(model: MipModel, x: np.ndarray) -> Strategy:
    """The strategy whose policy bits ``x`` sets, each bit rounded.

    The bits have passed the integrality re-check, so only a tolerance of
    0.5 or more lets a parent configuration round to other than one state.
    """
    rules: Dict[str, Tuple[int, ...]] = {}
    for dnode, (n_pcfg, n_states) in model.delta_shape.items():
        start = model.delta_start[dnode]
        bits = x[start:start + n_pcfg * n_states].reshape(n_pcfg, n_states)
        near = np.round(bits)
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
    command: Union[str, Sequence[str]],
    tol: float = 1e-6,
) -> Solution:
    """Run an external MILP solver over the exported LP text.

    The command is a template (string or argv list); ``{lp}`` is replaced by
    the LP file path, or the path is appended when no placeholder appears.
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
        start = model.mu_start[v]
        per_cfg = d.utilities[v].values[ctx.layouts[v].root_state]
        distribution = UtilityDistribution.from_values(
            per_cfg, solution.x[start:start + model.mu_total[v]]
        )
        expected = distribution.expected()
    return DecodedSolution(
        strategy=solution.strategy,
        expected_utility=expected,
        distribution=distribution,
    )
