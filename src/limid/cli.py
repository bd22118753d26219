"""Command-line front end.

Subcommands: ``validate`` (diagram and strategy linting), ``rjt`` (build,
modify, and inspect junction trees), ``build`` (write the LP file),
``solve`` (compile and optimize), ``oracle`` (exhaustive enumeration),
``compare`` (cross-check solver backends against the oracle), and ``bench``
(seeded instance sweeps with re-validation).

Solver backends: ``reference`` is the built-in exact strategy enumerator;
``external`` shells out to a MILP solver command (``--solver-cmd``, else the
``LIMID_SOLVER_CMD`` environment variable, else the bundled scipy/HiGHS
backend).
Machine-readable results are emitted as line-delimited JSON records.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .diagram import (
    InfluenceDiagram,
    Strategy,
    check_strategy,
    validate_diagram,
)
from .diagram_io import load_diagram, load_strategy, save_strategy
from .generators import (
    NMonitoringSpec,
    PigFarmSpec,
    gen_nmonitoring,
    gen_pigfarm,
)
from .inference import OracleResult, oracle_optimize
from .mip import add_risk, build_base_model, model_stats
from .risk import (
    CvarConstraint,
    CvarObjective,
    MeuObjective,
    budget_from_dict,
    parse_chance_text,
    parse_logical_text,
)
from .rjt import build_rjt, modify_rjt, to_dot, validate_rjt
from .solve import (
    ExternalSolverError,
    Solution,
    decode,
    reference_backend_command,
    solve_external,
    solve_reference,
    write_lp,
)
from .transform import merge_value_nodes


def _compile_hint(exc: ValueError) -> str:
    text = str(exc)
    if "merge_value_nodes" in text:
        return " (hint: pass --merge-values)"
    if "modify_rjt" in text:
        return " (hint: pass --modify with those nodes)"
    return ""


def _parse_objective(text: str):
    if text == "meu":
        return MeuObjective()
    if text.startswith("cvar:"):
        try:
            alpha = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad --objective value {text!r}; expected 'cvar:<alpha>'"
            ) from None
        return CvarObjective(alpha=alpha)
    raise ValueError(
        f"unknown objective {text!r}; expected 'meu' or 'cvar:<alpha>'"
    )


def _gather_constraints(args) -> List[object]:
    specs: List[object] = []
    for text in args.chance or ():
        specs.append(parse_chance_text(text))
    for text in args.logical or ():
        specs.append(parse_logical_text(text))
    for path in args.budget or ():
        specs.append(budget_from_dict(json.loads(Path(path).read_text())))
    for text in args.cvar_floor or ():
        try:
            alpha, bound = map(float, text.split(":", 1))
        except ValueError:
            raise ValueError(
                f"bad --cvar-floor value {text!r}; expected ALPHA:BOUND"
            ) from None
        specs.append(CvarConstraint(alpha=alpha, bound=bound))
    return specs


def _load(args) -> InfluenceDiagram:
    """The diagram file, validated, with value nodes merged on request."""
    diagram = load_diagram(args.diagram)
    problems = validate_diagram(diagram)
    if problems:
        raise ValueError("; ".join(problems))
    return _prepare_diagram(args, diagram)


def _prepare_diagram(args, diagram: InfluenceDiagram) -> InfluenceDiagram:
    if getattr(args, "merge_values", False):
        diagram, _ = merge_value_nodes(diagram)
    return diagram


def _prepare_tree(args, diagram: InfluenceDiagram):
    order = None
    if getattr(args, "order", None):
        order = [s.strip() for s in args.order.split(",") if s.strip()]
    tree = build_rjt(diagram, order=order)
    if getattr(args, "modify", None):
        for group in args.modify:
            targets = [s.strip() for s in group.split(",") if s.strip()]
            tree = modify_rjt(tree, targets)
    return tree


def _compile(args, diagram: InfluenceDiagram):
    """Diagram + flags -> (model, context, objective, constraints).

    A ``ValueError`` is raised again with ``_compile_hint`` appended.
    """
    try:
        objective = _parse_objective(args.objective)
        constraints = _gather_constraints(args)
        tree = _prepare_tree(args, diagram)
        model, ctx = build_base_model(tree, diagram)
        for spec in constraints:
            add_risk(model, spec, ctx)
        if isinstance(objective, CvarObjective):
            add_risk(model, objective, ctx)
    except ValueError as exc:
        raise ValueError(f"{exc}{_compile_hint(exc)}") from exc
    return model, ctx, objective, constraints


def describe_strategy(diagram: InfluenceDiagram, strategy: Strategy) -> List[str]:
    lines = []
    for d, rule in strategy.rules.items():
        parents = diagram.parents(d)
        indexer = diagram.parent_indexer(d)
        parts = []
        for pcfg, s in enumerate(rule):
            chosen = diagram.states(d)[s]
            if parents:
                states = indexer.states_of(pcfg)
                key = ",".join(
                    f"{p}={diagram.states(p)[v]}"
                    for p, v in zip(parents, states)
                )
                parts.append(f"{key} -> {chosen}")
            else:
                parts.append(chosen)
        lines.append(f"  {d}: " + "; ".join(parts))
    return lines


def _emit_record(args, record: Dict[str, object]) -> None:
    line = json.dumps(record, sort_keys=True, default=str)
    if getattr(args, "json", False):
        print(line)
    report = getattr(args, "report", None)
    if report:
        with open(report, "a") as fh:
            fh.write(line + "\n")


def _solver_command(args) -> List[str]:
    """``--solver-cmd``, else ``LIMID_SOLVER_CMD``, else the bundled backend,
    as an argv list."""
    sources = (("--solver-cmd", args.solver_cmd),
               ("LIMID_SOLVER_CMD", os.environ.get("LIMID_SOLVER_CMD")))
    for source, text in sources:
        if text:
            try:
                return shlex.split(text)
            except ValueError as exc:
                raise ValueError(f"bad {source} value {text!r}: {exc}") from None
    return reference_backend_command()


def _timed_solve(args, model, ctx, backend: str) -> Tuple[Solution, float]:
    """The backend's answer and its wall time in seconds."""
    t0 = time.perf_counter()
    if backend == "reference":
        solution = solve_reference(model, ctx)
    else:
        solution = solve_external(model, ctx, _solver_command(args), tol=args.tol)
    return solution, time.perf_counter() - t0


def _solve_fields(args, model, solution: Solution, wall: float) -> Dict[str, object]:
    """The record fields ``solve`` and ``bench`` share."""
    return {
        "backend": args.backend,
        "objective": args.objective,
        "status": solution.status,
        "objective_value": solution.objective_value,
        "wall_time_s": round(wall, 6),
        "stats": model_stats(model),
    }


def _agrees(
    oracle: OracleResult, solution: Solution, tol: float
) -> Tuple[bool, Optional[float]]:
    """Whether an answer agrees with the oracle (an infeasible oracle only
    with status ``infeasible``, a feasible one only with ``optimal`` and an
    objective gap of at most ``tol``), and the gap when both are feasible."""
    if not oracle.feasible:
        return solution.status == "infeasible", None
    if solution.status != "optimal":
        return False, None
    gap = abs(solution.objective_value - oracle.objective_value)
    return bool(gap <= tol), gap


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    diagram = load_diagram(args.diagram)
    problems = validate_diagram(diagram)
    if not problems and args.strategy:
        strategy = load_strategy(diagram, args.strategy)
        problems = check_strategy(diagram, strategy)
    for p in problems:
        print(p)
    if problems:
        return 1
    print("ok")
    return 0


def cmd_rjt(args) -> int:
    diagram = _load(args)
    tree = _prepare_tree(args, diagram)
    tree_problems = validate_rjt(tree, diagram)
    print(f"clusters: {len(tree.clusters)}  width: {tree.width()}")
    for root in tree.order:
        parent = tree.parent.get(root)
        members = " ".join(tree.members(root))
        arrow = f" <- {parent}" if parent else " (top)"
        print(f"  C[{root}]: {{{members}}}{arrow}")
    if args.dot:
        Path(args.dot).write_text(to_dot(tree))
        print(f"wrote {args.dot}")
    for p in tree_problems:
        print(f"invalid: {p}")
    return 1 if tree_problems else 0


def cmd_build(args) -> int:
    model, ctx, objective, constraints = _compile(args, _load(args))
    write_lp(model, args.out)
    stats = model_stats(model)
    print(json.dumps(stats, sort_keys=True))
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args) -> int:
    diagram = _load(args)
    model, ctx, objective, constraints = _compile(args, diagram)
    solution, wall = _timed_solve(args, model, ctx, args.backend)
    record = {"record": "solve", "diagram": args.diagram,
              **_solve_fields(args, model, solution, wall)}
    print(f"status          : {solution.status}")
    if solution.status != "optimal":
        for v in solution.violations[:10]:
            print(f"  {v}")
        _emit_record(args, record)
        return 1
    print(f"objective ({args.objective}) : {solution.objective_value!r}")
    # What the solver claimed beside what its strategy is exactly worth;
    # the reference enumerator reports exact values, with no drift.
    record["verification"] = {
        "solver_objective": solution.info.get(
            "solver_objective", solution.objective_value
        ),
        "drift": solution.info.get("drift", 0.0),
    }
    decoded = decode(solution, model, ctx)
    record["strategy"] = {
        d: list(rule) for d, rule in decoded.strategy.rules.items()
    }
    record["expected_utility"] = decoded.expected_utility
    print("strategy:")
    for line in describe_strategy(diagram, decoded.strategy):
        print(line)
    if decoded.distribution is not None:
        dist = decoded.distribution
        print(
            f"utility distribution: {dist.utilities.size} atoms, "
            f"expected {dist.expected()!r}"
        )
        for u, p in dist.atoms:
            print(f"  u={u!r} p={p!r}")
        record["n_atoms"] = dist.utilities.size
    if args.out_strategy:
        save_strategy(diagram, decoded.strategy, args.out_strategy)
        print(f"wrote {args.out_strategy}")
    print(f"wall time       : {wall:.3f}s")
    _emit_record(args, record)
    return 0


def cmd_oracle(args) -> int:
    diagram = _load(args)
    objective = _parse_objective(args.objective)
    constraints = _gather_constraints(args)
    t0 = time.perf_counter()
    result = oracle_optimize(diagram, objective=objective, constraints=constraints)
    wall = time.perf_counter() - t0
    record = {
        "record": "oracle",
        "diagram": args.diagram,
        "objective": args.objective,
        "feasible": result.feasible,
        "objective_value": result.objective_value,
        "n_strategies": result.n_strategies,
        "n_feasible": result.n_feasible,
        "wall_time_s": round(wall, 6),
    }
    if not result.feasible:
        print("no feasible strategy")
        _emit_record(args, record)
        return 1
    print(f"objective ({args.objective}) : {result.objective_value!r}")
    print(f"strategies      : {result.n_feasible} feasible / {result.n_strategies}")
    print("best strategy:")
    for line in describe_strategy(diagram, result.best):
        print(line)
    record["strategy"] = {d: list(r) for d, r in result.best.rules.items()}
    if args.out_strategy:
        save_strategy(diagram, result.best, args.out_strategy)
        print(f"wrote {args.out_strategy}")
    _emit_record(args, record)
    return 0


def cmd_compare(args) -> int:
    diagram = _load(args)
    model, ctx, objective, constraints = _compile(args, diagram)

    oracle = oracle_optimize(diagram, objective=objective, constraints=constraints)
    rows = [("oracle", "optimal" if oracle.feasible else "infeasible",
             oracle.objective_value)]
    solutions = {}
    for name in ("reference", "external") if args.external else ("reference",):
        solutions[name], _ = _timed_solve(args, model, ctx, name)
        rows.append((name, solutions[name].status, solutions[name].objective_value))

    print(f"{'backend':<10} {'status':<12} objective")
    for name, status, value in rows:
        shown = "-" if value is None else repr(value)
        print(f"{name:<10} {status:<12} {shown}")

    ok = True
    for name, solution in solutions.items():
        agree, gap = _agrees(oracle, solution, args.tol)
        ok = ok and agree
        if not agree and gap is None:
            print(f"mismatch: oracle feasible={oracle.feasible} but "
                  f"{name} status={solution.status}")
        elif not agree:
            print(f"mismatch: {name} objective differs from oracle by {gap!r}")
        elif gap is not None:
            print(f"agree: {name} within {args.tol} of oracle (gap {gap:.3e})")
    record = {
        "record": "compare",
        "diagram": args.diagram,
        "objective": args.objective,
        "rows": [
            {"backend": n, "status": s, "objective_value": v}
            for n, s, v in rows
        ],
        "ok": ok,
    }
    _emit_record(args, record)
    return 0 if ok else 1


def _bench_instance(family: str, n: int, seed: int) -> InfluenceDiagram:
    if family == "pigfarm":
        return gen_pigfarm(PigFarmSpec(n_periods=n, seed=seed))
    if family == "nmonitoring":
        return gen_nmonitoring(NMonitoringSpec(n_monitors=n, seed=seed))
    raise ValueError(f"unknown instance family {family!r}")


def cmd_bench(args) -> int:
    all_ok = True
    for k in range(args.trials):
        seed = args.seed + k
        diagram = _bench_instance(args.family, args.n, seed)
        diagram = _prepare_diagram(args, diagram)
        model, ctx, objective, constraints = _compile(args, diagram)
        solution, wall = _timed_solve(args, model, ctx, args.backend)
        record = {"record": "bench", "family": args.family, "n": args.n,
                  "seed": seed, **_solve_fields(args, model, solution, wall)}
        line = (f"trial seed={seed}: {solution.status}"
                f" objective={solution.objective_value!r} ({wall:.3f}s)")
        if not args.no_check:
            oracle = oracle_optimize(
                diagram, objective=objective, constraints=constraints
            )
            check_ok, gap = _agrees(oracle, solution, max(args.tol, 1e-9))
            record["oracle_value"] = oracle.objective_value
            record["oracle_gap"] = gap
            record["check_ok"] = check_ok
            if gap is not None:
                line += f" oracle_gap={gap:.3e}"
            else:
                line += " oracle " + ("optimal" if oracle.feasible else "infeasible")
            if not check_ok:
                all_ok = False
                line += " CHECK FAILED"
        elif solution.status != "optimal":
            all_ok = False
        print(line)
        _emit_record(args, record)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser wiring


def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", help="comma-separated topological order override")
    p.add_argument(
        "--modify", action="append", metavar="N1,N2,...",
        help="extend the tree so one cluster covers these nodes (repeatable)",
    )
    p.add_argument(
        "--merge-values", action="store_true",
        help="replace all value nodes by their merged sum first",
    )


def _add_risk_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--objective", default="meu",
        help="'meu' or 'cvar:<alpha>' (default meu)",
    )
    p.add_argument(
        "--chance", action="append", metavar="SPEC",
        help="chance constraint like 'P(H1=ill|H2=ill)<=0.4' (repeatable)",
    )
    p.add_argument(
        "--logical", action="append", metavar="SPEC",
        help="forbidden event like 'P(D1=treat&D2=treat)' (repeatable)",
    )
    p.add_argument(
        "--budget", action="append", metavar="FILE",
        help="budget constraint JSON with 'costs' and 'limit' (repeatable)",
    )
    p.add_argument(
        "--cvar-floor", action="append", metavar="ALPHA:BOUND",
        help="require CVaR at level ALPHA to reach BOUND (repeatable)",
    )


def _add_backend_flags(p: argparse.ArgumentParser, choice: bool = True) -> None:
    if choice:  # compare runs every backend, so it takes no choice
        p.add_argument(
            "--backend", choices=("reference", "external"),
            default="reference", help="solver backend (default reference)",
        )
    p.add_argument(
        "--solver-cmd",
        help="external solver command template; '{lp}' marks the LP path",
    )
    p.add_argument("--tol", type=tolerance, default=1e-6,
                   help="feasibility re-check tolerance (default 1e-6)")


def tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < float("inf"):  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return value


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", help="append JSON records to this file")
    p.add_argument("--json", action="store_true",
                   help="also print the JSON record to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limid",
        description="Influence diagram toolkit: junction trees, "
        "mixed-integer compilation, risk-aware solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="lint a diagram (and strategy) file")
    p.add_argument("diagram")
    p.add_argument("--strategy", help="strategy JSON to check against it")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rjt", help="build and inspect the junction tree")
    p.add_argument("diagram")
    _add_tree_flags(p)
    p.add_argument("--dot", help="write Graphviz source to this path")
    p.set_defaults(func=cmd_rjt)

    p = sub.add_parser("build", help="compile to an LP file")
    p.add_argument("diagram")
    p.add_argument("--out", required=True, help="LP output path")
    _add_tree_flags(p)
    _add_risk_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="compile and optimize")
    p.add_argument("diagram")
    _add_tree_flags(p)
    _add_risk_flags(p)
    _add_backend_flags(p)
    _add_report_flags(p)
    p.add_argument("--out-strategy", help="write the best strategy JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive strategy enumeration")
    p.add_argument("diagram")
    p.add_argument("--merge-values", action="store_true",
                   help="merge value nodes first")
    _add_risk_flags(p)
    _add_report_flags(p)
    p.add_argument("--out-strategy", help="write the best strategy JSON here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="cross-check backends against the oracle")
    p.add_argument("diagram")
    _add_tree_flags(p)
    _add_risk_flags(p)
    _add_backend_flags(p, choice=False)
    _add_report_flags(p)
    p.add_argument("--external", action="store_true",
                   help="also run the external backend")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="seeded random-instance sweep")
    p.add_argument("family", choices=("pigfarm", "nmonitoring"))
    p.add_argument("--n", type=int, default=3,
                   help="periods / monitors (default 3)")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_tree_flags(p)
    _add_risk_flags(p)
    _add_backend_flags(p)
    _add_report_flags(p)
    p.add_argument("--no-check", action="store_true",
                   help="skip oracle re-validation of each trial")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ExternalSolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
