"""Command-line MILP backend: HiGHS reads an LP file and solves it, and the
answer is printed as a name/value listing.

HiGHS's own reader takes the file (``_Highs.readModel``), so the dialect is
HiGHS's: the LP format :func:`limid.solve.export_lp` writes, other LP files
with one objective, and MPS.  HiGHS picks its reader by the file name, so
the name must end in ``.lp`` or ``.mps``.  HiGHS 1.12 reads hand-written LP
text silently (exit 0, no warning) other than its plain meaning in two
places: a constant beside a row's terms is dropped (``c: x + 3 <= 7`` is
held as ``x <= 7``), and a name repeated in the objective keeps only its
last term (``obj: 2 x + 5 x`` is held as ``5 x``); exported text has
neither form.  Output is one ``status <word>``
line, one ``objective <number>`` line when solved, then one
``<name> <number>`` line per column, which is exactly the layout the
external-solver bridge parses.  Exit code 0 means a definitive answer
(optimal or infeasible); 2 means a file HiGHS cannot read or a solver
failure.

``limid-milp -`` serves instead: it reads one file path per line on stdin
and answers each with the listing above, or with ``error <message>`` where
a one-shot run prints that to stderr, then one ``end <exit code>`` line; a
file it cannot read does not end it, the end of stdin does.  Before it
serves, it moves its answers to a duplicate of file descriptor 1 and points
descriptor 1 at the null device, so the line HiGHS prints there with C
stdio (``HighsMipSolverData::transformNewIntegerFeasibleSolution
tmpSolver.run();``, on some MIP solves, with output off) cannot reach
them.  The bridge keeps one such child per process for the bundled
command; a command a user gives still starts one process per solve.

The child starts as little as it can: the bridge runs this file with
``python -S``, so neither ``site`` nor the ``.pth`` files of site-packages
run, and it imports only ``os``, ``sys`` and the ``importlib`` loader.
HiGHS is loaded from its extension file, ``scipy/optimize/_highspy/_core``,
without importing ``scipy.optimize``, whose package import would be most of
a solver child's start-up; nor is numpy imported.  The same loader gives
``limid.solve`` scipy's compiled sparse kernels (``sparsetools``) without
``scipy.sparse``.
"""

import importlib.machinery
import importlib.util
import os
import sys

_INF = float("inf")

# The options scipy's ``milp`` sets; HiGHS's answers move with its options.
HIGHS_OPTIONS = {"log_to_console": False, "mip_rel_gap": 0.0}

_REJECTED = ("HiGHS rejected the model: a coefficient or bound is infinite, "
             "NaN or too large")


def _scipy_dir() -> str:
    """scipy's directory.

    Under ``python -S`` site-packages is not on ``sys.path``; scipy is then
    looked for where ``site`` would add it, the user site first, without
    running ``site``.  Only when it is not there does ``site.main()`` run.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        version = "python%d.%d" % sys.version_info[:2]
        user = os.environ.get("PYTHONUSERBASE") or os.path.expanduser("~/.local")
        for base, lib in ((user, "lib"), (sys.prefix, sys.platlibdir),
                          (sys.prefix, "lib")):
            where = os.path.join(base, lib, version, "site-packages")
            if os.path.isdir(os.path.join(where, "scipy")):
                sys.path.append(where)
                break
        else:
            import site
            site.main()
        spec = importlib.util.find_spec("scipy")
    return os.path.dirname(spec.origin)


def _extension(name: str):
    """The scipy extension module ``name``, loaded from its file.

    The module is registered under its own name, so a later import of its
    package reuses it.  Without the file (another scipy layout) it is
    imported the normal way, which runs its package's ``__init__``.
    """
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(_scipy_dir(), *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(name)


def highs_core():
    """scipy's HiGHS extension, without ``scipy.optimize``."""
    return _extension("scipy.optimize._highspy._core")


def sparsetools():
    """scipy's compiled sparse kernels, the ones ``scipy.sparse`` matrices
    run, without ``scipy.sparse``."""
    return _extension("scipy.sparse._sparsetools")


def parse_lp(path: str):
    """HiGHS reads the model in the file ``path`` and holds it as a
    minimisation without objective offset.

    Returns ``(highs, sign, offset)``: the model's objective is
    ``sign * (HiGHS's objective) + offset``.  Each cost is set to
    ``sign * (0.0 + cost)``, so a zero cost of a maximisation is -0.0.
    Raises ValueError for a file HiGHS cannot read or refuses to load, and
    for an objective with no or non-finite coefficients.
    """
    if not path.lower().endswith((".lp", ".mps")):
        raise ValueError(f"{path}: HiGHS reads only files whose names end "
                         "in .lp or .mps")
    core = highs_core()
    highs = core._Highs()
    for key, value in HIGHS_OPTIONS.items():
        highs.setOptionValue(key, value)
    if highs.readModel(path) == core.HighsStatus.kError:
        # A model that was read but not loaded keeps its columns.
        raise ValueError(_REJECTED if highs.getNumCol()
                         else f"HiGHS cannot read {path}")
    costs = [highs.getCol(j)[1] for j in range(highs.getNumCol())]
    if not costs or not all(-_INF < cost < _INF for cost in costs):
        raise ValueError("`c` must be a one-dimensional array of finite "
                         "numbers with at least one element.")
    sign = 1.0
    if highs.getObjectiveSense()[1] == core.ObjSense.kMaximize:
        sign = -1.0
        highs.changeObjectiveSense(core.ObjSense.kMinimize)
    for j, cost in enumerate(costs):
        highs.changeColCost(j, sign * (0.0 + cost))
    offset = highs.getObjectiveOffset()[1]
    highs.changeObjectiveOffset(0.0)
    return highs, sign, offset


def solve_lp_file(path: str):
    """Solve the model in the file ``path``; returns (status word,
    objective or None, assignment by column name)."""
    highs, sign, offset = parse_lp(path)
    highs.run()
    statuses = highs_core().HighsModelStatus
    status = highs.getModelStatus()
    if status == statuses.kModelError:
        raise ValueError(_REJECTED)
    if status != statuses.kOptimal:
        word = {statuses.kInfeasible: "infeasible",
                statuses.kUnbounded: "unbounded"}.get(status, "unknown")
        return word, None, {}
    x = highs.getSolution().col_value
    names = [highs.getColName(j)[1] for j in range(len(x))]
    objective = sign * highs.getInfo().objective_function_value + offset
    return "optimal", objective, dict(zip(names, x))


def solve_lp_text(text: str):
    """Solve the LP text ``text`` as the child solves a file."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="limid_lp_") as work:
        path = os.path.join(work, "model.lp")
        with open(path, "w") as lp_file:
            lp_file.write(text)
        return solve_lp_file(path)


def _answer(path: str) -> tuple[int, str]:
    """The exit code and the listing of one solve of the file ``path``."""
    status, objective, assignment = solve_lp_file(path)
    lines = [f"status {status}"]
    if objective is not None:
        lines.append(f"objective {objective!r}")
    lines += [f"{name} {val!r}" for name, val in assignment.items()]
    return 0 if status in ("optimal", "infeasible") else 2, "\n".join(lines)


def serve() -> int:
    """Solve the file at each path read from stdin, one path a line, until
    stdin ends.  Each answer is the one-shot listing, or ``error
    <message>`` where one-shot mode prints that to stderr, then ``end
    <exit code>``.  The answers go to a duplicate of file descriptor 1, and
    descriptor 1 itself to the null device, so that what HiGHS prints with
    C stdio never reaches them."""
    out = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    for line in sys.stdin:
        try:
            code, text = _answer(line.rstrip("\n"))
        except (OSError, ValueError) as exc:
            code, text = 2, f"error {exc}"
        out.write(f"{text}\nend {code}\n")
        out.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["-"]:
        return serve()
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: limid-milp LP_FILE", file=sys.stderr)
        return 2
    try:
        code, text = _answer(args[0])
    except (OSError, ValueError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
