"""Command-line MILP backend: read an LP file, solve it with the HiGHS
extension that ships inside scipy, print a name/value listing.

Understands the LP dialect written by :func:`limid.solve.export_lp` (and
plain single-objective LP files generally): ``\\`` comments, Maximize /
Minimize, Subject To, Bounds, Binaries, General, End.  Output is one
``status <word>`` line, one ``objective <number>`` line when solved, then
one ``<name> <number>`` line per variable, which is exactly the layout the
external-solver bridge parses.  Exit code 0 means a definitive answer
(optimal or infeasible); 2 means a parse or solver failure.

HiGHS is loaded from its extension file, ``scipy/optimize/_highspy/_core``,
without importing ``scipy.optimize``: that package import is most of a
solver child's start-up, while the extension alone loads in milliseconds.
Nor does the child import numpy, which would be most of what is left: the
model is built as plain lists, and HiGHS takes the costs through scalar
calls and every other field of its ``HighsLp`` from lists.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_SECTION_WORDS = {
    "maximize": "objective-max",
    "maximise": "objective-max",
    "max": "objective-max",
    "minimize": "objective-min",
    "minimise": "objective-min",
    "min": "objective-min",
    "subject": "rows",
    "st": "rows",
    "s.t.": "rows",
    "bounds": "bounds",
    "bound": "bounds",
    "binaries": "binaries",
    "binary": "binaries",
    "bin": "binaries",
    "general": "generals",
    "generals": "generals",
    "gen": "generals",
    "end": "end",
}

_INF = float("inf")


class LpParseError(ValueError):
    pass


@dataclass
class LpProblem:
    sense: str  # "max" or "min"
    variables: List[str]
    objective: Dict[str, float]
    constant: float
    rows: List[Tuple[Dict[str, float], str, float]]
    lower: Dict[str, float]
    upper: Dict[str, float]
    integer: Dict[str, bool] = field(default_factory=dict)


# Comments run from a backslash to the end of the line.
_COMMENT_RE = re.compile(r"\\[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
# Where a word ends: whitespace, a comment, the end of the text, a relation,
# a lone "=", a colon, or a sign that is not an exponent's (1e-3).
_END = r"(?=[\s\\:]|\Z|<=|>=|=(?!=|[<>](?!=))|(?<![eE])[+-])"
_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# One token per match, in the text's order, after any whitespace:
# relations, a lone "=" (one not touching another "=" or a "<"/">" that is
# not part of a relation), colons, signs, a number, the number of a
# coefficient fused to its name (2x), and any other word up to where the
# next token starts.
_TOKEN_RE = re.compile(
    r"\s*(<=|>=|(?==)(?:(?<![<>=])|(?<=[<>]=))=(?!=|[<>](?!=))|:"
    r"|(?=[+-])(?<![eE])[+-]"
    rf"|{_NUM}{_END}|{_NUM}(?=[A-Za-z_][A-Za-z0-9_.]*{_END})"
    r"|(?:[^\s\\<>=:+-]+|[<>](?!=)|(?<=[eE])[+-]"
    r"|(?<==)(?<![<>]=)=|=(?==|[<>](?!=)))+)"
)


_REL, _SECTION, _PLUS, _MINUS, _NUMBER, _WORD = range(6)


class _Kinds(dict):
    """Token -> kind, worked out once per distinct token."""

    def __missing__(self, tok: str) -> int:
        if tok in ("<=", ">=", "="):
            kind = _REL
        elif tok.lower() in _SECTION_WORDS:
            kind = _SECTION
        elif tok == "+":
            kind = _PLUS
        elif tok == "-":
            kind = _MINUS
        elif _NUMBER_RE.match(tok):
            kind = _NUMBER
        else:
            kind = _WORD
        self[tok] = kind
        return kind


def parse_lp(text: str) -> LpProblem:
    tokens = _TOKEN_RE.findall(_COMMENT_RE.sub("", text))
    if not tokens:
        raise LpParseError("empty LP file")
    n = len(tokens)
    kinds = _Kinds()
    variables: List[str] = []
    seen = set()

    def touch(name: str) -> None:
        if name not in seen:
            seen.add(name)
            variables.append(name)

    i = 0
    section = None
    sense = "min"
    objective: Dict[str, float] = {}
    constant = 0.0
    rows: List[Tuple[Dict[str, float], str, float]] = []
    lower: Dict[str, float] = {}
    upper: Dict[str, float] = {}
    integer: Dict[str, bool] = {}

    def parse_expr(stop_at_sense: bool):
        """Read a linear expression; returns (coeffs, const, sense_token).

        A section keyword (reserved) or, in a row, a relation ends it; a
        number not followed by a variable is a constant term.
        """
        nonlocal i
        coeffs: Dict[str, float] = {}
        const = 0.0
        sign = 1.0
        coef: Optional[float] = None
        while i < n:
            tok = tokens[i]
            kind = kinds[tok]
            if kind == _WORD or (kind == _REL and not stop_at_sense):
                if i + 1 < n and tokens[i + 1] == ":":
                    i += 2  # row or objective label, not a variable
                    continue
                if tok not in seen:
                    seen.add(tok)
                    variables.append(tok)
                coeffs[tok] = coeffs.get(tok, 0.0) + sign * (
                    1.0 if coef is None else coef
                )
                coef = None
                sign = 1.0
            elif kind == _NUMBER:
                if coef is not None:
                    const += sign * coef
                    sign = 1.0
                coef = float(tok)
            elif kind == _PLUS:
                if coef is not None:
                    const += sign * coef
                    coef = None
                sign = 1.0
            elif kind == _MINUS:
                if coef is not None:
                    const += sign * coef
                    coef = None
                    sign = -1.0
                else:
                    sign = -sign
            else:
                break
            i += 1
        if coef is not None:
            const += sign * coef
        if i < n and kinds[tokens[i]] == _REL:
            return coeffs, const, tokens[i]
        return coeffs, const, None

    while i < n:
        tok = tokens[i]
        sec = _SECTION_WORDS[tok.lower()] if kinds[tok] == _SECTION else None
        if sec == "objective-max" or sec == "objective-min":
            sense = "max" if sec == "objective-max" else "min"
            i += 1
            objective, constant, _ = parse_expr(stop_at_sense=False)
            continue
        if sec == "rows":
            if tok.lower() == "subject":
                if i + 1 >= n or tokens[i + 1].lower() != "to":
                    raise LpParseError("expected 'Subject To'")
                i += 2
            else:
                i += 1
            section = "rows"
            continue
        if sec in ("bounds", "binaries", "generals"):
            section = sec
            i += 1
            continue
        if sec == "end":
            break
        if section == "rows":
            coeffs, const, rel = parse_expr(stop_at_sense=True)
            if rel is None:
                raise LpParseError(
                    f"constraint without relational operator near token {i}"
                )
            i += 1  # consume sense token
            val, i = _read_signed(
                tokens, i, kinds, "right-hand side", allow_inf=False
            )
            rows.append((coeffs, rel, val - const))
            continue
        if section == "bounds":
            i = _parse_bound(tokens, i, kinds, lower, upper, touch)
            continue
        if section in ("binaries", "generals"):
            touch(tok)
            integer[tok] = True
            if section == "binaries":
                lower.setdefault(tok, 0.0)
                upper.setdefault(tok, 1.0)
            i += 1
            continue
        raise LpParseError(f"unexpected token {tok!r} outside any section")

    return LpProblem(
        sense=sense,
        variables=variables,
        objective=objective,
        constant=constant,
        rows=rows,
        lower=lower,
        upper=upper,
        integer=integer,
    )


def _read_signed(
    tokens, i, kinds, what: str, allow_inf: bool = True
) -> Tuple[float, int]:
    """Read a possibly signed number (or infinity); return (value, next index)."""
    sign = 1.0
    while i < len(tokens) and tokens[i] in ("+", "-"):
        if tokens[i] == "-":
            sign = -sign
        i += 1
    if i >= len(tokens):
        raise LpParseError(f"{what} ends mid-expression")
    tok = tokens[i]
    if allow_inf and tok.lower() in ("inf", "infinity"):
        return sign * _INF, i + 1
    if kinds[tok] != _NUMBER:
        raise LpParseError(f"expected a number in {what}, got {tok!r}")
    return sign * float(tok), i + 1


def _parse_bound(tokens, i, kinds, lower, upper, touch) -> int:
    """Parse one bounds declaration starting at tokens[i]; return new index."""
    tok = tokens[i]
    if (kinds[tok] in (_PLUS, _MINUS, _NUMBER)
            or tok.lower() in ("inf", "infinity")):
        # form: a <= x <= b   (or a <= x)
        lo, j = _read_signed(tokens, i, kinds, "bounds declaration")
        if j + 1 >= len(tokens) or tokens[j] != "<=":
            raise LpParseError(f"bad bound near {tok!r}")
        name = tokens[j + 1]
        touch(name)
        lower[name] = lo
        if j + 2 < len(tokens) and tokens[j + 2] == "<=":
            up, k = _read_signed(tokens, j + 3, kinds, "bounds declaration")
            upper[name] = up
            return k
        return j + 2
    name = tok
    touch(name)
    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
    if nxt == "free":
        lower[name] = -_INF
        upper[name] = _INF
        return i + 2
    if nxt in ("<=", ">=", "="):
        val, k = _read_signed(tokens, i + 2, kinds, "bounds declaration")
        if nxt == "<=":
            upper[name] = val
        elif nxt == ">=":
            lower[name] = val
        else:
            lower[name] = upper[name] = val
        return k
    raise LpParseError(f"bad bounds declaration near {name!r}")


def solve_lp_text(text: str):
    """Parse and solve; returns (status word, objective or None, assignment)."""
    prob = parse_lp(text)
    names = prob.variables
    index = {name: j for j, name in enumerate(names)}
    c = [0.0] * len(names)
    for name, coef in prob.objective.items():
        c[index[name]] += coef
    if prob.sense == "max":
        c = [-cost for cost in c]
    # Row-major terms to CSC: walking the rows in order keeps each column's
    # rows ascending, as a CSR-to-CSC conversion does.
    col_rows = [[] for _ in names]
    col_values = [[] for _ in names]
    for r, (coeffs, _, _) in enumerate(prob.rows):
        for name, coef in coeffs.items():
            j = index[name]
            col_rows[j].append(r)
            col_values[j].append(coef)
    indptr = [0]
    for rows in col_rows:
        indptr.append(indptr[-1] + len(rows))

    status, fun, x = run_highs(
        c,
        [value for values in col_values for value in values],
        [r for rows in col_rows for r in rows],
        indptr,
        [-_INF if rel == "<=" else rhs for _, rel, rhs in prob.rows],
        [_INF if rel == ">=" else rhs for _, rel, rhs in prob.rows],
        [prob.lower.get(m, 0.0) for m in names],
        [prob.upper.get(m, _INF) for m in names],
        [1 if prob.integer.get(m) else 0 for m in names],
    )
    if status != "optimal":
        return status, None, {}
    sign = -1.0 if prob.sense == "max" else 1.0
    return status, sign * fun + prob.constant, dict(zip(names, x))


_CORE = "scipy.optimize._highspy._core"
# The options scipy's ``milp`` sets; HiGHS's answers move with its options.
HIGHS_OPTIONS = {"log_to_console": False, "mip_rel_gap": 0.0}


def highs_core():
    """scipy's HiGHS extension module, loaded from its file.

    The module is registered under its own name, so a later
    ``import scipy.optimize`` reuses it.  Without the file (another scipy
    layout) it is imported the normal way, which runs ``scipy.optimize``.
    """
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    stem = os.path.join(scipy_dir, "optimize", "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(_CORE, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_CORE] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(_CORE)


def run_highs(c, data, indices, indptr, row_lower, row_upper, col_lower,
              col_upper, integrality):
    """Minimise ``c @ x`` subject to ``row_lower <= A @ x <= row_upper`` and
    ``col_lower <= x <= col_upper``, with ``x[j]`` integer where
    ``integrality[j]`` is 1 and ``A`` given column-wise by ``data``,
    ``indices`` and ``indptr``.  Every argument is a plain sequence of
    numbers.

    Returns ``(status word, objective, x)``; objective and x are None unless
    the status is ``optimal``.  Raises ValueError for an objective with no
    or non-finite coefficients and for a model HiGHS refuses to load.
    """
    if len(c) == 0 or not all(map(math.isfinite, c)):
        raise ValueError("`c` must be a one-dimensional array of finite "
                         "numbers with at least one element.")
    core = highs_core()
    highs = core._Highs()
    options = core.HighsOptions()
    for key, value in HIGHS_OPTIONS.items():
        setattr(options, key, value)
    highs.passOptions(options)
    # Costs go in one column at a time: the ``col_cost_`` setter of a
    # ``HighsLp`` imports numpy, and the other fields take lists without it.
    # Every cost is set, since a max-sense zero is -0.0 and addVar's +0.0.
    for j, cost in enumerate(c):
        highs.addVar(0.0, 0.0)
        highs.changeColCost(j, cost)
    lp = highs.getLp()
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_lower)
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    lp.integrality_ = [core.HighsVarType(i) for i in integrality]
    statuses = core.HighsModelStatus
    loaded = highs.passModel(lp) != core.HighsStatus.kError
    if loaded:
        highs.run()
    status = highs.getModelStatus()
    if not loaded or status == statuses.kModelError:
        raise ValueError("HiGHS rejected the model: a coefficient or bound "
                         "is infinite, NaN or too large")
    if status != statuses.kOptimal:
        word = {statuses.kInfeasible: "infeasible",
                statuses.kUnbounded: "unbounded"}.get(status, "unknown")
        return word, None, None
    x = highs.getSolution().col_value
    return "optimal", highs.getInfo().objective_function_value, x


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="limid-milp",
        description="Solve an LP-format mixed-integer program with HiGHS "
        "and print a status / objective / name-value listing.",
    )
    parser.add_argument("lp_file", help="path to the LP file")
    args = parser.parse_args(argv)
    try:
        text = open(args.lp_file, "r").read()
        status, objective, assignment = solve_lp_text(text)
    except (OSError, LpParseError, ValueError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    lines = [f"status {status}"]
    if objective is not None:
        lines.append(f"objective {objective!r}")
    lines += [f"{name} {val!r}" for name, val in assignment.items()]
    print("\n".join(lines))
    return 0 if status in ("optimal", "infeasible") else 2


if __name__ == "__main__":
    sys.exit(main())
