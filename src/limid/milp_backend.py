"""Command-line MILP backend: read an LP file, solve it with scipy's HiGHS
interface, print a name/value listing.

Understands the LP dialect written by :func:`limid.solve.export_lp` (and
plain single-objective LP files generally): ``\\`` comments, Maximize /
Minimize, Subject To, Bounds, Binaries, General, End.  Output is one
``status <word>`` line, one ``objective <number>`` line when solved, then
one ``<name> <number>`` line per variable, which is exactly the layout the
external-solver bridge parses.  Exit code 0 means a definitive answer
(optimal or infeasible); 2 means a parse or solver failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import optimize, sparse

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
    index = {n: j for j, n in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for name, coef in prob.objective.items():
        c[index[name]] += coef
    if prob.sense == "max":
        c = -c

    lo = np.array([prob.lower.get(m, 0.0) for m in names])
    hi = np.array([prob.upper.get(m, _INF) for m in names])
    integrality = np.array(
        [1 if prob.integer.get(m) else 0 for m in names]
    )

    m = len(prob.rows)
    constraints = []
    if m:
        row_coeffs = [coeffs for coeffs, _, _ in prob.rows]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum([len(coeffs) for coeffs in row_coeffs], out=indptr[1:])
        data = np.fromiter(
            chain.from_iterable(coeffs.values() for coeffs in row_coeffs),
            dtype=float, count=indptr[-1],
        )
        cols = np.fromiter(
            map(index.__getitem__, chain.from_iterable(row_coeffs)),
            dtype=np.int64, count=indptr[-1],
        )
        rel = np.array([rel for _, rel, _ in prob.rows])
        rhs = np.array([rhs for _, _, rhs in prob.rows], dtype=float)
        lb = np.where(rel == "<=", -_INF, rhs)
        ub = np.where(rel == ">=", _INF, rhs)
        matrix = sparse.csr_matrix((data, cols, indptr), shape=(m, n)).tocsc()
        constraints.append(optimize.LinearConstraint(matrix, lb, ub))

    result = optimize.milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=optimize.Bounds(lo, hi),
        options={"mip_rel_gap": 0.0},
    )
    if result.status == 0:
        sign = -1.0 if prob.sense == "max" else 1.0
        objective = sign * float(result.fun) + prob.constant
        assignment = {name: float(result.x[j]) for j, name in enumerate(names)}
        return "optimal", objective, assignment
    if result.status == 2:
        return "infeasible", None, {}
    if result.status == 3:
        return "unbounded", None, {}
    return "unknown", None, {}


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
