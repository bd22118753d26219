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
calls and every other field of its ``HighsLp`` from lists.  The same
loader gives ``limid.solve`` scipy's compiled sparse kernels
(``sparsetools``) without ``scipy.sparse``.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import itemgetter, not_, sub
from typing import Dict, List, NamedTuple, Optional, Tuple

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


class LpProblem(NamedTuple):
    sense: str  # "max" or "min"
    variables: List[str]
    objective: Dict[str, float]
    constant: float
    rows: List[Tuple[Dict[str, float], str, float]]
    lower: Dict[str, float]
    upper: Dict[str, float]
    integer: Dict[str, bool]


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
# next token starts.  Text in the exported layout never needs it, so ``re``
# compiles it on first use rather than at every solver child's start.
_TOKEN = (
    r"\s*(<=|>=|(?==)(?:(?<![<>=])|(?<=[<>]=))=(?!=|[<>](?!=))|:"
    r"|(?=[+-])(?<![eE])[+-]"
    rf"|{_NUM}{_END}|{_NUM}(?=[A-Za-z_][A-Za-z0-9_.]*{_END})"
    r"|(?:[^\s\\<>=:+-]+|[<>](?!=)|(?<=[eE])[+-]"
    r"|(?<==)(?<![<>]=)=|=(?==|[<>](?!=)))+)"
)


_REL, _SECTION, _PLUS, _MINUS, _NUMBER, _WORD = range(6)
_RELATIONS = frozenset(("<=", ">=", "="))


class _Kinds(dict):
    """Token -> kind, worked out once per distinct token."""

    def __missing__(self, tok: str) -> int:
        if tok in _RELATIONS:
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


# A section in the layout ``limid.solve.export_lp`` writes: its header alone
# on a line.  The objective, rows, bounds and binaries are read a whole
# section at a time when every chunk between spaces is one token of the
# kind its place asks for; anything else goes through the token loop.
_HEADER_RE = re.compile(
    r"\n(?=(?:Maximize|Minimize|Subject To|Bounds|Binaries|End)\n)")
_FIRST_TERM_RE = re.compile(r": (?=[\d.])")
_WORD_CHARS_RE = re.compile(r"[A-Za-z0-9_. ]*")


class _Section:
    """What a section read in one step adds to the problem.

    ``opens`` is the section its header opens (a ``_SECTION_WORDS`` value),
    ``names`` the variables it uses in order of first use, and ``lower`` and
    ``upper`` the bounds it sets.  ``span`` is where it lies in the
    comment-free text.  (A plain class: a ``NamedTuple`` took 0.4 ms of
    every solver child's start-up.)"""

    __slots__ = ("opens", "names", "objective", "rows", "lower", "upper", "span")

    def __init__(self, opens: str, names: Dict[str, None],
                 objective: Dict[str, float],
                 rows: List[Tuple[Dict[str, float], str, float]],
                 lower: Dict[str, float], upper: Dict[str, float]):
        self.opens, self.names, self.objective = opens, names, objective
        self.rows, self.lower, self.upper = rows, lower, upper
        self.span = (0, 0)


def _plain(words) -> bool:
    """Whether each of ``words`` is a single word token and no section word:
    a letter or '_', then letters, digits, '_' or '.'."""
    # Digits, '.' and the empty word sort below "A"; other characters are
    # refused first.
    return (_WORD_CHARS_RE.fullmatch(" ".join(words)) is not None
            and (not words or min(words) >= "A")
            and _SECTION_WORDS.keys().isdisjoint(map(str.lower, words)))


def _coefficients(signs: List[str], numbers: List[str]) -> Optional[List[float]]:
    """Each term's coefficient added to 0.0, as the token loop adds it, or
    None unless every sign is "+" or "-" and every number is unsigned."""
    distinct = set(numbers)
    if not ({"+", "-"}.issuperset(signs) and all(
            _NUMBER_RE.match(s) and s[0] not in "+-" for s in distinct)):
        return None
    signed = {"+": {s: 0.0 + float(s) for s in distinct},
              "-": {s: 0.0 + -float(s) for s in distinct}}
    return list(map(dict.__getitem__, map(signed.__getitem__, signs), numbers))


def _sums(names: List[str], values: List[float],
          counts: List[int]) -> List[Dict[str, float]]:
    """One dict per run of ``counts[k]`` terms, holding each name's
    coefficient; a name that repeats within a run gets the sum of its
    coefficients in order, as the token loop adds them."""
    sums = list(map(dict, map(islice, repeat(zip(names, values)), counts)))
    if sum(map(len, sums)) == len(names):
        return sums
    # No value is -0.0, so adding 0.0 to the first of a name's terms, as
    # the token loop does, changes none of these sums.
    terms = zip(names, values)
    sums = []
    for k in counts:
        coeffs: Dict[str, float] = {}
        for name, value in islice(terms, k):
            coeffs[name] = coeffs.get(name, 0.0) + value
        sums.append(coeffs)
    return sums


def _read_section(piece: str) -> Optional[_Section]:
    """The objective, rows, bounds or binaries of ``piece``, a header line
    and its section, read in one step; None when the token loop must read
    it."""
    header = piece[1:].partition("\n")[0]
    if header in ("Maximize", "Minimize", "Subject To"):
        # Give an unsigned first term its "+", which changes nothing the
        # token loop reads, so that every term is three chunks.
        piece = _FIRST_TERM_RE.sub(": + ", piece)
    chunks = piece.split()
    opens = _SECTION_WORDS[chunks[0].lower()]
    objective: Dict[str, float] = {}
    rows: list = []
    lower: Dict[str, float] = {}
    upper: Dict[str, float] = {}
    if header == "Subject To":
        # Each row is a label, terms of a sign, a number and a name, a
        # relation and a right-hand side, so the chunks after the header
        # fall into threes: (label or name, sign or relation, number or
        # right-hand side), and a relation ends a row.
        if len(chunks) % 3 != 2:
            return None
        heads, marks, tails = chunks[2::3], chunks[3::3], chunks[4::3]
        ends_row = list(map(_RELATIONS.__contains__, marks))
        ends = list(compress(count(), ends_row))
        if not ends or ends[-1] != len(marks) - 1:
            return None
        starts = [0, *map((1).__add__, ends[:-1])]
        labels = list(map(heads.__getitem__, starts))
        # A label is a word and a colon: no word holds one, so each label
        # holds one colon at most, at its end.
        if ("".join(labels).count(":") != len(labels)
                or not _plain([label[:-1] for label in labels])):
            return None
        in_term = list(map(not_, ends_row))
        names = list(compress(islice(heads, 1, None), in_term))
        values = _coefficients(list(compress(marks, in_term)),
                               list(compress(tails, in_term)))
        rhs = list(map(tails.__getitem__, ends))
        if values is None or not all(map(_NUMBER_RE.match, set(rhs))):
            return None
        rows = list(zip(_sums(names, values, list(map(sub, ends, starts))),
                        map(marks.__getitem__, ends), map(float, rhs)))
    elif header == "Bounds":
        # Runs of "0 <= name <= 1" lines, each ended by a "name free" line
        # or by the end of the section.
        body = chunks[1:]
        names, free = [], []
        start = 0
        for at in [*compress(count(), map("free".__eq__, body)), len(body) + 1]:
            units = body[start:at - 1]
            k = len(units) // 5
            if (at - 1 < start or len(units) % 5 or units[0::5] != ["0"] * k
                    or not units[1::5] == units[3::5] == ["<="] * k
                    or units[4::5] != ["1"] * k):
                return None
            lower.update(zip(units[2::5], repeat(0.0)))
            upper.update(zip(units[2::5], repeat(1.0)))
            names += units[2::5]
            if at <= len(body):
                name = body[at - 1]
                lower[name], upper[name] = -_INF, _INF
                names.append(name)
                free.append(name.lower())
            start = at + 1
        # The token loop reads "inf free" as a lower bound.
        if not {"inf", "infinity"}.isdisjoint(free):
            return None
    elif header == "Binaries":
        names = chunks[1:]
    elif opens in ("objective-max", "objective-min"):
        # A label, then terms of a sign, a number and a name.
        if len(chunks) % 3 != 2 or not chunks[1].endswith(":"):
            return None
        names = chunks[4::3]
        values = _coefficients(chunks[2::3], chunks[3::3])
        if values is None or not _plain([chunks[1][:-1]]):
            return None
        objective = _sums(names, values, [len(names)])[0]
    else:
        return None
    used = dict.fromkeys(names)
    if not _plain(used):
        return None
    return _Section(opens, used, objective, rows, lower, upper)


def _tokens(text: str) -> Tuple[List[str], Dict[int, _Section]]:
    """The tokens of ``text``, except that a section read in one step stands
    as its header's first token, and the section itself is kept by that
    token's index.

    The text splits between whitespace and a header, and no token spans
    whitespace, so the pieces' tokens are the whole text's.  The token loop
    reads nothing after an End header, so the tokens stop there.  A header
    after "<=" would be a bound's name in the token loop, so its section is
    left to it."""
    tokens: List[str] = []
    sections: Dict[int, _Section] = {}
    cuts = [0, *(m.start() for m in _HEADER_RE.finditer(text)), len(text)]
    for k, (start, end) in enumerate(zip(cuts, cuts[1:])):
        piece = text[start:end]
        if k and tokens[-1:] != ["<="]:  # the first piece has no header
            if piece.startswith("\nEnd\n"):
                tokens.append("End")  # where the token loop stops reading
                break
            part = _read_section(piece)
            if part is not None:
                part.span = (start, end)
                sections[len(tokens)] = part
                tokens.append(piece.split(None, 1)[0])
                continue
        if piece and not piece.isspace():
            tokens += re.findall(_TOKEN, piece)
    return tokens, sections


def parse_lp(text: str) -> LpProblem:
    text = _COMMENT_RE.sub("", text)
    tokens, sections = _tokens(text)
    if not tokens:
        raise LpParseError("empty LP file")
    n = len(tokens)
    kinds = _Kinds()
    seen: Dict[str, None] = {}  # the variables, in order of first use

    def touch(name: str) -> None:
        seen[name] = None

    i = 0
    section = None
    sense = "min"
    objective: Dict[str, float] = {}
    constant = 0.0
    rows: List[Tuple[Dict[str, float], str, float]] = []
    lower: Dict[str, float] = {}
    upper: Dict[str, float] = {}
    integer: Dict[str, bool] = {}

    def position(i: int) -> int:
        """The place of tokens[i] among the tokens of the whole text."""
        return i + sum(len(re.findall(_TOKEN, text[slice(*part.span)])) - 1
                       for at, part in sections.items() if at < i)

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
                seen[tok] = None
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
        part = sections.get(i)
        if part is not None:
            seen.update(part.names)
            if part.opens in ("objective-max", "objective-min"):
                sense = "max" if part.opens == "objective-max" else "min"
                objective, constant = part.objective, 0.0
            else:
                section = part.opens
            rows += part.rows
            lower.update(part.lower)
            upper.update(part.upper)
            if part.opens == "binaries":
                for name in part.names:
                    integer[name] = True
                    lower.setdefault(name, 0.0)
                    upper.setdefault(name, 1.0)
            i += 1
            continue
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
                    f"constraint without relational operator near token "
                    f"{position(i)}"
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
        variables=list(seen),
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
    index = dict(zip(names, count()))
    # Each cost is 0.0 plus the objective's coefficient, as a sum from 0.0.
    c = list(map((0.0).__add__, map(prob.objective.get, names, repeat(0.0))))
    if prob.sense == "max":
        c = list(map(float.__neg__, c))
    coeffs = list(map(itemgetter(0), prob.rows))
    relations = list(map(itemgetter(1), prob.rows))
    rhs = list(map(itemgetter(2), prob.rows))

    status, fun, x = run_highs(
        c,
        list(chain.from_iterable(map(dict.values, coeffs))),
        list(map(index.__getitem__, chain.from_iterable(coeffs))),
        [0, *accumulate(map(len, coeffs))],
        list(map({"<=": -_INF}.get, relations, rhs)),
        list(map({">=": _INF}.get, relations, rhs)),
        list(map(prob.lower.get, names, repeat(0.0))),
        list(map(prob.upper.get, names, repeat(_INF))),
        [1 if prob.integer.get(m) else 0 for m in names],
    )
    if status != "optimal":
        return status, None, {}
    sign = -1.0 if prob.sense == "max" else 1.0
    return status, sign * fun + prob.constant, dict(zip(names, x))


# The options scipy's ``milp`` sets; HiGHS's answers move with its options.
HIGHS_OPTIONS = {"log_to_console": False, "mip_rel_gap": 0.0}


def _extension(name: str):
    """The scipy extension module ``name``, loaded from its file.

    The module is registered under its own name, so a later import of its
    package reuses it.  Without the file (another scipy layout) it is
    imported the normal way, which runs its package's ``__init__``.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    stem = os.path.join(scipy_dir, *name.split(".")[1:])
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


def run_highs(c, data, indices, indptr, row_lower, row_upper, col_lower,
              col_upper, integrality):
    """Minimise ``c @ x`` subject to ``row_lower <= A @ x <= row_upper`` and
    ``col_lower <= x <= col_upper``, with ``x[j]`` integer where
    ``integrality[j]`` is 1 and ``A`` given row-wise by ``data``,
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
    lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
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
        with open(args.lp_file) as lp_file:
            text = lp_file.read()
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
