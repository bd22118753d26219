"""The LP text the external bridge exchanges: ``parse_lp`` against results
frozen from the token-at-a-time reader, and ``parse_lp(export_lp(model))``
against the model it was written from.

``data/lp_parse_golden.json`` holds 300 seeded LP-like texts, each with what
``parse_lp`` returned for it (floats as ``float.hex``) or the type and message
of what it raised.  The texts are exported models, whole or with characters,
lines, headers, names and coefficients changed; sections written in the
exported layout with repeated names, zero coefficients and names the bounds
forms read otherwise; token soup; and expressions with fused tokens
(``2x+3y>=4``), signs, constants and labels.  Between them they use every
section word.  Running this file as a script rewrites the data with the
installed ``limid``.
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from limid.diagram import NodeKind
from limid.generators import PigFarmSpec, gen_pigfarm
from limid.milp_backend import parse_lp
from limid.mip import BINARY, FREE, SENSES, UNIT, add_risk, build_base_model
from limid.risk import (
    BudgetConstraint,
    CvarObjective,
    parse_chance_text,
    parse_logical_text,
)
from limid.rjt import build_rjt, modify_rjt
from limid.solve import export_lp
from limid.transform import merge_value_nodes

from helpers import random_diagram

GOLDEN = Path(__file__).parent / "data" / "lp_parse_golden.json"
SEED = 2029
N_TEXTS = 300

SECTION_WORDS = [
    "maximize", "maximise", "max", "minimize", "minimise", "min", "subject",
    "st", "s.t.", "bounds", "bound", "binaries", "binary", "bin", "general",
    "generals", "gen", "end", "Maximize", "Subject To", "Bounds", "Binaries",
    "General", "End", "to",
]
PIECES = ["", " ", "\n", ":", "+", "-", "=", "<", ">", "<=", ">=", "==",
          "=<", "0", "1", ".", "e", "E", "x", "2x", "1e-3", "-1.0", "free",
          "inf", "Infinity", "\\ c", "c9:", "obj:", "mu_A_0", *SECTION_WORDS]


def random_model(rng: np.random.Generator):
    """A small model with chance, logical and budget rows, or a merged one
    with a CVaR block."""
    while True:
        d = random_diagram(rng, min_nodes=3, max_nodes=5, max_states=2,
                           require_value=True)
        chance = [n for n in d.nodes if n.kind == NodeKind.CHANCE]
        decisions = [n for n in d.nodes if n.kind == NodeKind.DECISION]
        if chance and decisions:
            break
    if rng.random() < 0.3:
        merged, _ = merge_value_nodes(d)
        model, ctx = build_base_model(build_rjt(merged), merged)
        add_risk(model, CvarObjective(alpha=float(rng.choice([0.05, 0.5]))), ctx)
        return model
    c, dn = chance[-1], decisions[0]
    order = [n.name for n in d.nodes]
    model, ctx = build_base_model(
        modify_rjt(build_rjt(d), sorted({c.name, dn.name}, key=order.index)), d)
    for spec in (
        parse_chance_text(f"P({c.name}={c.states[0]})<={rng.uniform(0.2, 0.9):.3f}"),
        parse_logical_text(f"P({dn.name}={dn.states[-1]}&{c.name}={c.states[-1]})"),
        BudgetConstraint(costs={dn.name: {dn.states[0]: 1.0}},
                         limit=float(rng.integers(0, 3))),
    ):
        add_risk(model, spec, ctx)
    return model


def window(r: random.Random, text: str) -> str:
    """Exported text cut to a few rows, bounds and binaries of each section,
    in their layout."""
    lines = text.split("\n")
    cuts = [lines.index(h) for h in ("Subject To", "Bounds")] + [len(lines) - 2]
    if "Binaries" in lines:
        cuts.insert(2, lines.index("Binaries"))
    out = lines[:cuts[0] + 1]
    for start, stop, step in zip(cuts, cuts[1:], (2, 1, 1)):
        first = r.randrange(start + 1, max(start + 2, stop - 6 * step), step)
        out += lines[first:min(stop, first + 6 * step)] + [lines[stop]]
    return "\n".join(out + [""])


def mutate_chars(r: random.Random, text: str) -> str:
    for _ in range(r.randint(1, 4)):
        at = r.randrange(len(text) + 1)
        cut = r.choice([0, 0, 1, 2])
        text = text[:at] + r.choice(PIECES) + text[at + cut:]
    return text


def edit_lines(r: random.Random, text: str) -> str:
    lines = text.split("\n")
    for _ in range(r.randint(1, 3)):
        k = r.randrange(len(lines))
        move = r.randrange(6)
        if move == 0:  # shuffle a window
            window = lines[k:k + r.randint(2, 6)]
            r.shuffle(window)
            lines[k:k + len(window)] = window
        elif move == 1:
            del lines[k]
        elif move == 2:
            lines.insert(k, lines[r.randrange(len(lines))])
        elif move == 3:  # another header, or a "<=" before one
            headers = [i for i, line in enumerate(lines)
                       if line in ("Maximize", "Subject To", "Bounds", "Binaries")]
            if headers:
                at = r.choice(headers)
                lines[at] = r.choice([r.choice(SECTION_WORDS), " 0 <=\n" + lines[at]])
        elif move == 4:  # a name the token loop reads otherwise
            names = sorted({w for w in " ".join(lines).split()
                            if w[:1].isalpha() and w.count("_") >= 2})
            if names:
                old = r.choice(names)
                new = r.choice(["end", "Max", "st", "inf", "free", "x+y", "2x", "s.t."])
                lines = [" ".join(new if w == old else w for w in line.split(" "))
                         for line in lines]
        else:  # a coefficient or right-hand side
            words = lines[k].split(" ")
            numeric = [i for i, w in enumerate(words) if w[:1].isdigit()]
            if numeric:
                words[r.choice(numeric)] = r.choice(
                    ["0.0", "-0.0", "1e999", "+1", ".5", "1.", "2e-3", "x"])
                lines[k] = " ".join(words)
    return "\n".join(lines)


def section_text(r: random.Random) -> str:
    """Sections in the exported layout, with repeated names, zero and
    signed coefficients, empty rows and both bounds forms."""
    names = [f"v{i}" for i in range(r.randint(1, 5))]

    def terms(k):
        out = []
        for j in range(k):
            sign = r.choice(["+", "-"])
            coef = r.choice(["1.0", "0.5", "0.0", "2", "1e-05", "3.25"])
            if j == 0 and sign == "+" and r.random() < 0.8:
                out.append(f"{coef} {r.choice(names)}")
            else:
                out.append(f"{sign} {coef} {r.choice(names)}")
        return " ".join(out)

    lines = [r.choice(["Maximize", "Minimize"]), f" obj: {terms(r.randint(0, 4))}",
             "Subject To"]
    for i in range(r.randint(0, 4)):
        rhs = r.choice(["0.0", "1.0", "-1.0", "-0.0", "2.5"])
        lines += [f"\\ row {i}", f" c{i + 1}: {terms(r.randint(0, 4))} "
                  f"{r.choice(['=', '<=', '>='])} {rhs}".replace(":  ", ": ")]
    lines.append("Bounds")
    for name in names:
        lines.append(r.choice([f" 0 <= {name} <= 1", f" {name} free"]))
    if r.random() < 0.5:
        lines += ["Binaries", f" {r.choice(names)}"]
    lines.append("End")
    text = "\n".join(lines) + "\n"
    return mutate_chars(r, text) if r.random() < 0.3 else text


def token_soup(r: random.Random) -> str:
    vocab = PIECES + ["x", "y", "z1", "3", "4.5", "-", "+", "<=", "c1:", "obj"]
    return "".join(r.choice(vocab) + r.choice(["", " ", " ", "\n", "\t"])
                   for _ in range(r.randint(1, 30)))


def fused(r: random.Random) -> str:
    def expr():
        parts = [f"{r.choice(['', '-', '+'])}{r.choice(['', '2', '3.5', '1e2'])}"
                 f"{r.choice(['x', 'y', 'z'])}" for _ in range(r.randint(1, 3))]
        tail = r.choice(["", "+4", "-1", " + 2.5"])
        return r.choice(["+", "-"]).join(parts) + tail

    rows = "\n".join(f"{r.choice(['', 'c1:', 'r:', 'c2 :'])} {expr()}"
                     f"{r.choice(['>=', '<=', '=', '=<', ''])}{r.choice(['4', '-2', ''])}"
                     for _ in range(r.randint(1, 3)))
    return (f"{r.choice(['Minimize', 'Maximize', 'max', 'MIN'])} "
            f"{r.choice(['obj:', ''])} {expr()}\n"
            f"{r.choice(['Subject To', 'st', 's.t.', 'such that'])} {rows}\n"
            f"{r.choice(['Bounds x <= 3', 'bound -inf <= y <= 2', 'General z', ''])}\n"
            f"{r.choice(['End', 'end', ''])}")


def texts(seed: int, n: int):
    """``n`` seeded LP-like texts."""
    rng = np.random.default_rng(seed)
    r = random.Random(seed)
    makers = ["export", "chars", "lines", "sections", "soup", "fused"]
    for k in range(n):
        kind = makers[k % len(makers)]
        if kind in ("export", "chars", "lines"):
            text = window(r, export_lp(random_model(rng)))
            if kind == "chars":
                text = mutate_chars(r, text)
            elif kind == "lines":
                text = edit_lines(r, text)
        elif kind == "sections":
            text = section_text(r)
        elif kind == "soup":
            text = token_soup(r)
        else:
            text = fused(r)
        yield text


def frozen(text: str):
    """What ``parse_lp`` makes of ``text``, with every float as its hex."""
    try:
        p = parse_lp(text)
    except Exception as exc:  # the type and message are part of the result
        return {"error": [type(exc).__name__, str(exc)]}

    def pairs(d):
        return [[k, v.hex() if isinstance(v, float) else v] for k, v in d.items()]

    return {"sense": p.sense, "variables": p.variables,
            "objective": pairs(p.objective), "constant": p.constant.hex(),
            "rows": [[pairs(c), rel, rhs.hex()] for c, rel, rhs in p.rows],
            "lower": pairs(p.lower), "upper": pairs(p.upper),
            "integer": pairs(p.integer)}


def freeze():
    GOLDEN.write_text(json.dumps(
        [{"text": t, "parsed": frozen(t)} for t in texts(SEED, N_TEXTS)],
        separators=(",", ":")) + "\n")


def test_parse_reproduces_frozen_results():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == N_TEXTS
    for k, case in enumerate(cases):
        assert frozen(case["text"]) == case["parsed"], k
    # the data reaches both the answers and the errors of the reader
    errors = sum("error" in case["parsed"] for case in cases)
    assert 50 < errors < 250


def round_trip_models():
    rng = np.random.default_rng(17)
    for k in range(30):
        yield f"random{k}", random_model(rng)
    merged, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=3)))
    model, ctx = build_base_model(build_rjt(merged), merged)
    add_risk(model, CvarObjective(alpha=0.15), ctx)
    yield "pigfarm3-merged-cvar", model


@pytest.mark.parametrize("name, model", list(round_trip_models()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_export_then_parse_gives_the_model(name, model):
    p = parse_lp(export_lp(model))
    names = model.variables.names()

    def hexed(d):
        return {k: v.hex() for k, v in d.items()}

    def summed(terms):  # each name's coefficients added from 0.0, in order
        out = {}
        for coef, var in terms:
            out[names[var]] = out.get(names[var], 0.0) + float(coef)
        return hexed(out)

    assert p.sense == "max" and p.constant == 0.0
    assert sorted(p.variables) == sorted(names)
    hit = np.flatnonzero(model.objective)
    assert hexed(p.objective) == summed(zip(model.objective[hit], hit))
    rows = model.rows
    assert len(p.rows) == len(rows)
    for i, (coeffs, rel, rhs) in enumerate(p.rows):
        span = slice(rows.indptr[i], rows.indptr[i + 1])
        assert hexed(coeffs) == summed(zip(rows.data[span], rows.indices[span]))
        assert rel == SENSES[rows.sense[i]].replace("==", "=")
        assert rhs.hex() == float(rows.rhs[i]).hex()
    kinds = model.variables.kinds
    lower = {UNIT: 0.0, BINARY: 0.0, FREE: -np.inf}
    upper = {UNIT: 1.0, BINARY: 1.0, FREE: np.inf}
    assert hexed(p.lower) == {n: lower[k].hex() for n, k in zip(names, kinds)}
    assert hexed(p.upper) == {n: upper[k].hex() for n, k in zip(names, kinds)}
    assert p.integer == {n: True for n, k in zip(names, kinds) if k == BINARY}


if __name__ == "__main__":
    sys.exit(freeze())
