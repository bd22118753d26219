"""``export_lp`` against texts frozen from the bulk writer it replaced.

``data/lp_text_golden.json`` holds the sha256 of the LP text of 300 seeded
synthetic models, built straight on ``VarStore`` and ``RowStore``: variable
heads of 1 to 260 characters (so some label lines are bare and some
continuation lines hold one term wider than the line), rows without terms,
signed zeros, ``1e-17`` and ``3e300`` among the coefficients and right-hand
sides, all-zero objectives, and indexed row blocks long enough for tags
past 1000, some with dropped rows.  Running this file as a script rewrites
the data with the installed ``limid``.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from limid.mip import BINARY, FREE, UNIT, MipModel
from limid.solve import LP_LINE_WIDTH, export_lp

GOLDEN = Path(__file__).parent / "data" / "lp_text_golden.json"
SEED = 34
N_MODELS = 300

_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_."
_REST = _FIRST + "0123456789"
# coefficients and right-hand sides drawn besides uniform ones
POOL = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-17, -1e-17, 3e300, -3e300,
        1 / 3, -0.1, 123456.789, 7.0)


def _head(rng, long: bool) -> str:
    n = int(rng.integers(150, 261) if long else rng.integers(1, 13))
    return (_FIRST[int(rng.integers(len(_FIRST)))]
            + "".join(_REST[i] for i in rng.integers(len(_REST), size=n - 1)))


def _values(rng, n: int) -> np.ndarray:
    values = rng.choice(np.array(POOL), size=n)
    uniform = rng.random(n) < 0.4
    values[uniform] = np.round(rng.uniform(-50, 50, uniform.sum()), int(rng.integers(0, 6)))
    return values


def golden_model(rng) -> MipModel:
    model = MipModel()
    for b in range(int(rng.integers(1, 5))):
        shape = [(), (int(rng.integers(1, 30)),),
                 (int(rng.integers(1, 5)), int(rng.integers(1, 6)))][int(rng.integers(3))]
        if b and rng.random() < 0.1:
            shape = (0,)
        labels = None
        if len(shape) == 1 and rng.random() < 0.3:
            labels = np.sort(rng.choice(4 * shape[0] + 1, size=shape[0], replace=False))
        model.variables.add(_head(rng, rng.random() < 0.1), shape,
                            (UNIT, BINARY, FREE)[int(rng.integers(3))], labels)
    n_vars = len(model.variables)
    model.objective = np.zeros(n_vars)
    if rng.random() > 0.15:
        some = rng.random(n_vars) < rng.random()
        model.objective[some] = _values(rng, int(some.sum()))
    for b in range(int(rng.integers(0, 6))):
        n = int(rng.integers(100, 1200) if rng.random() < 0.08 else rng.integers(0, 20))
        wide = rng.random() < 0.5
        counts = rng.integers(0, 40 if wide else 4, size=n)
        counts[rng.random(n) < 0.15] = 0
        total = int(counts.sum())
        sense = rng.integers(3, size=n) if rng.random() < 0.7 else int(rng.integers(3))
        rhs = _values(rng, n) if rng.random() < 0.7 else float(rng.choice(np.array(POOL)))
        heads = [f"fam{b}[{_head(rng, False)},"
                 for _ in range(int(rng.integers(1, 4)))]
        indexed = rng.random() < 0.8
        places = None
        if indexed and rng.random() < 0.3:
            places = np.sort(rng.choice(2 * n + 3, size=n, replace=False))
        model.rows.append(counts, rng.integers(n_vars, size=total), _values(rng, total),
                          sense, rhs, heads if indexed else heads[:1], indexed, places)
    return model


def golden_models():
    rng = np.random.default_rng(SEED)
    for _ in range(N_MODELS):
        yield golden_model(rng)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def freeze() -> None:
    GOLDEN.write_text(json.dumps([digest(export_lp(m)) for m in golden_models()],
                                 indent=0) + "\n")


def test_texts_equal_the_frozen_texts():
    want = json.loads(GOLDEN.read_text())
    got = [digest(export_lp(m)) for m in golden_models()]
    assert len(want) == N_MODELS
    assert [i for i in range(N_MODELS) if got[i] != want[i]] == []


def test_corpus_reaches_every_wrap_case():
    lines = [line for m in golden_models() for line in export_lp(m).splitlines()]
    label = re.compile(r" (obj|c\d+):")
    # a label alone on its line: its first term did not fit beside it
    assert any(label.fullmatch(line) for line in lines)
    # a continuation line holding one term wider than the line
    assert any(len(line) > LP_LINE_WIDTH and not label.match(line)
               and line.startswith(" ") and line.count(" ") == 3 for line in lines)
    # a line of exactly the width, and a term that wrapped after it
    assert any(len(line) == LP_LINE_WIDTH and after[:2] in (" +", " -")
               for line, after in zip(lines, lines[1:]))
    # a row without terms
    assert any(re.fullmatch(r" c\d+: (=|<=|>=) \S+", line) for line in lines)
    assert any(line.startswith(" obj: 0.0 ") for line in lines)
    text = "\n".join(lines)
    for token in ("+ 0.0 ", "+ -0.0 ", "= -0.0\n", "= 0.0\n", "1e-17", "3e+300"):
        assert token in text
    assert re.search(r"\\ fam\d\[[^\]]*,1\d{3}\]", text)


if __name__ == "__main__":
    sys.exit(freeze())
