"""Every script under ``demos/`` runs to the end without an error."""

from pathlib import Path

import pytest

from test_cli import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script, tmp_path):
    proc = run_python(script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
