"""Every public function, class and method of the package has a reader.

A name defined in ``src/limid`` must appear as a word somewhere in
``src``, ``demos`` or ``perfbench`` other than on a line that defines it.
Tests do not count: a name only tests read is surface nobody uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "limid"
READERS = ("src", "demos", "perfbench")


def public_definitions():
    """(module, name) of each public module-level function and class and of
    each public method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += node.body
            for d in defs:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and not d.name.startswith("_")):
                    yield path.stem, d.name


def test_every_public_name_has_a_reader():
    lines = [line for top in READERS for path in sorted((ROOT / top).rglob("*.py"))
             for line in path.read_text().splitlines()]
    unread = []
    for module, name in public_definitions():
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(?:def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(f"{module}.{name}")
    assert unread == []
