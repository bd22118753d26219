"""Every public function, class and method of the package has a reader, and
every annotation in it resolves.

A name defined in ``src/limid`` must be read by code somewhere in ``src``,
``demos`` or ``perfbench``: as a bare name, as an attribute or through an
import.  Strings and comments do not count, nor do tests: a name only tests
read is surface nobody uses.
"""

import ast
import importlib
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "limid"
READERS = ("src", "demos", "perfbench")


def public_definitions():
    """(module, class or None, node) of each public module-level function
    and class and of each public method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield path.stem, None, node
            if isinstance(node, ast.ClassDef):
                for d in node.body:
                    if (isinstance(d, ast.FunctionDef)
                            and not d.name.startswith("_")):
                        yield path.stem, node.name, d


def read_names():
    """Every name code in ``READERS`` reads: ``ast.Name`` ids,
    ``ast.Attribute`` attrs and imported names."""
    names = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_name_has_a_reader():
    names = read_names()
    unread = [f"{module}.{node.name}"
              for module, _, node in public_definitions()
              if node.name not in names]
    assert unread == []


def test_every_public_annotation_resolves():
    unresolved = []
    for module, owner, node in public_definitions():
        obj = importlib.import_module(f"limid.{module}")
        if owner is not None:
            obj = vars(getattr(obj, owner))[node.name]
            obj = getattr(obj, "fget", getattr(obj, "__func__", obj))
        else:
            obj = getattr(obj, node.name)
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{module}.{node.name}: {exc}")
    assert unresolved == []
