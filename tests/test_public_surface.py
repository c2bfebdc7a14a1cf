"""Every top-level function and class of ``replyrank``, public or private, has a caller.

A name counts as used when some module of ``src/``, ``scripts/`` or
``perfbench/`` reads it (a name, an attribute, an import, or a string equal
to the name, which is how the benchmark tracer looks functions up).  Its own
definition and the re-exports in ``replyrank/__init__.py`` do not count, so
API that only the tests call is reported, and so is a ``_helper`` that a
refactor left uncalled.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "replyrank"
CALLER_DIRS = ("src", "scripts", "perfbench")


def top_level_definitions(package: Path) -> dict[str, str]:
    """Top-level function and class names -> defining module file name."""
    defined = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    return defined


def referenced_names(root: Path) -> set[str]:
    names = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path == root / "src" / "replyrank" / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def unused_names(root: Path = ROOT) -> list[str]:
    referenced = referenced_names(root)
    return sorted(
        "%s:%s" % (module, name)
        for name, module in top_level_definitions(root / "src" / "replyrank").items()
        if name not in referenced
    )


def test_every_public_name_has_a_caller_outside_tests():
    assert unused_names() == []


def test_scan_reports_an_uncalled_function(tmp_path):
    package = tmp_path / "src" / "replyrank"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .mod import used, unused\n")
    (package / "mod.py").write_text(
        "def used():\n    return _live()\n\n\n"
        "def _live():\n    return 1\n\n\n"
        "def _dead():\n    return _live()\n\n\n"
        "def unused():\n    return unused_helper()\n\n\n"
        "def unused_helper():\n    return used()\n\n\n"
        "class Traced:\n    pass\n"
    )
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "trace.py").write_text('BOUNDARIES = [("replyrank.mod", "Traced")]\n')
    assert unused_names(tmp_path) == ["mod.py:_dead", "mod.py:unused"]
