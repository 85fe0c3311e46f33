"""Every top-level public name in ``src/repro`` has a caller beyond tests.

A fixpoint over names, read with ``ast``:

* Roots are the identifiers named by ``benchmarks/``, ``examples/`` and
  the CI workflow, plus every identifier in module-level code of
  ``src/repro`` (imports, ``__all__`` and docstrings do not count).
* A top-level ``def`` or ``class`` whose name is live makes every
  identifier in its own body live too: decorators, signature and string
  annotations included.

A public name that stays dead is reachable only from ``tests/``: delete
it, or keep it here as a test oracle with the reason it stays.  Classes
registered through ``@register`` are reached by their registry and are
exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUTSIDE = [ROOT / "benchmarks", ROOT / "examples",
           ROOT / ".github" / "workflows" / "ci.yml"]

# Public names kept only because tests compare against them.
_ORACLES = {
    "linear_mac_output": "the paper's Eq. 6 MAC identity that the exact "
                         "datapath is checked against",
    "check_source": "lints one source string; the rule tests drive every "
                    "rule through it",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _annotations(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _identifiers(node: ast.AST) -> set[str]:
    """Names and attribute names used under ``node``, string annotations too."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        for ann in _annotations(sub):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                found |= _identifiers(ast.parse(ann.value, mode="eval"))
    return found


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _is_dunder_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _is_registered(node: ast.stmt) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "register":
            return True
    return False


def scan(src: Path = SRC, outside: list[Path] = OUTSIDE) -> dict[str, list[str]]:
    """Map each dead public top-level name to the modules defining it."""
    live: set[str] = set(_ORACLES)
    for path in outside:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            live |= set(_IDENT.findall(file.read_text(encoding="utf-8")))

    bodies: dict[str, set[str]] = {}
    public: dict[str, list[str]] = {}
    for file in sorted(src.rglob("*.py")):
        module = file.relative_to(src.parent).with_suffix("").as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        for stmt in tree.body:
            if isinstance(stmt, _DEFS):
                bodies.setdefault(stmt.name, set()).update(
                    _identifiers(stmt) - {stmt.name})
                if not stmt.name.startswith("_"):
                    public.setdefault(stmt.name, []).append(module)
                if isinstance(stmt, ast.ClassDef) and _is_registered(stmt):
                    live.add(stmt.name)
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom))
                      or _is_docstring(stmt) or _is_dunder_all(stmt)):
                live |= _identifiers(stmt)

    frontier = list(live)
    while frontier:
        for name in bodies.pop(frontier.pop(), ()):
            if name not in live:
                live.add(name)
                frontier.append(name)
    return {name: modules for name, modules in sorted(public.items())
            if name not in live}


def test_every_public_name_has_a_caller_outside_tests():
    dead = scan()
    assert not dead, (
        "public names reachable only from tests (delete them, or list a "
        "test oracle in _ORACLES): "
        + ", ".join(f"{m}.{n}" for n, mods in dead.items() for m in mods))


def test_oracles_are_still_defined():
    defined = set()
    for file in SRC.rglob("*.py"):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        defined |= {s.name for s in tree.body if isinstance(s, _DEFS)}
    assert set(_ORACLES) <= defined


def test_scan_follows_callers_to_a_fixpoint(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        '"""Mentions dead_leaf only in prose."""\n'
        "from .mod import dead_leaf, dead_root, used\n"
        "__all__ = ['dead_leaf', 'dead_root', 'used']\n")
    (pkg / "mod.py").write_text(
        "def dead_leaf():\n    return 1\n\n"
        "def dead_root():\n    return dead_leaf() + dead_root()\n\n"
        "def used(x: 'Hinted | None' = None):\n    return _helper()\n\n"
        "def _helper():\n    return Reached()\n\n"
        "class Reached:\n    pass\n\n"
        "class Hinted:\n    pass\n\n"
        "@register\nclass Rule:\n    pass\n")
    caller = tmp_path / "bench.py"
    caller.write_text("from pkg.mod import used\nused()\n")
    assert scan(pkg, [caller]) == {"dead_leaf": ["pkg/mod"],
                                   "dead_root": ["pkg/mod"]}
