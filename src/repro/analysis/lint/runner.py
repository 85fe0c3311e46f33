"""File discovery, rule dispatch and report rendering.

The runner walks ``src/`` and ``tests/`` (or any explicit path list),
parses every module **once** (source, AST and import map, see
:class:`~.rules.ModuleSource`), classifies each as library or test
code, and applies every registered rule whose scope matches.  Findings
covered by a ``# lint: exempt RULE <reason>`` comment (see
:mod:`.config`) are dropped and counted.  There is no baseline: the
shipped tree lints clean (see ``tests/analysis/test_lint_selfhost.py``),
so every finding is a regression.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...errors import ConfigurationError
from .config import filter_exempt
from .findings import Finding
from .rules import RULES, ModuleSource, Rule, get_rule
from .sarif import render_sarif

__all__ = [
    "LintReport",
    "ModuleSource",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]

#: directories never descended into
_SKIP_DIRS = {".git", ".cache", "__pycache__", ".ruff_cache", ".mypy_cache",
              ".pytest_cache", "node_modules", ".venv", "venv"}


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run.

    Attributes
    ----------
    findings:
        Unexempted findings, sorted by (path, line, rule).
    exempted:
        How many findings ``# lint: exempt`` comments filtered out.
    files:
        Number of files checked.
    errors:
        Files that could not be parsed, with the reason.
    """

    findings: List[Finding]
    exempted: int = 0
    files: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1


def classify_scope(rel_path: str) -> str:
    """``"tests"`` for test modules, ``"src"`` for everything else."""
    parts = rel_path.replace(os.sep, "/").split("/")
    if "tests" in parts or parts[-1].startswith("test_"):
        return "tests"
    return "src"


def _iter_python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        if path.endswith(".py"):
            yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse_modules(
    paths: Sequence[str], root: str
) -> Tuple[List[ModuleSource], List[str], int]:
    """Parse every Python file once: (modules, errors, file count)."""
    modules: List[ModuleSource] = []
    errors: List[str] = []
    files = 0
    for path in paths:
        if not os.path.exists(path):
            raise ConfigurationError(f"lint path does not exist: {path!r}")
        for filename in _iter_python_files(path):
            files += 1
            rel = os.path.relpath(os.path.abspath(filename),
                                  os.path.abspath(root))
            rel = rel.replace(os.sep, "/")
            with open(filename, "r", encoding="utf-8") as fh:
                text = fh.read()
            try:
                modules.append(
                    ModuleSource.parse(text, rel, classify_scope(rel))
                )
            except SyntaxError as exc:
                errors.append(f"{filename}: syntax error: {exc}")
    return modules, errors, files


def _check_modules(
    modules: Sequence[ModuleSource],
    rules: Sequence[Rule],
) -> Tuple[List[Finding], int]:
    """Apply ``rules`` to parsed ``modules``: (findings, exempted)."""
    findings: List[Finding] = []
    exempted = 0
    for module in modules:
        per_module = [
            finding
            for rule in rules if rule.applies_to(module)
            for finding in rule.check(module)
        ]
        kept, dropped = filter_exempt(per_module, module.text)
        findings.extend(kept)
        exempted += dropped
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, exempted


def lint_file(
    path: str,
    root: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run all (or the given) rules over one file."""
    modules, errors, _files = _parse_modules([path], root)
    if errors:
        raise SyntaxError(errors[0])
    selected = list(rules if rules is not None else RULES.values())
    findings, _exempted = _check_modules(modules, selected)
    return findings


def lint_paths(
    paths: Sequence[str],
    root: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``."""
    root = root if root is not None else os.getcwd()
    modules, errors, files = _parse_modules(paths, root)
    selected = list(rules if rules is not None else RULES.values())
    findings, exempted = _check_modules(modules, selected)
    return LintReport(findings=findings, files=files, errors=errors,
                      exempted=exempted)


def run_lint(
    paths: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """The full pipeline: discover and check.

    Parameters
    ----------
    paths:
        Files/directories to lint (default: ``src`` and ``tests`` under
        ``root`` when they exist).
    root:
        Repo root for relative paths (default: cwd).
    rules:
        Optional rule-id subset (default: all registered rules).
    """
    root = os.path.abspath(root if root is not None else os.getcwd())
    if paths is None:
        paths = [p for p in (os.path.join(root, "src"),
                             os.path.join(root, "tests"))
                 if os.path.isdir(p)]
        if not paths:
            raise ConfigurationError(
                f"no src/ or tests/ under {root!r}; pass explicit paths"
            )
    selected = (None if rules is None
                else [get_rule(rule_id) for rule_id in rules])
    return lint_paths(paths, root=root, rules=selected)


def render_text(report: LintReport) -> str:
    """Human-readable report (one finding per line + summary)."""
    lines = [f.render() for f in report.findings]
    lines.extend(f"error: {e}" for e in report.errors)
    by_rule: Dict[str, int] = {}
    for f in report.findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(by_rule.items()))
    lines.append(
        f"checked {report.files} file(s): "
        + (f"{len(report.findings)} finding(s) ({summary})"
           if report.findings else "clean")
        + (f", {report.exempted} exempted" if report.exempted else "")
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report for the CI gate."""
    return json.dumps({
        "findings": [f.to_json() for f in report.findings],
        "errors": report.errors,
        "files": report.files,
        "exempted": report.exempted,
        "clean": report.clean,
    }, indent=2, sort_keys=True) + "\n"
