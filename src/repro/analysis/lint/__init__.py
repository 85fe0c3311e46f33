"""`repro lint` — AST-based reproducibility invariant checker.

The simulator's headline guarantees (seeded resumable fault campaigns,
atomic artifact persistence, datasheet-style SI parameterization,
tolerance-aware float testing, a single error taxonomy) rest on coding
conventions the interpreter never enforces.  This subpackage makes them
machine-checked: a small registry of single-module AST rules
(:mod:`.rules`), a file walker with exemption comments (:mod:`.runner`,
:mod:`.config`), and a ``repro lint`` CLI subcommand wired into CI.

Rules shipped (see ``docs/static_analysis.md`` for the catalogue):

========  ==============================================================
RNG001    no legacy ``np.random.*`` global-API draws; ``default_rng``
          must receive an explicit seed
IO001     persistence outside ``repro/store/`` must go through the
          :class:`~repro.store.ArtifactStore` / atomic helpers
UNIT001   physical constants use ``repro.units`` prefix constants, not
          bare ``100e-9``-style literals
TEST001   no ``==``/``!=`` against float expressions in tests
TEL001    clock reads go through ``repro.telemetry.clock``
ERR001    ``raise`` in library code uses the :mod:`repro.errors`
          taxonomy, not bare builtins
OBS001    logging goes through ``repro.telemetry.logging``
ASYNC001  no blocking call (``time.sleep``, subprocess, lock waits, sync
          sockets) in an ``async def`` or a same-module helper it calls
EXC002    broad ``except`` that swallows without re-raising, wrapping,
          failing a waiter, or storing the exception
========  ==============================================================
"""

from __future__ import annotations

from .config import filter_exempt, parse_exemptions
from .findings import Finding
from .rules import RULES, Rule, check_source, get_rule
from .runner import (
    LintReport,
    ModuleSource,
    lint_paths,
    render_json,
    render_sarif,
    render_text,
    run_lint,
)

__all__ = [
    "Finding",
    "LintReport",
    "ModuleSource",
    "RULES",
    "Rule",
    "check_source",
    "filter_exempt",
    "get_rule",
    "lint_paths",
    "parse_exemptions",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]
