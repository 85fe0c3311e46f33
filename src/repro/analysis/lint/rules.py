"""Lint rule registry and the shipped invariant checks.

Each rule is a singleton with an ``id``, a short ``title``, a
``rationale`` (why the invariant matters for reproduction fidelity),
the ``scopes`` it applies to (``"src"`` library code, ``"tests"`` test
code) and a ``check`` method yielding :class:`~.findings.Finding`
records for one parsed module.  Every rule sees one module at a time:
what a rule cannot decide from a single file's AST, it does not flag.

Rules only need the stdlib :mod:`ast`; no third-party analysis
framework is involved, so the checker runs anywhere the library runs.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .findings import Finding

__all__ = [
    "ModuleSource",
    "Rule",
    "RULES",
    "check_source",
    "get_rule",
    "import_map",
    "module_name_for_path",
    "register",
]


def module_name_for_path(path: str) -> str:
    """Dotted module name for a repo-relative POSIX path.

    ``src/repro/serving/batcher.py`` -> ``repro.serving.batcher``;
    ``tests/analysis/test_lint_cli.py`` -> ``tests.analysis.test_lint_cli``;
    package ``__init__`` files name the package itself.
    """
    parts = path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


#: nodes that hold statements; expressions never contain a statement
#: (``match_case`` is Python 3.10+)
_BLOCKS = (ast.stmt, ast.excepthandler, getattr(ast, "match_case", ast.stmt))


def _statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Every statement under ``node``, nested bodies included, without
    descending into expressions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _BLOCKS):
            if isinstance(child, ast.stmt):
                yield child
            yield from _statements(child)


def import_map(tree: ast.Module, package: str) -> Dict[str, str]:
    """Map local names to the dotted module/object they were bound from.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy import random as R`` -> ``{"R": "numpy.random"}``;
    ``from ..errors import X`` inside ``repro.serving.batcher`` ->
    ``{"X": "repro.errors.X"}`` (relative imports resolve against the
    module's ``package``, here ``repro.serving``).
    """
    mapping: Dict[str, str] = {}
    package_parts = package.split(".") if package else []
    for node in _statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # `.` is the package itself, each extra dot one parent
                up = len(package_parts) - (node.level - 1)
                base = ".".join(package_parts[:max(up, 0)])
                prefix = f"{base}.{node.module}" if node.module else base
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{prefix}.{alias.name}"
    return mapping


@dataclasses.dataclass
class ModuleSource:
    """One parsed module handed to the rules.

    Attributes
    ----------
    path:
        Repo-relative POSIX path (used in findings and exemptions).
    text:
        Full source text (used to recover literal spellings).
    tree:
        Parsed AST of ``text``.
    scope:
        ``"src"`` for library code, ``"tests"`` for test code.
    imports:
        The module's :func:`import_map`, built once at parse time and
        shared by every rule.
    """

    path: str
    text: str
    tree: ast.Module
    scope: str
    imports: Dict[str, str]

    @classmethod
    def parse(cls, text: str, path: str, scope: str) -> "ModuleSource":
        tree = ast.parse(text)
        package = module_name_for_path(path)
        if not path.endswith("__init__.py"):
            package = package.rpartition(".")[0]
        return cls(path=path, text=text, tree=tree, scope=scope,
                   imports=import_map(tree, package))

    def line(self, lineno: int) -> str:
        lines = self.text.splitlines()
        return lines[lineno - 1].strip() if 0 < lineno <= len(lines) else ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            path=self.path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=self.line(lineno),
        )


class Rule:
    """Base class: metadata plus the per-module ``check`` hook."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    scopes: Tuple[str, ...] = ("src",)
    #: path substrings exempt from this rule (POSIX, repo-relative)
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: ModuleSource) -> bool:
        if module.scope not in self.scopes:
            return False
        return not any(marker in module.path for marker in self.exempt)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError


RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and add a rule to :data:`RULES`."""
    rule = cls()
    RULES[rule.id] = rule
    return cls


def get_rule(rule_id: str) -> Rule:
    """Look up one registered rule by id."""
    from ...errors import ConfigurationError

    if rule_id not in RULES:
        raise ConfigurationError(
            f"unknown lint rule {rule_id!r}; available: {sorted(RULES)}"
        )
    return RULES[rule_id]


def check_source(
    code: str,
    rule_id: str,
    path: str = "src/repro/example.py",
    scope: str = "src",
) -> List[Finding]:
    """Run one rule over a source snippet (the fixture-test entry point).

    Exemption comments in the snippet are honoured, so the directive
    syntax is testable through the same door.
    """
    from .config import filter_exempt

    module = ModuleSource.parse(code, path, scope)
    rule = get_rule(rule_id)
    if not rule.applies_to(module):
        return []
    kept, _ = filter_exempt(list(rule.check(module)), module.text)
    return kept


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _resolve(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Dotted name of an expression through the import map, if any."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in imports:
        return None
    parts.append(imports[node.id])
    return ".".join(reversed(parts))


def _call_name(node: ast.Call) -> str:
    """Syntactic name of a call target (last attribute / bare name)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


# ----------------------------------------------------------------------
# RNG001 — seeded numpy Generators only
# ----------------------------------------------------------------------
@register
class SeededRngRule(Rule):
    """Ban the legacy global numpy RNG (and unseeded ``default_rng``)."""

    id = "RNG001"
    title = "seeded numpy Generator required"
    rationale = (
        "Fault campaigns and Fig. 7 sweeps are 'seeded, resumable' only if "
        "every stochastic path draws from an explicitly seeded "
        "numpy.random.Generator.  The legacy np.random.* global API and "
        "the stdlib random module share hidden process-wide state, so one "
        "stray call silently breaks bit-reproducibility."
    )
    scopes = ("src", "tests")

    #: numpy.random members that are part of the Generator API, not the
    #: legacy global-state API.
    _ALLOWED = frozenset({
        "Generator", "default_rng", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                if node.module == "random":
                    yield module.finding(
                        self.id, node,
                        "stdlib `random` draws from hidden global state; "
                        "use a seeded numpy.random.Generator instead",
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in self._ALLOWED:
                            yield module.finding(
                                self.id, node,
                                f"legacy numpy.random.{alias.name} uses the "
                                "global RNG; use a seeded Generator "
                                "(np.random.default_rng(seed)) instead",
                            )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve(node.func, imports)
            if dotted is None:
                continue
            if dotted == "random" or dotted.startswith("random."):
                yield module.finding(
                    self.id, node,
                    f"`{dotted}(...)` draws from the stdlib global RNG; "
                    "use a seeded numpy.random.Generator instead",
                )
            elif dotted.startswith("numpy.random."):
                member = dotted.split(".", 2)[2].split(".")[0]
                if member == "default_rng":
                    if not node.args and not node.keywords:
                        yield module.finding(
                            self.id, node,
                            "default_rng() without a seed is entropy-seeded "
                            "and unreproducible; pass an explicit seed or "
                            "thread a Generator parameter through",
                        )
                elif member not in self._ALLOWED:
                    yield module.finding(
                        self.id, node,
                        f"legacy global-API call numpy.random.{member}(...); "
                        "use a passed-in or default_rng(seed) Generator",
                    )


# ----------------------------------------------------------------------
# IO001 — persistence through the artifact store
# ----------------------------------------------------------------------
@register
class AtomicIoRule(Rule):
    """Ban raw write-mode I/O outside ``repro/store/``."""

    id = "IO001"
    title = "persistence must go through repro.store"
    rationale = (
        "Raw open(..., 'w') / np.savez / pickle.dump writes can be torn by "
        "interruption, which is exactly how the seed model cache got "
        "poisoned with truncated archives.  The ArtifactStore (and its "
        "atomic_write_* helpers) write temp+os.replace with SHA-256 "
        "manifests, so all persistence must flow through it."
    )
    scopes = ("src",)
    exempt = ("repro/store/",)

    _WRITE_FUNCS = frozenset({
        "numpy.save", "numpy.savez", "numpy.savez_compressed",
        "numpy.savetxt", "pickle.dump", "json.dump", "marshal.dump",
        "shelve.open",
    })
    _WRITE_METHODS = frozenset({"write_text", "write_bytes", "tofile"})

    @staticmethod
    def _mode_arg(node: ast.Call, positional_index: int) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == "mode":
                return kw.value
        if len(node.args) > positional_index:
            return node.args[positional_index]
        return None

    @classmethod
    def _is_write_mode(cls, mode: Optional[ast.expr]) -> bool:
        if mode is None:
            return False  # default "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(flag in mode.value for flag in "wax+")
        return False  # dynamic mode: give the benefit of the doubt

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve(node.func, imports)
            if dotted in self._WRITE_FUNCS:
                yield module.finding(
                    self.id, node,
                    f"raw `{dotted}(...)` bypasses the atomic artifact "
                    "store; use ArtifactStore.put_* or "
                    "repro.store.atomic_write_* instead",
                )
                continue
            name = _call_name(node)
            if name in self._WRITE_METHODS:
                yield module.finding(
                    self.id, node,
                    f"`.{name}(...)` writes without temp+rename atomicity; "
                    "use ArtifactStore.put_* or atomic_write_bytes instead",
                )
                continue
            if name == "open":
                # builtin open(path, mode) vs Path.open(mode): the mode is
                # the second positional for the former, first for the latter.
                positional = 1 if isinstance(node.func, ast.Name) else 0
                if self._is_write_mode(self._mode_arg(node, positional)):
                    yield module.finding(
                        self.id, node,
                        "open() in write mode bypasses the atomic artifact "
                        "store; use ArtifactStore.put_* or "
                        "atomic_write_bytes instead",
                    )


# ----------------------------------------------------------------------
# UNIT001 — SI prefix constants for physical parameters
# ----------------------------------------------------------------------
@register
class SiUnitsRule(Rule):
    """Physical bindings must use ``repro.units`` prefix constants."""

    id = "UNIT001"
    title = "use repro.units prefix constants"
    rationale = (
        "Eq. 1-6 parameterization reads like a datasheet when every "
        "physical constant is `100 * FEMTO`-style; bare `1e-13` literals "
        "hide unit errors (off-by-10^3 in a capacitance silently rescales "
        "the whole energy model) and defeat review."
    )
    scopes = ("src",)
    exempt = ("repro/units.py",)

    _PREFIXES = (
        (1e12, "TERA"), (1e9, "GIGA"), (1e6, "MEGA"), (1e3, "KILO"),
        (1e-3, "MILLI"), (1e-6, "MICRO"), (1e-9, "NANO"), (1e-12, "PICO"),
        (1e-15, "FEMTO"), (1e-18, "ATTO"), (1e-21, "ZEPTO"), (1e-24, "YOCTO"),
    )
    #: full-name prefixes that mark a physical quantity (c_gd, r_on, ...)
    _NAME_PREFIXES = ("c_", "r_", "v_", "t_", "g_", "l_", "tau_")
    #: underscore-separated tokens that mark a physical quantity
    _NAME_TOKENS = frozenset({
        "cap", "capacitance", "capacitances", "resistance", "resistances",
        "voltage", "voltages", "current", "currents", "tau", "dt", "freq",
        "frequency", "period", "width", "widths", "time", "times",
        "latency", "slice", "duration", "elapsed", "age", "ages",
    })

    @classmethod
    def _physical_name(cls, name: str) -> bool:
        lowered = name.lower()
        if lowered.startswith(cls._NAME_PREFIXES):
            return True
        return any(tok in cls._NAME_TOKENS for tok in lowered.split("_"))

    @classmethod
    def _suggest(cls, value: float) -> str:
        for scale, constant in cls._PREFIXES:
            scaled = value / scale
            if 1 <= abs(scaled) < 1000:
                return f"{scaled:g} * {constant}"
        return f"{value:g}"

    def _scientific_literals(
        self, expr: ast.expr, module: ModuleSource
    ) -> Iterator[ast.Constant]:
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Constant):
                continue
            if not isinstance(sub.value, float):
                continue
            segment = ast.get_source_segment(module.text, sub) or ""
            if "e" in segment.lower() and "." not in segment.lower().split("e")[1]:
                yield sub

    def _bindings(
        self, module: ModuleSource
    ) -> Iterator[Tuple[str, ast.expr]]:
        """(name, value-expression) pairs of every named binding."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
                if isinstance(target, ast.Name):
                    yield target.id, node.value
                elif isinstance(target, ast.Attribute):
                    yield target.attr, node.value
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield target.id, node.value
                    elif isinstance(target, ast.Attribute):
                        yield target.attr, node.value
            elif isinstance(node, ast.keyword) and node.arg:
                yield node.arg, node.value
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spec = node.args
                params = spec.posonlyargs + spec.args
                defaults: Sequence[Optional[ast.expr]] = spec.defaults
                for param, default in zip(
                    params[len(params) - len(defaults):], defaults
                ):
                    if default is not None:
                        yield param.arg, default
                for param, default in zip(spec.kwonlyargs, spec.kw_defaults):
                    if default is not None:
                        yield param.arg, default

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        seen = set()
        for name, value in self._bindings(module):
            if not self._physical_name(name):
                continue
            for literal in self._scientific_literals(value, module):
                key = (literal.lineno, literal.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                segment = ast.get_source_segment(module.text, literal)
                yield module.finding(
                    self.id, literal,
                    f"physical binding `{name}` uses bare literal "
                    f"`{segment}`; write `{self._suggest(literal.value)}` "
                    "with repro.units prefix constants",
                )


# ----------------------------------------------------------------------
# TEST001 — tolerance-aware float assertions
# ----------------------------------------------------------------------
@register
class FloatEqualityRule(Rule):
    """Ban ``==``/``!=`` against float expressions in tests."""

    id = "TEST001"
    title = "float comparisons need a tolerance"
    rationale = (
        "Exact float equality in tests couples the suite to one libm / "
        "SIMD path: results that are correct to 1 ulp fail on another "
        "platform.  np.isclose / pytest.approx / assert_allclose make the "
        "tolerance explicit."
    )
    scopes = ("tests",)

    _TOLERANT = frozenset({"approx", "isclose", "allclose", "assert_allclose"})

    @classmethod
    def _float_like(cls, node: ast.expr) -> bool:
        """The expression *textually contains* a float literal operand."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return cls._float_like(node.operand)
        if isinstance(node, ast.BinOp):
            return cls._float_like(node.left) or cls._float_like(node.right)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(cls._float_like(el) for el in node.elts)
        return False

    @classmethod
    def _has_tolerance(cls, operands: Iterable[ast.expr]) -> bool:
        for operand in operands:
            for sub in ast.walk(operand):
                if isinstance(sub, ast.Call) and _call_name(sub) in cls._TOLERANT:
                    return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if not any(self._float_like(operand) for operand in operands):
                continue
            if self._has_tolerance(operands):
                continue
            yield module.finding(
                self.id, node,
                "exact ==/!= against a float expression; use "
                "pytest.approx, np.isclose or "
                "np.testing.assert_allclose",
            )


# ----------------------------------------------------------------------
# TEL001 — timing through the telemetry clock
# ----------------------------------------------------------------------
@register
class TelemetryClockRule(Rule):
    """Direct :mod:`time` clock reads must go through the telemetry clock."""

    id = "TEL001"
    title = "read clocks via repro.telemetry.clock"
    rationale = (
        "Scattered time.time()/perf_counter() calls are how ad-hoc, "
        "inconsistent instrumentation creeps back in; routing every clock "
        "read through repro.telemetry.clock keeps span timings, latency "
        "histograms and manifests comparable across subsystems.  "
        "benchmarks/ harnesses are exempt (they time their own measurement "
        "loops and must not route through the subsystem under test)."
    )
    scopes = ("src", "tests")
    exempt = ("repro/telemetry/", "benchmarks/")

    _BANNED = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve(node.func, imports)
            if dotted is None or not dotted.startswith("time."):
                continue
            member = dotted.split(".", 1)[1].split(".")[0]
            if member in self._BANNED:
                yield module.finding(
                    self.id, node,
                    f"direct `{dotted}()` clock read; use "
                    "repro.telemetry.clock (wall/monotonic/perf/cpu) so "
                    "timings stay comparable across subsystems",
                )


# ----------------------------------------------------------------------
# ERR001 — the repro.errors taxonomy
# ----------------------------------------------------------------------
@register
class ErrorTaxonomyRule(Rule):
    """Library raises must come from :mod:`repro.errors`."""

    id = "ERR001"
    title = "raise repro.errors types, not bare builtins"
    rationale = (
        "Callers catch library failures with a single `except ReproError` "
        "and discriminate the domain from the subclass; a bare ValueError "
        "escapes that contract and turns a domain failure into an "
        "anonymous crash."
    )
    scopes = ("src",)
    exempt = ("repro/errors.py",)

    _BANNED = frozenset({
        "Exception", "BaseException", "ValueError", "TypeError",
        "RuntimeError", "KeyError", "IndexError", "LookupError",
        "ArithmeticError", "ZeroDivisionError", "OSError", "IOError",
        "StopIteration",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in self._BANNED:
                yield module.finding(
                    self.id, node,
                    f"raise {exc.id} is outside the repro.errors taxonomy; "
                    "raise a ReproError subclass (ConfigurationError, "
                    "DeviceError, ...) so callers can catch by domain",
                )


# ----------------------------------------------------------------------
# OBS001 — structured logging through repro.telemetry.logging
# ----------------------------------------------------------------------
@register
class StructuredLoggingRule(Rule):
    """Direct stdlib :mod:`logging` use must go through the structured
    logger."""

    id = "OBS001"
    title = "log via repro.telemetry.logging, not stdlib logging"
    rationale = (
        "logging.getLogger / root-logger calls emit free-form text with "
        "no trace correlation; repro.telemetry.logging.get_logger emits "
        "one JSON object per line carrying the active trace_id/span_id, "
        "so log lines stay joinable with spans and metrics.  basicConfig "
        "and root-level calls additionally mutate process-global handler "
        "state, which embedding applications own, not the library.  Only "
        "repro/telemetry/ itself may touch the stdlib module (it is the "
        "adapter)."
    )
    scopes = ("src", "tests")
    exempt = ("repro/telemetry/",)

    #: stdlib logging members whose call sites bypass the structured
    #: logger: logger acquisition, global configuration and the
    #: root-logger conveniences.
    _BANNED = frozenset({
        "getLogger", "basicConfig", "captureWarnings", "disable",
        "debug", "info", "warning", "warn", "error", "exception",
        "critical", "log",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imports = module.imports
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve(node.func, imports)
            if dotted is None or not dotted.startswith("logging."):
                continue
            member = dotted.split(".", 1)[1].split(".")[0]
            if member in self._BANNED:
                yield module.finding(
                    self.id, node,
                    f"direct `{dotted}(...)`; use "
                    "repro.telemetry.logging.get_logger so log lines are "
                    "structured JSON carrying the active trace_id/span_id",
                )


# ----------------------------------------------------------------------
# Function index shared by ASYNC001 and EXC002
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Function:
    """One ``def`` of a module, nested ones included."""

    qualname: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    #: innermost enclosing class: whose methods ``self.<name>()`` means
    cls: Optional[ast.ClassDef]


def _functions(tree: ast.Module) -> List[_Function]:
    """Every function of ``tree`` in source order, parents first."""
    found: List[_Function] = []

    def visit(node: ast.AST, prefix: str,
              cls: Optional[ast.ClassDef]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                found.append(_Function(qualname, child, cls))
                visit(child, f"{qualname}.", cls)
            elif isinstance(child, _BLOCKS):
                visit(child, prefix, cls)

    visit(tree, "", None)
    return found


def _walk_frame(node: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``node``'s body that run in its own frame: nested
    function and lambda bodies run later, elsewhere, and are skipped."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    stack = [n for n in getattr(node, "body", []) if not isinstance(n, nested)]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(child for child in ast.iter_child_nodes(current)
                     if not isinstance(child, nested))


# ----------------------------------------------------------------------
# ASYNC001 — no blocking calls on the event loop
# ----------------------------------------------------------------------
_LOCK_TYPES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Condition",
})

_BLOCKING_METHODS = frozenset(
    [(lock, "acquire") for lock in _LOCK_TYPES]
    + [("threading.Condition", "wait"), ("threading.Condition", "wait_for"),
       ("threading.Event", "wait"), ("threading.Thread", "join"),
       ("threading.Barrier", "wait")]
    + [(q, m) for q in ("queue.Queue", "queue.SimpleQueue",
                        "queue.LifoQueue", "queue.PriorityQueue")
       for m in ("get", "put", "join")]
    + [("socket.socket", m) for m in
       ("recv", "recv_into", "recvfrom", "send", "sendall", "connect",
        "accept")]
    + [(c, m) for c in ("http.client.HTTPConnection",
                        "http.client.HTTPSConnection")
       for m in ("request", "getresponse", "connect")]
)

#: constructors whose results ASYNC001 types (receivers of the above)
_TRACKED_TYPES = frozenset(rtype for rtype, _method in _BLOCKING_METHODS)


def _receiver(expr: ast.expr) -> str:
    """``"x"`` for a bare name, ``"self.x"`` for a ``self`` attribute
    (the keys of ASYNC001's type map), else ``""``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return f"self.{expr.attr}"
    return ""


@register
class AsyncBlockingCallRule(Rule):
    """Blocking calls in coroutines and the helpers they call."""

    id = "ASYNC001"
    title = "blocking call on the event loop"
    rationale = (
        "A blocking call in an `async def` (nested ones included), or in "
        "a same-module function a coroutine reaches through bare-name or "
        "`self.` calls, stalls the event loop: every queued request, "
        "heartbeat and timeout shares that loop.  Blocking work belongs "
        "behind run_in_executor, whose callable argument this rule "
        "deliberately does not follow."
    )
    scopes = ("src",)

    _BLOCKING_CALLS = frozenset({
        "time.sleep", "os.system", "os.wait", "os.popen",
        "urllib.request.urlopen", "socket.create_connection",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        functions = _functions(module.tree)
        top = {fn.node.name: fn for fn in functions
               if fn.qualname == fn.node.name}
        methods = {
            (id(fn.cls), fn.node.name): fn
            for fn in functions
            if fn.cls is not None and any(fn.node is n for n in fn.cls.body)
        }
        attr_types: Dict[int, Dict[str, str]] = {}
        reported = set()
        for root in functions:
            if not isinstance(root.node, ast.AsyncFunctionDef):
                continue
            frontier, seen = [root], {id(root.node)}
            while frontier:
                fn = frontier.pop()
                suffix = ("" if fn is root
                          else f" (reachable from async {root.qualname})")
                types: Dict[str, str] = {}
                if fn.cls is not None:
                    if id(fn.cls) not in attr_types:
                        attr_types[id(fn.cls)] = {
                            key: rtype for key, rtype in
                            self._types(ast.walk(fn.cls), module.imports)
                            .items() if key.startswith("self.")
                        }
                    types.update(attr_types[id(fn.cls)])
                types.update(self._types(_walk_frame(fn.node),
                                         module.imports))
                for node, what in self._blocking(fn.node, module.imports,
                                                 types):
                    if id(node) not in reported:
                        reported.add(id(node))
                        yield module.finding(
                            self.id, node,
                            f"{what} blocks the event loop in "
                            f"{fn.qualname}{suffix}",
                        )
                for node in _walk_frame(fn.node):
                    callee = self._callee(node, fn, top, methods)
                    if callee is not None and id(callee.node) not in seen:
                        seen.add(id(callee.node))
                        frontier.append(callee)

    @staticmethod
    def _types(nodes: Iterable[ast.AST],
               imports: Dict[str, str]) -> Dict[str, str]:
        """Receivers bound to tracked constructors, keyed as
        :func:`_receiver` spells them: ``x = threading.Lock()``,
        ``self.x = queue.Queue()``, ``with socket.socket() as x``."""
        types: Dict[str, str] = {}
        for node in nodes:
            pairs: List[Tuple[ast.expr, ast.expr]] = []
            if isinstance(node, ast.Assign):
                pairs = [(target, node.value) for target in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(node.target, node.value)]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                pairs = [(item.optional_vars, item.context_expr)
                         for item in node.items
                         if item.optional_vars is not None]
            for target, value in pairs:
                key = _receiver(target)
                if key and isinstance(value, ast.Call):
                    rtype = _resolve(value.func, imports)
                    if rtype in _TRACKED_TYPES:
                        types.setdefault(key, rtype)
        return types

    def _blocking(
        self, func: ast.AST, imports: Dict[str, str], types: Dict[str, str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in _walk_frame(func):
            if isinstance(node, ast.Call):
                dotted = _resolve(node.func, imports)
                if dotted is not None and (
                    dotted in self._BLOCKING_CALLS
                    or dotted.startswith("subprocess.")
                ):
                    yield node, f"blocking call {dotted}"
                elif isinstance(node.func, ast.Attribute):
                    rtype = types.get(_receiver(node.func.value))
                    if (rtype, node.func.attr) in _BLOCKING_METHODS:
                        yield node, f"blocking call {rtype}.{node.func.attr}"
            elif isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    rtype = (_resolve(expr.func, imports)
                             if isinstance(expr, ast.Call)
                             else types.get(_receiver(expr)))
                    if rtype in _LOCK_TYPES:
                        yield node, f"`with` on {rtype}"

    @staticmethod
    def _callee(
        node: ast.AST,
        caller: _Function,
        top: Dict[str, _Function],
        methods: Dict[Tuple[int, str], _Function],
    ) -> Optional[_Function]:
        """The same-module sync function a call runs on this frame:
        ``name()`` for a module-level function, ``self.name()`` for a
        method of the caller's class."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        callee: Optional[_Function] = None
        if isinstance(func, ast.Name):
            callee = top.get(func.id)
        elif (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self" and caller.cls is not None):
            callee = methods.get((id(caller.cls), func.attr))
        if callee is None or isinstance(callee.node, ast.AsyncFunctionDef):
            return None  # coroutines are roots of their own
        return callee


# ----------------------------------------------------------------------
# EXC002 — broad handlers must not swallow
# ----------------------------------------------------------------------
@register
class SwallowedExceptionRule(Rule):
    """``except Exception`` must re-raise, wrap, hand on or store."""

    id = "EXC002"
    title = "broad handler swallows the exception"
    rationale = (
        "`except Exception` (or bare / BaseException) may only catch "
        "broadly if it re-raises, wraps into the repro.errors "
        "taxonomy, fails a waiter, or stores the exception object for "
        "a later observer. Formatting the exception into a string and "
        "moving on erases the failure for every caller above. "
        "Intentional conversion boundaries (HTTP 500, per-model load "
        "isolation) carry a `# lint: exempt EXC002 <reason>` comment."
    )
    scopes = ("src",)

    _STRINGIFIERS = frozenset({"str", "repr", "type", "format", "print"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        frames = [("<module>", module.tree)] + [
            (fn.qualname, fn.node) for fn in _functions(module.tree)
        ]
        for qualname, frame in frames:
            for node in _walk_frame(frame):
                if (isinstance(node, ast.ExceptHandler)
                        and self._catch_all(node)
                        and not self._handled(node)):
                    yield module.finding(
                        self.id, node,
                        "broad handler neither re-raises, wraps, fails a "
                        f"waiter, nor stores the exception in {qualname}",
                    )

    @staticmethod
    def _catch_all(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        return any(
            (t.id if isinstance(t, ast.Name)
             else t.attr if isinstance(t, ast.Attribute) else "")
            in ("Exception", "BaseException")
            for t in types
        )

    @classmethod
    def _handled(cls, handler: ast.ExceptHandler) -> bool:
        body = list(_walk_frame(handler))
        if any(isinstance(node, ast.Raise) for node in body):
            return True
        name = handler.name
        if name is None:
            return False
        for node in body:
            if isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Name)
                        and node.func.id in cls._STRINGIFIERS):
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords]
                if any(isinstance(a, ast.Name) and a.id == name
                       for a in args):
                    return True
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Name)
                    and node.value.id == name):
                return True
        return False
