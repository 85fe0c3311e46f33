"""Per-rule fixture self-tests for the AST linter.

Every rule ships with positive fixtures (the violation is flagged) and
negative fixtures (the sanctioned idiom passes clean), so a rule edit
that silently stops firing — or starts over-firing — fails here first.
"""

import textwrap

import pytest

from repro.analysis.lint import RULES, ModuleSource, check_source, get_rule
from repro.analysis.lint.rules import module_name_for_path
from repro.errors import ConfigurationError


def run(code, rule_id, **kwargs):
    return check_source(textwrap.dedent(code), rule_id, **kwargs)


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(RULES) >= {
            "RNG001", "IO001", "UNIT001", "TEST001", "ERR001", "TEL001",
            "OBS001", "ASYNC001", "EXC002",
        }

    def test_rules_have_metadata(self):
        for rule in RULES.values():
            assert rule.id
            assert rule.title
            assert rule.rationale
            assert rule.scopes

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            get_rule("NOPE999")


class TestRng001:
    def test_flags_legacy_numpy_global_call(self):
        findings = run(
            """
            import numpy as np
            x = np.random.rand(4)
            """,
            "RNG001",
        )
        assert len(findings) == 1
        assert findings[0].rule == "RNG001"
        assert "numpy.random.rand" in findings[0].message

    def test_flags_legacy_call_through_full_module_name(self):
        findings = run(
            """
            import numpy
            numpy.random.seed(0)
            y = numpy.random.normal(0, 1, 10)
            """,
            "RNG001",
        )
        assert len(findings) == 2

    def test_flags_stdlib_random_module(self):
        findings = run(
            """
            import random
            v = random.random()
            """,
            "RNG001",
        )
        assert len(findings) == 1

    def test_flags_from_import_of_legacy_names(self):
        findings = run("from numpy.random import rand\n", "RNG001")
        assert len(findings) == 1

    def test_flags_unseeded_default_rng(self):
        findings = run(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            "RNG001",
        )
        assert len(findings) == 1
        assert "seed" in findings[0].message.lower()

    def test_allows_seeded_generator(self):
        findings = run(
            """
            import numpy as np

            def sample(rng: np.random.Generator, seed: int):
                local = np.random.default_rng(seed)
                return rng.normal() + local.random()
            """,
            "RNG001",
        )
        assert findings == []

    def test_allows_generator_class_imports(self):
        findings = run(
            "from numpy.random import Generator, default_rng, SeedSequence\n",
            "RNG001",
        )
        assert findings == []

    def test_applies_in_tests_scope_too(self):
        findings = run(
            """
            import numpy as np
            x = np.random.rand(3)
            """,
            "RNG001",
            path="tests/test_x.py",
            scope="tests",
        )
        assert len(findings) == 1


class TestIo001:
    def test_flags_write_mode_open(self):
        findings = run(
            """
            with open("out.json", "w") as fh:
                fh.write("{}")
            """,
            "IO001",
        )
        assert len(findings) == 1

    def test_flags_append_and_exclusive_modes(self):
        findings = run(
            """
            a = open("log.txt", "a")
            b = open("new.bin", "xb")
            """,
            "IO001",
        )
        assert len(findings) == 2

    def test_flags_numpy_and_pickle_writers(self):
        findings = run(
            """
            import pickle

            import numpy as np

            np.save("arr.npy", data)
            np.savez_compressed("arrs.npz", a=a)
            pickle.dump(obj, fh)
            """,
            "IO001",
        )
        assert len(findings) == 3

    def test_flags_path_write_methods(self):
        findings = run(
            """
            from pathlib import Path

            Path("x.txt").write_text("hi")
            """,
            "IO001",
        )
        assert len(findings) == 1

    def test_allows_read_mode_open(self):
        findings = run(
            """
            with open("in.json") as fh:
                data = fh.read()
            text = open("notes.txt", "r").read()
            """,
            "IO001",
        )
        assert findings == []

    def test_exempt_inside_store_package(self):
        findings = run(
            'open("out.bin", "wb").write(b"x")\n',
            "IO001",
            path="src/repro/store/atomic.py",
        )
        assert findings == []

    def test_not_applied_in_tests_scope(self):
        findings = run(
            'open("tmp.txt", "w").write("scratch")\n',
            "IO001",
            path="tests/test_y.py",
            scope="tests",
        )
        assert findings == []


class TestUnit001:
    def test_flags_bare_scientific_constant(self):
        findings = run("C_COG = 100e-15\n", "UNIT001")
        assert len(findings) == 1
        assert "FEMTO" in findings[0].message

    def test_flags_keyword_default(self):
        findings = run(
            """
            def pulse(t_width: float = 100e-9):
                return t_width
            """,
            "UNIT001",
        )
        assert len(findings) == 1
        assert "NANO" in findings[0].message

    def test_flags_call_keyword(self):
        findings = run("configure(slice_time=100e-9)\n", "UNIT001")
        assert len(findings) == 1

    def test_allows_prefix_constant_products(self):
        findings = run(
            """
            from repro.units import FEMTO, NANO

            C_COG = 100 * FEMTO
            SLICE = 100 * NANO
            """,
            "UNIT001",
        )
        assert findings == []

    def test_ignores_nonphysical_names(self):
        findings = run(
            """
            tolerance = 1e-9
            learning_rate = 1e-3
            """,
            "UNIT001",
        )
        assert findings == []

    def test_ignores_decimal_point_literals(self):
        # 0.0001 is not engineering notation; only e-notation literals
        # adjacent to physical names are policed.
        findings = run("t_rise = 0.0001\n", "UNIT001")
        assert findings == []

    def test_exempt_in_units_module(self):
        findings = run(
            "t_base = 1e-9\n", "UNIT001", path="src/repro/units.py"
        )
        assert findings == []


class TestTest001:
    def test_flags_float_equality(self):
        findings = run(
            "assert compute() == 0.25\n",
            "TEST001",
            path="tests/test_z.py",
            scope="tests",
        )
        assert len(findings) == 1

    def test_flags_inequality_and_negative_literals(self):
        findings = run(
            """
            assert f() != 0.99
            assert g() == -1.5
            """,
            "TEST001",
            path="tests/test_z.py",
            scope="tests",
        )
        assert len(findings) == 2

    def test_flags_arithmetic_on_floats(self):
        findings = run(
            "assert h() == 2 * 0.125\n",
            "TEST001",
            path="tests/test_z.py",
            scope="tests",
        )
        assert len(findings) == 1

    def test_allows_pytest_approx(self):
        findings = run(
            """
            import pytest

            assert compute() == pytest.approx(0.25)
            assert other() == pytest.approx(-1.5, rel=1e-6)
            """,
            "TEST001",
            path="tests/test_z.py",
            scope="tests",
        )
        assert findings == []

    def test_allows_integer_equality(self):
        findings = run(
            """
            assert count() == 3
            assert name() == "x"
            """,
            "TEST001",
            path="tests/test_z.py",
            scope="tests",
        )
        assert findings == []

    def test_not_applied_to_src_scope(self):
        findings = run("converged = err == 0.0\n", "TEST001")
        assert findings == []


class TestErr001:
    def test_flags_builtin_valueerror(self):
        findings = run('raise ValueError("bad input")\n', "ERR001")
        assert len(findings) == 1
        assert "repro.errors" in findings[0].message

    def test_flags_bare_exception_classes(self):
        findings = run(
            """
            raise RuntimeError("boom")
            raise Exception
            """,
            "ERR001",
        )
        assert len(findings) == 2

    def test_allows_taxonomy_errors(self):
        findings = run(
            """
            from repro.errors import ConfigurationError, ShapeError

            raise ConfigurationError("bad parameter bundle")
            """,
            "ERR001",
        )
        assert findings == []

    def test_allows_bare_reraise(self):
        findings = run(
            """
            try:
                work()
            except Exception:
                raise
            """,
            "ERR001",
        )
        assert findings == []

    def test_exempt_in_errors_module(self):
        findings = run(
            'raise ValueError("boot")\n', "ERR001", path="src/repro/errors.py"
        )
        assert findings == []

    def test_not_applied_in_tests_scope(self):
        findings = run(
            'raise ValueError("expected by pytest.raises")\n',
            "ERR001",
            path="tests/test_w.py",
            scope="tests",
        )
        assert findings == []


class TestTel001:
    def test_flags_direct_time_call(self):
        findings = run(
            """
            import time
            start = time.time()
            """,
            "TEL001",
        )
        assert len(findings) == 1
        assert "time.time" in findings[0].message

    def test_flags_perf_counter_and_monotonic(self):
        findings = run(
            """
            import time
            a = time.perf_counter()
            b = time.monotonic()
            c = time.process_time_ns()
            """,
            "TEL001",
        )
        assert len(findings) == 3

    def test_flags_from_import_form(self):
        findings = run(
            """
            from time import perf_counter
            t = perf_counter()
            """,
            "TEL001",
        )
        assert len(findings) == 1

    def test_allows_time_sleep(self):
        findings = run(
            """
            import time
            time.sleep(0.01)
            """,
            "TEL001",
        )
        assert findings == []

    def test_allows_telemetry_clock(self):
        findings = run(
            """
            from repro.telemetry.clock import perf
            t = perf()
            """,
            "TEL001",
        )
        assert findings == []

    def test_exempt_inside_telemetry_package(self):
        findings = run(
            """
            import time
            t = time.perf_counter()
            """,
            "TEL001",
            path="src/repro/telemetry/clock.py",
        )
        assert findings == []

    def test_exempt_inside_benchmarks(self):
        findings = run(
            """
            import time
            t = time.perf_counter()
            """,
            "TEL001",
            path="benchmarks/bench_perf_mc.py",
        )
        assert findings == []

    def test_applies_in_tests_scope(self):
        findings = run(
            """
            import time
            t = time.monotonic()
            """,
            "TEL001",
            path="tests/test_w.py",
            scope="tests",
        )
        assert len(findings) == 1


class TestObs001:
    def test_flags_getLogger(self):
        findings = run(
            """
            import logging
            logger = logging.getLogger("repro.store")
            """,
            "OBS001",
        )
        assert len(findings) == 1
        assert "logging.getLogger" in findings[0].message
        assert "get_logger" in findings[0].message

    def test_flags_from_import_form(self):
        findings = run(
            """
            from logging import getLogger
            logger = getLogger(__name__)
            """,
            "OBS001",
        )
        assert len(findings) == 1

    def test_flags_root_logger_calls_and_basicConfig(self):
        findings = run(
            """
            import logging
            logging.basicConfig(level=10)
            logging.warning("free-form %s", "text")
            logging.error("boom")
            """,
            "OBS001",
        )
        assert len(findings) == 3

    def test_allows_structured_logger(self):
        findings = run(
            """
            from repro.telemetry.logging import get_logger
            log = get_logger("repro.store")
            log.warning("quarantined", key="a/b")
            """,
            "OBS001",
        )
        assert findings == []

    def test_allows_non_call_mentions(self):
        # Only *calls* are flagged: type annotations / attribute reads
        # that never invoke the stdlib API pass clean.
        findings = run(
            """
            import logging
            LEVEL = logging.WARNING
            """,
            "OBS001",
        )
        assert findings == []

    def test_exempt_inside_telemetry_package(self):
        findings = run(
            """
            import logging
            root = logging.getLogger("repro")
            """,
            "OBS001",
            path="src/repro/telemetry/logging.py",
        )
        assert findings == []

    def test_applies_in_tests_scope(self):
        findings = run(
            """
            import logging
            logger = logging.getLogger("x")
            """,
            "OBS001",
            path="tests/test_w.py",
            scope="tests",
        )
        assert len(findings) == 1


class TestFindingContract:
    def test_fingerprint_stable_across_line_moves(self):
        a = run("x = 1\nC_COG = 100e-15\n", "UNIT001")[0]
        b = run("x = 1\ny = 2\n\nC_COG = 100e-15\n", "UNIT001")[0]
        assert a.line != b.line
        assert a.fingerprint() == b.fingerprint()

    def test_render_format(self):
        finding = run("C_COG = 100e-15\n", "UNIT001")[0]
        text = finding.render()
        assert text.startswith("src/repro/example.py:")
        assert "UNIT001" in text

    def test_to_json_round_trips(self):
        finding = run("C_COG = 100e-15\n", "UNIT001")[0]
        payload = finding.to_json()
        assert payload["rule"] == "UNIT001"
        assert payload["line"] == finding.line
        assert payload["fingerprint"] == finding.fingerprint()


class TestModuleSource:
    def test_src_prefix_stripped(self):
        assert (module_name_for_path("src/repro/serving/batcher.py")
                == "repro.serving.batcher")

    def test_tests_keep_their_prefix(self):
        assert (module_name_for_path("tests/analysis/test_lint_cli.py")
                == "tests.analysis.test_lint_cli")

    def test_init_names_the_package(self):
        assert module_name_for_path("src/repro/__init__.py") == "repro"

    def test_relative_import_resolution(self):
        module = ModuleSource.parse(
            "from .b import helper\n"
            "from ..errors import ShapeError as SE\n"
            "from . import units\n"
            "import numpy as np\n",
            "src/repro/pkg/a.py", "src",
        )
        assert module.imports == {
            "helper": "repro.pkg.b.helper",
            "SE": "repro.errors.ShapeError",
            "units": "repro.pkg.units",
            "np": "numpy",
        }

    def test_relative_import_in_package_init(self):
        module = ModuleSource.parse(
            "from .b import helper\n", "src/repro/pkg/__init__.py", "src",
        )
        assert module.imports == {"helper": "repro.pkg.b.helper"}
