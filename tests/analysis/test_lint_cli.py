"""End-to-end tests for the ``repro lint`` CLI subcommand."""

import json

import pytest

from repro.cli import main

DIRTY = (
    "import numpy as np\n"
    "x = np.random.rand(4)\n"
    "C_COG = 100e-15\n"
)
CLEAN = (
    "import numpy as np\n"
    "\n"
    "\n"
    "def sample(rng: np.random.Generator) -> float:\n"
    "    return float(rng.random())\n"
)


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "dirty.py").write_text(DIRTY)
    (src / "clean.py").write_text(CLEAN)
    return tmp_path


def lint(*extra, root):
    return main(["lint", "--root", str(root), *extra])


class TestExitCodes:
    def test_nonzero_on_findings(self, tree, capsys):
        code = lint(str(tree / "src"), root=tree)
        out = capsys.readouterr().out
        assert code == 1
        assert "RNG001" in out
        assert "UNIT001" in out

    def test_zero_on_clean_tree(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "clean.py").write_text(CLEAN)
        code = lint(str(src), root=tmp_path)
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_is_config_error(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            lint(str(tmp_path / "nope"), root=tmp_path)


class TestJsonOutput:
    def test_json_parses_and_lists_findings(self, tree, capsys):
        code = lint(str(tree / "src"), "--format", "json", root=tree)
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        rules = {f["rule"] for f in payload["findings"]}
        assert {"RNG001", "UNIT001"} <= rules
        assert payload["files"] == 2
        assert payload["clean"] is False

    def test_json_clean_shape(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "clean.py").write_text(CLEAN)
        code = lint(str(src), "--format", "json", root=tmp_path)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["findings"] == []
        assert payload["clean"] is True


class TestRuleSelection:
    def test_single_rule_filter(self, tree, capsys):
        code = lint(
            str(tree / "src"), "--rules", "UNIT001", root=tree
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "UNIT001" in out
        assert "RNG001" not in out

    def test_unknown_rule_is_a_usage_error(self, tree, capsys):
        code = lint(str(tree / "src"), "--rules", "NOPE001", root=tree)
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).strip().splitlines()
        assert code == 2
        assert len(lines) == 1, lines
        assert "NOPE001" in lines[0]
        for rule_id in ("ASYNC001", "EXC002", "RNG001"):
            assert rule_id in lines[0]

    def test_list_rules_catalogue(self, tree, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in ("RNG001", "IO001", "UNIT001", "TEST001", "ERR001"):
            assert rule_id in out


class TestScopeClassification:
    def test_tests_files_get_tests_rules(self, tmp_path, capsys):
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_sample.py").write_text(
            "assert f() == 0.25\n"
        )
        code = lint(str(tests_dir), root=tmp_path)
        out = capsys.readouterr().out
        assert code == 1
        assert "TEST001" in out

    def test_src_files_not_checked_for_test_rules(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "logic.py").write_text("converged = err == 0.0\n")
        code = lint(str(src), root=tmp_path)
        assert code == 0
