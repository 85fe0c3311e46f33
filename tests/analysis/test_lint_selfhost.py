"""Self-hosting gate: the shipped tree must satisfy its own linter.

This is the tier-1 enforcement point for the repository invariants —
seeded RNG everywhere, atomic IO outside ``repro/store``, SI-prefix
constants for physical quantities, tolerance-aware float assertions in
tests, the ``repro.errors`` taxonomy for every ``raise`` in ``src``,
no blocking calls on the event loop, no swallowed broad handlers.  If a
change reintroduces a violation, this test fails before CI's lint job
ever runs.  The full-tree lint runs once per module and is shared.
"""

import json
import os

import pytest

from repro.analysis.lint import (
    LintReport,
    RULES,
    check_source,
    render_sarif,
    run_lint,
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


@pytest.fixture(scope="module")
def report():
    return run_lint(root=REPO_ROOT)


def test_repo_root_layout():
    assert os.path.isdir(os.path.join(REPO_ROOT, "src", "repro"))
    assert os.path.isdir(os.path.join(REPO_ROOT, "tests"))


def test_shipped_tree_is_clean(report):
    assert report.errors == [], f"unparseable files: {report.errors}"
    details = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"lint violations in shipped tree:\n{details}"
    assert report.exit_code == 0


def test_shipped_tree_needs_no_baseline(report):
    # There is no baseline file: the linter landed with every historical
    # violation fixed, and the only way to silence a finding is an
    # inline `# lint: exempt` comment.  Exactly four exist: the three
    # EXC002 conversion boundaries (see TestDeepFamilySelfHost) and one
    # OBS001 in a test that asserts on the logging adapter's own wiring.
    # A fifth exemption is a design decision, not a drive-by.
    assert not hasattr(report, "suppressed")
    assert report.exempted == 4


def test_every_registered_rule_participates(report):
    # Sanity: the run actually visited a substantial tree with all
    # rules active, rather than passing vacuously.
    assert report.files > 100
    assert set(RULES) == {
        "RNG001", "IO001", "UNIT001", "TEST001", "TEL001", "ERR001",
        "OBS001", "ASYNC001", "EXC002",
    }


# ----------------------------------------------------------------------
# EXC002 and ASYNC001 began as project-wide dataflow rules; as
# single-module rules they must still self-host on their own.
class TestDeepFamilySelfHost:
    def test_deep_rules_clean_with_documented_exemptions(self):
        report = run_lint(root=REPO_ROOT, rules=["ASYNC001", "EXC002"])
        assert report.errors == []
        details = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], (
            f"ASYNC001/EXC002 violations in shipped tree:\n{details}"
        )
        # Exactly the three documented conversion boundaries (per-model
        # load isolation in registry.py, the connection-level HTTP 500
        # in server.handle, and the traced per-request 500 in
        # server._predict) carry `# lint: exempt EXC002` comments.
        assert report.exempted == 3


# ----------------------------------------------------------------------
class TestSarifOutput:
    def test_clean_tree_renders_valid_sarif(self, report):
        doc = json.loads(render_sarif(report))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(RULES)
        assert run["results"] == []
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_findings_carry_location_and_fingerprint(self):
        findings = check_source(
            "import time\n\nasync def f():\n    time.sleep(1)\n",
            "ASYNC001",
        )
        assert len(findings) == 1
        report = LintReport(findings=findings, files=1)
        doc = json.loads(render_sarif(report))
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "ASYNC001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/example.py"
        assert location["region"]["startLine"] == 4
        assert (result["partialFingerprints"]["reproLint/v1"]
                == findings[0].fingerprint())
