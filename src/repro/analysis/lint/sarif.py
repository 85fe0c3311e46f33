"""SARIF 2.1.0 renderer for lint reports.

SARIF (Static Analysis Results Interchange Format) is what CI
annotation surfaces ingest: one ``run`` with a ``tool.driver``
describing the rules, and one ``result`` per finding carrying the
rule id, message, physical location and a stable partial fingerprint
(:meth:`~.findings.Finding.fingerprint`, also in the JSON report, so a
finding keeps its identity across renderers).

Only the subset of the spec that consumers actually read is emitted —
schema/version headers, rule metadata, results — which keeps the
output valid without dragging in the other ~200 pages of SARIF.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List

from .rules import RULES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import LintReport

__all__ = ["render_sarif", "SARIF_VERSION", "SARIF_SCHEMA"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_descriptors(rule_ids: List[str]) -> List[Dict[str, Any]]:
    descriptors = []
    for rule_id in sorted(rule_ids):
        rule = RULES.get(rule_id)
        descriptors.append({
            "id": rule_id,
            "shortDescription": {
                "text": rule.title if rule is not None else rule_id
            },
            "fullDescription": {
                "text": rule.rationale if rule is not None else ""
            },
            "defaultConfiguration": {"level": "error"},
        })
    return descriptors


def render_sarif(report: "LintReport") -> str:
    """Serialize a :class:`~.runner.LintReport` as a SARIF 2.1.0 log."""
    results = []
    for finding in report.findings:
        results.append({
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                        "snippet": {"text": finding.snippet},
                    },
                },
            }],
            "partialFingerprints": {
                "reproLint/v1": finding.fingerprint(),
            },
        })
    tool_errors = [
        {"level": "error", "message": {"text": error}}
        for error in report.errors
    ]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": _rule_descriptors(
                        sorted({f.rule for f in report.findings} | set(RULES))
                    ),
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
            "invocations": [{
                "executionSuccessful": not report.errors,
                "toolExecutionNotifications": tool_errors,
            }],
        }],
    }
    return json.dumps(log, indent=2, sort_keys=True) + "\n"
