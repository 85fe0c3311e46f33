"""Exemption comments: the analyzer's one escape hatch.

``# lint: exempt RULE001 <reason>`` on the finding's line (or the line
directly above) suppresses that rule there.  The reason is mandatory by
convention and reviewed like code: the comment justifies the finding in
place, next to the code it excuses.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set, Tuple

from .findings import Finding

__all__ = ["parse_exemptions", "filter_exempt"]

#: ``# lint: exempt EXC002 handler converts to HTTP 500``
_EXEMPT_RE = re.compile(
    r"#\s*lint:\s*exempt\s+(?P<rules>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
)


def parse_exemptions(text: str) -> Dict[int, Set[str]]:
    """Map line number → rule ids exempted there.

    A directive on line *n* covers findings on line *n* (inline
    comment) and line *n + 1* (standalone comment above the code).
    """
    exempt: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _EXEMPT_RE.search(line)
        if match is None:
            continue
        rules = {r.strip() for r in match.group("rules").split(",")}
        for covered in (lineno, lineno + 1):
            exempt.setdefault(covered, set()).update(rules)
    return exempt


def filter_exempt(
    findings: Sequence[Finding], text: str
) -> Tuple[List[Finding], int]:
    """Drop findings covered by exemption comments in ``text``.

    Returns ``(kept, dropped_count)``.
    """
    exempt = parse_exemptions(text)
    if not exempt:
        return list(findings), 0
    kept = [
        f for f in findings
        if f.rule not in exempt.get(f.line, ())
    ]
    return kept, len(findings) - len(kept)
