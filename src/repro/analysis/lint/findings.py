"""The :class:`Finding` record emitted by lint rules.

A finding pinpoints one violation: rule id, file, location, message and
the offending source line.  Its :meth:`~Finding.fingerprint` hashes the
rule id, the file and the *text* of the line (not its number), so a
SARIF consumer keeps matching the same violation while unrelated edits
move it up or down the file.
"""

from __future__ import annotations

import dataclasses
import hashlib


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        Rule identifier (e.g. ``"RNG001"``).
    path:
        Repo-relative POSIX path of the offending file.
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable explanation with the suggested fix.
    snippet:
        The stripped source line, for context in reports.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def fingerprint(self) -> str:
        """Stable identity key: rule + file + line *text*."""
        token = f"{self.rule}|{self.path}|{self.snippet}".encode()
        return hashlib.sha256(token).hexdigest()[:16]

    def to_json(self) -> dict:
        """JSON-serialisable shape (used by ``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        """One-line text rendering (``path:line:col: RULE message``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
