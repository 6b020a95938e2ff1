"""The analyzer's output type and its JSON report.

A :class:`Finding` is one rule violation anchored to a file, line and
column, carrying the offending source line so reports are readable
without opening the file.  :func:`findings_to_json` writes the versioned
JSON report, so CI artifacts and downstream tooling can consume the
analyzer's output without parsing the text report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Sequence

JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line:col``.

    Field order defines sort order: findings group by file, then by
    position, then by rule — the deterministic report order every output
    format uses.
    """

    path: str
    line: int  # 1-based, like compilers and editors
    col: int  # 0-based, matching ast.AST.col_offset
    rule_id: str
    message: str
    source: str  # the offending source line, stripped of trailing newline

    def format_text(self) -> str:
        location = f"{self.path}:{self.line}:{self.col}"
        lines = [f"{location}: {self.rule_id} {self.message}"]
        if self.source.strip():
            lines.append(f"    {self.source.strip()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def findings_to_json(findings: Sequence[Finding], *, files_scanned: int) -> str:
    """Serialise ``findings`` to the versioned JSON report format."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_scanned": files_scanned,
        "counts": {rule: counts[rule] for rule in sorted(counts)},
        "findings": [finding.to_dict() for finding in sorted(findings)],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
