"""``# repro: allow[RULE-ID] reason`` pragma parsing.

A pragma suppresses the named rule(s) on its own line — or, when the
comment stands alone on a line, on the next code line (for constructs too
long to share a line with their justification).  The reason is
*required*: a pragma that does not say why the violation is safe is
itself reported as a :data:`PRAGMA_RULE_ID` finding and suppresses
nothing.  So is a pragma naming a rule id the registry does not know —
otherwise a typo (``DET01``) would silently disable nothing while
looking like an approved exception.

Pragmas are found with :mod:`tokenize` rather than a line-by-line regex
so a ``# repro: allow[...]`` inside a string literal is never mistaken
for a suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Tuple

# Findings produced by the pragma parser itself (malformed suppressions).
PRAGMA_RULE_ID = "PRG001"

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*)\Z")
_RULE_ID_RE = re.compile(r"\A[A-Z]{3}\d{3}\Z")


@dataclass(frozen=True)
class Pragma:
    """One parsed suppression comment."""

    line: int  # line the comment sits on (1-based)
    applies_to: int  # line whose findings it suppresses
    rule_ids: Tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class PragmaError:
    """A malformed pragma: missing reason or unknown rule id."""

    line: int
    col: int
    message: str
    source: str


def scan_pragmas(
    source: str, known_rule_ids: Tuple[str, ...]
) -> Tuple[Dict[int, List[Pragma]], List[PragmaError]]:
    """Parse every pragma comment in ``source``.

    Returns ``(by_line, errors)`` where ``by_line`` maps a *code* line
    number to the pragmas suppressing findings on it.  Malformed pragmas
    land in ``errors`` and never suppress anything.
    """
    lines = source.splitlines()
    pragmas: List[Pragma] = []
    errors: List[PragmaError] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST pass reports the syntax error; nothing to suppress here.
        return {}, []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.match(token.string)
        if match is None:
            continue
        row, col = token.start
        source_line = lines[row - 1] if row - 1 < len(lines) else token.string
        rule_ids = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = match.group(2).strip()
        problems = []
        if not rule_ids:
            problems.append("names no rule id")
        bad_ids = [rule for rule in rule_ids if not _RULE_ID_RE.match(rule)]
        unknown = [
            rule
            for rule in rule_ids
            if _RULE_ID_RE.match(rule) and rule not in known_rule_ids
        ]
        if bad_ids:
            problems.append(f"malformed rule id(s) {', '.join(bad_ids)}")
        if unknown:
            problems.append(f"unknown rule id(s) {', '.join(unknown)}")
        if not reason:
            problems.append("is missing the required reason")
        if problems:
            errors.append(
                PragmaError(
                    line=row,
                    col=col,
                    message=(
                        "pragma " + " and ".join(problems) + " — write "
                        "'# repro: allow[RULE-ID] why this is safe' "
                        "(the reason is mandatory; it suppresses nothing as is)"
                    ),
                    source=source_line,
                )
            )
            continue
        applies_to = row
        if source_line[:col].strip() == "":
            # A comment-only line covers the next code line.
            applies_to = _next_code_line(lines, row)
        pragmas.append(
            Pragma(
                line=row,
                applies_to=applies_to,
                rule_ids=rule_ids,
                reason=reason,
            )
        )
    by_line: Dict[int, List[Pragma]] = {}
    for pragma in pragmas:
        by_line.setdefault(pragma.applies_to, []).append(pragma)
    return by_line, errors


def _next_code_line(lines: List[str], comment_line: int) -> int:
    """First line after ``comment_line`` that holds code (not blank/comment)."""
    for offset, text in enumerate(lines[comment_line:], start=comment_line + 1):
        stripped = text.strip()
        if stripped and not stripped.startswith("#"):
            return offset
    return comment_line  # dangling pragma at EOF: applies to itself (no-op)
