"""Render a lint run as text or JSON.

Suppressed findings carry ``"suppressed": true`` in JSON and are
omitted from the text reporter unless asked for.
"""

from __future__ import annotations

import json

from .driver import LintResult

__all__ = ["render_text", "render_json"]


def render_text(result: LintResult, *, show_suppressed: bool = False) -> str:
    """One ``path:line:col: RULE message`` line per finding + a summary."""
    lines = []
    for finding in result.findings:
        if finding.suppressed and not show_suppressed:
            continue
        tag = " (suppressed)" if finding.suppressed else ""
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.message}{tag}"
        )
    active = len(result.unsuppressed)
    summary = (
        f"{active} finding{'s' if active != 1 else ''} "
        f"({len(result.suppressed)} suppressed) "
        f"in {result.files_scanned} file{'s' if result.files_scanned != 1 else ''}"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable dump of every finding (suppressed ones included)."""
    payload = {
        "tool": "simlint",
        "files_scanned": result.files_scanned,
        "summary": {
            "findings": len(result.unsuppressed),
            "suppressed": len(result.suppressed),
        },
        "findings": [
            {
                "rule": finding.rule,
                "message": finding.message,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "suppressed": finding.suppressed,
            }
            for finding in result.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
