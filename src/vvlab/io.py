"""Deterministic CSV writers for the run reports.

Every report table goes through :func:`write_csv`: UTF-8, LF line endings,
'.' decimal separator and shortest round-trip ``repr`` floats, so reruns are
byte-identical.
"""

from __future__ import annotations

from pathlib import Path


def format_float(x: float) -> str:
    """Deterministic shortest round-trip float formatting for CSV."""
    return repr(float(x))


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """UTF-8, LF line endings, '.' decimal separator, repr floats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
