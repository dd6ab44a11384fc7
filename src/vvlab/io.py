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


def write_q_csv(path: str | Path, series) -> None:
    rows = [(e.time, e.q_plus, e.q_minus, e.q, e.stderr) for e in series.entries]
    write_csv(path, ["t", "q_plus", "q_minus", "q", "stderr"], rows)
