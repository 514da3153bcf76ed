"""Deterministic CSV result tables.

Metadata rides along as leading '#' comment lines so a result file is
self-describing: tool version, command, config hash, and seed.  Formatting
is fixed (shortest round-trip floats, literal inf/nan, '.' decimal point)
so identical runs produce identical bytes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ResultTable", "format_cell"]


def format_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key, value in self.metadata.items():
            buf.write(f"# {key}: {value}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(format_cell(v) for v in row) + "\n")
        return buf.getvalue()

    def write(self, path: str | Path | None) -> None:
        """Write to the given path, or stdout when no path is given."""
        text = self.to_csv()
        if path is None:
            print(text, end="")
        else:
            Path(path).write_text(text)
