"""Result tables for the experiment harness.

Every experiment produces one or more :class:`ResultTable` objects — ordered
columns plus one dict per row — that render to aligned ASCII and to CSV for
further processing.  Keeping the table type dumb and uniform means every
experiment prints directly comparable output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Union

__all__ = ["ResultTable", "ExperimentResult"]

Cell = Union[str, int, float]


class ResultTable:
    """An ordered-column table of experiment results."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a ResultTable needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict[str, Cell]] = []

    def add_row(self, row: Mapping[str, Cell]) -> None:
        """Append a row; missing columns render as empty cells."""
        self.rows.append({column: row.get(column, "") for column in self.columns})

    def __len__(self) -> int:
        return len(self.rows)

    @staticmethod
    def _format_cell(value: Cell) -> str:
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.3f}"
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        """Render the table as aligned ASCII text."""
        formatted_rows = [
            [self._format_cell(row[column]) for column in self.columns] for row in self.rows
        ]
        widths = [
            max(len(column), *(len(row[i]) for row in formatted_rows)) if formatted_rows else len(column)
            for i, column in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = " | ".join(column.ljust(widths[i]) for i, column in enumerate(self.columns))
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in formatted_rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass
class ExperimentResult:
    """What one experiment run produced."""

    experiment: str
    description: str
    tables: List[ResultTable] = field(default_factory=list, init=False)
    notes: List[str] = field(default_factory=list, init=False)

    def add_table(self, table: ResultTable) -> ResultTable:
        """Attach a table and return it (for chaining)."""
        self.tables.append(table)
        return table

    def add_note(self, note: str) -> None:
        """Attach a free-text observation to the result."""
        self.notes.append(note)

    def render(self) -> str:
        """Render all tables and notes as one text block."""
        parts = [f"### {self.experiment}: {self.description}"]
        for table in self.tables:
            parts.append(table.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)
