"""Shared infrastructure for the paper-reproduction experiments.

Every experiment module exposes a ``run(...)`` function returning an
:class:`ExperimentResult`: a named collection of row dictionaries (one table
or figure-series per key) plus free-form notes.  The harness provides
formatting helpers so the CLI and the examples print the same artefacts.
The CLI discovers the experiments through
:data:`repro.experiments.EXPERIMENT_RUNNERS`.

Experiments that need many independent DCA fits (per-k sweeps, per-seed
spreads, config ablations) go through :meth:`repro.core.DCA.fit_many` —
usually via the :class:`~repro.experiments.setting.SchoolSetting` sweep
helpers — rather than hand-rolled loops.  The exception is an experiment
that reports a single fit's runtime (Figure 8b): a batched fit's
``elapsed_seconds`` is a share of its lockstep group's wall-clock, so it
fits with :meth:`repro.core.DCA.fit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = ["ExperimentResult", "format_table"]


def format_table(rows: Sequence[Mapping[str, object]], float_format: str = "{:.3f}") -> str:
    """Render a list of row dicts as a fixed-width text table.

    All rows must share the same keys; numeric values are formatted with
    ``float_format``, everything else with ``str``.
    """
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered)) for i, column in enumerate(columns)
    ]
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(value.ljust(width) for value, width in zip(line, widths)) for line in rendered
    )
    return f"{header}\n{separator}\n{body}"


@dataclass
class ExperimentResult:
    """The output of one reproduction experiment.

    Attributes
    ----------
    name:
        Experiment identifier (``"table1"``, ``"fig4"``, …).
    description:
        One-line description of the paper artefact being reproduced.
    tables:
        Mapping from artefact label (e.g. ``"table I"`` or ``"fig 4a"``) to a
        list of row dictionaries.
    notes:
        Free-form remarks (parameters used, fitted bonus vectors, timings).
    """

    name: str
    description: str
    tables: dict[str, list[dict[str, object]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_table(self, label: str, rows: Iterable[Mapping[str, object]]) -> None:
        self.tables[label] = [dict(row) for row in rows]

    def add_note(self, note: str) -> None:
        self.notes.append(str(note))

    def format(self) -> str:
        """Human-readable rendering of every table plus the notes."""
        parts = [f"== {self.name}: {self.description} =="]
        for label, rows in self.tables.items():
            parts.append(f"\n-- {label} --")
            parts.append(format_table(rows))
        if self.notes:
            parts.append("\nNotes:")
            parts.extend(f"  * {note}" for note in self.notes)
        return "\n".join(parts)

    def table(self, label: str) -> list[dict[str, object]]:
        if label not in self.tables:
            raise KeyError(f"no table {label!r}; available: {sorted(self.tables)}")
        return self.tables[label]

