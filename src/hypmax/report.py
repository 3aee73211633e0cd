"""Structured experiment results: tables, bound assertions and Monte Carlo
estimates, with deterministic JSON/CSV serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo estimate with its standard error; reproducible per seed."""

    mean: float
    stderr: float
    samples: int
    seed: int

    @classmethod
    def of_hits(cls, total: float, hits: int, samples: int, seed: int) -> "VolumeEstimate":
        """The binomial estimate total * hits / samples of a box of measure
        ``total`` in which ``hits`` of ``samples`` exact-measure draws fell in
        the set, with its standard error."""
        frac = hits / samples
        return cls(total * frac, total * math.sqrt(frac * (1.0 - frac) / samples), samples, seed)


@dataclass
class Table:
    name: str
    columns: list
    rows: list


@dataclass
class Assertion:
    name: str
    bound: float
    observed: float
    passed: bool


@dataclass
class ExperimentReport:
    name: str
    meta: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    assertions: list = field(default_factory=list)

    def add_table(self, name: str, columns, rows) -> None:
        """Append a table; numpy scalars in rows become Python scalars so the
        report serializes."""
        rows = [[v.item() if isinstance(v, np.generic) else v for v in r] for r in rows]
        self.tables.append(Table(name, list(columns), rows))

    def check(self, name: str, bound: float, observed: float, passed: bool) -> None:
        self.assertions.append(Assertion(name, float(bound), float(observed), bool(passed)))

    @property
    def all_pass(self) -> bool:
        return all(a.passed for a in self.assertions)

    def failures(self) -> list:
        return [a for a in self.assertions if not a.passed]

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "tables": [
                {"name": t.name, "columns": t.columns, "rows": t.rows} for t in self.tables
            ],
            "assertions": [
                {"name": a.name, "bound": a.bound, "observed": a.observed, "pass": a.passed}
                for a in self.assertions
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        """Flattened CSV: one block per table, blank-line separated."""
        lines = []
        for t in self.tables:
            lines.append(f"# table: {t.name}")
            lines.append(",".join(str(c) for c in t.columns))
            for r in t.rows:
                lines.append(",".join(_csv_cell(v) for v in r))
            lines.append("")
        if self.assertions:
            lines.append("# table: assertions")
            lines.append("name,bound,observed,pass")
            for a in self.assertions:
                lines.append(f"{a.name},{a.bound!r},{a.observed!r},{a.passed}")
            lines.append("")
        return "\n".join(lines)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
