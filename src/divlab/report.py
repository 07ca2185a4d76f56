"""Self-contained run records: parameters, result tables, assertions.

Every CLI command and verification sweep produces one Report.  Exact
rationals are serialized as ``num/den`` strings so nothing is lost to
floating point.  Every table goes into the JSON; a table added with
``csv=False`` is JSON-only and is left out of the CSV.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Optional

SCHEMA_VERSION = 1


def encode_value(v: Any) -> Any:
    """JSON/CSV-safe encoding; Fractions become 'num/den' strings."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, (int, float, str)):
        return v
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    return str(v)


@dataclass
class Assertion:
    name: str
    expected: Any
    actual: Any
    passed: bool


@dataclass
class Report:
    """Record of one verification or sweep run."""

    command: str
    parameters: dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    started_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    duration_s: float = 0.0
    tables: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    assertions: list[Assertion] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    _json_only: set[str] = field(default_factory=set, repr=False)
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def add_table(self, name: str, rows: list[dict[str, Any]], csv: bool = True) -> None:
        """Record a result table; ``csv=False`` keeps it out of the CSV."""
        self.tables[name] = rows
        if csv:
            self._json_only.discard(name)
        else:
            self._json_only.add(name)

    def check(self, name: str, expected: Any, actual: Any) -> bool:
        """Record the assertion expected == actual."""
        passed = bool(expected == actual)
        self.assertions.append(Assertion(name, expected, actual, passed))
        return passed

    def note(self, text: str) -> None:
        self.notes.append(text)

    def extend(self, other: "Report") -> None:
        """Add another report's tables (JSON-only stay so), assertions, notes and seed if set."""
        for name, rows in other.tables.items():
            self.add_table(name, rows, csv=name not in other._json_only)
        self.assertions += other.assertions
        self.notes += other.notes
        if other.seed is not None:
            self.seed = other.seed

    def finish(self) -> "Report":
        self.duration_s = round(time.monotonic() - self._t0, 6)
        return self

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def failed_assertions(self) -> list[Assertion]:
        return [a for a in self.assertions if not a.passed]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "parameters": encode_value(self.parameters),
            "seed": self.seed,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "results": {k: encode_value(rows) for k, rows in self.tables.items()},
            "assertions": [
                {
                    "name": a.name,
                    "expected": encode_value(a.expected),
                    "actual": encode_value(a.actual),
                    "pass": a.passed,
                }
                for a in self.assertions
            ],
            "notes": list(self.notes),
            "ok": self.ok,
        }

    def to_csv(self) -> str:
        """Result tables as CSV, skipping JSON-only ones; more than one table
        left gives '# name' sections."""
        chunks = []
        written = {k: v for k, v in self.tables.items() if k not in self._json_only}
        multi = len(written) > 1
        for name, rows in written.items():
            lines = []
            if multi:
                lines.append(f"# {name}")
            if rows:
                cols = list(rows[0].keys())
                lines.append(",".join(cols))
                for row in rows:
                    lines.append(
                        ",".join(_csv_cell(encode_value(row.get(c))) for c in cols)
                    )
            chunks.append("\n".join(lines))
        return "\n\n".join(chunks) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.command}] {'PASS' if self.ok else 'FAIL'} ({self.duration_s:.2f}s)"]
        for a in self.assertions:
            flag = "pass" if a.passed else "FAIL"
            lines.append(
                f"  {flag}  {a.name}: expected={encode_value(a.expected)} actual={encode_value(a.actual)}"
            )
        for note in self.notes:
            lines.append(f"  note  {note}")
        return lines


def write_json(reports: list[Report], path) -> None:
    """A single report as its JSON object; more than one as
    ``{"schema": ..., "reports": [...]}``."""
    if len(reports) == 1:
        payload = reports[0].to_json_dict()
    else:
        payload = {"schema": SCHEMA_VERSION, "reports": [r.to_json_dict() for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s
