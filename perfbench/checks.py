"""Reference checks, written with the ``csv`` module and numpy only.

Nothing here imports ``repro``: every expectation is recomputed from the
input CSV or is a property of the publishing method, never a stored copy of
an earlier output.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from pathlib import Path

import numpy as np


class Reference:
    """Personal groups of an input CSV: one row of SA counts per NA key."""

    def __init__(self, data: bytes) -> None:
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
        next(reader)
        keys: dict[tuple[str, ...], int] = {}
        values: dict[str, int] = {}
        group_ids: list[int] = []
        value_ids: list[int] = []
        for row in reader:
            group_ids.append(keys.setdefault(tuple(row[:-1]), len(keys)))
            value_ids.append(values.setdefault(row[-1], len(values)))
        self.keys = keys
        self.values = values
        self.counts = np.zeros((len(keys), len(values)), dtype=np.int64)
        np.add.at(self.counts, (np.array(group_ids), np.array(value_ids)), 1)
        self.sizes = self.counts.sum(axis=1)
        self.n_rows = len(group_ids)

    def audit(self, lam: float, delta: float, p: float = 0.5) -> tuple[int, float]:
        """Eq. 10 per group: (violating groups, record violation rate)."""
        f = self.counts.max(axis=1) / self.sizes
        off = (1.0 - p) / len(self.values)
        s_g = -2.0 * (f * p + off) * math.log(delta) / (lam * p * f) ** 2
        violating = self.sizes > s_g
        return int(violating.sum()), int(self.sizes[violating].sum()) / self.n_rows


def check_audit(ref: Reference, spec: dict, payload: dict) -> str | None:
    """The response's violation counts must equal the Eq. 10 recomputation."""
    n_violating, record_rate = ref.audit(spec["lam"], spec["delta"])
    summary = payload["summary"]
    if summary["n_groups"] != len(ref.keys) or summary["n_violating_groups"] != n_violating:
        return (f"audit {spec}: groups {summary['n_groups']}/{summary['n_violating_groups']} "
                f"violating, reference {len(ref.keys)}/{n_violating}")
    if not math.isclose(summary["record_violation_rate"], record_rate, rel_tol=1e-12, abs_tol=1e-15):
        return (f"audit {spec}: record violation rate {summary['record_violation_rate']}, "
                f"reference {record_rate}")
    return None


def _published_cells(path: Path) -> tuple[Counter, int]:
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        cells = Counter((tuple(row[:-1]), row[-1]) for row in reader)
    return cells, sum(cells.values())


def _check_domain(ref: Reference, cells: Counter, name: str) -> str | None:
    keys = {key for key, _ in cells}
    unknown = [key for key in keys if key not in ref.keys]
    if unknown:
        return f"{name}: {len(unknown)} published keys do not occur in the input, e.g. {unknown[0]}"
    foreign = {value for _, value in cells if value not in ref.values}
    if foreign:
        return f"{name}: SA values outside the input domain: {sorted(foreign)[:3]}"
    return None


def check_sps_output(ref: Reference, path: Path) -> str | None:
    """SPS keeps keys and SA domain, and scales the row total back to the input's."""
    cells, total = _published_cells(path)
    problem = _check_domain(ref, cells, "sps output")
    if problem is None and abs(total - ref.n_rows) > 0.01 * ref.n_rows:
        problem = f"sps output: {total} rows for {ref.n_rows} input rows (over 1% apart)"
    return problem

