"""Benchmark inputs: generated tables written as CSV by the benchmark itself.

The tables come from ``repro.generate_census`` / ``repro.generate_adult`` at
:data:`~workloads.DATA_SEED`; the CSV text is written here with the ``csv``
module, so its bytes depend on the generators only.  Their SHA-256 digests
are pinned below: a run whose inputs differ refuses to report numbers, so a
generator change is never read as a change in speed.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from workloads import DATA_SEED, POOL_ROWS, Workload

# (base CSV, held-back pool CSV) digests per data set.
EXPECTED_DIGESTS = {
    "census": ("2c1cc8fea20355452dbb1242b265a6d2a0ad6dd5634b3e6d7fbbde8434ec5357",
               "8a0257a7f2a32b10a60053b46ddfd7ca6ffe77bc45d2a5a9b92cc39a75b3b24c"),
    "adult": ("89d780fcb56c734c99e0bf7139cfe3fded756ce5fb5e1b10be6b64e617123799",
              "29cefeefdeb1733348c23e70d8fb570fa4a6b696b2fea3a7c44b401e43d6d585"),
}


class InputDrift(RuntimeError):
    """The generated inputs are not the ones the reference numbers used."""


@dataclass(frozen=True)
class Inputs:
    base_csv: bytes
    pool: list[list[str]]


def _decoded_rows(table) -> list[list[str]]:
    schema = table.schema
    columns = [
        np.asarray(attribute.values, dtype=object)[table.codes[:, j]]
        for j, attribute in enumerate((*schema.public, schema.sensitive))
    ]
    return [list(row) for row in zip(*columns)]


def csv_bytes(header: list[str] | None, rows: list[list[str]]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def generate(workload: Workload) -> Inputs:
    """Generate the base table and the held-back pool, checking their digests."""
    from repro import generate_adult, generate_census

    make = generate_census if workload.dataset == "census" else generate_adult
    base = make(workload.rows, seed=DATA_SEED)
    pool = make(POOL_ROWS, seed=DATA_SEED + 1)
    header = [*base.schema.public_names, base.schema.sensitive_name]
    base_csv = csv_bytes(header, _decoded_rows(base))
    pool_rows = _decoded_rows(pool)
    digests = (
        hashlib.sha256(base_csv).hexdigest(),
        hashlib.sha256(csv_bytes(header, pool_rows)).hexdigest(),
    )
    if digests != EXPECTED_DIGESTS[workload.dataset]:
        raise InputDrift(
            f"{workload.dataset} inputs drifted: sha256 {digests} != pinned "
            f"{EXPECTED_DIGESTS[workload.dataset]}; the generators changed, so "
            "numbers from this run are not comparable with the reference"
        )
    return Inputs(base_csv=base_csv, pool=pool_rows)
