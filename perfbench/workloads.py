"""The benchmark's workloads: one input data set, one strategy, one round shape.

A *round* is a fixed list of operations — steps of one append followed by
one stream and one in-memory publish, cached reads, uncached audits and
malformed requests — so every
run attempts whole rounds and the share of failed operations is the same in
every run, whatever its length or seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of the data generators.  The data set is fixed; ``--seed`` varies what
# is done with it (publish seed, appended batches, audited specs).
DATA_SEED = 2015
# Held-back rows (a second generator call) from which appended batches come.
POOL_ROWS = 2000
# Spec of the cached audit reads: the warming audit's (the service default).
CACHED_SPECS = ({"lam": 0.3, "delta": 0.3},)
# Uncached audits use this delta, which no cached spec uses, so every one of
# them is a cache miss.
AUDIT_DELTA = 0.35
# Cached reads come in bursts of this many, half on each of two connections:
# one burst at the start of a round and one after every append, publish and
# audit.
READS_PER_BURST = 1000
# Rows per appended batch.
APPEND_ROWS = 100
# Publishing strategy of every workload.
STRATEGY = "sps"


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "census" or "adult"
    rows: int
    sensitive: str
    steps: int  # per round: an appended batch, then a stream + in-memory publish pair
    audits: int  # uncached audits per round


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # A census round takes longer than a run measures, so a census run is
        # one round; an adult run is several.  Census appends and publishes
        # take 6-14 s each and the machine's speed moves in levels lasting
        # seconds, so the two samples of each a census run takes are spread
        # over the round by alternating appends and publishes; its audits,
        # about 1 s each, are doubled for a steadier median.
        Workload("sps-census", "census", 100_000, "Occupation", steps=2, audits=8),
        Workload("sps-adult", "adult", 45_222, "Income", steps=2, audits=4),
    )
}
