"""Per-layer metrics of the traced run, from spans and public reports.

Publishing layers (``dataset.*``, ``pipeline.*``, ``stream.*``) are per
publish, median over a round's publishes; the other times and counts are
totals over one timed round; both are then the median over the run's rounds.
``service.register_s`` is the set-up's registration; ``serve.cache_probe_ms``
and ``serve.frontend_ms`` are per cached read, median.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from spans import self_times

def _inside(spans: list[dict], start: float, end: float) -> list[dict]:
    return [s for s in spans if start <= s["start"] and s["end"] <= end]


def _total(spans: list[dict], name: str, field: str | None = None) -> float:
    return sum((s[field] if field else s["end"] - s["start"]) for s in spans if s["name"] == name)


def _count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _publish_metrics(pub: dict) -> dict[str, float]:
    stream, pipeline = pub["stream_timings"], pub["pipeline_timings"]
    return {
        "dataset.read_csv_s": pub["read_csv_s"],
        "dataset.write_csv_s": pub["write_csv_s"],
        "pipeline.group_index_s": pipeline["group_index"],
        "pipeline.audit_s": pipeline["audit"],
        "pipeline.enforce_s": pipeline["enforce"],
        "pipeline.kernel_s": pub["kernel_s"],
        "pipeline.kernel_calls": pub["kernel_calls"],
        "stream.read_s": stream["read"],
        "stream.index_s": stream["group_index"],
        "stream.audit_s": stream["audit"],
        "stream.enforce_s": stream["enforce"],
        "stream.encode_write_s": stream["enforce"] - pub["stream_kernel_s"],
        "stream.rows_out": pub["stream_rows_out"],
        "stream.groups": pub["stream_groups"],
        "stream.chunks": pub["stream_chunks"],
    }


def _round_metrics(rnd: dict, spans: list[dict]) -> dict[str, float]:
    pubs = [_publish_metrics(p) for p in rnd["publishes"]]
    inside = _inside(spans, rnd["start"], rnd["end"])
    return {
        **{name: statistics.median(p[name] for p in pubs) for name in pubs[0]},
        "stream.bytes_out": rnd["stream_bytes"] / 1e6,
        "core.audit_table_s": _total(inside, "core.audit_table"),
        "core.groups_audited": _total(inside, "core.audit_table", "groups"),
        "service.audit_s": _total(inside, "service.audit"),
        "service.append_s": _total(inside, "service.append"),
        "delta.publish_s": _total(inside, "delta.publish"),
        "delta.chunks_dirty": _total(inside, "delta.publish", "chunks_dirty"),
        "delta.chunks_total": _total(inside, "delta.publish", "chunks_total"),
        "store.commits": _count(inside, "store.commit"),
        "store.commit_s": _total(inside, "store.commit"),
        "serve.route_s": _total(inside, "serve.route"),
        "serve.queue_wait_s": _total(inside, "serve.queue_wait"),
        "serve.cache_hits": rnd["cache"][0],
        "serve.cache_misses": rnd["cache"][1],
        "py.gc_s": _total(inside, "py.gc"),
        "py.gc_collections": _count(inside, "py.gc"),
        "proc.server_cpu_s": rnd["server_cpu_s"],
    }


def per_layer(rounds: list[dict], setup: tuple[float, float], spans: list[dict],
              reads: list[dict], units: dict[str, str]) -> dict[str, dict[str, Any]]:
    """The per-layer metrics named in ``units`` (name → unit, from BENCHMARK.json);
    ``spans`` are the server's and publishers' spans."""
    per_round = [_round_metrics(rnd, spans) for rnd in rounds]
    values: dict[str, float] = {
        name: statistics.median(m[name] for m in per_round) for name in per_round[0]
    }
    values["service.register_s"] = _total(_inside(spans, *setup), "service.register")
    # Every cached read is a hit (the checks fail the run otherwise), answered
    # by the router's cache probe in the event loop: it never reaches the
    # request queue or the route handler.
    probe_time = {s["rid"]: s["end"] - s["start"] for s in spans if s["name"] == "serve.cache_probe"}
    values["serve.cache_probe_ms"] = 1000 * statistics.median(probe_time[r["rid"]] for r in reads)
    values["serve.frontend_ms"] = 1000 * statistics.median(
        r["latency"] - probe_time[r["rid"]] for r in reads
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def self_time_problems(phases: list[dict], spans: list[dict]) -> list[str]:
    """Within each phase, no layer's self time may exceed the phase's wall time."""
    own = self_times(spans)
    problems = []
    for phase in phases:
        wall = phase["end"] - phase["start"]
        by_layer: dict[str, float] = defaultdict(float)
        for s in _inside(spans, phase["start"], phase["end"]):
            by_layer[s["name"]] += own[(s["proc"], s["id"])]
        problems += [
            f"{phase['name']}: {layer} self time {t:.4f}s exceeds the phase's {wall:.4f}s"
            for layer, t in by_layer.items() if t > wall
        ]
    return problems
