"""End-to-end benchmark of repro: CSV→CSV publishing and HTTP serving.

Run from the repository root::

    python3 perfbench/run.py --workload sps-census --seed 1 --seconds 20 --trace 0

Each run sets up (generates the inputs, starts ``python -m repro.serve`` on a
fresh SQLite store, registers the data set, makes a delta base publish and a
warming audit), then runs whole timed rounds until ``--seconds`` have passed,
then checks every output against a recomputation.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  A run summary (and, traced, every span) is written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from checks import Reference, check_audit, check_sps_output
from inputs import InputDrift, csv_bytes, generate
from layers import per_layer, self_time_problems
from publisher import PublisherProcess
from server import Connection, Server, closed_loop, malformed, malformed_requests
from spans import Recorder, load
from speed import Level
from workloads import (APPEND_ROWS, AUDIT_DELTA, CACHED_SPECS, POOL_ROWS, READS_PER_BURST,
                       STRATEGY, WORKLOADS, Workload)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# The whole run, teardown included, must end within 180 s.
DEADLINE_S = 160

class Failed(Exception):
    """A check failed; the run reports ``correct: false``."""


class Run:
    def __init__(self, workload: Workload, seed: int, trace: bool, root: Path,
                 work: Path) -> None:
        self.w, self.seed, self.trace = workload, seed, trace
        self.root, self.work = root, work
        self.rng = random.Random(seed)
        self.recorder = Recorder("client")
        self.server: Server | None = None
        self.publisher: PublisherProcess | None = None
        self.peak_mb = 0.0
        self.conn: Connection | None = None
        self.name, self.live = workload.dataset, f"{workload.dataset}-live"
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.phases: list[dict] = []
        self.rounds: list[dict] = []
        self.audits: list[tuple[dict, dict]] = []  # (spec, payload) of every distinct body
        self.fills: dict[str, bytes] = {}
        self.reads: list[dict] = []
        self.bursts: list[dict] = []
        self.appends: list[float] = []
        self.audit_latencies: list[float] = []
        self.level = Level()

    # ------------------------------------------------------------------ #
    @contextmanager
    def _phase(self, name: str) -> Iterator[dict]:
        record = {"name": name, "start": time.perf_counter()}
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.phases.append(record)
            self.recorder.add(f"phase.{name}", record["start"], record["end"])

    def _audit_path(self, spec: dict, rid: str) -> str:
        return (f"/audit?dataset={self.name}&lam={spec['lam']!r}&delta={spec['delta']!r}"
                f"&rid={rid}")

    def _cached_paths(self) -> list[str]:
        return [self._audit_path(spec, "") for spec in CACHED_SPECS] + [
            f"/datasets/{self.name}?rid="
        ]

    # ------------------------------------------------------------------ #
    def setup(self) -> float:
        start = time.perf_counter()
        with self.level.around(), self._phase("setup"):
            # The server imports while the inputs are generated.
            spans = self.work / "server-spans.json" if self.trace else None
            self.server = Server(self.root, self.work, spans)
            inputs = generate(self.w)
            self.pool = inputs.pool
            self.base = inputs.base_csv
            self.combined = bytearray(inputs.base_csv)
            base_path = self.work / "base.csv"
            base_path.write_bytes(inputs.base_csv)
            self.spliced = self.work / "spliced.csv"
            self.server.wait_ready()
            self.conn = Connection(self.server.port)
            status, _, body, _ = self.conn.request(
                "POST", f"/datasets?name={self.name}&sensitive={self.w.sensitive}&rid=setup-register",
                inputs.base_csv, content_type="text/csv")
            if status != 201:
                raise RuntimeError(f"register: HTTP {status}: {body[:300]!r}")
            job, _ = self.conn.json("POST", "/publish?rid=setup-base", {
                "delta": True, "name": self.live, "source": str(base_path),
                "sensitive": self.w.sensitive, "backend": STRATEGY,
                "output": str(self.spliced), "seed": self.seed,
            }, expect=201)
            if job.get("status") != "completed":
                raise RuntimeError(f"delta base publish: {job}")
            warm_spec = CACHED_SPECS[0]
            payload, _ = self.conn.json("GET", self._audit_path(warm_spec, "setup-warm"))
            self.audits.append((warm_spec, payload))
            for i, path in enumerate(self._cached_paths()):
                status, headers, body, _ = self.conn.request("GET", path + f"setup-fill{i}")
                if status != 200 or headers.get("x-cache") != "miss":
                    raise RuntimeError(f"fill {path}: HTTP {status} {headers.get('x-cache')}")
                self.fills[path] = body
                if path.startswith("/audit"):
                    self.audits.append((CACHED_SPECS[i], json.loads(body)))
        return self.phases[-1]["end"] - start

    def start_publisher(self) -> None:
        """Start the publishing process and wait until it has imported repro."""
        self.publisher = PublisherProcess(self.root, self.trace, self.work / "publisher-spans.json")

    # ------------------------------------------------------------------ #
    def run_round(self, index: int) -> None:
        """One round; a burst of cached reads follows every other operation."""
        assert self.server is not None and self.conn is not None and self.publisher is not None
        rnd: dict[str, Any] = {"index": index, "publishes": [], "outputs": []}
        if self.trace:
            rnd["stats_before"] = self._cache_counters()
        rnd["start"] = time.perf_counter()
        rnd["server_cpu_s"] = 0.0
        tag = f"{self.seed}-r{index}"
        self._reads(rnd, f"{tag}-first")

        # The server closes keep-alive connections idle for 30 s, and the
        # publishing is longer: appends and audits start on a fresh connection.
        # Each step appends a batch, then publishes the base rows plus every
        # row appended so far, so the round's last stream publish is also the
        # reference for the spliced delta CSV.
        for i in range(self.w.steps):
            self.conn.close()
            batch = [self.pool[j] for j in self.rng.sample(range(POOL_ROWS), APPEND_ROWS)]
            with self.level.around(), self._phase("append"):
                job, elapsed = self.conn.json(
                    "POST", f"/datasets/{self.live}/rows?rid={tag}-append{i}",
                    {"rows": batch}, expect=201)
            if job.get("status") != "completed":
                raise Failed(f"append {i}: {job}")
            self.appends.append(elapsed)
            self.attempted += 1
            self._reads(rnd, f"{tag}-append{i}")

            self.combined += csv_bytes(None, batch)
            source = self.work / f"combined-{index}-{i}.csv"
            source.write_bytes(self.combined)
            out = {"source": bytes(self.combined),
                   "stream_out": self.work / f"stream-{index}-{i}.csv",
                   "mem_out": self.work / f"mem-{index}-{i}.csv"}
            with self.level.around(), self._phase("publish"):
                answer = self.publisher.publish({
                    "source": str(source), "sensitive": self.w.sensitive,
                    "strategy": STRATEGY, "seed": self.seed,
                    "stream_out": str(out["stream_out"]), "mem_out": str(out["mem_out"]),
                })
            source.unlink()
            self.peak_mb = answer["peak_mb"]
            rnd["publishes"].append(answer["publish"])
            rnd["outputs"].append(out)
            self.attempted += 2
            self._reads(rnd, f"{tag}-publish{i}")
        rnd["stream_bytes"] = rnd["outputs"][-1]["stream_out"].stat().st_size

        self.conn.close()
        for i in range(self.w.audits):
            k = index * self.w.audits + i
            spec = {"lam": round(0.2 + 0.003 * k + (self.seed % 89) * 1e-5, 6),
                    "delta": AUDIT_DELTA}
            with self.level.around(), self._phase("audit"):
                status, headers, body, elapsed = self.conn.request(
                    "GET", self._audit_path(spec, f"{tag}-audit{i}"))
            if status != 200 or headers.get("x-cache") != "miss":
                raise Failed(f"uncached audit {spec}: HTTP {status} X-Cache {headers.get('x-cache')}")
            self.audit_latencies.append(elapsed)
            self.audits.append((spec, json.loads(body)))
            self.attempted += 1
            self._reads(rnd, f"{tag}-audit{i}")

        with self._phase("malformed"):
            for payload in malformed_requests(self.name, f"{tag}-bad"):
                self.attempted += 1
                if not malformed(self.server.port, payload):
                    self.failed += 1
        rnd["end"] = time.perf_counter()
        if self.trace:
            self.conn.close()
            after = self._cache_counters()
            rnd["cache"] = (after[0] - rnd["stats_before"][0], after[1] - rnd["stats_before"][1])
        self.rounds.append(rnd)

    def _cache_counters(self) -> tuple[int, int]:
        assert self.conn is not None
        stats, _ = self.conn.json("GET", "/stats")
        return stats["response_cache"]["hits"], stats["response_cache"]["misses"]

    def _reads(self, rnd: dict, tag: str) -> None:
        """One burst of cached reads over two keep-alive connections, closed loop.

        A round's reads come in many short bursts spread over the round, and
        the read metrics are medians over bursts, so a short disturbance of
        the machine moves a few bursts' figures, not the metrics.
        """
        assert self.server is not None
        paths = self._cached_paths()
        per_connection = [
            [paths[(i + slot) % len(paths)] + f"{tag}-read{slot}.{i}"
             for i in range(READS_PER_BURST // 2)]
            for slot in (0, 1)
        ]
        cpu_before = self.server.cpu_seconds()
        with self.level.around(), self.server.pinned(), self._phase("reads"):
            reads = closed_loop(self.server.port, per_connection)
        rnd["server_cpu_s"] += self.server.cpu_seconds() - cpu_before
        for read in reads:
            read["path"], _, read["rid"] = read["target"].rpartition("rid=")
            read["path"] += "rid="
        latencies = [read["latency"] for read in reads]
        self.bursts.append({
            "median": statistics.median(latencies),
            "p90": statistics.quantiles(latencies, n=10)[8],
            # From the first request sent to the last response read, so the
            # connections' set-up and tear-down are not counted.
            "rps": len(reads) / (max(r["start"] + r["latency"] for r in reads)
                                 - min(r["start"] for r in reads)),
        })
        self.reads += reads
        self.attempted += len(reads)

    # ------------------------------------------------------------------ #
    def check(self) -> None:
        with self._phase("checks"):
            base = Reference(self.base)
            for spec, payload in self.audits:
                problem = check_audit(base, spec, payload)
                if problem:
                    self.problems.append(problem)
            for read in self.reads:
                if read["status"] != 200 or read["cache"] != "hit":
                    self.problems.append(f"cached read {read['path']}: HTTP {read['status']} "
                                         f"X-Cache {read['cache']}")
                    break
                if read["body"] != self.fills[read["path"]]:
                    self.problems.append(f"cache hit for {read['path']} differs from its miss")
                    break
            for rnd in self.rounds:
                for i, out in enumerate(rnd["outputs"]):
                    where = f"round {rnd['index']} publish {i}"
                    if not filecmp.cmp(out["stream_out"], out["mem_out"], shallow=False):
                        self.problems.append(f"{where}: stream and in-memory bytes differ")
                    problem = check_sps_output(Reference(out["source"]), out["stream_out"])
                    if problem:
                        self.problems.append(f"{where}: {problem}")
            last = self.rounds[-1]["outputs"][-1]["stream_out"]
            if not filecmp.cmp(self.spliced, last, shallow=False):
                self.problems.append("delta: spliced CSV differs from a full stream publish "
                                     "of the base plus all appended rows")

    # ------------------------------------------------------------------ #
    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """The run's metrics, every time scaled to the reference machine level (speed.py)."""
        pubs = [p for rnd in self.rounds for p in rnd["publishes"]]
        scale = self.level.scale
        return {
            "setup_s": setup_s * scale,
            "publish_rows_per_s": statistics.median(p["rows"] / p["stream_s"] for p in pubs) / scale,
            "publish_peak_mb": self.peak_mb,
            "inmem_rows_per_s": statistics.median(p["inmem_rows"] / p["inmem_s"]
                                                  for p in pubs) / scale,
            "read_ms": 1000 * statistics.median(b["median"] for b in self.bursts) * scale,
            "read_p90_ms": 1000 * statistics.median(b["p90"] for b in self.bursts) * scale,
            "read_rps": statistics.median(b["rps"] for b in self.bursts) / scale,
            "audit_ms": 1000 * statistics.median(self.audit_latencies) * scale,
            "append_s": statistics.median(self.appends) * scale,
        }

    def layers(self) -> dict[str, dict]:
        spans = load(self.work / "server-spans.json") + load(self.work / "publisher-spans.json")
        problems = self_time_problems(self.phases, spans)
        self.problems += problems
        self.all_spans = self.recorder.spans + spans
        setup = next(p for p in self.phases if p["name"] == "setup")
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        return per_layer(self.rounds, (setup["start"], setup["end"]), spans, self.reads, units)

    def close(self) -> None:
        if self.publisher is not None:
            self.publisher.close()
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.stop()


def _deadline(signum: int, frame: Any) -> None:
    raise TimeoutError(f"run exceeded {DEADLINE_S}s")


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(f"terminated by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Started from a shell in the background, SIGINT arrives ignored and the
    # server would inherit that; a handled SIGINT is reset for each child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(DEADLINE_S)

    workload = WORKLOADS[args.workload]
    results = root / ".perfbench_work" / "results"
    work = root / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)  # temporary files of every process stay in the checkout
    results.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.seed, bool(args.trace), root, work)
    try:
        setup_s = run.setup()
        run.start_publisher()
        timed_start = time.perf_counter()
        while not run.rounds or time.perf_counter() - timed_start < args.seconds:
            run.run_round(len(run.rounds))
        run.close()
        run.check()
        e2e = run.end_to_end(setup_s)
        layer = run.layers() if run.trace else None
    except InputDrift as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Failed as exc:
        run.problems.append(str(exc))
        e2e, layer = None, None
    finally:
        run.close()
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.problems
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "rounds": len(run.rounds), "read_bursts": run.bursts,
               "append_s": run.appends, "audit_s": run.audit_latencies,
               "publishes": [(p["stream_s"], p["inmem_s"]) for r in run.rounds
                             for p in r["publishes"]],
               "probe_s": run.level.times,
               "phases": [(p["name"], p["end"] - p["start"]) for p in run.phases],
               "correct": correct, "problems": run.problems,
               "end_to_end": e2e, "per_layer": layer}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(summary, indent=1))
    if run.trace and e2e is not None:
        (results / f"{name}-spans.json").write_text(json.dumps(run.all_spans))
    if e2e is None:
        metrics: dict[str, Any] = {}
    elif run.trace:
        metrics = layer or {}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(f"{workload.name}: {len(run.rounds)} round(s), {run.attempted} ops, "
          f"{run.failed} failed, e2e {json.dumps(e2e)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
