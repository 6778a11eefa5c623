"""The run's publishing, in a process of its own that serves one job per round.

For each job (one JSON line on stdin) it runs ``repro.stream.stream_publish``
from a CSV path to a CSV path, then ``read_csv`` → ``repro.publish`` →
``write_csv`` on the same source, and answers with one JSON line.  The process imports ``repro`` once, before the first job, so no round
pays for the imports.  The peak resident memory is read right after the
process's first stream publish, which is the first thing it does after the
imports.  On end of input it writes its spans (traced run) and exits.  Usage
(from the checkout root)::

    python3 perfbench/publisher.py '<json: src, trace, spans>'
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


class PublisherProcess:
    """The benchmark's handle on a running ``publisher.py``."""

    def __init__(self, root: Path, trace: bool, spans: Path) -> None:
        config = {"src": str(root / "src"), "trace": trace, "spans": str(spans)}
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "publisher.py"), json.dumps(config)], cwd=root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._line()  # "ready", once the imports are done

    def _line(self) -> dict:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"publisher exited with code {self.process.wait()}")
        return json.loads(line)

    def publish(self, job: dict[str, Any]) -> dict:
        assert self.process.stdin is not None
        self.process.stdin.write(json.dumps(job) + "\n")
        self.process.stdin.flush()
        return self._line()

    def close(self) -> None:
        if self.process.poll() is None:
            assert self.process.stdin is not None
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def main(config: dict) -> None:
    # Answers go to the real stdout; anything else printed goes to stderr.
    answers, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, config["src"])
    from repro import publish, read_csv, stream_publish, write_csv

    recorder = None
    if config["trace"]:
        import repro.pipeline.pipeline as pipeline_module
        from repro.parallel.kernels import StrategyKernel
        from spans import Recorder

        recorder = Recorder("publisher")
        recorder.wrap(StrategyKernel, "__call__", "pipeline.kernel")
        recorder.wrap(pipeline_module, "audit_table", "core.audit_table",
                      annotate=lambda audit: {"groups": audit.n_groups})
        recorder.watch_gc()

    def span(name: str):
        return recorder.span(name) if recorder is not None else nullcontext({})

    def kernel_s(parent: dict) -> list[float]:
        assert recorder is not None
        return [s["end"] - s["start"] for s in recorder.spans
                if s["name"] == "pipeline.kernel" and s["parent"] == parent["id"]]

    peak_mb = None
    print(json.dumps("ready"), file=answers, flush=True)
    for line in sys.stdin:
        job = json.loads(line)
        source, sensitive = job["source"], job["sensitive"]
        strategy, seed = job["strategy"], job["seed"]
        with span("stream.publish") as stream_span:
            start = time.perf_counter()
            stream = stream_publish(source, sensitive=sensitive, strategy=strategy,
                                    rng=seed, output=job["stream_out"])
            stream_s = time.perf_counter() - start
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        with span("pipeline.inmem"):
            start = time.perf_counter()
            with span("dataset.read_csv"):
                table = read_csv(source, sensitive=sensitive)
            read_done = time.perf_counter()
            with span("pipeline.publish") as publish_span:
                report = publish(table, strategy=strategy, rng=seed)
            publish_done = time.perf_counter()
            with span("dataset.write_csv"):
                write_csv(report.published, job["mem_out"])
            inmem_s = time.perf_counter() - start

        record = {
            "rows": stream.n_rows,
            "stream_s": stream_s,
            "inmem_rows": len(table),
            "inmem_s": inmem_s,
            "read_csv_s": read_done - start,
            "write_csv_s": start + inmem_s - publish_done,
            "stream_timings": stream.timings,
            "pipeline_timings": report.timings,
            "stream_rows_out": stream.published_records,
            "stream_groups": stream.n_groups,
            "stream_chunks": stream.n_chunks,
        }
        if recorder is not None:
            record["stream_kernel_s"] = sum(kernel_s(stream_span))
            record["kernel_s"] = sum(kernel_s(publish_span))
            record["kernel_calls"] = len(kernel_s(publish_span))
        print(json.dumps({"peak_mb": peak_mb, "publish": record}), file=answers, flush=True)
    if recorder is not None:
        recorder.dump(Path(config["spans"]))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
