"""Run ``repro-serve`` with spans recorded around its layers (traced run only).

Wraps public entry points of the router (cache probe and handler), the
request queue, the service, the delta engine and the store, then hands over
to ``repro.serve.cli.main``.
The spans are written to SPANS_PATH when the server stops.  Usage, from the
checkout root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/traced_server.py SPANS_PATH <repro-serve arguments>
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from spans import Recorder


def _rid(target: str) -> str | None:
    values = parse_qs(urlparse(target).query).get("rid")
    return values[-1] if values else None


def install(recorder: Recorder) -> None:
    import repro.delta.engine as delta_engine
    import repro.service.engine as service_engine
    from repro.serve.queue import BoundedDispatcher
    from repro.serve.router import ServiceRouter
    from repro.service.engine import AnonymizationService
    from repro.store.base import StorageConnector

    local = threading.local()
    submit = BoundedDispatcher.submit

    def timed_submit(self: Any, fn: Any) -> Any:
        queued = time.perf_counter()

        def run() -> Any:
            local.waited = (queued, time.perf_counter())
            return fn()

        return submit(self, run)

    BoundedDispatcher.submit = timed_submit  # type: ignore[method-assign]

    handle = ServiceRouter.handle

    def routed(self: Any, method: str, target: str, *args: Any, **kwargs: Any) -> Any:
        rid = _rid(target)
        waited, local.waited = getattr(local, "waited", None), None
        if waited is not None:
            recorder.add("serve.queue_wait", *waited, rid=rid)
        with recorder.span("serve.route", rid=rid, method=method,
                           path=urlparse(target).path):
            return handle(self, method, target, *args, **kwargs)

    ServiceRouter.handle = routed  # type: ignore[method-assign]

    # Cache hits are answered by the probe, in the event loop: they never
    # reach handle() or the request queue.
    probe = ServiceRouter.probe

    def probed(self: Any, method: str, target: str, *args: Any, **kwargs: Any) -> Any:
        with recorder.span("serve.cache_probe", rid=_rid(target)) as record:
            result = probe(self, method, target, *args, **kwargs)
            record["hit"] = result is not None
            return result

    ServiceRouter.probe = probed  # type: ignore[method-assign]

    for attr, name in (("register_csv", "service.register"), ("audit", "service.audit"),
                       ("append_rows", "service.append"),
                       ("publish_delta_base", "service.delta_base")):
        recorder.wrap(AnonymizationService, attr, name)
    recorder.wrap(service_engine, "audit_table", "core.audit_table",
                  annotate=lambda audit: {"groups": audit.n_groups})
    recorder.wrap(delta_engine, "publish_base", "delta.publish_base")
    recorder.wrap(delta_engine, "delta_publish", "delta.publish",
                  annotate=lambda report: {"chunks_dirty": report.n_chunks_dirty,
                                           "chunks_total": report.n_chunks})

    transaction = StorageConnector.transaction

    @contextmanager
    def timed_transaction(self: Any, write: bool = False) -> Iterator[Any]:
        if not write:
            with transaction(self, write) as txn:
                yield txn
            return
        with recorder.span("store.commit"), transaction(self, write) as txn:
            yield txn

    StorageConnector.transaction = timed_transaction  # type: ignore[method-assign]
    recorder.watch_gc()


def main(argv: list[str]) -> int:
    spans_path, serve_args = Path(argv[0]), argv[1:]
    from repro.serve.cli import main as serve_main

    recorder = Recorder("server")
    install(recorder)
    try:
        return serve_main(serve_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
