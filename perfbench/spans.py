"""A small in-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions (see ``traced_server.py`` and ``publisher.py``).
Each span has a name, start, end, parent span and the request id of the HTTP
operation it belongs to; times are ``time.perf_counter()`` readings, which
on Linux is ``CLOCK_MONOTONIC`` and so comparable across processes.  Spans
stay in memory and are written out when the process ends.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any


class Recorder:
    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, rid: str | None = None,
            parent: int | None = None, span_id: int | None = None,
            **attrs: Any) -> None:
        """Record a finished span under ``parent`` (default: the current span)."""
        stack = self._stack()
        parent_rid = None
        if parent is None and stack:
            parent, parent_rid = stack[-1]
        self.spans.append({
            "id": span_id if span_id is not None else next(self._ids), "name": name,
            "start": start, "end": end, "parent": parent,
            "rid": rid if rid is not None else parent_rid, "proc": self.process, **attrs,
        })

    @contextmanager
    def span(self, name: str, rid: str | None = None, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record the enclosed block; spans recorded inside it are its children.

        Yields the span's attributes, to which the block may add; ``id`` is
        the span's id.
        """
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        rid = rid if rid is not None else parent_rid
        span_id = next(self._ids)
        attrs["id"] = span_id
        stack.append((span_id, rid))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            stack.pop()
            fields = {k: v for k, v in attrs.items() if k != "id"}
            self.add(name, start, time.perf_counter(), rid, parent, span_id, **fields)

    def wrap(self, owner: Any, attr: str, name: str,
             annotate: Callable[[Any], dict[str, Any]] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    record.update(annotate(result))
                return result

        setattr(owner, attr, wrapper)

    def watch_gc(self) -> None:
        """Record every garbage collection as a ``py.gc`` span."""
        def callback(phase: str, info: dict[str, Any]) -> None:
            now = time.perf_counter()
            if phase == "start":
                self._local.gc_start = now
                return
            start = getattr(self._local, "gc_start", None)
            if start is not None:
                self._local.gc_start = None
                self.add("py.gc", start, now, generation=info.get("generation"))

        gc.callbacks.append(callback)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load(path: Path) -> list[dict[str, Any]]:
    return json.loads(path.read_text()) if path.exists() else []


def self_times(spans: list[dict[str, Any]]) -> dict[tuple[str, int], float]:
    """Each span's duration minus what its children cover, keyed by (proc, id)."""
    covered: dict[tuple[str, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[(span["proc"], span["parent"])] += span["end"] - span["start"]
    return {
        (span["proc"], span["id"]): max(
            0.0, span["end"] - span["start"] - covered[(span["proc"], span["id"])]
        )
        for span in spans
    }
