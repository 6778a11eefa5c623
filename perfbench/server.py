"""The server process under test and the HTTP client that loads it."""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class Server:
    """``python -m repro.serve`` (or the traced launcher) on a fresh SQLite store."""

    def __init__(self, root: Path, work: Path, spans: Path | None) -> None:
        self.port = _free_port()
        args = ["--store", str(work / "state.db"), "--host", "127.0.0.1",
                "--port", str(self.port)]
        if spans is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            command = [sys.executable, str(HERE / "traced_server.py"), str(spans), *args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = (work / "server.log").open("wb")
        self.process = subprocess.Popen(command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                        stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            try:
                status, _, _, _ = Connection(self.port, timeout=2).request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError("server did not answer /healthz in time")

    @contextmanager
    def pinned(self) -> Iterator[None]:
        """Put the server and the calling client on one and the same CPU.

        Used around the cached-read bursts.  On a shared 2-vCPU virtual
        machine, with client and server on different CPUs or free to migrate,
        every request pays a cross-CPU wake-up whose cost is the hypervisor's:
        over 12 bursts the spread of burst p90 latency was 0.8 (split) and 1.2
        (free) against 0.19 on one CPU.  The rest of a run stays unpinned.
        """
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
        os.sched_setaffinity(self.process.pid, {cpus[0]})
        try:
            yield
        finally:
            os.sched_setaffinity(self.process.pid, cpus)
            os.sched_setaffinity(0, cpus)

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None,
                content_type: str = "application/json") -> tuple[int, dict[str, str], bytes, float]:
        headers = {"Content-Type": content_type} if body is not None else {}
        start = time.perf_counter()
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        return response.status, {k.lower(): v for k, v in response.getheaders()}, data, elapsed

    def json(self, method: str, path: str, payload: Any = None,
             expect: int = 200) -> tuple[dict, float]:
        body = None if payload is None else json.dumps(payload).encode()
        status, _, data, elapsed = self.request(method, path, body)
        if status != expect:
            raise RuntimeError(f"{method} {path}: HTTP {status}: {data[:300]!r}")
        return json.loads(data), elapsed

    def close(self) -> None:
        self.http.close()


async def _keep_alive_loop(port: int, targets: list[str]) -> list[dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    results = []
    try:
        for target in targets:
            start = time.perf_counter()
            writer.write(f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode())
            await writer.drain()
            lines = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
            headers = dict(line.lower().split(": ", 1) for line in lines[1:] if line)
            body = await reader.readexactly(int(headers["content-length"]))
            results.append({"target": target, "start": start,
                            "latency": time.perf_counter() - start,
                            "status": int(lines[0].split()[1]),
                            "cache": headers.get("x-cache"), "body": body})
    finally:
        writer.close()
        await writer.wait_closed()
    return results


def closed_loop(port: int, per_connection: list[list[str]], timeout: float = 120.0) -> list[dict]:
    """GET each connection's targets in turn, one keep-alive connection each,
    all connections at once from one thread; returns one record per request."""
    async def run() -> list[list[dict]]:
        loops = (_keep_alive_loop(port, targets) for targets in per_connection)
        return await asyncio.wait_for(asyncio.gather(*loops), timeout)

    return [record for records in asyncio.run(run()) for record in records]


def malformed(port: int, payload: bytes) -> bool:
    """Send one malformed request; True iff a 4xx status line comes back."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(payload)
            head = b""
            while b"\r\n" not in head:
                chunk = sock.recv(4096)
                if not chunk:
                    return False
                head += chunk
    except OSError:
        return False
    parts = head.split(b" ", 2)
    return len(parts) > 1 and parts[1][:1] == b"4" and len(parts[1]) == 3


def malformed_requests(dataset: str, rid: str) -> list[bytes]:
    return [
        (f"POST /audit?rid={rid}-a HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: abc\r\n\r\n").encode(),
        (f"GET /datasets/{dataset}?rid={rid}-b HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         f"X-Padding: {'a' * 70_000}\r\n\r\n").encode(),
    ]
