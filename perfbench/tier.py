"""Boot, probe and stop the sharded service tier; a small HTTP client.

The tier is the program's own CLI, ``python -m repro serve --shards 2``,
started on a fresh temporary ``--shard-dir`` inside the checkout so no
ledger from an earlier run can preload it.  Everything here talks to it
from outside: HTTP on keep-alive connections, ``/v1/metrics`` for
counters and ``/proc/<pid>/status`` for peak memory.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

#: how long a boot may take before the run is abandoned
BOOT_TIMEOUT_S = 60.0


class Conn:
    """One keep-alive HTTP/1.1 connection to ``host:port``."""

    def __init__(self, addr: str, timeout: float = 60.0):
        host, port = addr.rsplit(":", 1)
        self._conn = http.client.HTTPConnection(host, int(port), timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, payload bytes)``; one reconnect on a stale socket."""
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body=body, headers=headers)
                resp = self._conn.getresponse()
                return resp.status, resp.read()
            except (http.client.RemoteDisconnected, BrokenPipeError,
                    ConnectionResetError):
                self._conn.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def get_json(self, path: str) -> dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def post_json(self, path: str, doc) -> tuple[int, dict]:
        status, payload = self.request("POST", path, json.dumps(doc).encode())
        return status, json.loads(payload)

    def close(self) -> None:
        self._conn.close()


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tier:
    """One ``serve --shards 2`` process tree on a fresh shard directory."""

    def __init__(self, root: Path, scratch: Path):
        self.dir = tempfile.mkdtemp(prefix="tier-", dir=scratch)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(os.path.join(self.dir, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--shards", "2",
             "--port", "0", "--shard-dir", self.dir],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True, start_new_session=True,
        )
        self.addr = ""
        self.shard_addrs: list[str] = []
        self.shard_pids: list[int] = []
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _first_line(self) -> str:
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        try:
            line = lines.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("the tier printed no address in time") from None
        if not line:
            raise RuntimeError(
                f"the tier exited with {self.proc.wait()} before serving; "
                f"see {self._log.name}"
            )
        return line

    def _await_ready(self) -> None:
        line = self._first_line()
        # "repro sharded service on http://127.0.0.1:PORT  (...)"
        url = line.split(" on ", 1)[1].split()[0]
        self.addr = url.split("://", 1)[1]
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        router = Conn(self.addr, timeout=5.0)
        try:
            while True:
                try:
                    metrics = router.get_json("/v1/metrics")
                    if metrics["router"]["alive"] == 2:
                        break
                except (OSError, RuntimeError, ValueError):
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("the tier never reported 2 live shards")
                time.sleep(0.02)
            router.get_json("/v1/healthz")
        finally:
            router.close()
        shards = metrics["shards"]
        self.shard_addrs = [shards[k]["addr"] for k in sorted(shards, key=int)]
        for i, addr in enumerate(self.shard_addrs):
            conn = Conn(addr, timeout=5.0)
            try:
                conn.get_json("/v1/healthz")
            finally:
                conn.close()
            with open(os.path.join(self.dir, f"shard-{i}.pid")) as fh:
                self.shard_pids.append(int(fh.read()))

    def metrics(self) -> dict:
        conn = Conn(self.addr)
        try:
            return conn.get_json("/v1/metrics")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Router + shards peak RSS, summed."""
        return sum(vm_hwm_mb(pid) for pid in [self.proc.pid, *self.shard_pids])

    def stop(self) -> None:
        """SIGINT the router (it stops its shards), then make sure."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=20)
        for pid in self.shard_pids:
            _reap(pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def _reap(pid: int) -> None:
    """Wait until an orphaned shard has exited, killing it if need be."""
    deadline = time.monotonic() + 10.0
    while _alive(pid):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("State:"):
                    return "Z" not in line.split()[1]
    except FileNotFoundError:
        return False
    return False


def counters(metrics: dict) -> dict[str, float]:
    """Flatten the tier-wide counters a run reports as deltas."""
    out = {f"router.{k}": metrics["router"].get(k, 0)
           for k in ("forwards", "failovers", "unavailable")}
    for key in ("served_computed", "served_cached", "served_coalesced",
                "rejected"):
        out[f"service.{key}"] = sum(
            shard.get("requests", {}).get(key, 0)
            for shard in metrics["shards"].values()
        )
    out["cache.hits"] = metrics["cache"].get("hits", 0)
    out["cache.misses"] = metrics["cache"].get("misses", 0)
    plan = metrics.get("kernel", {}).get("plan_cache", {})
    out["plan.hits"] = plan.get("hits", 0)
    out["plan.misses"] = plan.get("misses", 0)
    return out


def delta(after: dict[str, float], before: dict[str, float]) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0
