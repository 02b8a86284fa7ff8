"""The server under test: one ``python -m repro.serving`` child process.

:class:`ServerProcess` spawns the shipped CLI, times it until ``/healthz``
answers with every deployment (and every replica) ready, talks to its
``/metrics``, and reads CPU and memory of the whole process tree from
``/proc`` -- the server, its replica workers and the forkserver between
them.  ``stop()`` interrupts the server (a clean drain that also flushes
the journal), and kills whatever of the tree outlives the grace period.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _children_map() -> Dict[int, List[int]]:
    """parent pid -> child pids, over every process visible in /proc."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read_stat(int(entry))
        if stat is not None:
            children.setdefault(int(stat[1]), []).append(int(entry))
    return children


def _read_stat(pid: int) -> Optional[List[str]]:
    """Fields of /proc/<pid>/stat after the command name (None if gone).

    Index 0 is the state, 1 the parent pid, 11/12 utime/stime in clock
    ticks (fields 3, 4, 14 and 15 of proc(5))."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rfind(")") + 2 :].split()


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of one process in KiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def machine_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine since boot: time
    the hypervisor gave this machine's CPUs to someone else, and all time."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


class ServerError(RuntimeError):
    """The server failed to start, answer or stop."""


class ServerProcess:
    """One ``repro-serve`` child serving a fold ensemble."""

    def __init__(
        self,
        checkout: str,
        registry_root: str,
        ensemble: str,
        journal_dir: str,
        log_path: str,
        replicas: Optional[int] = None,
    ):
        self.checkout = checkout
        self.journal_dir = journal_dir
        self.log_path = log_path
        self.argv = [
            sys.executable,
            "-m",
            "repro.serving",
            "--root",
            registry_root,
            "--ensemble",
            ensemble,
            "--port",
            "0",
            "--journal-dir",
            journal_dir,
        ]
        if replicas is not None:
            self.argv += ["--replicas", str(replicas)]
        self.replicas = replicas
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._seen_pids: Dict[int, str] = {}

    # ------------------------------------------------------------ lifecycle
    def start(self, timeout_s: float = 90.0) -> float:
        """Spawn the server; return seconds until it is ready to serve."""
        env = dict(os.environ)
        src = os.path.join(self.checkout, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                cwd=self.checkout,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
                stdin=subprocess.DEVNULL,
            )
        deadline = started + timeout_s
        self.port = self._read_port(deadline)
        while True:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} during start-up "
                    f"(log: {self.log_path})"
                )
            if self._ready():
                setup_s = time.perf_counter() - started
                self._remember_tree()
                return setup_s
            if time.perf_counter() > deadline:
                raise ServerError(f"server not ready within {timeout_s}s")
            time.sleep(0.005)

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerError("server printed no address in time")
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ServerError(
                        f"server exited before printing its address "
                        f"(log: {self.log_path})"
                    )
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode("utf-8", "replace")
        marker = "http://127.0.0.1:"
        if marker not in line:
            raise ServerError(f"unexpected start-up line {line!r}")
        return int(line.rsplit(":", 1)[1].strip())

    def _ready(self) -> bool:
        try:
            status, health = self.get("/healthz", timeout_s=5.0)
        except (OSError, http.client.HTTPException, ValueError):
            return False
        if status != 200 or health.get("status") != "ok":
            return False
        models = health.get("models") or {}
        if not models or any(m.get("status") != "ok" for m in models.values()):
            return False
        if self.replicas is not None:
            # Only ready replicas answer the metrics broadcast.
            status, metrics = self.get("/metrics", timeout_s=5.0)
            replicas = (metrics.get("hub") or {}).get("replicas") or {}
            return status == 200 and len(replicas) == self.replicas
        return True

    def stop(self, grace_s: float = 30.0) -> None:
        """Interrupt the server (clean drain), then kill any leftovers."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        self._remember_tree(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=grace_s)
        if proc.stdout is not None:
            proc.stdout.close()
        self._kill_leftovers()

    def _remember_tree(self, root: Optional[int] = None) -> None:
        """Record the tree's pids with their start times, so leftovers can
        be killed later without touching a recycled pid."""
        for pid in self.tree_pids(root):
            stat = _read_stat(pid)
            if stat is not None:
                self._seen_pids[pid] = stat[19]

    def _kill_leftovers(self) -> None:
        deadline = time.monotonic() + 10.0
        for pid, started in self._seen_pids.items():
            stat = _read_stat(pid)
            if stat is None or stat[19] != started or stat[0] == "Z":
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue
            while time.monotonic() < deadline:
                stat = _read_stat(pid)
                if stat is None or stat[19] != started or stat[0] == "Z":
                    break
                time.sleep(0.01)
        self._seen_pids.clear()

    # ------------------------------------------------------------- requests
    def get(self, path: str, timeout_s: float = 30.0):
        """``(status, decoded JSON)`` of one GET on a fresh connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout_s)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def metrics(self) -> Dict[str, object]:
        status, payload = self.get("/metrics")
        if status != 200:
            raise ServerError(f"/metrics answered {status}")
        return payload

    def journal_drained(self, metrics: Dict[str, object], expected: int) -> bool:
        """True once the journal(s) hold ``expected`` records between them
        (written or dropped) with nothing left in the writer queue."""
        journals = self.journal_sections(metrics)
        if not journals:
            return False
        done = sum(int(j["written"]) + int(j["dropped"]) for j in journals)
        queued = sum(int(j["queued"]) for j in journals)
        return queued == 0 and done >= expected

    @staticmethod
    def journal_sections(metrics: Dict[str, object]) -> List[Dict[str, object]]:
        hub = metrics.get("hub") or {}
        if hub.get("journal"):
            return [hub["journal"]]
        replicas = hub.get("replicas") or {}
        return [r["journal"] for r in replicas.values() if r.get("journal")]

    def wait_journal(self, expected: int, timeout_s: float = 60.0) -> Dict[str, object]:
        """Block until every served record is journalled; return /metrics."""
        deadline = time.monotonic() + timeout_s
        while True:
            metrics = self.metrics()
            if self.journal_drained(metrics, expected):
                return metrics
            if time.monotonic() > deadline:
                raise ServerError(
                    f"journal did not drain {expected} records within {timeout_s}s"
                )
            time.sleep(0.02)

    # ------------------------------------------------------- process tree
    def tree_pids(self, root: Optional[int] = None) -> List[int]:
        """The server pid and every descendant (replicas, forkserver)."""
        if root is None:
            if self.proc is None:
                return []
            root = self.proc.pid
        children = _children_map()
        pids, frontier = [], [root]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            frontier.extend(children.get(pid, ()))
        return pids

    def cpu_seconds(self) -> float:
        """User + system CPU of every live process in the tree."""
        ticks = 0
        for pid in self.tree_pids():
            stat = _read_stat(pid)
            if stat is not None:
                ticks += int(stat[11]) + int(stat[12])
        return ticks / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum over the tree of each process's peak resident set."""
        return sum(_vm_hwm_kb(pid) for pid in self.tree_pids()) / 1024.0
