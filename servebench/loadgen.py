"""HTTP load generation over keep-alive connections.

Two load loops, both writing one :class:`Sample` per request:

* :func:`closed_loop` -- each connection sends its next body as soon as
  the previous answer arrived (callers that wait for replies);
* :func:`open_loop` -- bodies are due on a fixed schedule whatever the
  server does (independent users).  A request's latency counts from the
  moment it was *due*, so a stall also charges the requests queued
  behind it, and the generator's own lateness is recorded separately.

Responses are kept as raw bytes and decoded after the measured window, so
the client spends as little CPU as possible while the server is timed.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

PREDICT_PATH = "/v1/predict"
_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int  # position of the body in the workload's body list
    due: float  # perf_counter time latency counts from
    sent: float  # perf_counter time it went on the wire
    done: float  # perf_counter time the whole answer was read
    status: int  # HTTP status; 0 for a connection error or timeout
    payload: Optional[bytes]
    #: how late the generator sent it: after its due time (open loop), or
    #: after the previous answer on its connection (closed loop)
    late_s: float

    @property
    def latency_s(self) -> float:
        return self.done - self.due


class Connection:
    """One keep-alive client connection that reconnects after an error."""

    def __init__(self, port: int, timeout_s: float = 30.0):
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, body: bytes):
        """``(status, payload)``; status 0 when the exchange failed."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout_s
            )
        try:
            self._conn.request("POST", PREDICT_PATH, body, _HEADERS)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def closed_loop(
    port: int,
    bodies: Sequence[bytes],
    order: Sequence[int],
    connections: int,
    seconds: float,
) -> List[Sample]:
    """Send ``bodies[order[k]]`` for k = 0, 1, ... from ``connections``
    back-to-back clients until ``seconds`` pass or ``order`` runs out."""
    samples: List[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    deadline = time.perf_counter() + seconds

    def client() -> None:
        conn = Connection(port)
        local: List[Sample] = []
        free = time.perf_counter()
        try:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= len(order) or time.perf_counter() >= deadline:
                    break
                index = order[k]
                sent = time.perf_counter()
                status, payload = conn.post(bodies[index])
                done = time.perf_counter()
                local.append(
                    Sample(index, sent, sent, done, status, payload, sent - free)
                )
                free = done
        finally:
            conn.close()
            with lock:
                samples.extend(local)

    _run_threads(client, connections)
    samples.sort(key=lambda s: s.due)
    return samples


def open_loop(
    port: int,
    bodies: Sequence[bytes],
    order: Sequence[int],
    due_offsets: Sequence[float],
    connections: int,
    give_up_after: float,
) -> Tuple[List[Sample], int]:
    """Send ``bodies[order[k]]`` at ``start + due_offsets[k]`` from a pool
    of ``connections`` senders; a request whose sender is still busy goes
    out late, and its latency still counts from its due time.

    Requests still unsent ``give_up_after`` seconds after the start are
    abandoned; returns the samples and the number abandoned."""
    samples: List[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.01
    give_up = start + give_up_after

    def sender() -> None:
        conn = Connection(port)
        local: List[Sample] = []
        try:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= len(order):
                    break
                due = start + due_offsets[k]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if sent > give_up:
                    break
                status, payload = conn.post(bodies[order[k]])
                local.append(
                    Sample(
                        order[k], due, sent, time.perf_counter(), status, payload,
                        sent - due,
                    )
                )
        finally:
            conn.close()
            with lock:
                samples.extend(local)

    _run_threads(sender, connections)
    samples.sort(key=lambda s: s.due)
    return samples, len(order) - len(samples)


def _run_threads(target, count: int) -> None:
    threads = [
        threading.Thread(target=target, name=f"loadgen-{i}", daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
