"""The three workloads, from seeded inputs to checked, measured samples.

=================  =====================================================
``hot_single``     closed loop, 1 connection, single-graph bodies cycling
                   over the 57 suite regions; after an untimed warm-up
                   every request is a cache hit, so wire decode, encode,
                   fingerprint, the batcher hand-off and the journal are
                   all a request pays.
``cold_batch``     closed loop, 1 connection, 16-graph bodies cycling over
                   a seeded synthetic pool 1.5x the cache capacity (an LRU
                   cache never hits on such a cycle); batch bodies skip
                   the micro-batcher, so collate, plan build, stacked
                   inference and combine dominate.
``mixed_replicas`` open loop, Poisson arrivals over a fixed rate ladder on
                   2 connections, Zipf-skewed single-graph bodies, served
                   by ``--replicas 2``: routing, pickling and the pipe,
                   with cache hits next to misses.
=================  =====================================================

Every workload runs against the same server configuration (the 5-fold
ensemble with mean-softmax, journal on, CLI defaults for cache, batch
size and batching window); only ``mixed_replicas`` adds ``--replicas 2``.

``BENCHMARK.json`` gates ``hot_single`` and ``cold_batch`` only: on a
2-core machine the three processes of ``mixed_replicas`` plus the load
generator gave a run-to-run spread of its latencies (p50 0.23, p99 0.46
of the median over ten seeds) wider than any usable bound.  It stays
runnable by name for exploring the replica path.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inputs, loadgen
from .server import ServerProcess, machine_ticks

#: the CLI's default embedding-cache capacity, which the pools are sized by
CACHE_CAPACITY = 1024

#: server starts per run; ``setup_s`` is their median
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # "closed" or "open"
    connections: int
    batch: int  # graphs per request body
    replicas: Optional[int]
    #: latency limit on the tail percentile for ``max_rps_under_slo``
    slo_ms: float
    #: open loop: offered rates (requests/s), each for an equal share of the run
    ladder: Tuple[float, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hot_single",
            "cache hits only: wire decode, encode, fingerprint, batcher hand-off "
            "and journal per request; an engine change must read as no change",
            loop="closed",
            connections=1,
            batch=1,
            replicas=None,
            slo_ms=50.0,
        ),
        Workload(
            "cold_batch",
            "16-graph bodies that never hit the cache and bypass the batcher: "
            "collate, plan, stacked 5-fold inference and combine per graph",
            loop="closed",
            connections=1,
            batch=16,
            replicas=None,
            slo_ms=1000.0,
        ),
        Workload(
            "mixed_replicas",
            "open-loop Poisson ladder of Zipf-skewed graphs over --replicas 2: "
            "routing, pickling and the pipe, with hits beside misses",
            loop="open",
            connections=2,
            batch=1,
            replicas=2,
            slo_ms=150.0,
            ladder=(30.0, 60.0, 90.0),
        ),
    )
}


@dataclass
class Prepared:
    """A workload's seeded inputs and the answers expected for them."""

    workload: Workload
    items: List[inputs.Item]
    labels: List[int]  # reference label per item
    bodies: List[bytes]
    traced_bodies: List[bytes]
    members: List[List[int]]  # item indices carried by each body
    warmup: List[int]  # body order of the untimed warm-up
    order: List[int]  # body order of the measured window(s)
    offsets: List[float] = field(default_factory=list)  # open loop due times


def prepare(workload: Workload, seed: int, seconds: float, reference, scale: float = 1.0) -> Prepared:
    """Draw the workload's inputs from ``seed`` and label them."""
    rng = np.random.default_rng([seed, 0x1B])
    encoder = reference.encoder
    if workload.name == "hot_single":
        items = inputs.suite_graphs(encoder)
        members = [[i] for i in range(len(items))]
        cycle = [int(i) for i in rng.permutation(len(items))]
        warmup = cycle * 2
        order = cycle * 200
        offsets: List[float] = []
    elif workload.name == "cold_batch":
        pool = max(workload.batch * 4, int(CACHE_CAPACITY * 1.5 * scale))
        pool -= pool % workload.batch
        items = inputs.synthetic_pool(seed, pool, encoder)
        batches = [
            list(range(start, start + workload.batch))
            for start in range(0, pool, workload.batch)
        ]
        # The warm-up also sends the first batch's graphs one at a time, so
        # the single-graph path (and its batcher) is warm as well.
        singles = [[i] for i in batches[0]]
        members = batches + singles
        warmup = list(range(len(batches), len(members))) + [1, 2, 3]
        order = list(range(4, len(batches))) + list(range(len(batches))) * 50
        offsets = []
    else:
        order_ranks, offsets = _open_loop_schedule(workload, rng, seconds, scale)
        distinct = sorted(set(int(r) for r in order_ranks))
        items = inputs.synthetic_pool(seed, len(distinct), encoder)
        slot = {rank: i for i, rank in enumerate(distinct)}
        members = [[i] for i in range(len(items))]
        order = [slot[int(r)] for r in order_ranks]
        # Warm-up: a few graphs no window request uses, so every window
        # repeat is a repeat of the window itself.
        spare = inputs.synthetic_pool(seed + 1_000_003, 24, encoder)
        fresh = [item for item in spare if item.fingerprint not in {i.fingerprint for i in items}]
        members += [[len(items) + i] for i in range(len(fresh))]
        warmup = list(range(len(items), len(items) + len(fresh)))
        items = items + fresh
    labels = reference.labels([item.encoded for item in items])
    bodies, traced = [], []
    for group in members:
        chosen = [items[i] for i in group]
        for out, trace in ((bodies, False), (traced, True)):
            out.append(
                inputs.single_body(chosen[0], trace)
                if workload.batch == 1
                else inputs.batch_body(chosen, trace)
            )
    return Prepared(workload, items, labels, bodies, traced, members, warmup, order, offsets)


#: Zipf exponent and virtual pool size of the open-loop graph draw
ZIPF_EXPONENT = 1.1
ZIPF_POOL = 4096


def _open_loop_schedule(workload: Workload, rng, seconds: float, scale: float):
    """Pool ranks and due offsets of a Poisson arrival ladder."""
    step = seconds / len(workload.ladder)
    offsets: List[float] = []
    for k, rate in enumerate(workload.ladder):
        t = k * step
        rate = rate * scale
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= (k + 1) * step:
                break
            offsets.append(t)
    ranks = inputs.zipf_order(rng, ZIPF_POOL, len(offsets), ZIPF_EXPONENT)
    return ranks, offsets


# --------------------------------------------------------------- running


@dataclass
class Window:
    """One measured window on a freshly started, warmed server."""

    samples: List[loadgen.Sample]
    warmup: List[loadgen.Sample]
    seconds: float  # the run length asked for
    elapsed: float  # from the first send to the last answer
    cpu_s: float
    graphs: int
    metrics_after: Dict[str, object]
    rss_mb: float
    journal_bytes: int
    journal_records: int
    abandoned: int = 0  # open loop: due requests never sent
    #: share of the machine's CPU time stolen by the hypervisor meanwhile
    steal_share: float = 0.0


@dataclass
class Run:
    setups: List[float]
    windows: List[Window]


def run(prepared: Prepared, seconds: float, checkout: str, registry_root: str,
        ensemble: str, workdir: str, traced_window: bool) -> Run:
    """Time ``SETUP_REPEATS`` server starts and measure on the last one.

    With ``traced_window`` a second server is started, warmed the same way
    and measured with bodies that ask for ``"trace": true``, so the two
    windows differ only in tracing.
    """
    setups: List[float] = []
    windows: List[Window] = []
    servers = 0

    def start() -> ServerProcess:
        nonlocal servers
        journal = os.path.join(workdir, f"journal-{servers}")
        servers += 1
        server = ServerProcess(
            checkout, registry_root, ensemble, journal,
            os.path.join(workdir, "server.log"),
            replicas=prepared.workload.replicas,
        )
        try:
            setups.append(server.start())
        except BaseException:
            server.stop()
            raise
        return server

    for _ in range(SETUP_REPEATS - 1):
        start().stop()
    for traced in (False, True) if traced_window else (False,):
        server = start()
        try:
            windows.append(_measure(prepared, server, seconds, traced))
        finally:
            server.stop()
        windows[-1].journal_bytes, windows[-1].journal_records = _journal_size(
            server.journal_dir
        )
    return Run(setups, windows)


def _measure(prepared: Prepared, server: ServerProcess, seconds: float, traced: bool) -> Window:
    workload = prepared.workload
    bodies = prepared.traced_bodies if traced else prepared.bodies
    warm = loadgen.closed_loop(
        server.port, bodies, prepared.warmup, workload.connections, 120.0
    )
    answered = _graphs_answered(prepared, warm)
    server.wait_journal(answered)
    cpu0 = server.cpu_seconds()
    steal0, ticks0 = machine_ticks()
    started = time.perf_counter()
    abandoned = 0
    if workload.loop == "closed":
        samples = loadgen.closed_loop(
            server.port, bodies, prepared.order, workload.connections, seconds
        )
    else:
        samples, abandoned = loadgen.open_loop(
            server.port, bodies, prepared.order, prepared.offsets,
            workload.connections, give_up_after=seconds + 5.0,
        )
    elapsed = time.perf_counter() - started
    graphs = _graphs_answered(prepared, samples)
    after = server.wait_journal(answered + graphs)
    cpu = server.cpu_seconds() - cpu0
    steal1, ticks1 = machine_ticks()
    return Window(
        samples=samples,
        warmup=warm,
        seconds=seconds,
        elapsed=elapsed,
        cpu_s=cpu,
        graphs=graphs,
        metrics_after=after,
        rss_mb=server.peak_rss_mb(),
        journal_bytes=0,
        journal_records=0,
        abandoned=abandoned,
        steal_share=(steal1 - steal0) / max(ticks1 - ticks0, 1),
    )


def _graphs_answered(prepared: Prepared, samples: Sequence[loadgen.Sample]) -> int:
    return sum(len(prepared.members[s.index]) for s in samples if s.status == 200)


def _journal_size(directory: str) -> Tuple[int, int]:
    """(bytes, records) of every journal segment under ``directory``;
    each segment's header line is not a record."""
    size = records = 0
    for parent, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".jsonl"):
                path = os.path.join(parent, name)
                size += os.path.getsize(path)
                with open(path, "rb") as handle:
                    records += max(sum(1 for _ in handle) - 1, 0)
    return size, records


# ------------------------------------------------------------ checking


@dataclass
class Check:
    """Correctness of one window's answers."""

    attempted: int = 0
    failed: int = 0
    graphs_answered: int = 0
    graphs_matched: int = 0
    mismatches: List[str] = field(default_factory=list)
    results: List[Tuple[loadgen.Sample, List[Dict[str, object]]]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches and self.attempted > 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def label_match(self) -> float:
        return self.graphs_matched / self.graphs_answered if self.graphs_answered else 0.0


def check(prepared: Prepared, samples: Sequence[loadgen.Sample], abandoned: int = 0) -> Check:
    """Compare every answer with the reference fingerprint and label.

    A request fails on a non-200 status, a connection error or timeout, or
    an answer that does not carry one result per graph sent.
    """
    result = Check(attempted=len(samples) + abandoned, failed=abandoned)
    for sample in samples:
        expected = prepared.members[sample.index]
        answers = _answers(sample, len(expected))
        if answers is None:
            result.failed += 1
            continue
        result.results.append((sample, answers))
        for item_index, answer in zip(expected, answers):
            result.graphs_answered += 1
            item = prepared.items[item_index]
            want = prepared.labels[item_index]
            if answer.get("fingerprint") == item.fingerprint and answer.get("label") == want:
                result.graphs_matched += 1
            elif len(result.mismatches) < 5:
                result.mismatches.append(
                    f"{item.graph.name}: label {answer.get('label')} vs reference {want}"
                )
    return result


def _answers(sample: loadgen.Sample, count: int) -> Optional[List[Dict[str, object]]]:
    if sample.status != 200 or sample.payload is None:
        return None
    try:
        payload = json.loads(sample.payload)
    except ValueError:
        return None
    answers = [payload["result"]] if "result" in payload else payload.get("results")
    if not isinstance(answers, list) or len(answers) != count:
        return None
    return answers


# ------------------------------------------------------------- metrics


def tail(values_ms: Sequence[float], wanted: int = 99) -> Tuple[int, float]:
    """``(percentile, value)``: the ``wanted`` percentile, or the highest
    whole percentile below it that still has ten samples beyond it."""
    percentile = wanted
    while percentile > 50 and len(values_ms) * (100 - percentile) < 1000:
        percentile -= 1
    value = float(np.percentile(values_ms, percentile)) if len(values_ms) else 0.0
    return percentile, value


def ladder_steps(prepared: Prepared, window: Window) -> List[Dict[str, object]]:
    """Per-rate results of an open-loop window.

    A rate meets the SLO when none of its requests failed, its tail
    latency (counted from each request's due time) is within the limit,
    and no more requests were waiting to be sent at its end than the
    limit's worth of arrivals: the backlog did not grow.
    """
    workload = prepared.workload
    step_s = window.seconds / len(workload.ladder)
    origin = window.samples[0].due - prepared.offsets[0] if window.samples else 0.0
    steps = []
    for k, rate in enumerate(workload.ladder):
        lo, hi = origin + k * step_s, origin + (k + 1) * step_s
        inside = [s for s in window.samples if lo <= s.due < hi]
        latencies = [s.latency_s * 1000.0 for s in inside]
        percentile, value = tail(latencies)
        answered = sum(1 for s in inside if s.status == 200)
        backlog = sum(1 for s in inside if s.sent > hi)
        steps.append(
            {
                "offered_rps": rate,
                "achieved_rps": answered / step_s,
                "requests": len(inside),
                "failed": len(inside) - answered,
                "tail_percentile": percentile,
                "tail_ms": value,
                "p50_ms": float(np.percentile(latencies, 50)) if latencies else None,
                "backlog_at_end": backlog,
                "meets_slo": bool(
                    inside
                    and answered == len(inside)
                    and value <= workload.slo_ms
                    and backlog <= workload.connections + rate * workload.slo_ms / 1000.0
                ),
            }
        )
    return steps


def end_to_end(prepared: Prepared, setups: Sequence[float], window: Window, verdict: Check) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The end-to-end metrics of one untraced window, plus their context.

    ``latency_p90_ms`` is the tail that is gated; the context adds the
    99th percentile where at least ten samples lie beyond it, else the
    highest percentile that has ten beyond it (``latency_tail_percentile``
    says which), with the sample count.
    ``max_rps_under_slo`` is the achieved rate of the highest ladder rate
    that, with every rate below it, meets the SLO; a closed loop is one
    operating point, counted when its tail meets the limit with no failures.
    """
    workload = prepared.workload
    latencies = [s.latency_s * 1000.0 for s in window.samples if s.status == 200]
    percentile, tail_ms = tail(latencies)
    context: Dict[str, object] = {
        "latency_samples": len(latencies),
        "latency_tail_percentile": percentile,
        "latency_tail_ms": tail_ms,
        "error_rate": verdict.error_rate,
        "label_match": verdict.label_match,
        "graphs_answered": window.graphs,
        "window_s": window.elapsed,
        "server_cpu_s": window.cpu_s,
        "cpu_steal_share": window.steal_share,
        "setup_samples_s": list(setups),
    }
    max_rps = 0.0
    if workload.loop == "open":
        steps = ladder_steps(prepared, window)
        for step in steps:
            if not step["meets_slo"]:
                break
            max_rps = step["achieved_rps"]
        context["ladder"] = steps
    elif verdict.failed == 0 and tail_ms <= workload.slo_ms:
        max_rps = len(latencies) / window.elapsed
    metrics = {
        "setup_s": statistics.median(setups),
        "graphs_per_s": window.graphs / window.elapsed,
        "latency_p50_ms": float(np.percentile(latencies, 50)) if latencies else 0.0,
        "latency_p90_ms": float(np.percentile(latencies, 90)) if latencies else 0.0,
        "max_rps_under_slo": max_rps,
        "cpu_ms_per_graph": window.cpu_s * 1000.0 / window.graphs if window.graphs else 0.0,
        "rss_mb": window.rss_mb,
    }
    return metrics, context
