"""The per-layer cost ledger of a traced run.

Three sources, all outside the program:

* **probes** -- each layer's public functions timed in this process on
  the workload's own graphs and batch sizes (JSON, wire decode, encode,
  fingerprint, collate, plan, stacked and per-fold inference, combine,
  the journal writer, and a replica pool against an in-process hub);
* **the server's counters** -- ``/metrics`` at the end of the traced
  window (cache, batcher, journal);
* **the server's spans** -- the ``"trace": true`` spans of every traced
  answer, set against the latency the client saw.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.engine import build_plan
from repro.engine.stacked import StackedFoldModel
from repro.graphs.batching import collate
from repro.graphs.fingerprint import graph_fingerprint
from repro.serving import ModelHub
from repro.serving.deployment import DeploymentSpec, deployment_spec_to_dict
from repro.serving.ensemble import combine_mean_softmax
from repro.serving.journal import JournalWriter
from repro.serving.replica import ReplicaConfig, ReplicaSupervisor
from repro.serving.serialization import program_graph_from_dict

from .workloads import Prepared, Window

#: request bodies each probe is timed on
PROBE_BODIES = 48

#: the server stages whose span p50s are reported
STAGES = ("decode", "cache_lookup", "queue_wait", "plan_build", "infer", "combine", "total")

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("http.json_loads_ms", "ms"),
    ("http.response_dumps_ms", "ms"),
    ("http.body_kb", "KiB"),
    ("serialization.decode_ms", "ms"),
    ("graphs.encode_ms", "ms"),
    ("graphs.fingerprint_ms", "ms"),
    ("graphs.collate_ms", "ms"),
    ("batcher.queue_wait_ms", "ms"),
    ("batcher.batch_size_mean", "graphs"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("engine.plan_build_ms", "ms"),
    ("engine.infer_ms_per_graph", "ms"),
    ("engine.perfold_infer_ms_per_graph", "ms"),
    ("engine.gflop_per_graph", "GFLOP"),
    ("engine.overhead_factor", "x"),
    ("ensemble.combine_ms", "ms"),
    ("journal.bytes_per_record", "bytes"),
    ("journal.record_cpu_ms", "ms"),
    ("journal.dropped", "count"),
    ("replica.hop_ms", "ms"),
    ("replica.pickle_bytes", "bytes"),
    ("replica.affinity_hit_ratio", "ratio"),
) + tuple((f"trace.{stage}_ms", "ms") for stage in STAGES) + (
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("loadgen.lateness_ms", "ms"),
)


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1000.0


def _median_ms(calls: Sequence[Callable[[], object]], repeats: int = 3) -> float:
    """Median over calls of each call's best-of-``repeats`` time."""
    return statistics.median(min(_timed(call) for _ in range(repeats)) for call in calls)


class Ledger:
    """Per-layer metrics of one workload's traced run."""

    def __init__(self, prepared: Prepared, reference, registry_root: str, ensemble: str, workdir: str):
        self.prepared = prepared
        self.reference = reference
        self.registry_root = registry_root
        self.ensemble = ensemble
        self.workdir = workdir
        self.stacked = StackedFoldModel(reference.models)
        self.metrics: Dict[str, float] = {}
        self.context: Dict[str, object] = {}

    # ------------------------------------------------------------------ API
    def measure(self, untraced: Window, traced: Window, untraced_e2e: Dict[str, float],
                traced_e2e: Dict[str, float], traced_results, warmup_results) -> Dict[str, float]:
        """Every per-layer metric; ``traced_results`` and ``warmup_results``
        are the checked answers of the traced window and of its warm-up."""
        bodies = self._probe_bodies(traced)
        self._wire(bodies, traced, traced_results)
        self._graphs(bodies)
        self._engine(bodies, untraced_e2e)
        self._server_counters(traced)
        self._journal(traced)
        self._replica(bodies)
        self._spans(warmup_results + traced_results, untraced_e2e, traced_e2e)
        lateness = [s.late_s * 1000.0 for s in untraced.samples]
        self.metrics["loadgen.lateness_ms"] = float(np.percentile(lateness, 99))
        missing = [name for name, _ in PER_LAYER if name not in self.metrics]
        if missing:
            raise RuntimeError(f"ledger produced no value for {missing}")
        return self.metrics

    # ------------------------------------------------------------ internals
    def _probe_bodies(self, window: Window) -> List[int]:
        """The first distinct bodies the traced window sent."""
        chosen: List[int] = []
        for sample in window.samples:
            if sample.index not in chosen:
                chosen.append(sample.index)
            if len(chosen) == PROBE_BODIES:
                break
        return chosen

    def _graphs_of(self, body: int):
        return [self.prepared.items[i] for i in self.prepared.members[body]]

    def _wire(self, bodies: List[int], window: Window, results) -> None:
        raw = self.prepared.bodies
        self.metrics["http.json_loads_ms"] = _median_ms(
            [lambda b=raw[i]: json.loads(b) for i in bodies]
        )
        payloads = [json.loads(s.payload) for s, _ in results[: len(bodies)]]
        self.metrics["http.response_dumps_ms"] = _median_ms(
            [lambda p=p: json.dumps(p) for p in payloads]
        )
        sent = [len(raw[s.index]) for s in window.samples]
        self.metrics["http.body_kb"] = float(np.mean(sent)) / 1024.0
        self.metrics["serialization.decode_ms"] = _median_ms(
            [
                lambda items=self._graphs_of(i): [program_graph_from_dict(it.wire) for it in items]
                for i in bodies
            ]
        )

    def _graphs(self, bodies: List[int]) -> None:
        encoder = self.reference.encoder
        self.metrics["graphs.encode_ms"] = _median_ms(
            [lambda items=self._graphs_of(i): [encoder.encode(it.graph) for it in items] for i in bodies]
        )
        self.metrics["graphs.fingerprint_ms"] = _median_ms(
            [lambda items=self._graphs_of(i): [graph_fingerprint(it.encoded) for it in items] for i in bodies]
        )
        self.metrics["graphs.collate_ms"] = _median_ms(
            [lambda items=self._graphs_of(i): collate([it.encoded for it in items]) for i in bodies]
        )

    def _engine(self, bodies: List[int], untraced_e2e: Dict[str, float]) -> None:
        batches = [collate([it.encoded for it in self._graphs_of(i)]) for i in bodies]
        self.metrics["engine.plan_build_ms"] = _median_ms(
            [lambda b=b: (b.invalidate_adjacency_cache(), build_plan(b)) for b in batches]
        )
        plans = [build_plan(b) for b in batches]
        size = self.prepared.workload.batch
        stacked = _median_ms([lambda p=p: self.stacked.infer(p) for p in plans]) / size
        perfold = _median_ms(
            [lambda p=p: [m.infer(p) for m in self.reference.models] for p in plans]
        ) / size
        self.metrics["engine.infer_ms_per_graph"] = stacked
        self.metrics["engine.perfold_infer_ms_per_graph"] = perfold
        flops = [self._flops(p) / p.num_graphs for p in plans]
        self.metrics["engine.gflop_per_graph"] = float(np.mean(flops)) / 1e9
        cpu = untraced_e2e["cpu_ms_per_graph"]
        self.metrics["engine.overhead_factor"] = cpu / stacked
        self.context["overhead_factor_bases"] = {
            "cpu_ms_per_graph": cpu,
            "infer_ms_per_graph": stacked,
        }
        logits = [self.stacked.infer(p)[0] for p in plans]  # (B, F, L)
        self.metrics["ensemble.combine_ms"] = _median_ms(
            [lambda rows=rows: [combine_mean_softmax(row) for row in rows] for rows in logits]
        )

    def _flops(self, plan) -> float:
        """Multiply-add FLOPs of every fold's RGCN layers on one plan:
        ``2 * N * in * out`` per dense weight (self and each relation with
        edges) and ``2 * nnz * in`` per sparse propagation."""
        total = 0.0
        for model in self.reference.models:
            for layer in model.rgcn_layers:
                fan_in, fan_out = layer.self_weight.value.shape
                total += 2.0 * plan.num_nodes * fan_in * fan_out
                for relation in layer.relations:
                    matrix = plan.adjacency.get(relation)
                    if matrix is None:
                        continue
                    total += 2.0 * plan.num_nodes * fan_in * fan_out
                    total += 2.0 * matrix.nnz * fan_in
        return total

    def _server_counters(self, window: Window) -> None:
        hub = window.metrics_after.get("hub") or {}
        caches = [hub["cache"]] if hub.get("cache") else [
            r["cache"] for r in (hub.get("replicas") or {}).values() if r.get("cache")
        ]
        hits = sum(float(c["hits"]) for c in caches)
        lookups = hits + sum(float(c["misses"]) for c in caches)
        self.metrics["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        self.metrics["cache.evictions"] = sum(float(c["evictions"]) for c in caches)
        pools = [hub["pool"]] if hub.get("pool") else [
            r["pool"] for r in (hub.get("replicas") or {}).values() if r.get("pool")
        ]
        batches = sum(int(p["batches_dispatched"]) for p in pools)
        items = sum(int(p["items_dispatched"]) for p in pools)
        self.metrics["batcher.batch_size_mean"] = items / batches if batches else 0.0

    def _journal(self, window: Window) -> None:
        from .server import ServerProcess

        journals = ServerProcess.journal_sections(window.metrics_after)
        self.metrics["journal.dropped"] = float(sum(int(j["dropped"]) for j in journals))
        records = window.journal_records
        self.metrics["journal.bytes_per_record"] = (
            window.journal_bytes / records if records else 0.0
        )
        # The writer's cost per record: the same records the server wrote,
        # through a private writer, counting the CPU of every thread.
        directory = os.path.join(self.workdir, "journal-probe")
        shutil.rmtree(directory, ignore_errors=True)
        items = [it for i in self._probe_bodies(window) for it in self._graphs_of(i)]
        entries = [_journal_entry(it, self.ensemble) for it in items] * 4
        writer = JournalWriter(directory)
        try:
            start = time.process_time()
            for entry in entries:
                writer.record(entry)
            writer.flush()
            spent = time.process_time() - start
        finally:
            writer.close()
            shutil.rmtree(directory, ignore_errors=True)
        self.metrics["journal.record_cpu_ms"] = spent * 1000.0 / len(entries)

    def _replica(self, bodies: List[int]) -> None:
        """A 2-replica pool against an in-process hub on the same batches.

        Both answer every batch for the first time (no cache hits), so the
        difference is the pool's own hop: routing, pickling and the pipe.
        A second pass through the pool shows whether repeats land on the
        replica that already holds them.
        """
        spec = DeploymentSpec(name=self.ensemble, fold_group=self.ensemble)
        hub = ModelHub(self.registry_root, cache_capacity=1024, pool_workers=2)
        hub.load(spec)
        pool = ReplicaSupervisor(
            ReplicaConfig(
                registry_root=self.registry_root,
                specs=[deployment_spec_to_dict(spec)],
                cache_capacity=1024,
                replicas=2,
            )
        )
        warm = [[it.graph] for it in self.prepared.items[-2:]]
        batches = [[it.graph for it in self._graphs_of(i)] for i in bodies]
        try:
            pool.start()
            for graphs in warm:
                hub.predict_many(self.ensemble, graphs)
                pool.predict_many(self.ensemble, graphs)
            pool_ms, hub_ms, sizes = [], [], []
            for graphs in batches:
                pool_ms.append(_timed(lambda: pool.predict_many(self.ensemble, graphs)))
                start = time.perf_counter()
                results = hub.predict_many(self.ensemble, graphs)
                hub_ms.append((time.perf_counter() - start) * 1000.0)
                sizes.append(
                    len(pickle.dumps({"model": self.ensemble, "requests": graphs}))
                    + len(pickle.dumps(results))
                )
            repeats = [r.cache_hit for graphs in batches for r in pool.predict_many(self.ensemble, graphs)]
        finally:
            pool.stop()
            hub.stop()
        self.metrics["replica.hop_ms"] = statistics.median(pool_ms) - statistics.median(hub_ms)
        self.metrics["replica.pickle_bytes"] = float(np.mean(sizes))
        self.metrics["replica.affinity_hit_ratio"] = sum(repeats) / len(repeats)
        self.context["replica_bases_ms"] = {
            "pool_predict_many": statistics.median(pool_ms),
            "hub_predict_many": statistics.median(hub_ms),
        }

    def _spans(self, results, untraced_e2e: Dict[str, float], traced_e2e: Dict[str, float]) -> None:
        """Span statistics over every traced answer, warm-up included (so
        the cache misses of ``hot_single`` and the single-graph warm-up of
        ``cold_batch`` contribute the stages their windows never run)."""
        spans: Dict[str, List[float]] = {stage: [] for stage in STAGES}
        coverage: List[float] = []
        for sample, answers in results:
            for answer in answers:
                trace = answer.get("trace") or {}
                for stage in STAGES:
                    if f"{stage}_s" in trace:
                        spans[stage].append(trace[f"{stage}_s"] * 1000.0)
            trace = answers[0].get("trace") or {}
            accounted = sum(
                trace.get(f"{stage}_s", 0.0) for stage in STAGES if stage != "total"
            )
            coverage.append(accounted / sample.latency_s)
        for stage in STAGES:
            values = spans[stage]
            self.metrics[f"trace.{stage}_ms"] = float(np.percentile(values, 50)) if values else 0.0
        waits = spans["queue_wait"]
        self.metrics["batcher.queue_wait_ms"] = float(np.mean(waits)) if waits else 0.0
        self.metrics["trace.coverage"] = float(np.median(coverage)) if coverage else 0.0
        self.metrics["trace.overhead_ms"] = (
            traced_e2e["latency_p50_ms"] - untraced_e2e["latency_p50_ms"]
        )
        self.context["span_counts"] = {stage: len(values) for stage, values in spans.items()}
        self.context["tracing_overhead"] = {
            name: {"untraced": untraced_e2e[name], "traced": traced_e2e[name]}
            for name in untraced_e2e
        }


def _journal_entry(item, model: str) -> Dict[str, object]:
    """A record shaped like the ones the server journals for a cache miss."""
    return {
        "ts": time.time(),
        "model": model,
        "artifact": model,
        "fingerprint": item.fingerprint,
        "label": 0,
        "agreement": 1.0,
        "cache_hit": False,
        "batch_size": 1,
        "batch": {"seq": 1, "graphs": 1, "nodes": item.encoded.num_nodes,
                  "edges": item.encoded.num_edges, "relations": 3, "folds": 5},
        "latency_s": 0.01,
        "stages": {"cache_lookup_s": 0.001, "plan_build_s": 0.001,
                   "infer_s": 0.001, "combine_s": 0.0001, "total_s": 0.01},
        "graph": item.graph,
    }
