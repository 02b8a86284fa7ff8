"""Seeded benchmark inputs: program graphs and the HTTP bodies that carry them.

Two sources of graphs:

* :func:`suite_graphs` -- the 57 ``build_suite()`` regions compiled with
  the default O2 sequence, one graph each (the hot set);
* :func:`synthetic_pool` -- randomised :class:`KernelSpec` objects lowered
  by :class:`KernelIRGenerator` and compiled under sampled flag sequences,
  deduplicated by :func:`graph_fingerprint`.  Everything is drawn from a
  ``numpy`` generator seeded by the benchmark's ``--seed``, so a seed
  always yields the same pool.

The server only ever receives the JSON bodies built here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.graphs.builder import GraphBuilder
from repro.graphs.features import EncodedGraph, GraphEncoder
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.graph import ProgramGraph
from repro.ir.module import extract_region
from repro.passes.flag_sampler import sample_flag_sequences
from repro.passes.pass_manager import apply_flag_sequence
from repro.passes.pipelines import default_compilation_sequence
from repro.serving.serialization import program_graph_to_dict
from repro.workloads import ALL_PATTERNS, KernelIRGenerator, KernelSpec, build_suite

#: flag sequences the synthetic kernels are compiled under
FLAG_SEQUENCES = 64


@dataclass
class Item:
    """One distinct graph: the wire form, the encoded form, its identity."""

    graph: ProgramGraph
    encoded: EncodedGraph
    fingerprint: str
    wire: Dict[str, object]


def _item(graph: ProgramGraph, encoder: GraphEncoder) -> Item:
    encoded = encoder.encode(graph)
    return Item(graph, encoded, graph_fingerprint(encoded), program_graph_to_dict(graph))


def _compile(module, function_name: str, passes: Sequence[str], name: str) -> ProgramGraph:
    transformed = apply_flag_sequence(module, list(passes), clone=True)
    return GraphBuilder().build_module(
        extract_region(transformed, function_name), name=name
    )


def suite_graphs(encoder: GraphEncoder) -> List[Item]:
    """The 57 suite regions under the default O2 sequence."""
    passes = default_compilation_sequence()
    return [
        _item(_compile(region.module, region.function_name, passes, region.name), encoder)
        for region in build_suite()
    ]


def _random_spec(rng: np.random.Generator, index: int) -> KernelSpec:
    return KernelSpec(
        name=f"synthetic{index:05d}",
        family="synthetic",
        pattern=str(rng.choice(ALL_PATTERNS)),
        num_arrays=int(rng.integers(2, 7)),
        flop_chain=int(rng.integers(1, 10)),
        stride=int(rng.integers(1, 5)),
        uses_sqrt=bool(rng.random() < 0.3),
        uses_exp=bool(rng.random() < 0.3),
        uses_thread_partition=bool(rng.random() < 0.8),
        uses_atomics=bool(rng.random() < 0.2),
        uses_critical=bool(rng.random() < 0.1),
        inner_trip=int(rng.choice([0, 0, 2, 4, 8])),
        branch_in_body=bool(rng.random() < 0.3),
        second_level_indirection=bool(rng.random() < 0.15),
    )


def synthetic_pool(seed: int, count: int, encoder: GraphEncoder) -> List[Item]:
    """``count`` distinct synthetic graphs (distinct by fingerprint)."""
    rng = np.random.default_rng([seed, 0x5EB])
    sequences = sample_flag_sequences(FLAG_SEQUENCES, seed=int(rng.integers(2**31)))
    generator = KernelIRGenerator()
    items: List[Item] = []
    seen = set()
    attempts = 0
    while len(items) < count:
        attempts += 1
        if attempts > 4 * count + 100:
            raise RuntimeError(f"could not draw {count} distinct graphs")
        spec = _random_spec(rng, attempts)
        sequence = sequences[int(rng.integers(len(sequences)))]
        graph = _compile(
            generator.generate(spec), spec.region_function_name, sequence, spec.name
        )
        item = _item(graph, encoder)
        if item.fingerprint not in seen:
            seen.add(item.fingerprint)
            items.append(item)
    return items


def zipf_order(
    rng: np.random.Generator, pool_size: int, length: int, exponent: float
) -> np.ndarray:
    """``length`` pool indices drawn with P(rank r) proportional to r^-exponent,
    over a seeded random ranking of the pool."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** exponent
    ranks = rng.choice(pool_size, size=length, p=weights / weights.sum())
    return rng.permutation(pool_size)[ranks]


def single_body(item: Item, trace: bool) -> bytes:
    payload: Dict[str, object] = {"graph": item.wire}
    if trace:
        payload["trace"] = True
    return json.dumps(payload).encode("utf-8")


def batch_body(items: Sequence[Item], trace: bool) -> bytes:
    payload: Dict[str, object] = {"graphs": [item.wire for item in items]}
    if trace:
        payload["trace"] = True
    return json.dumps(payload).encode("utf-8")


def describe(items: Sequence[Item], bodies: Sequence[bytes], sent: Sequence[int]) -> Dict[str, object]:
    """Input statistics: distinct graphs, node/edge quartiles, and the mean
    size of the bodies ``sent`` (indices into ``bodies``)."""
    nodes = [item.encoded.num_nodes for item in items]
    edges = [item.encoded.num_edges for item in items]
    sizes = [len(bodies[i]) for i in sent]
    return {
        "distinct_graphs": len({item.fingerprint for item in items}),
        "nodes_quartiles": [float(q) for q in np.percentile(nodes, [25, 50, 75])],
        "edges_quartiles": [float(q) for q in np.percentile(edges, [25, 50, 75])],
        "body_kb_mean": float(np.mean(sizes)) / 1024.0 if sizes else 0.0,
    }
