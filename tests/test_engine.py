"""Golden tests for the stateless inference engine (:mod:`repro.engine`).

The engine's contract is *bit-for-bit* parity with the training-time
forward pass: ``StaticRGCNModel.infer`` must equal an eval-mode
``forward`` exactly, ``StackedFoldModel`` must equal every member's own
``infer`` exactly, and none of it may perturb the training path (layer
caches, gradients).  Every assertion here is ``np.array_equal`` — no
tolerances.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.engine import (
    ExecutionPlan,
    IncompatibleFoldsError,
    StackedFoldModel,
    build_plan,
)
from repro.gnn.model import ModelConfig, StaticRGCNModel
from repro.graphs.batching import collate
from repro.graphs.features import EncodedGraph
from repro.graphs.graph import RELATIONS

NUM_FOLDS = 4


def make_graph(rng, name, num_nodes, drop_relations=(), num_edges_factor=3):
    """A random encoded graph; ``drop_relations`` get zero edges."""
    relations = {}
    for rel in RELATIONS:
        if rel in drop_relations or num_nodes == 0:
            relations[rel] = np.zeros((2, 0), dtype=np.int64)
        else:
            relations[rel] = rng.integers(
                0, num_nodes, size=(2, num_edges_factor * num_nodes)
            ).astype(np.int64)
    return EncodedGraph(
        name=name,
        token_ids=rng.integers(0, 32, size=num_nodes).astype(np.int64),
        kind_ids=rng.integers(0, 3, size=num_nodes).astype(np.int64),
        extra_features=rng.normal(size=(num_nodes, 5)),
        relations=relations,
        label=int(rng.integers(0, 5)),
    )


def make_models(num_folds=NUM_FOLDS, pooling="mean", **overrides):
    config = dict(
        vocabulary_size=32,
        num_classes=5,
        hidden_dim=12,
        graph_vector_dim=8,
        num_rgcn_layers=2,
        num_extra_features=5,
        pooling=pooling,
    )
    config.update(overrides)
    models = [StaticRGCNModel(ModelConfig(seed=seed, **config)) for seed in range(num_folds)]
    for model in models:
        model.eval()
    return models


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def batch(rng):
    return collate(
        [
            make_graph(rng, "plain", 9),
            make_graph(rng, "empty", 0),  # zero-node graph
            make_graph(rng, "isolated", 6, drop_relations=RELATIONS),  # zero edges
            make_graph(rng, "partial", 11, drop_relations=RELATIONS[:2]),
            make_graph(rng, "tiny", 1),
        ]
    )


class TestExecutionPlan:
    def test_plan_reuses_the_batch_adjacency_cache(self, batch):
        plan_a = ExecutionPlan.from_batch(batch)
        plan_b = build_plan(batch)
        assert batch.adjacency_builds == 1  # built once, shared by both plans
        for rel in RELATIONS:
            assert plan_a.adjacency[rel] is plan_b.adjacency[rel]

    def test_plan_arrays_are_immutable(self, batch):
        plan = build_plan(batch)
        for array in (
            plan.token_ids,
            plan.extra_features,
            plan.graph_index,
            plan.segment_counts,
            plan.pool_counts,
        ):
            with pytest.raises(ValueError):
                array[...] = 0

    def test_segment_structure(self, batch):
        plan = build_plan(batch)
        assert plan.num_graphs == 5
        assert list(plan.segment_counts) == [9, 0, 6, 11, 1]
        # Zero-node graphs get a clamped divisor, exactly like GlobalPool.
        assert list(plan.pool_counts) == [9.0, 1.0, 6.0, 11.0, 1.0]

    def test_from_arrays_matches_from_batch(self, batch):
        plan = build_plan(batch)
        raw = ExecutionPlan.from_arrays(
            token_ids=batch.token_ids,
            extra_features=batch.extra_features,
            relations=batch.relations,
            graph_index=batch.graph_index,
            num_graphs=batch.num_graphs,
        )
        model = make_models(1)[0]
        logits_a, vectors_a = model.infer(plan)
        logits_b, vectors_b = model.infer(raw)
        assert np.array_equal(logits_a, logits_b)
        assert np.array_equal(vectors_a, vectors_b)


class TestSingleFoldParity:
    def test_infer_equals_eval_forward_bitwise(self, batch):
        model = make_models(1)[0]
        plan = build_plan(batch)
        logits_f, vectors_f = model.forward(batch)
        logits_i, vectors_i = model.infer(plan)
        assert np.array_equal(logits_f, logits_i)
        assert np.array_equal(vectors_f, vectors_i)

    @pytest.mark.parametrize("pooling", ["mean", "sum", "max"])
    def test_parity_across_pooling_modes(self, batch, pooling):
        model = make_models(1, pooling=pooling)[0]
        plan = build_plan(batch)
        logits_f, vectors_f = model.forward(batch)
        logits_i, vectors_i = model.infer(plan)
        assert np.array_equal(logits_f, logits_i)
        assert np.array_equal(vectors_f, vectors_i)

    def test_infer_on_zero_node_only_batch(self, rng):
        batch = collate([make_graph(rng, "void", 0)])
        model = make_models(1)[0]
        plan = build_plan(batch)
        logits_f, vectors_f = model.forward(batch)
        logits_i, vectors_i = model.infer(plan)
        assert np.array_equal(logits_f, logits_i)
        assert np.array_equal(vectors_f, vectors_i)

    def test_infer_is_eval_mode_even_when_training(self, batch):
        """Dropout must be the identity on the infer path regardless of the
        model's training flag — inference is eval-mode by definition."""
        model = make_models(1, dropout=0.5)[0]
        plan = build_plan(batch)
        expected_logits, _ = model.infer(plan)
        model.train()
        logits, _ = model.infer(plan)
        assert np.array_equal(expected_logits, logits)


class TestStackedFoldParity:
    def test_stacked_equals_per_fold_bitwise(self, batch):
        models = make_models()
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        assert stacked_logits.shape == (batch.num_graphs, NUM_FOLDS, 5)
        assert stacked_vectors.shape == (batch.num_graphs, NUM_FOLDS, 8)
        for fold, model in enumerate(models):
            logits, vectors = model.infer(plan)
            assert np.array_equal(stacked_logits[:, fold], logits)
            assert np.array_equal(stacked_vectors[:, fold], vectors)

    @pytest.mark.parametrize("pooling", ["mean", "sum", "max"])
    def test_stacked_parity_across_pooling_modes(self, batch, pooling):
        models = make_models(pooling=pooling)
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        for fold, model in enumerate(models):
            logits, vectors = model.infer(plan)
            assert np.array_equal(stacked_logits[:, fold], logits)
            assert np.array_equal(stacked_vectors[:, fold], vectors)

    def test_stacked_equals_legacy_forward_bitwise(self, batch):
        """The full chain: stacked engine == per-fold infer == eval forward."""
        models = make_models()
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        for fold, model in enumerate(models):
            logits, vectors = model.forward(batch)
            assert np.array_equal(stacked_logits[:, fold], logits)
            assert np.array_equal(stacked_vectors[:, fold], vectors)

    def test_stacked_on_edge_case_batches(self, rng):
        models = make_models()
        stacked = StackedFoldModel(models)
        for graphs in (
            [make_graph(rng, "void", 0)],
            [make_graph(rng, "lonely", 5, drop_relations=RELATIONS)],
            [make_graph(rng, "a", 3), make_graph(rng, "b", 0), make_graph(rng, "c", 4)],
        ):
            batch = collate(graphs)
            plan = build_plan(batch)
            stacked_logits, stacked_vectors = stacked.infer(plan)
            for fold, model in enumerate(models):
                logits, vectors = model.infer(plan)
                assert np.array_equal(stacked_logits[:, fold], logits)
                assert np.array_equal(stacked_vectors[:, fold], vectors)

    def test_stacked_is_a_frozen_snapshot(self, batch):
        models = make_models()
        plan = build_plan(batch)
        stacked = StackedFoldModel(models)
        before, _ = stacked.infer(plan)
        # Mutating a source model afterwards must not leak into the stack.
        models[0].classifier.weight.value += 1.0
        after, _ = stacked.infer(plan)
        assert np.array_equal(before, after)

    def test_single_member_stack(self, batch):
        models = make_models(1)
        plan = build_plan(batch)
        stacked_logits, stacked_vectors = StackedFoldModel(models).infer(plan)
        logits, vectors = models[0].infer(plan)
        assert np.array_equal(stacked_logits[:, 0], logits)
        assert np.array_equal(stacked_vectors[:, 0], vectors)

    def test_incompatible_members_rejected(self):
        small = make_models(1)[0]
        wide = make_models(1, hidden_dim=16)[0]
        with pytest.raises(IncompatibleFoldsError, match="hidden_dim"):
            StackedFoldModel([small, wide])
        with pytest.raises(ValueError, match="at least one"):
            StackedFoldModel([])

    def test_dropout_and_seed_may_differ(self, batch):
        """Inference-irrelevant config fields must not block stacking."""
        base = make_models(1)[0]
        other = make_models(1, dropout=0.5)[0]
        other_seeded = StaticRGCNModel(ModelConfig(seed=9, **{
            "vocabulary_size": 32, "num_classes": 5, "hidden_dim": 12,
            "graph_vector_dim": 8, "num_rgcn_layers": 2, "num_extra_features": 5,
        }))
        other_seeded.eval()
        stacked = StackedFoldModel([base, other, other_seeded])
        assert stacked.num_folds == 3


class TestTrainingPathUnchanged:
    def test_infer_does_not_disturb_pending_backward(self, batch):
        """An infer() between forward and backward must leave the training
        step's gradients bit-identical to an undisturbed run."""
        model_a = make_models(1)[0]
        model_b = make_models(1)[0]
        model_a.train()
        model_b.train()
        plan = build_plan(batch)

        loss_a, _ = model_a.loss_and_gradients(batch)
        grads_a = {p.name: p.grad.copy() for p in model_a.store}

        logits_b, _ = model_b.forward(batch)
        # Concurrent serving traffic mid-training-step: engine calls only.
        model_b.infer(plan)
        StackedFoldModel([model_b]).infer(plan)
        from repro.gnn.losses import cross_entropy

        loss_b, grad_logits = cross_entropy(logits_b, batch.labels)
        model_b.backward(grad_logits)
        grads_b = {p.name: p.grad.copy() for p in model_b.store}

        assert loss_a == loss_b
        assert set(grads_a) == set(grads_b)
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name

    def test_gradient_check_still_passes_after_infer(self, batch):
        """Numerical gradient of the classifier weight is unchanged whether
        or not the engine path ran in between."""
        model = make_models(1)[0]
        model.train()
        plan = build_plan(batch)
        model.infer(plan)

        param = model.classifier.weight
        model.store.zero_grad()
        loss, _ = model.loss_and_gradients(batch)
        analytic = param.grad[0, 0]
        eps = 1e-6
        original = param.value[0, 0]
        param.value[0, 0] = original + eps
        loss_hi, _ = model.loss_and_gradients(batch)
        param.value[0, 0] = original - eps
        loss_lo, _ = model.loss_and_gradients(batch)
        param.value[0, 0] = original
        numeric = (loss_hi - loss_lo) / (2 * eps)
        assert abs(analytic - numeric) < 1e-5

    def test_concurrent_infer_calls_are_consistent(self, batch):
        """The stateless path really is reentrant: many threads hammering
        one model/stack must all read bit-identical results."""
        models = make_models()
        stacked = StackedFoldModel(models)
        plan = build_plan(batch)
        expected_logits, expected_vectors = stacked.infer(plan)
        single_expected, _ = models[0].infer(plan)
        failures = []

        def worker():
            for _ in range(10):
                logits, vectors = stacked.infer(plan)
                single_logits, _ = models[0].infer(plan)
                if not (
                    np.array_equal(logits, expected_logits)
                    and np.array_equal(vectors, expected_vectors)
                    and np.array_equal(single_logits, single_expected)
                ):
                    failures.append("mismatch")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

#: Reads the thread count of every OpenBLAS mapped into the process without
#: going through repro.engine.blas, so the pin is checked independently.
_COUNT_OPENBLAS = """
import ctypes, os

def openblas_threads():
    counts = {}
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split(None, 5)
            if len(fields) < 6 or "openblas" not in os.path.basename(fields[5]):
                continue
            library = ctypes.CDLL(fields[5].strip())
            for name in ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                getter = getattr(library, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    counts[os.path.basename(fields[5].strip())] = getter()
                    break
    return counts
"""


def run_fresh(script):
    """Run ``script`` in a new interpreter (BLAS thread counts are process
    state) and return the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, TESTS_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _COUNT_OPENBLAS + textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="OpenBLAS discovery reads /proc"
)
class TestBlasThreadPin:
    def test_front_end_pins_every_openblas_to_one_thread(self):
        result = run_fresh(
            """
            import json
            from repro.gnn.model import ModelConfig, StaticRGCNModel
            from repro.graphs import GraphEncoder
            from repro.serving import PredictionService

            PredictionService(
                StaticRGCNModel(ModelConfig(vocabulary_size=8, num_classes=2)),
                GraphEncoder(),
            )
            print(json.dumps({"after": openblas_threads()}))
            """
        )
        if not result["after"]:
            pytest.skip("numpy and scipy are not built on OpenBLAS here")
        assert set(result["after"].values()) == {1}, result

    def test_pinned_stacked_logits_are_bit_identical(self):
        result = run_fresh(
            """
            import json
            import numpy as np
            from repro.engine import StackedFoldModel, blas, build_plan
            from repro.graphs.batching import collate
            from test_engine import make_graph, make_models

            rng = np.random.default_rng(11)
            models = make_models(hidden_dim=48, graph_vector_dim=32)
            stacked = StackedFoldModel(models)
            # Large enough that OpenBLAS splits the GEMMs across threads.
            plans = [
                build_plan(collate([make_graph(rng, f"g{i}", 200) for i in range(16)])),
                build_plan(collate([make_graph(rng, "one", 37)])),
            ]
            threads = openblas_threads()
            default = [stacked.infer(plan) for plan in plans]
            blas.pin_single_thread()
            pinned = [stacked.infer(plan) for plan in plans]
            same = all(
                np.array_equal(a, b)
                for before, after in zip(default, pinned)
                for a, b in zip(before, after)
            )
            print(json.dumps({
                "default_threads": threads,
                "pinned_threads": openblas_threads(),
                "bit_identical": same,
            }))
            """
        )
        assert result["bit_identical"], result
        assert set(result["pinned_threads"].values()) <= {1}, result

    def test_pin_without_openblas_is_a_silent_noop(self):
        result = run_fresh(
            """
            import json, os
            from repro.engine import blas

            threads = openblas_threads()
            blas._MAPS_PATH = os.path.join(os.devnull, "missing")
            blas.pin_single_thread()
            found = blas.thread_counts()
            print(json.dumps({
                "found": found, "before": threads, "after": openblas_threads(),
            }))
            """
        )
        assert result["found"] == {}
        # Nothing was touched: every real library keeps its own count.
        assert result["after"] == result["before"]
