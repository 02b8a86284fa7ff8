"""Stateless inference execution engine.

The training stack (:mod:`repro.gnn`) mutates per-layer activation caches
during ``forward``, which forces at-most-one forward at a time.  This
package is the inference-time counterpart, built around two ideas:

* an immutable :class:`ExecutionPlan` — adjacency (CSR per relation) and
  pooling segments for one collated micro-batch, built once and shared by
  every consumer (lifecycle: build → share → discard);
* pure evaluation paths — ``infer`` on every layer/model never touches the
  backward caches, so inference is reentrant: concurrent micro-batches can
  overlap with each other *and* with a training step on the same weights.

:class:`StackedFoldModel` extends that to whole ensembles: F folds'
relation weights stacked into ``(F, in, out)`` tensors, one batched matmul
per weight and one CSR sweep per relation per layer for all folds at once,
bit-identical to the per-fold forwards.

Concurrency contract: nothing in this package holds mutable state between
calls — no locks are needed anywhere above it, which is why the serving
layer's ``_forward_lock``s could be deleted.

Threading policy: one BLAS thread per serving process.  The engine's
GEMMs are too small for a threaded BLAS to speed up, and its idle workers
spin-wait on the cores the serving threads need.  Parallelism comes from
running micro-batches side by side (the batcher pool's threads and the
replica processes), so :func:`repro.engine.blas.pin_single_thread` sets
every loaded OpenBLAS to one thread when the first serving front-end is
built.  Results do not change: single- and multi-threaded GEMMs are
bit-identical.
"""

from .plan import ExecutionPlan, PlanShape, build_plan
from .stacked import IncompatibleFoldsError, StackedFoldModel

__all__ = [
    "ExecutionPlan",
    "PlanShape",
    "build_plan",
    "IncompatibleFoldsError",
    "StackedFoldModel",
]
