"""Reference labels, computed without the server or the fold-stacked engine.

Each fold is loaded on its own with :meth:`ArtifactRegistry.load` and run
through :meth:`StaticRGCNModel.infer`; the per-fold logits are combined
graph by graph with :func:`combine_mean_softmax`.  A served answer is right
when its fingerprint and label equal the ones computed here.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.engine import build_plan
from repro.graphs.batching import collate
from repro.serving import ArtifactRegistry
from repro.serving.ensemble import combine_mean_softmax

#: graphs per reference forward pass
CHUNK = 16


class Reference:
    """The fold models of one ensemble, loaded independently."""

    def __init__(self, registry_root: str, ensemble: str):
        registry = ArtifactRegistry(registry_root)
        members = registry.fold_members(ensemble)
        if not members:
            raise RuntimeError(f"registry has no folds of {ensemble!r}")
        self.artifacts = [registry.load(members[fold]) for fold in sorted(members)]
        self.models = [artifact.model for artifact in self.artifacts]
        self.encoder = self.artifacts[0].encoder

    def labels(self, encoded: Sequence[object]) -> List[int]:
        """Mean-softmax ensemble label of every encoded graph."""
        labels: List[int] = []
        for start in range(0, len(encoded), CHUNK):
            plan = build_plan(collate(list(encoded[start : start + CHUNK])))
            stacked = np.stack([model.infer(plan)[0] for model in self.models], axis=1)
            labels.extend(combine_mean_softmax(row)[0] for row in stacked)
        return labels
