"""k-means row clustering, used by SPN/FSPN sum-node splits."""

from __future__ import annotations

import numpy as np


def standard_scale(data: np.ndarray) -> np.ndarray:
    """Per-column standard deviation, with 1 for a constant column."""
    scale = data.std(axis=0)
    scale[scale == 0] = 1.0
    return scale


def kmeans(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iterations: int = 25,
) -> np.ndarray:
    """Cluster rows of ``data`` into ``k`` groups; returns labels.

    Features are standardized internally; empty clusters are reseeded
    from the farthest points.  Deterministic given ``rng``'s state.
    """
    n = len(data)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if k <= 1 or n <= k:
        return np.zeros(n, dtype=np.int64) if k <= 1 else np.arange(n) % k

    normalized = (data - data.mean(axis=0)) / standard_scale(data)

    centroids = normalized[rng.choice(n, size=k, replace=False)]
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iterations):
        distances = ((normalized[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        # Reseed empty clusters from the farthest points so a collapsed
        # initialization cannot silently produce a single cluster.
        for cluster in range(k):
            if not (new_labels == cluster).any():
                farthest = int(distances.min(axis=1).argmax())
                centroids[cluster] = normalized[farthest]
                new_labels[farthest] = cluster
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(k):
            members = normalized[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return labels
