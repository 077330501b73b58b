"""Randomized dependence coefficient (Lopez-Paz et al.).

DeepDB and FLAT use RDC scores to decide which attributes can be
treated as independent (product nodes) and which are highly correlated
(factorize nodes / joint leaves).  The coefficient is the largest
canonical correlation between random sine features of the two
variables' empirical copulas.

A copula row depends on a row's value only through its rank, so a
column with ``d`` distinct values has ``d`` distinct copula rows.  Each
column is therefore reduced once per call to its distinct values, their
counts and every row's index into them; a pair's features are computed
on the distinct rows only, centred and covaried with count weights, and
its cross-covariance comes from the pair's joint counts, a table of at
most ``min(n, d_x * d_y)`` cells.  All pairs of a call are then whitened
and solved in one stacked ``eigh`` and one stacked ``svd``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Ridge added to both auto-covariances before whitening.
_RIDGE = 1e-6


class _Column(NamedTuple):
    """A sample reduced to its distinct values."""

    copula: np.ndarray  # (d, 2): [average rank / n, 1] per distinct value
    counts: np.ndarray  # (d,): rows holding each distinct value
    codes: np.ndarray  # (n,): each row's index into the distinct values


def _column(values: np.ndarray) -> _Column | None:
    """The distinct copula rows of a sample, or None for one too short
    or constant to show any dependence."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 3:
        return None
    _, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
    if len(counts) < 2:
        return None
    below = np.cumsum(counts) - counts
    # A tie group's "average" rank, as scipy.stats.rankdata computes it.
    ranks = (below + 1) + (counts - 1) / 2
    copula = np.column_stack([ranks / n, np.ones(len(counts))])
    return _Column(copula, counts.astype(np.float64), codes)


def rdc(
    x: np.ndarray,
    y: np.ndarray,
    k: int = 10,
    s: float = 1.0,
    seed: int = 0,
) -> float:
    """RDC between two 1-D samples, in ``[0, 1]``."""
    if len(x) != len(y):
        raise ValueError("samples must have equal length")
    cx, cy = _column(x), _column(y)
    if cx is None or cy is None:
        return 0.0
    return float(_scores([(cx, cy, seed)], k, s)[0])


def pairwise_rdc(samples: list[np.ndarray]) -> dict[tuple[int, int], float]:
    """RDC of every pair ``i < j`` of equal-length samples, in pair order.

    Pair ``(i, j)`` scores ``rdc(samples[i], samples[j], seed=i * 131 + j)``;
    each sample is reduced to its distinct values once, not once per pair.
    """
    columns = [_column(sample) for sample in samples]
    scores = {
        (i, j): 0.0 for i in range(len(samples)) for j in range(i + 1, len(samples))
    }
    live = [
        (i, j) for i, j in scores if columns[i] is not None and columns[j] is not None
    ]
    if live:
        solved = _scores([(columns[i], columns[j], i * 131 + j) for i, j in live])
        scores.update(zip(live, solved.tolist()))
    return scores


def _scores(
    pairs: list[tuple[_Column, _Column, int]], k: int = 10, s: float = 1.0
) -> np.ndarray:
    """RDC of each ``(x, y, seed)`` pair, solved in one stacked batch."""
    cxx, cyy, cxy = zip(*(_covariances(x, y, seed, k, s) for x, y, seed in pairs))
    # Whiten both sides: C^(-1/2) = V diag(max(w, 1e-9)^(-1/2)) V^T.
    eigenvalues, eigenvectors = np.linalg.eigh(np.stack(cxx + cyy))
    scaled = eigenvectors * np.maximum(eigenvalues, 1e-9)[:, None, :] ** -0.5
    inverse_sqrt = scaled @ eigenvectors.transpose(0, 2, 1)
    whitened = inverse_sqrt[: len(pairs)] @ np.stack(cxy) @ inverse_sqrt[len(pairs) :]
    singular_values = np.linalg.svd(whitened, compute_uv=False)
    return np.clip(singular_values.max(axis=1), 0.0, 1.0)


def _covariances(
    x: _Column, y: _Column, seed: int, k: int, s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Auto- and cross-covariances of one pair's centred sine features."""
    n = len(x.codes)
    rng = np.random.default_rng(seed)
    fx = _centred_features(x, rng.normal(0.0, s, size=(2, k)), n)
    fy = _centred_features(y, rng.normal(0.0, s, size=(2, k)), n)
    ridge = _RIDGE * np.eye(k)
    cxx = (fx.T * x.counts) @ fx / n + ridge
    cyy = (fy.T * y.counts) @ fy / n + ridge
    d_y = len(y.counts)
    cells, joint = _joint_counts(x.codes, y.codes, len(x.counts), d_y)
    cxy = (fx[cells // d_y].T * joint) @ fy[cells % d_y] / n
    return cxx, cyy, cxy


def _centred_features(column: _Column, weights: np.ndarray, n: int) -> np.ndarray:
    features = np.sin(column.copula @ weights)
    return features - column.counts @ features / n


def _joint_counts(
    x_codes: np.ndarray, y_codes: np.ndarray, d_x: int, d_y: int
) -> tuple[np.ndarray, np.ndarray]:
    """The occupied cells ``x * d_y + y`` of a pair and their row counts.

    A dense count table is used only while it has no more cells than
    the sample has rows, so memory stays within ``min(n, d_x * d_y)``.
    """
    joint = x_codes * d_y + y_codes
    if d_x * d_y > len(joint):
        cells, counts = np.unique(joint, return_counts=True)
        return cells, counts.astype(np.float64)
    counts = np.bincount(joint, minlength=d_x * d_y)
    cells = np.flatnonzero(counts)
    return cells, counts[cells].astype(np.float64)
