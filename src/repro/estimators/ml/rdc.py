"""Randomized dependence coefficient (Lopez-Paz et al.).

DeepDB and FLAT use RDC scores to decide which attributes can be
treated as independent (product nodes) and which are highly correlated
(factorize nodes / joint leaves).  The coefficient is the largest
canonical correlation between random sine features of the two
variables' empirical copulas.
"""

from __future__ import annotations

import numpy as np
from scipy import stats as scipy_stats


def _copula(values: np.ndarray) -> np.ndarray | None:
    """``[rank / n, 1]`` rows of a sample, or None for one too short or
    constant to show any dependence."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 3 or np.ptp(values) == 0:
        return None
    ranks = scipy_stats.rankdata(values) / len(values)
    return np.column_stack([ranks, np.ones(len(values))])


def _rdc(
    cx: np.ndarray | None, cy: np.ndarray | None, seed: int, k: int = 10, s: float = 1.0
) -> float:
    if cx is None or cy is None:
        return 0.0
    rng = np.random.default_rng(seed)
    fx = np.sin(cx @ rng.normal(0.0, s, size=(2, k)))
    fy = np.sin(cy @ rng.normal(0.0, s, size=(2, k)))
    return _max_canonical_correlation(fx, fy)


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
    return _rdc(_copula(x), _copula(y), seed, k, s)


def pairwise_rdc(samples: list[np.ndarray]) -> dict[tuple[int, int], float]:
    """RDC of every pair ``i < j`` of equal-length samples, in pair order.

    Pair ``(i, j)`` scores ``rdc(samples[i], samples[j], seed=i * 131 + j)``;
    each sample is ranked once, not once per pair.
    """
    copulas = [_copula(sample) for sample in samples]
    return {
        (i, j): _rdc(copulas[i], copulas[j], seed=i * 131 + j)
        for i in range(len(samples))
        for j in range(i + 1, len(samples))
    }


def _max_canonical_correlation(fx: np.ndarray, fy: np.ndarray) -> float:
    fx = fx - fx.mean(axis=0)
    fy = fy - fy.mean(axis=0)
    n = len(fx)
    cxx = fx.T @ fx / n + 1e-6 * np.eye(fx.shape[1])
    cyy = fy.T @ fy / n + 1e-6 * np.eye(fy.shape[1])
    cxy = fx.T @ fy / n
    # Solve the generalized eigenproblem via whitening.
    inv_sqrt_xx = _inverse_sqrt(cxx)
    inv_sqrt_yy = _inverse_sqrt(cyy)
    m = inv_sqrt_xx @ cxy @ inv_sqrt_yy
    singular_values = np.linalg.svd(m, compute_uv=False)
    return float(np.clip(singular_values.max(initial=0.0), 0.0, 1.0))


def _inverse_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues = np.maximum(eigenvalues, 1e-9)
    return eigenvectors @ np.diag(eigenvalues**-0.5) @ eigenvectors.T
