"""Mutual k-nearest-neighbor centered kernel alignment.

Compares two representations of the same n items by restricting classic
linear-kernel CKA to pairs (i, j) where j is simultaneously a top-k
neighbor of i under both centered kernels. The restriction makes the
score sensitive to local neighborhood agreement instead of global
second-order statistics.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError

_DEGENERATE_TOL = 1e-12


def _prep(x: np.ndarray, name: str, normalize: bool) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DomainError(f"{name} must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} contains non-finite values")
    if normalize:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.maximum(norms, 1e-12)
    return x


def centered_gram(x: np.ndarray) -> np.ndarray:
    """Double-centered linear Gram matrix H X X^T H."""
    xc = x - x.mean(axis=0, keepdims=True)
    return xc @ xc.T


def topk_neighbors(gram: np.ndarray, k: int) -> np.ndarray:
    """Boolean (n, n) matrix: [i, j] true iff j is a top-k neighbor of i.

    Neighbors are ranked by descending centered-kernel value, excluding
    self; exact ties break toward the lower index.
    """
    key = -gram
    np.fill_diagonal(key, np.inf)
    # everything strictly before the k-th smallest key is in; the places
    # left go to the entries tied with it, lowest index first
    kth = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
    out = key < kth
    ties = key == kth
    left = k - out.sum(axis=1, keepdims=True)
    out |= ties & (np.cumsum(ties, axis=1) <= left)
    return out


def _check_sizes(x: np.ndarray, y: np.ndarray, k: int):
    if x.shape[0] != y.shape[0]:
        raise DomainError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 3:
        raise DegenerateInputError(f"need at least 3 items, got {n}")
    if not (1 <= k <= n - 1):
        raise ConfigurationError(f"k={k} outside [1, {n - 1}]")


def _kernel(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered Gram matrix of prepared rows and its top-k neighbor matrix."""
    gram = centered_gram(x)
    return gram, topk_neighbors(gram, k)


def _score(K, nbr_K, L, nbr_L) -> float:
    alpha = nbr_K & nbr_L

    def agreement(a: np.ndarray, b: np.ndarray) -> float:
        return float((a * b)[alpha].sum())

    denom_sq = agreement(K, K) * agreement(L, L)
    if denom_sq < _DEGENERATE_TOL:
        return 0.0
    return agreement(K, L) / np.sqrt(denom_sq)


def cknna(x: np.ndarray, y: np.ndarray, k: int = 10, normalize: bool = True) -> float:
    """Mutual-kNN alignment of two representations of the same items.

    Args:
        x: (n, d1) features of n items.
        y: (n, d2) features of the same n items in another space.
        k: neighborhood size, 1 <= k <= n - 1.
        normalize: unit-normalize rows before building the kernels.

    Returns:
        A(K, L) / sqrt(A(K, K) * A(L, L)) where A sums the elementwise
        kernel product over pairs (i, j) with j a top-k neighbor of i
        under both kernels. Zero when either self-alignment term is
        degenerate.
    """
    x = _prep(x, "x", normalize)
    y = _prep(y, "y", normalize)
    _check_sizes(x, y, k)
    return _score(*_kernel(x, k), *_kernel(y, k))


def layer_alignment(reps: list[np.ndarray], ref: np.ndarray, k: int = 10) -> np.ndarray:
    """CKNNA of every layer's representation against one reference.

    Equals ``[cknna(r, ref, k=k) for r in reps]``; the reference's kernel
    and neighbors are built once.
    """
    if not reps:
        raise DegenerateInputError("no layer representations given")
    y = _prep(ref, "y", True)
    xs = [_prep(r, "x", True) for r in reps]
    for x in xs:
        _check_sizes(x, y, k)
    ref_kernel = _kernel(y, k)
    return np.array([_score(*_kernel(x, k), *ref_kernel) for x in xs])
