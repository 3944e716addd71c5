"""Retained-variance principal component analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateCovariance, DimensionMismatch

PCA_EPSILON = 0.95  # retained-variance ratio of every PCA feature set


@dataclass(frozen=True)
class PcaTransform:
    """Projection y = basis @ (x - mean) keeping a retained-variance fraction.

    Basis rows are orthonormal principal directions ordered by
    non-increasing eigenvalue; k is the smallest count whose cumulative
    variance ratio reaches epsilon.
    """

    epsilon: float
    mean: np.ndarray
    basis: np.ndarray        # (k, d)
    eigenvalues: np.ndarray  # (k,)

    @property
    def input_dimension(self) -> int:
        return self.basis.shape[1]

    @property
    def output_dimension(self) -> int:
        return self.basis.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dimension:
            raise DimensionMismatch(f"vector dim {x.shape[-1]} != PCA input dim {self.input_dimension}")
        return (x - self.mean) @ self.basis.T


def fit_pca(vectors: np.ndarray) -> PcaTransform:
    """Eigendecomposition of the sample covariance with retained-variance cut.

    k = smallest component count with cumulative variance ratio >=
    PCA_EPSILON. Raises DegenerateCovariance when the data carries no
    variance at all.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DegenerateCovariance(f"need a matrix with >= 2 rows, got shape {x.shape}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    eigenvectors = eigenvectors[:, order]
    total = eigenvalues.sum()
    if total <= 0.0:
        raise DegenerateCovariance("all dimensions have zero variance")
    ratios = np.cumsum(eigenvalues) / total
    k = int(np.searchsorted(ratios, PCA_EPSILON - 1e-12)) + 1
    k = min(k, eigenvalues.size)
    return PcaTransform(
        epsilon=PCA_EPSILON,
        mean=mean,
        basis=eigenvectors[:, :k].T.copy(),
        eigenvalues=eigenvalues[:k].copy(),
    )
