"""Normalization statistics and retained-variance PCA."""

import numpy as np
import pytest

from nlconfirm.errors import DegenerateCovariance, TooFewSamples
from nlconfirm.learn import fit_normalizer, fit_pca
from nlconfirm.learn import pca as pca_module


class TestNormalizer:
    def test_symmetric_pair(self):
        stats = fit_normalizer(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.array_equal(stats.mean, [1.0, 1.0])
        assert np.array_equal(stats.std, [1.0, 1.0])

    def test_constant_column(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        stats = fit_normalizer(x)
        assert stats.std[1] == 1.0
        transformed = stats.transform(x)
        assert np.all(transformed[:, 1] == 0.0)

    def test_single_row(self):
        with pytest.raises(TooFewSamples):
            fit_normalizer(np.array([[1.0, 2.0]]))

    def test_normalized_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(500, 6))
        stats = fit_normalizer(x)
        z = stats.transform(x)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9


def _rotated_data(masses, n_per_axis=2, seed=0):
    """Rows with sample covariance having exactly the given eigenvalue ratios."""
    d = len(masses)
    rows = []
    for axis, mass in enumerate(masses):
        e = np.zeros(d)
        e[axis] = np.sqrt(mass)
        rows.extend([e, -e] * n_per_axis)
    x = np.asarray(rows)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return x @ q.T


class TestPca:
    def test_perfect_correlation_keeps_one(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(200)
        x = np.stack([t, t], axis=1)
        pca = fit_pca(x)
        assert pca.output_dimension == 1

    def test_isotropic_keeps_two(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2000, 2))
        pca = fit_pca(x)
        assert pca.output_dimension == 2

    def test_constructed_masses(self):
        # cumulative ratios 0.9, 0.96, 1.0 -> epsilon 0.95 needs two components
        x = _rotated_data([0.9, 0.06, 0.04])
        pca = fit_pca(x)
        assert pca.output_dimension == 2
        ratios = np.cumsum(pca.eigenvalues) / np.sum(np.linalg.eigvalsh(np.cov(x.T, bias=True)))
        assert ratios[-1] >= 0.95
        assert pca.eigenvalues[0] >= pca.eigenvalues[1]

    def test_epsilon_one_full_rank_reconstruction(self, monkeypatch):
        monkeypatch.setattr(pca_module, "PCA_EPSILON", 1.0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 5)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5])
        pca = fit_pca(x)
        assert pca.output_dimension == 5
        back = pca.transform(x) @ pca.basis + pca.mean
        assert np.max(np.abs(back - x)) < 1e-6

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((300, 8)) * np.linspace(3, 0.2, 8)
        pca = fit_pca(x)
        gram = pca.basis @ pca.basis.T
        assert np.max(np.abs(gram - np.eye(pca.output_dimension))) < 1e-6

    def test_minimality_of_k(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.25])
        pca = fit_pca(x)
        cov = np.cov((x - x.mean(0)).T, bias=True)
        eigenvalues = np.sort(np.linalg.eigvalsh(cov))[::-1]
        ratios = np.cumsum(eigenvalues) / eigenvalues.sum()
        k = pca.output_dimension
        assert ratios[k - 1] >= 0.95
        if k > 1:
            assert ratios[k - 2] < 0.95

    def test_degenerate(self):
        with pytest.raises(DegenerateCovariance):
            fit_pca(np.zeros((10, 3)))

    def test_projection_shape(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 4))
        pca = fit_pca(x)
        assert pca.transform(x).shape == (50, pca.output_dimension)
        assert pca.transform(x[0]).shape == (pca.output_dimension,)
