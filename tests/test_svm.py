"""SMO training, kernel identities and the decision function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlconfirm.errors import ConvergenceFailure, DimensionMismatch, SingleClass
from nlconfirm.learn import (
    SvmHyperParams,
    SvmModel,
    decision_value,
    rbf_kernel,
    train_svm,
)
from nlconfirm.learn.svm import (
    _DISTANCE_CHUNK_ELEMENTS,
    _SNAP,
    decision_values,
    smo_path,
    smo_solve,
    squared_distances,
)


def blobs(n_per_class=40, separation=4.0, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    pos = rng.normal(+separation / 2, 1.0, size=(n_per_class, dim))
    neg = rng.normal(-separation / 2, 1.0, size=(n_per_class, dim))
    x = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return x, y


XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([-1.0, -1.0, 1.0, 1.0])


def checkerboard(side, repeats):
    """A side x side lattice labelled like XOR, each point repeated: many scores tie."""
    a, b = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    x = np.stack([a.ravel(), b.ravel()], axis=1).astype(np.float64)
    y = np.where((a.ravel() + b.ravel()) % 2 == 0, -1.0, 1.0)
    return np.repeat(x, repeats, axis=0), np.repeat(y, repeats)


def training_data(shape, seed, n_per_class, separation):
    """Blobs, XOR-style lattices, blobs whose rows all appear twice, or one row per class."""
    if shape == "xor":
        return checkerboard(side=2 + seed % 3, repeats=1 + n_per_class % 3)
    if shape == "pair":  # the first step often cancels both scores to exactly zero
        return np.array([[0.0], [1.0 + separation]]), np.array([1.0, -1.0])
    x, y = blobs(n_per_class=n_per_class, separation=separation, seed=seed)
    if shape == "duplicates":
        return np.repeat(x, 2, axis=0), np.repeat(y, 2)
    return x, y


class TestKernel:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        k = rbf_kernel(x, x, gamma=0.7)
        assert np.allclose(np.diag(k), 1.0, atol=1e-14)

    def test_known_value(self):
        k = rbf_kernel(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), gamma=0.5)
        assert k[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 80), d=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 30.0]), gamma=st.sampled_from([0.005, 0.05, 0.5]))
    def test_self_kernel_is_bitwise_symmetric(self, n, d, seed, scale, gamma):
        # smo_path reads kernel rows in place of columns, which needs K == K.T bit for bit
        x = scale * np.random.default_rng(seed).standard_normal((n, d))
        d2 = squared_distances(x, x)
        k = rbf_kernel(x, x, gamma)
        assert d2.tobytes() == np.ascontiguousarray(d2.T).tobytes()
        assert k.tobytes() == np.ascontiguousarray(k.T).tobytes()


def two_buffer_squared_distances(a, b):
    """(|a|^2 + |b|^2) - 2 a.b, clipped at 0, with the sums and the Gram matrix in two buffers."""
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    gram = a @ b.T
    gram *= 2.0
    d2 -= gram
    return np.maximum(d2, 0.0, out=d2)


class TestChunkedDistances:
    """`squared_distances` in row chunks and the in-place `rbf_kernel` keep the two-buffer bits."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(0, 300), d=st.integers(1, 40), chunks=st.integers(0, 2),
           offset=st.sampled_from([-1, 0, 1]), same=st.booleans(), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 30.0]), gamma=st.sampled_from([0.005, 0.05, 0.5]))
    def test_equal_bytes_to_two_buffers(self, m, d, chunks, offset, same, seed, scale, gamma):
        # n rows: below, at or one above a multiple of the rows per chunk (0 rows included),
        # against m other rows (held-out rows x support rows); or m rows against themselves
        n = m if same else max(0, chunks * (_DISTANCE_CHUNK_ELEMENTS // max(1, m)) + offset)
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((n, d))
        b = a if same else scale * rng.standard_normal((m, d))
        want = two_buffer_squared_distances(a, b)
        got = squared_distances(a, b)
        assert got.shape == want.shape == (n, len(b))
        assert got.tobytes() == want.tobytes()
        kernel = rbf_kernel(a, b, gamma)
        assert kernel.tobytes() == np.exp(-gamma * two_buffer_squared_distances(a, b)).tobytes()


class TestTraining:
    def test_xor(self):
        params = SvmHyperParams(C=5.0, eps=0.005, gamma=0.5)
        model = train_svm(XOR_X, XOR_Y, params)
        predictions = np.sign(decision_values(model, XOR_X))
        assert np.array_equal(predictions, XOR_Y)

    def test_separable_blobs(self):
        x, y = blobs(separation=4.0)
        model = train_svm(x, y, SvmHyperParams(C=1.0, eps=0.005, gamma=0.05))
        assert np.array_equal(np.sign(decision_values(model, x)), y)

    def test_single_class_rejected(self):
        x = np.random.default_rng(1).standard_normal((10, 2))
        with pytest.raises(SingleClass):
            train_svm(x, np.ones(10), SvmHyperParams(C=1.0, eps=0.1, gamma=0.1))

    def test_iteration_cap(self):
        x, y = blobs(seed=2)
        with pytest.raises(ConvergenceFailure):
            train_svm(x, y, SvmHyperParams(C=1.0, eps=1e-9, gamma=0.05), max_iterations=2)

    def test_alphas_within_box_and_both_classes(self):
        x, y = blobs(separation=1.0, seed=3)  # overlapping -> bounded alphas
        params = SvmHyperParams(C=2.0, eps=0.005, gamma=0.1)
        kernel = rbf_kernel(x, x, params.gamma)
        alpha, _, _ = smo_solve(kernel, y, params.C, params.eps)
        assert np.all(alpha >= 0.0) and np.all(alpha <= params.C)
        assert np.dot(alpha, y) == pytest.approx(0.0, abs=1e-9)
        model = train_svm(x, y, params)
        assert np.any(model.alphas_signed > 0) and np.any(model.alphas_signed < 0)

    @pytest.mark.parametrize("eps", [0.005, 0.05, 0.5])
    def test_kkt_satisfied_at_convergence(self, eps):
        # independent check of the optimality gap from the raw alphas
        x, y = blobs(separation=1.5, seed=4)
        C, gamma = 1.5, 0.2
        kernel = rbf_kernel(x, x, gamma)
        alpha, bias, _ = smo_solve(kernel, y, C, eps)
        u = kernel @ (alpha * y)
        score = y - u
        is_up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        is_low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        gap = score[is_up].max() - score[is_low].min()
        assert gap <= eps + 1e-9
        assert score[is_up].max() >= bias >= score[is_low].min()

    def test_relabeling_negates_decision(self):
        for seed in (5, 6):
            x, y = blobs(separation=2.0, seed=seed)
            params = SvmHyperParams(C=1.0, eps=0.01, gamma=0.1)
            model_a = train_svm(x, y, params)
            model_b = train_svm(x, -y, params)
            probes = np.random.default_rng(seed).standard_normal((20, 2))
            fa = decision_values(model_a, probes)
            fb = decision_values(model_b, probes)
            assert np.array_equal(fa, -fb)

    def test_xor_relabeling_with_ties(self):
        params = SvmHyperParams(C=5.0, eps=0.005, gamma=0.5)
        fa = decision_values(train_svm(XOR_X, XOR_Y, params), XOR_X)
        fb = decision_values(train_svm(XOR_X, -XOR_Y, params), XOR_X)
        assert np.array_equal(fa, -fb)


def reference_smo(kernel, y, C, eps, max_iterations):
    """Single-tolerance SMO loop kept apart from the library: (alpha, bias, iterations).

    Returns None when the iteration cap is hit first.
    """
    alpha = np.zeros(y.size)
    grad = -np.ones(y.size)
    pos = y > 0
    for iteration in range(max_iterations):
        score = -y * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0.0))
        low = (~pos & (alpha < C)) | (pos & (alpha > 0.0))
        up_score = np.where(up, score, -np.inf)
        low_score = np.where(low, score, np.inf)
        i = int(np.argmax(up_score))
        j = int(np.argmin(low_score))
        gap = up_score[i] - low_score[j]
        if gap <= eps:
            return alpha, float((up_score[i] + low_score[j]) / 2.0), iteration
        eta = max(kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j], 1e-12)
        step = min(gap / eta, C - alpha[i] if pos[i] else alpha[i],
                   alpha[j] if pos[j] else C - alpha[j])
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        for k in (i, j):
            if alpha[k] < _SNAP * C:
                alpha[k] = 0.0
            elif alpha[k] > C * (1.0 - _SNAP):
                alpha[k] = C
        grad += y * step * (kernel[:, i] - kernel[:, j])
    return None


class TestSnapshotPath:
    """One SMO run snapshots every tolerance exactly as a run stopping there."""

    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.sampled_from(["blobs", "xor", "duplicates", "pair"]),
        seed=st.integers(0, 2**32 - 1),
        n_per_class=st.integers(2, 30),
        separation=st.floats(0.0, 3.0),
        C=st.sampled_from([0.05, 0.5, 1.0, 5.0]),
        gamma=st.sampled_from([0.005, 0.05, 0.5]),
        tolerances=st.lists(st.sampled_from([0.001, 0.005, 0.05, 0.1, 0.5, 2.0]),
                            min_size=1, max_size=6),
        max_iterations=st.sampled_from([1, 5, 40, 1_000_000]),
    )
    def test_snapshots_equal_independent_runs(self, shape, seed, n_per_class, separation, C,
                                              gamma, tolerances, max_iterations):
        x, y = training_data(shape, seed, n_per_class, separation)
        kernel = rbf_kernel(x, x, gamma)
        expected = [reference_smo(kernel, y, C, eps, max_iterations) for eps in tolerances]
        if expected[int(np.argmin(tolerances))] is None:
            with pytest.raises(ConvergenceFailure):
                smo_path(kernel, y, C, tolerances, max_iterations)
            with pytest.raises(ConvergenceFailure):
                smo_solve(kernel, y, C, min(tolerances), max_iterations)
            return
        path = smo_path(kernel, y, C, tolerances, max_iterations)
        assert len(path) == len(tolerances)
        for eps, (alpha, bias, iterations), (ref_alpha, ref_bias, ref_iterations) in zip(
                tolerances, path, expected):
            # bytes, not ==: a bias of -0.0 for 0.0 changes the saved model
            assert alpha.tobytes() == ref_alpha.tobytes()
            assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()
            assert iterations == ref_iterations
            solo = smo_solve(kernel, y, C, eps, max_iterations)
            assert solo[0].tobytes() == ref_alpha.tobytes()
            assert np.float64(solo[1]).tobytes() == np.float64(ref_bias).tobytes()
            assert solo[2] == ref_iterations

    def test_cancelled_scores_keep_their_signed_zero(self):
        # one row per class: the first step cancels both scores to exactly zero and
        # the positive row's -y * grad is -0.0, so the bias is -0.0; updating the
        # score as score - step * d instead would round the sum to +0.0
        x, y = np.array([[0.0], [1.0]]), np.array([1.0, -1.0])
        kernel = rbf_kernel(x, x, 0.5)
        alpha, bias, iterations = smo_path(kernel, y, 5.0, [0.005])[0]
        ref_alpha, ref_bias, ref_iterations = reference_smo(kernel, y, 5.0, 0.005, 1_000_000)
        assert np.float64(ref_bias).tobytes() == np.float64(-0.0).tobytes()
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()
        assert iterations == ref_iterations

    @pytest.mark.parametrize("eps", [0.005, 1.9])
    def test_a_step_clipped_at_the_box_swaps_both_rows_sets(self, eps):
        # the unclipped step is 1 / (1 - exp(-0.5)) = 2.54 > C: the positive row goes
        # from 0 to C, leaving the up set and entering the low set in one iteration,
        # and the negative row the other way; the next iteration reads both moved scores
        x, y = np.array([[0.0], [1.0]]), np.array([1.0, -1.0])
        kernel = rbf_kernel(x, x, 0.5)
        alpha, bias, iterations = smo_path(kernel, y, 0.05, [eps])[0]
        ref_alpha, ref_bias, ref_iterations = reference_smo(kernel, y, 0.05, eps, 1_000_000)
        assert ref_alpha.tolist() == [0.05, 0.05] and ref_iterations == 1
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()
        assert iterations == ref_iterations

    def test_no_tolerance_rejected(self):
        x, y = blobs(n_per_class=3)
        with pytest.raises(ValueError):
            smo_path(rbf_kernel(x, x, 0.1), y, 1.0, [])

    def test_snapshots_are_copies(self):
        x, y = blobs(separation=1.0, seed=9)
        kernel = rbf_kernel(x, x, 0.1)
        loose, tight = smo_path(kernel, y, 1.0, [0.5, 0.005])
        assert loose[2] < tight[2]
        assert not np.array_equal(loose[0], tight[0])


class TestHyperParams:
    @pytest.mark.parametrize("field", ["C", "eps", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_finite_positive_required(self, field, value):
        fields = {"C": 1.0, "eps": 0.05, "gamma": 0.05, field: value}
        with pytest.raises(ValueError):
            SvmHyperParams(**fields)


class TestDecision:
    def _two_vector_model(self):
        sv = np.array([[1.0, 0.0], [-1.0, 0.0]])
        return SvmModel(
            support_vectors=sv,
            alphas_signed=np.array([0.7, -0.7]),
            bias=0.25,
            gamma=0.3,
        )

    def test_peak_at_own_support_vector(self):
        model = self._two_vector_model()
        assert decision_value(model, np.array([1.0, 0.0])) > 0

    def test_midpoint_equals_bias(self):
        model = self._two_vector_model()
        mid = np.array([0.0, 0.0])
        assert decision_value(model, mid) == pytest.approx(model.bias, abs=1e-15)

    def test_dimension_mismatch(self):
        model = self._two_vector_model()
        with pytest.raises(DimensionMismatch):
            decision_value(model, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            decision_values(model, np.ones((4, 3)))

    def test_batch_matches_single(self):
        model = self._two_vector_model()
        rng = np.random.default_rng(7)
        probes = rng.standard_normal((50, 2))
        batch = decision_values(model, probes)
        singles = np.array([decision_value(model, p) for p in probes])
        assert batch.tobytes() == singles.tobytes()
