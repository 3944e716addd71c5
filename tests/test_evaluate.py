"""Balancing, ROC/AUC, confusion metrics, cross-validation and grid search."""

import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlconfirm.corpus import Label
from nlconfirm.errors import LengthMismatch, MissingClass
from nlconfirm.evaluate import (
    CvReport,
    EvalReport,
    frame_metrics,
    roc_auc,
    segment_metrics,
    speaker_frames,
)
from nlconfirm.featset import FeatureKind, FeatureSetConfig
from nlconfirm.learn import DEFAULT_GRID, SvmHyperParams, grid_search
from nlconfirm.learn import cv_core, svm
from nlconfirm.learn.cv_core import (
    FoldResult,
    SpeakerFrames,
    _balanced_rows,
    _fold_seed,
    fit_bundle,
    fit_chain,
    run_louo_folds,
    weighted_accuracy,
)
from nlconfirm.pipeline import decision_from_scores

from .conftest import make_segment, sine


def pairwise_auc(scores, labels):
    """Brute-force Wilcoxon statistic: P(score_pos > score_neg), ties count half."""
    pos = [s for s, y in zip(scores, labels) if y > 0]
    neg = [s for s, y in zip(scores, labels) if y < 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_roc(scores, labels):
    """Reference ROC: walk the sorted scores one tie group at a time; (points, auc)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels > 0))
    n_neg = int(np.sum(labels < 0))
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = labels[order] > 0
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        group = sorted_pos[i : j + 1]
        tp += int(group.sum())
        fp += int((~group).sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j + 1
    pts = np.asarray(points)
    x, y = pts[:, 0], pts[:, 1]
    return pts, float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


class TestBalance:
    def test_majority_subsampled(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((130, 3))
        y = np.concatenate([np.ones(30), -np.ones(100)])
        keep = _balanced_rows(y, seed=1)
        bx, by = x[keep], y[keep]
        assert np.sum(by > 0) == 30
        assert np.sum(by < 0) == 30
        assert bx.shape == (60, 3)

    def test_already_balanced_unchanged(self):
        x = np.arange(20, dtype=float).reshape(10, 2)
        y = np.array([1.0, -1.0] * 5)
        keep = _balanced_rows(y, seed=0)
        bx, by = x[keep], y[keep]
        assert np.array_equal(bx, x)
        assert np.array_equal(by, y)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 2))
        y = np.concatenate([np.ones(10), -np.ones(40)])
        a = x[_balanced_rows(y, seed=7)]
        b = x[_balanced_rows(y, seed=7)]
        assert np.array_equal(a, b)
        c = x[_balanced_rows(y, seed=8)]
        assert not np.array_equal(a, c)

    def test_missing_class(self):
        with pytest.raises(MissingClass):
            _balanced_rows(np.ones(5), seed=0)


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([2.0, 1.5, -1.0, -2.0])
        labels = np.array([1, 1, -1, -1])
        curve = roc_auc(scores, labels)
        assert curve.auc == 1.0

    def test_identical_scores(self):
        curve = roc_auc(np.zeros(10), np.array([1, -1] * 5))
        assert curve.auc == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(curve.points, [[0.0, 0.0], [1.0, 1.0]])

    def test_worked_example(self):
        scores = np.array([0.9, 0.7, 0.8, 0.6])
        labels = np.array([1, 1, -1, -1])
        assert roc_auc(scores, labels).auc == pytest.approx(0.75, abs=1e-15)

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(100)
        labels = np.where(rng.random(100) < 0.3, 1, -1)
        curve = roc_auc(scores, labels)
        assert np.array_equal(curve.points[0], [0.0, 0.0])
        assert np.array_equal(curve.points[-1], [1.0, 1.0])
        diffs = np.diff(curve.points, axis=0)
        assert (diffs >= 0).all()

    def test_missing_class(self):
        with pytest.raises(MissingClass):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.integers(-5, 5), min_size=2, max_size=60),
        labels=st.lists(st.booleans(), min_size=2, max_size=60),
    )
    def test_auc_equals_pairwise_oracle(self, scores, labels):
        n = min(len(scores), len(labels))
        scores = np.asarray(scores[:n], dtype=float)
        signs = np.where(np.asarray(labels[:n]), 1, -1)
        if len(set(signs)) < 2:
            return
        fast = roc_auc(scores, signs).auc
        assert fast == pytest.approx(pairwise_auc(scores, signs), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(allow_nan=False)),
        st.sampled_from([1, -1, 0])), min_size=2, max_size=80))
    def test_bytes_equal_the_tie_group_loop(self, rows):
        # ties, zero and -0.0 scores, and labels of 0 (counted as neither class)
        scores = np.array([s for s, _ in rows])
        labels = np.array([y for _, y in rows])
        if not ((labels > 0).any() and (labels < 0).any()):
            return
        points, auc = loop_roc(scores, labels)
        curve = roc_auc(scores, labels)
        assert curve.points.shape == points.shape
        assert curve.points.tobytes() == points.tobytes()
        assert np.float64(curve.auc).tobytes() == np.float64(auc).tobytes()

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(200)
        labels = np.where(rng.random(200) < 0.4, 1, -1)
        base = roc_auc(scores, labels)
        warped = roc_auc(np.exp(scores) * 3.0 + 1.0, labels)
        assert warped.auc == pytest.approx(base.auc, abs=1e-12)
        assert np.array_equal(base.points, warped.points)


class TestSegmentMetrics:
    def _decision(self, ref, positive):
        scores = np.array([1.0] * 10) if positive else np.array([-1.0] * 10)
        return decision_from_scores(ref, np.arange(10), scores)

    def test_all_correct(self):
        decisions = [self._decision("a", True), self._decision("b", False)]
        counts = segment_metrics(decisions, [Label.CONFIRMATION, Label.OTHER])
        assert counts.accuracy == 1.0
        assert counts.fp == 0 and counts.fn == 0

    def test_corpus_shaped_perfection(self):
        decisions = [self._decision(f"p{i}", True) for i in range(42)]
        decisions += [self._decision(f"n{i}", False) for i in range(373)]
        truth = [Label.CONFIRMATION] * 42 + [Label.OTHER] * 373
        counts = segment_metrics(decisions, truth)
        assert counts.total == 415
        assert counts.tpr == 1.0
        assert counts.fpr == 0.0

    def test_inversion_complements_accuracy(self):
        rng = np.random.default_rng(4)
        truth = [Label.CONFIRMATION if rng.random() < 0.3 else Label.OTHER for _ in range(50)]
        flags = [rng.random() < 0.5 for _ in range(50)]
        straight = segment_metrics(
            [self._decision(str(i), f) for i, f in enumerate(flags)], truth)
        inverted = segment_metrics(
            [self._decision(str(i), not f) for i, f in enumerate(flags)], truth)
        assert straight.accuracy == pytest.approx(1.0 - inverted.accuracy, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            segment_metrics([self._decision("a", True)], [])


class TestFrameMetrics:
    def test_counts(self):
        scores = np.array([1.0, -1.0, 0.5, -0.5])
        labels = np.array([1, -1, -1, 1])
        counts = frame_metrics(scores, labels)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (1, 1, 1, 1)
        assert counts.accuracy == 0.5


class TestWeightedAccuracy:
    def test_worked_example(self):
        folds = [
            FoldResult("a", accuracy=0.8, weight=3.0, n_test=10),
            FoldResult("b", accuracy=0.9, weight=1.0, n_test=10),
        ]
        assert weighted_accuracy(folds) == pytest.approx(0.825, abs=1e-12)

    def test_within_fold_range(self):
        rng = np.random.default_rng(5)
        folds = [
            FoldResult(str(i), accuracy=rng.uniform(0.3, 0.9), weight=rng.integers(1, 9),
                       n_test=10)
            for i in range(6)
        ]
        w = weighted_accuracy(folds)
        assert min(f.accuracy for f in folds) <= w <= max(f.accuracy for f in folds)

    def test_sums_left_to_right_on_every_python(self):
        # ten 0.1s sum to 0.9999999999999999 left to right and to 1.0 compensated,
        # which `sum()` does from Python 3.12 on
        folds = [FoldResult(str(i), accuracy=0.1, weight=1, n_test=10) for i in range(10)]
        in_order = 0.0
        for _ in range(10):
            in_order += 0.1
        assert in_order != math.fsum([0.1] * 10)
        assert weighted_accuracy(folds) == in_order / 10


def _two_speaker_segments():
    rng = np.random.default_rng(6)
    segments = []
    for speaker, freq in (("alice", 220.0), ("bob", 150.0)):
        for i in range(3):
            tone = sine(freq + 10 * i, 0.3, amplitude=0.4)
            noise = rng.uniform(-0.3, 0.3, tone.size)
            segments.append(make_segment(tone, speaker=speaker, label=Label.CONFIRMATION,
                                         source=f"{speaker}.wav", start_ms=1000 * i))
            segments.append(make_segment(noise, speaker=speaker, label=Label.OTHER,
                                         source=f"{speaker}.wav", start_ms=1000 * i + 500))
    return segments


class TestLouoCv:
    def test_two_speakers_two_folds(self):
        segments = _two_speaker_segments()
        config = FeatureSetConfig(FeatureKind.MFCC)
        report = CvReport(folds=run_louo_folds(
            speaker_frames(segments, config),
            config,
            [SvmHyperParams(C=1.0, eps=0.05, gamma=0.05)],
            seed=0,
        )[0])
        assert isinstance(report, CvReport)
        assert sorted(f.speaker_id for f in report.folds) == ["alice", "bob"]
        assert all(0.0 <= f.accuracy <= 1.0 for f in report.folds)
        assert report.min_accuracy <= report.weighted_accuracy <= report.max_accuracy

    def test_speaker_without_confirmations_excluded(self):
        segments = _two_speaker_segments()
        rng = np.random.default_rng(7)
        for i in range(3):
            segments.append(make_segment(rng.uniform(-0.2, 0.2, 4800), speaker="mute",
                                         label=Label.OTHER, source="mute.wav",
                                         start_ms=1000 * i))
        speakers = speaker_frames(segments, FeatureSetConfig(FeatureKind.MFCC))
        assert sorted(s.speaker_id for s in speakers) == ["alice", "bob"]

    def test_fold_weight_is_confirmation_count(self):
        segments = _two_speaker_segments()
        speakers = speaker_frames(segments, FeatureSetConfig(FeatureKind.MFCC))
        assert all(s.weight == 3.0 for s in speakers)

    def test_determinism(self):
        segments = _two_speaker_segments()
        config = FeatureSetConfig(FeatureKind.MFCC)
        params = SvmHyperParams(C=1.0, eps=0.05, gamma=0.05)
        a, = run_louo_folds(speaker_frames(segments, config), config, [params], seed=3)
        b, = run_louo_folds(speaker_frames(segments, config), config, [params], seed=3)
        assert [f.accuracy for f in a] == [f.accuracy for f in b]


def test_eval_report_annotations_resolve():
    assert typing.get_type_hints(EvalReport)["params"] is SvmHyperParams


TWO_DIM = FeatureSetConfig(FeatureKind.FORMANT_SD)  # 2-D, no PCA


class TestGridSearch:
    def _speakers(self):
        # trivially separable: every grid point reaches weighted accuracy 1.0
        from nlconfirm.learn.cv_core import SpeakerFrames
        rng = np.random.default_rng(8)
        speakers = []
        for name in ("a", "b", "c"):
            pos = rng.normal(5.0, 0.3, (30, 2))
            neg = rng.normal(-5.0, 0.3, (30, 2))
            speakers.append(SpeakerFrames(
                speaker_id=name,
                vectors=np.concatenate([pos, neg]),
                labels=np.concatenate([np.ones(30), -np.ones(30)]),
                weight=3.0,
            ))
        return speakers

    def test_sixteen_points_and_tie_break(self):
        from nlconfirm.learn import DEFAULT_GRID, grid_search
        result = grid_search(self._speakers(), TWO_DIM, seed=0)
        assert len(result.points) == 16
        assert len(DEFAULT_GRID) == 16
        # the search scores the grid in its built order, which the tie-break relies on
        assert list(DEFAULT_GRID) == sorted(DEFAULT_GRID, key=lambda p: (p.C, p.eps, p.gamma))
        assert [p.params for p in result.points] == list(DEFAULT_GRID)
        assert all(p.weighted_accuracy == 1.0 for p in result.points)
        # all tied: lexicographically smallest triple wins
        assert (result.best.C, result.best.eps, result.best.gamma) == (1.0, 0.005, 0.005)

    def test_deterministic(self):
        from nlconfirm.learn import grid_search
        a = grid_search(self._speakers(), TWO_DIM, seed=3)
        b = grid_search(self._speakers(), TWO_DIM, seed=3)
        assert [p.weighted_accuracy for p in a.points] == [p.weighted_accuracy for p in b.points]
        assert a.best == b.best


def overlapping_speakers(config, seed=11):
    """Speakers whose classes overlap, so grid points and folds score differently."""
    rng = np.random.default_rng(seed)
    d = config.raw_dimension
    speakers = []
    for name, (n_pos, n_neg) in zip("abcd", [(14, 40), (20, 31), (9, 45), (17, 17)]):
        shift = rng.normal(0.0, 0.3, d)
        offset = 0.7 / np.sqrt(d)  # class means about 1.4 apart whatever the dimension
        pos = rng.normal(offset, 1.0, (n_pos, d)) + shift
        neg = rng.normal(-offset, 1.0, (n_neg, d)) + shift
        order = rng.permutation(n_pos + n_neg)
        speakers.append(SpeakerFrames(
            speaker_id=name,
            vectors=np.concatenate([pos, neg])[order],
            labels=np.concatenate([np.ones(n_pos), -np.ones(n_neg)])[order],
            weight=float(rng.integers(1, 6)),
        ))
    return speakers


def reference_fold_accuracies(speakers, config, params, seed):
    """One fit_bundle per fold, the held-out speaker scored by sign."""
    out = []
    for held_out in speakers:
        rest = [s for s in speakers if s.speaker_id != held_out.speaker_id]
        bundle = fit_bundle(rest, config, params, seed=_fold_seed(seed, held_out.speaker_id))
        predicted = np.where(bundle.decide_many(held_out.vectors) > 0.0, 1.0, -1.0)
        out.append((held_out.speaker_id, float(np.mean(predicted == held_out.labels))))
    return out


class TestGridOracle:
    # pitch, whose models on real corpora have the most support vectors, is where
    # one-product fold scoring sums over the most zero-padded columns
    @pytest.mark.parametrize("kind", [FeatureKind.FORMANT_SD, FeatureKind.MFCC_DELTA,
                                      FeatureKind.PITCH])
    def test_grid_equals_per_point_fits(self, kind):
        config = FeatureSetConfig(kind)  # 2-D without PCA, 39-D with PCA, 1-D
        speakers = overlapping_speakers(config)
        result = grid_search(speakers, config, seed=5)
        expected = {}
        for params in sorted(DEFAULT_GRID, key=lambda p: (p.C, p.eps, p.gamma)):
            folds = reference_fold_accuracies(speakers, config, params, seed=5)
            weights = [s.weight for s in speakers]
            weighted = total = 0.0
            for (_, a), w in zip(folds, weights):  # left to right, as on Python 3.11
                weighted += a * w
                total += w
            expected[params] = (folds, weighted / total)
        assert [p.params for p in result.points] == list(expected)
        for point in result.points:
            folds, weighted = expected[point.params]
            assert [(f.speaker_id, f.accuracy) for f in point.folds] == folds
            assert point.weighted_accuracy == weighted
        # the data do not tie everywhere, so a wrong snapshot would show
        assert len({w for _, w in expected.values()}) > 4
        best = max(expected, key=lambda p: (expected[p][1], -p.C, -p.eps, -p.gamma))
        assert result.best == best
        assert [result.best_point.folds] == run_louo_folds(speakers, config, [best], seed=5)

    def test_grid_with_repeats_and_any_order(self):
        config = TWO_DIM
        speakers = overlapping_speakers(config, seed=12)
        grid = (SvmHyperParams(5.0, 0.5, 0.05), SvmHyperParams(1.0, 0.005, 0.05),
                SvmHyperParams(5.0, 0.5, 0.05), SvmHyperParams(1.0, 0.1, 0.5))
        per_point = run_louo_folds(speakers, config, grid, seed=2)
        assert len(per_point) == len(grid)
        for params, folds in zip(grid, per_point):
            assert [folds] == run_louo_folds(speakers, config, [params], seed=2)
            assert [(f.speaker_id, f.accuracy) for f in folds] == \
                reference_fold_accuracies(speakers, config, params, seed=2)

    def test_one_distance_matrix_per_fold_one_smo_run_per_c_gamma(self, monkeypatch):
        distances, smo_runs = [], []
        real_distances, real_path = cv_core.squared_distances, cv_core.smo_path

        def counting_distances(a, b):
            distances.append((a.shape[0], b.shape[0], a is b))
            return real_distances(a, b)

        def counting_path(kernel, labels, C, tolerances):
            smo_runs.append((C, tuple(sorted(tolerances))))
            return real_path(kernel, labels, C, tolerances)

        monkeypatch.setattr(cv_core, "squared_distances", counting_distances)
        monkeypatch.setattr(svm, "squared_distances", counting_distances)  # under rbf_kernel
        monkeypatch.setattr(cv_core, "smo_path", counting_path)
        speakers = overlapping_speakers(TWO_DIM)
        grid_search(speakers, TWO_DIM, seed=0)
        # per fold: the square training matrix, then one held-out matrix per gamma
        assert len(distances) == len(speakers) * 3
        for held_out, fold in zip(speakers, zip(*[iter(distances)] * 3)):
            (n_train, m_train, square), *scored = fold
            assert square and n_train == m_train
            assert [(n, same) for n, _, same in scored] == [(held_out.labels.size, False)] * 2
            assert all(0 < m <= n_train for _, m, _ in scored)  # support-row unions
        assert len(smo_runs) == len(speakers) * 2 * 2  # folds x C x gamma
        assert all(tolerances == (0.005, 0.05, 0.1, 0.5) for _, tolerances in smo_runs)

    def test_chain_gathers_the_balanced_rows(self):
        config = TWO_DIM
        speakers = overlapping_speakers(config, seed=13)
        chain = fit_chain(speakers, config, seed=4)
        x = np.concatenate([s.vectors for s in speakers])
        y = np.concatenate([s.labels for s in speakers])
        keep = _balanced_rows(y, seed=4)
        bal_x, bal_y = x[keep], y[keep]
        assert chain.vectors.tobytes() == chain.normalizer.transform(bal_x).tobytes()
        assert chain.labels.tobytes() == bal_y.tobytes()
