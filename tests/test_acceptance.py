"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest

from nlconfirm.cli import main as cli_main
from nlconfirm.corpus import FRAME_LEN, Label, frame_stream
from nlconfirm.dsp import (
    FIRST_DERIVATIVE,
    SECOND_DERIVATIVE,
    WindowKind,
    apply_window,
    fix_roots,
    formants,
    lpc,
    lpc_polynomial,
    make_window,
    mfcc,
    pitch_yin_fft,
    polynomial_roots,
)
from nlconfirm.evaluate import roc_auc, speaker_frames
from nlconfirm.featset import FeatureKind, FeatureSetConfig
from nlconfirm.learn import (
    ModelBundle,
    SvmHyperParams,
    fit_pca,
    load_model,
    save_model,
    train_svm,
)
from nlconfirm.learn.cv_core import fit_bundle
from nlconfirm.learn.svm import decision_values, rbf_kernel, smo_solve
from nlconfirm.pipeline import OnlineClassifier, classify_offline

from .conftest import make_segment, resonator_signal, sg_filtered
from .test_mfcc import reference_mfcc

FS = 16000


def report(name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_savitzky_golay_exactness():
    with Timer() as t:
        grid = np.arange(40, dtype=float)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            a, b, c = rng.uniform(-0.5, 0.5, 3)
            series = a + b * grid + c * grid**2
            out = sg_filtered(series, FIRST_DERIVATIVE)
            worst = max(worst, np.max(np.abs(out[3:-3] - (b + 2 * c * grid)[3:-3])))
            a, b, c, d = rng.uniform(-0.1, 0.1, 4)
            series = a + b * grid + c * grid**2 + d * grid**3
            out = sg_filtered(series, SECOND_DERIVATIVE)
            worst = max(worst, np.max(np.abs(out[3:-3] - (2 * c + 6 * d * grid)[3:-3])))
        assert worst < 1e-12, worst
    assert t.elapsed < 1.0
    report("savitzky-golay-exactness", f"(max err {worst:.2e}, {t.elapsed:.2f}s)")


def test_criterion_mfcc_oracle_equivalence():
    with Timer() as t:
        rng = np.random.default_rng(1)
        window = make_window(WindowKind.BLACKMAN_HARRIS4, FRAME_LEN)
        worst = 0.0
        for _ in range(100):
            frame = apply_window(rng.uniform(-0.9, 0.9, FRAME_LEN), window)
            worst = max(worst, np.max(np.abs(mfcc(frame) - reference_mfcc(frame))))
        assert worst < 1e-5, worst
    assert t.elapsed < 10.0
    report("mfcc-oracle-equivalence", f"(max err {worst:.2e} over 100 frames, {t.elapsed:.1f}s)")


def test_criterion_formant_recovery():
    with Timer() as t:
        rng = np.random.default_rng(2)
        window = make_window(WindowKind.HANN, FRAME_LEN)
        worst = 0.0
        for _ in range(20):
            f1 = rng.uniform(300, 900)
            f2 = rng.uniform(1000, 2500)
            signal = resonator_signal(f1, f2, duration_s=0.3)
            frame = apply_window(signal[2400 : 2400 + FRAME_LEN], window)
            pair = formants(fix_roots(polynomial_roots(lpc_polynomial(lpc(frame)))))
            worst = max(worst, abs(pair[0] - f1), abs(pair[1] - f2))
            assert abs(pair[0] - f1) < 50.0, (f1, f2, pair)
            assert abs(pair[1] - f2) < 50.0, (f1, f2, pair)
    assert t.elapsed < 10.0
    report("formant-recovery", f"(worst {worst:.1f} Hz over 20 pairs, {t.elapsed:.1f}s)")


def test_criterion_pitch_accuracy():
    with Timer() as t:
        window = make_window(WindowKind.HANN, FRAME_LEN)
        grid = np.arange(FRAME_LEN) / FS
        worst = 0.0
        for freq in (80.0, 120.0, 200.0, 330.0, 440.0):
            for phase in np.linspace(0, 2 * np.pi, 5):
                frame = apply_window(0.5 * np.sin(2 * np.pi * freq * grid + phase), window)
                estimate = pitch_yin_fft(frame)
                worst = max(worst, abs(estimate - freq) / freq)
                assert abs(estimate - freq) / freq < 0.01, (freq, phase, estimate)
        assert pitch_yin_fft(np.zeros(FRAME_LEN)) == 0.0
    assert t.elapsed < 5.0
    report("pitch-accuracy", f"(worst {worst * 100:.2f}%, silence -> 0, {t.elapsed:.1f}s)")


def test_criterion_pca_contract():
    # sample covariance with eigenvalue masses 0.9 / 0.06 / 0.04
    rows = []
    for axis, mass in enumerate([0.9, 0.06, 0.04]):
        e = np.zeros(3)
        e[axis] = np.sqrt(mass)
        rows.extend([e, -e])
    x = np.asarray(rows)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    pca = fit_pca(x @ q.T)
    assert pca.output_dimension == 2  # 0.9 < 0.95 <= 0.96
    gram = pca.basis @ pca.basis.T
    orth = np.max(np.abs(gram - np.eye(2)))
    assert orth < 1e-6
    # single dominant direction collapses to one component
    t = np.random.default_rng(4).standard_normal(300)
    line = np.stack([t, t], axis=1)
    assert fit_pca(line).output_dimension == 1
    report("pca-contract", f"(k=2 on 0.9/0.06/0.04 masses, orthonormality {orth:.1e})")


def test_criterion_svm_correctness(tmp_path):
    xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([-1.0, -1.0, 1.0, 1.0])
    model = train_svm(xor_x, xor_y, SvmHyperParams(C=5.0, eps=0.005, gamma=0.5))
    assert np.array_equal(np.sign(decision_values(model, xor_x)), xor_y)

    rng = np.random.default_rng(5)
    blob_x = np.concatenate([rng.normal(2.0, 1.0, (50, 2)), rng.normal(-2.0, 1.0, (50, 2))])
    blob_y = np.concatenate([np.ones(50), -np.ones(50)])
    params = SvmHyperParams(C=1.0, eps=0.005, gamma=0.05)
    model = train_svm(blob_x, blob_y, params)
    assert np.array_equal(np.sign(decision_values(model, blob_x)), blob_y)

    # KKT violation bounded by the stopping tolerance
    kernel = rbf_kernel(blob_x, blob_x, params.gamma)
    alpha, _, _ = smo_solve(kernel, blob_y, params.C, params.eps)
    u = kernel @ (alpha * blob_y)
    score = blob_y - u
    is_up = ((blob_y > 0) & (alpha < params.C)) | ((blob_y < 0) & (alpha > 0))
    is_low = ((blob_y < 0) & (alpha < params.C)) | ((blob_y > 0) & (alpha > 0))
    gap = score[is_up].max() - score[is_low].min()
    assert gap <= params.eps + 1e-9

    # round-trip preserves decision values
    config = FeatureSetConfig(FeatureKind.FORMANT_SD)
    from nlconfirm.learn import fit_normalizer

    normalizer = fit_normalizer(blob_x)
    bundle = ModelBundle(
        feature_config=config, hyperparams=params, normalizer=normalizer, pca=None,
        svm=train_svm(normalizer.transform(blob_x), blob_y, params),
    )
    path = tmp_path / "m.nlcm"
    save_model(bundle, path)
    probes = rng.standard_normal((100, 2))
    drift = np.max(np.abs(bundle.decide_many(probes) - load_model(path).decide_many(probes)))
    assert drift <= 1e-12
    report("svm-correctness", f"(XOR 4/4, blobs 100/100, KKT gap {gap:.3g} <= eps, "
                              f"round-trip drift {drift:.1e})")


def test_criterion_auc_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 60))
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        if len(set(labels)) < 2:
            labels[0] = -labels[0] if np.all(labels == labels[0]) else labels[0]
        if np.all(labels > 0) or np.all(labels < 0):
            labels[0] = -labels[0]
        # small integer grid forces plenty of ties
        scores = rng.integers(-4, 5, n).astype(float)
        fast = roc_auc(scores, labels).auc
        pos = scores[labels > 0][:, None]
        neg = scores[labels < 0][None, :]
        brute = float(np.mean((pos > neg) + 0.5 * (pos == neg)))
        worst = max(worst, abs(fast - brute))
        assert abs(fast - brute) <= 1e-12
    report("auc-oracle", f"(max |trapezoid - pairwise| = {worst:.1e} over 1000 sets)")


@pytest.fixture(scope="module")
def parity_bundles():
    from .test_model_io import make_bundle

    return {kind: make_bundle(kind, seed=10 + i) for i, kind in enumerate(FeatureKind)}


def test_criterion_mode_parity(parity_bundles):
    rng = np.random.default_rng(7)
    kinds = list(FeatureKind)
    checked = 0
    with Timer() as t:
        for i in range(1000):
            duration = rng.uniform(0.3, 0.6)
            if rng.random() < 0.5:
                samples = 0.4 * resonator_signal(
                    rng.uniform(300, 700), rng.uniform(1100, 1900),
                    duration_s=duration, f0=rng.uniform(110, 230),
                )
            else:
                samples = rng.uniform(-0.4, 0.4, int(duration * FS))
            segment = make_segment(samples, label=Label.OTHER)
            bundle = parity_bundles[kinds[i % len(kinds)]]
            offline = classify_offline([segment], bundle)[0]

            online = OnlineClassifier(bundle)
            for frame in frame_stream(segment):
                online.push_frame(frame)
            online.finish_segment()
            streamed = online.decision()

            assert streamed.trigger_frame == offline.trigger_frame
            assert streamed.decided_label == offline.decided_label
            assert np.array_equal(streamed.frame_scores, offline.frame_scores)

            # independent replay oracle for the latch rule
            votes = np.where(offline.frame_scores > 0.0, 1, -1)
            expected = None
            for j in range(4, votes.size):
                if votes[j - 4 : j + 1].sum() > 0:
                    expected = int(offline.frame_indices[j])
                    break
            assert offline.trigger_frame == expected
            checked += 1
    assert checked == 1000
    report("mode-parity", f"(1000 segments, all kinds, {t.elapsed:.0f}s)")


def test_criterion_end_to_end_synthetic(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert cli_main(["synth-corpus", "--out", str(corpus_dir), "--seed", "0"]) == 0
    out_dir = tmp_path / "eval"
    with Timer() as t:
        code = cli_main([
            "evaluate",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--features", "stacked_formants,stacked_mfcc",
            "--grid-search",
            "--train-fraction", "0.7",
            "--seed", "0",
            "--out", str(out_dir),
        ])
    assert code == 0
    assert t.elapsed < 900.0
    details = []
    for kind in ("stacked_formants", "stacked_mfcc"):
        data = json.loads((out_dir / f"eval_{kind}.json").read_text())
        auc = data["roc_auc"]
        seg_acc = data["segment"]["accuracy"]
        assert auc >= 0.90, (kind, auc)
        assert seg_acc >= 0.80, (kind, seg_acc)
        details.append(f"{kind}: AUC {auc:.3f}, seg acc {seg_acc:.3f}")
    report("end-to-end-synthetic", f"({'; '.join(details)}, {t.elapsed:.0f}s)")


def test_criterion_streaming_performance(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert cli_main([
        "synth-corpus", "--out", str(corpus_dir), "--speakers", "2",
        "--segments-per-speaker", "8", "--confirmation-rate", "0.3", "--seed", "1",
    ]) == 0
    from nlconfirm.corpus import load_segments

    segments = load_segments(corpus_dir / "manifest.csv")
    factors = {}
    for kind in FeatureKind:
        config = FeatureSetConfig(kind)
        bundle = fit_bundle(speaker_frames(segments, config), config,
                            SvmHyperParams(C=1.0, eps=0.1, gamma=0.05), seed=0)
        model_path = tmp_path / f"{kind.value}.nlcm"
        save_model(bundle, model_path)
        listen_out = tmp_path / f"listen_{kind.value}"
        code = cli_main([
            "listen", "--wav", str(corpus_dir / "wavs" / "spk00.wav"),
            "--model", str(model_path),
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--out", str(listen_out),
        ])
        assert code == 0
        meta = json.loads((listen_out / "run_metadata.json").read_text())
        factors[kind.value] = meta["real_time_factor"]
        assert meta["real_time_factor"] < 1.0, (kind.value, meta["real_time_factor"])
    worst = max(factors, key=factors.get)
    report("streaming-performance", f"(worst RTF {factors[worst]:.3f} for {worst})")
