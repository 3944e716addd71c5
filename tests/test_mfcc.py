"""MFCC extraction against a straight-line reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlconfirm.dsp import (
    LOG_FLOOR,
    MEL_FMAX,
    MEL_FMIN,
    N_MEL_BANDS,
    N_MFCC,
    WindowKind,
    apply_window,
    make_window,
    mel_filterbank,
    mfcc,
)
from nlconfirm.dsp.spectral import _dct2_ortho_matrix

FS = 16000


def reference_mfcc(windowed: np.ndarray) -> np.ndarray:
    """Brute-force oracle: direct DFT sums, explicit triangles, explicit DCT."""
    n = len(windowed)
    n_fft = 512
    assert n <= n_fft
    power = np.empty(n_fft // 2 + 1)
    samples = np.arange(n)
    for k in range(n_fft // 2 + 1):
        angle = -2.0 * np.pi * k * samples / n_fft
        re = np.sum(windowed * np.cos(angle))
        im = np.sum(windowed * np.sin(angle))
        power[k] = re * re + im * im

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def imel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = imel(np.linspace(mel(MEL_FMIN), mel(MEL_FMAX), N_MEL_BANDS + 2))
    freqs = np.arange(n_fft // 2 + 1) * FS / n_fft
    log_energies = np.empty(N_MEL_BANDS)
    for b in range(N_MEL_BANDS):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        weights = np.zeros(freqs.size)
        for i, f in enumerate(freqs):
            if lo <= f <= mid and mid > lo:
                weights[i] = (f - lo) / (mid - lo)
            elif mid < f <= hi and hi > mid:
                weights[i] = (hi - f) / (hi - mid)
        total = weights.sum()
        if total > 0:
            weights = weights / total
        log_energies[b] = np.log(max(np.dot(weights, power), LOG_FLOOR))

    out = np.empty(13)
    for k in range(13):
        scale = np.sqrt(1.0 / N_MEL_BANDS) if k == 0 else np.sqrt(2.0 / N_MEL_BANDS)
        out[k] = scale * np.sum(
            log_energies * np.cos(np.pi * k * (2 * np.arange(N_MEL_BANDS) + 1) / (2 * N_MEL_BANDS))
        )
    return out


def test_silence_frame():
    out = mfcc(np.zeros(400))
    expected_c0 = np.log(LOG_FLOOR) * np.sqrt(N_MEL_BANDS)
    assert out[0] == pytest.approx(expected_c0, abs=1e-9)
    assert np.allclose(out[1:], 0.0, atol=1e-9)


def test_flat_log_energies():
    level = 2.5
    out = np.full(N_MEL_BANDS, level) @ _dct2_ortho_matrix(N_MFCC, N_MEL_BANDS).T
    assert out[0] == pytest.approx(level * np.sqrt(N_MEL_BANDS), rel=1e-12)
    assert np.allclose(out[1:], 0.0, atol=1e-12)


def test_matches_bruteforce_on_noise():
    rng = np.random.default_rng(11)
    window = make_window(WindowKind.BLACKMAN_HARRIS4, 400)
    for _ in range(10):
        frame = apply_window(rng.uniform(-0.8, 0.8, 400), window)
        fast = mfcc(frame)
        slow = reference_mfcc(frame)
        assert np.max(np.abs(fast - slow)) < 1e-5


def test_matches_bruteforce_on_tones():
    rng = np.random.default_rng(12)
    window = make_window(WindowKind.BLACKMAN_HARRIS4, 400)
    t = np.arange(400) / FS
    for _ in range(5):
        freq = rng.uniform(100, 4000)
        frame = apply_window(0.5 * np.sin(2 * np.pi * freq * t), window)
        assert np.max(np.abs(mfcc(frame) - reference_mfcc(frame))) < 1e-5


def test_filterbank_rows_unit_sum():
    bank = mel_filterbank(512)
    assert bank.shape == (40, 257)
    sums = bank.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-9)
    assert (bank >= 0).all()


@settings(max_examples=25, deadline=None)
@given(
    frame=arrays(np.float64, 400, elements=st.floats(-0.9, 0.9)),
    scale=st.floats(0.01, 50.0),
)
def test_amplitude_shift_only_moves_c0(frame, scale):
    # keep every mel band well above the log floor so the shift is uniform
    if np.max(np.abs(frame)) < 1e-2:
        return
    base = mfcc(frame)
    scaled = mfcc(frame * scale)
    assert np.max(np.abs(scaled[1:] - base[1:])) < 1e-6


class TestBlocks:
    """mfcc on an (n, 400) block: leading axes kept, rows bitwise equal to one frame at a time."""

    def test_one_row_block_keeps_its_axis(self):
        assert mfcc(np.ones((1, 400))).shape == (1, 13)

    def test_block_rows_equal_per_frame_mfcc(self):
        rng = np.random.default_rng(13)
        window = make_window(WindowKind.BLACKMAN_HARRIS4, 400)
        block = apply_window(rng.uniform(-0.8, 0.8, (64, 400)) * rng.uniform(0, 2, (64, 1)),
                             window)
        block[5] = 0.0  # a silent frame sits on the log floor
        rows = mfcc(block)
        assert rows.shape == (64, 13)
        for row, frame in zip(rows, block):
            assert np.array_equal(row, mfcc(frame))

    @pytest.mark.parametrize("scale", [0.0, 5e-324, 1e-160, 1e-5, 1.0, 1e100, 1e160])
    def test_one_frame_equals_its_block_row(self, scale):
        # silent, subnormal-amplitude, floored, ordinary, large and
        # overflowing frames: the 1-D path floors and logs in place
        window = make_window(WindowKind.BLACKMAN_HARRIS4, 400)
        for seed in range(4):
            frame = apply_window(np.random.default_rng(seed).uniform(-1, 1, 400), window) * scale
            with np.errstate(over="ignore", invalid="ignore"):  # 1e160 overflows the power
                assert mfcc(frame).tobytes() == mfcc(frame[None])[0].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-330.0, 160.0))
    def test_random_frames_equal_their_block_rows(self, seed, exponent):
        window = make_window(WindowKind.BLACKMAN_HARRIS4, 400)
        frame = apply_window(np.random.default_rng(seed).normal(size=400), window) * 10.0 ** exponent
        with np.errstate(over="ignore", invalid="ignore"):
            assert mfcc(frame).tobytes() == mfcc(frame[None])[0].tobytes()

    @pytest.mark.parametrize("empty", [np.array([]), np.empty((2, 0))])
    def test_empty_frames_rejected(self, empty):
        with pytest.raises(ValueError):
            mfcc(empty)

    def test_block_uses_the_frame_length_fft(self):
        # the FFT size follows the last axis, not the block's total size
        block = np.ones((3, 400))
        assert np.array_equal(mfcc(block), np.tile(mfcc(np.ones(400)), (3, 1)))
