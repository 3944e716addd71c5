"""Window functions and power spectra."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlconfirm import _native
from nlconfirm.dsp import WindowKind, apply_window, make_window, power_spectrum
from nlconfirm.dsp.spectral import next_pow2
from nlconfirm.errors import LengthMismatch


class TestWindows:
    def test_hann_shape(self):
        w = make_window(WindowKind.HANN, 401)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert w[200] == 1.0

    def test_hann_on_ones_is_window(self):
        w = make_window(WindowKind.HANN, 401)
        out = apply_window(np.ones(401), w)
        assert np.array_equal(out, w)

    def test_blackman_harris_endpoint(self):
        # a0 - a1 + a2 - a3 for the 4-term -92 dB coefficients
        w = make_window(WindowKind.BLACKMAN_HARRIS4, 400)
        assert w[0] == pytest.approx(0.00006, abs=1e-12)

    def test_blackman_harris_peak(self):
        w = make_window(WindowKind.BLACKMAN_HARRIS4, 401)
        assert w[200] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(WindowKind))
    @pytest.mark.parametrize("length", [2, 3, 400, 401])
    def test_exact_symmetry(self, kind, length):
        w = make_window(kind, length)
        assert np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("kind", list(WindowKind))
    def test_max_at_most_one(self, kind):
        w = make_window(kind, 400)
        assert w.max() <= 1.0

    def test_length_mismatch(self):
        w = make_window(WindowKind.HANN, 400)
        with pytest.raises(LengthMismatch):
            apply_window(np.ones(401), w)

    def test_block_windowed_row_by_row(self):
        w = make_window(WindowKind.HANN, 400)
        block = np.random.default_rng(2).uniform(-1, 1, (5, 400))
        out = apply_window(block, w)
        assert out.shape == (5, 400)
        for row, frame in zip(out, block):
            assert np.array_equal(row, apply_window(frame, w))

    @pytest.mark.parametrize("shape", [(3, 401), (400, 3), (), (2, 3, 399)])
    def test_wrong_last_axis_rejected(self, shape):
        w = make_window(WindowKind.HANN, 400)
        with pytest.raises(LengthMismatch):
            apply_window(np.ones(shape), w)

    def test_windows_cached(self):
        w = make_window(WindowKind.HANN, 400)
        assert w is make_window(WindowKind.HANN, 400)
        assert not w.flags.writeable


class TestPowerSpectrum:
    def test_zero_input(self):
        spec = power_spectrum(np.zeros(400))
        assert spec.shape == (257,)  # 512-point FFT
        assert np.all(spec == 0.0)

    def test_on_bin_sine_concentrates(self):
        # 1000 Hz at 16 kHz with a 512-point FFT lands on bin 32
        n = np.arange(400)
        x = np.sin(2 * np.pi * 1000 * n / 16000)
        spec = power_spectrum(x)
        assert np.argmax(spec) == 32
        # Parseval-weighted share of the peak bin dominates
        weights = np.full(257, 2.0)
        weights[0] = weights[-1] = 1.0
        share = (2 * spec[32]) / np.sum(weights * spec)
        assert share > 0.75

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for size in (256, 400, 512):
            x = rng.standard_normal(size)
            spec = power_spectrum(x)
            n_fft = 2 * (spec.size - 1)
            lhs = np.sum(x * x)
            rhs = (spec[0] + spec[-1] + 2 * np.sum(spec[1:-1])) / n_fft
            assert rhs == pytest.approx(lhs, rel=1e-6)

    def test_block_keeps_leading_axes(self):
        block = np.random.default_rng(4).standard_normal((2, 3, 400))
        spec = power_spectrum(block)
        assert spec.shape == (2, 3, 257)
        assert np.array_equal(spec[1, 2], power_spectrum(block[1, 2]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(np.array([]))

    @pytest.mark.parametrize("empty", [np.empty((3, 0)), np.float64(1.0)])
    def test_empty_rows_and_scalars_rejected(self, empty):
        with pytest.raises(ValueError):
            power_spectrum(empty)


@pytest.mark.usefixtures("binding")
class TestFftSeams:
    """`_native.rfft` and `irfft`, the FFT calls of `power_spectrum` and pitch: the bits of `np.fft`."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(length=st.integers(1, 600), rows=st.one_of(st.none(), st.integers(1, 5)),
           pad=st.one_of(st.none(), st.integers(0, 40)), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-310, 1e-3, 1.0, 1e150]))
    def test_bits_of_numpy_rfft(self, length, rows, pad, seed, scale):
        # n_fft: the power of two power_spectrum takes, or any length at
        # least the frame's, odd ones included
        n_fft = next_pow2(length) if pad is None else length + pad
        shape = (length,) if rows is None else (rows, length)
        x = np.random.default_rng(seed).standard_normal(shape) * scale
        spec = _native.rfft(x, n_fft)
        expected = np.fft.rfft(x, n_fft)
        assert spec.dtype == np.complex128 and spec.shape == expected.shape
        assert spec.tobytes() == expected.tobytes()

    def test_power_spectrum_keeps_the_bits_of_numpy_rfft(self):
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(400), rng.standard_normal((4, 400)), rng.standard_normal(1)):
            spec = np.fft.rfft(x, next_pow2(x.shape[-1]))
            expected = spec.real * spec.real + spec.imag * spec.imag
            assert power_spectrum(x).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bins=st.integers(2, 1100), rows=st.one_of(st.none(), st.integers(1, 5)),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1e-310, 1e-3, 1.0, 1e150]),
           real=st.booleans())
    def test_bits_of_numpy_irfft(self, bins, rows, seed, scale, real):
        # real inputs as pitch passes them (power spectra), complex as rfft gives them
        shape = (bins,) if rows is None else (rows, bins)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * scale
        if not real:
            x = x + 1j * rng.standard_normal(shape) * scale
        signal = _native.irfft(x)
        expected = np.fft.irfft(x)
        assert signal.dtype == np.float64 and signal.shape == expected.shape
        assert signal.tobytes() == expected.tobytes()
