"""LPC analysis, polynomial roots and formant extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlconfirm.dsp import (
    WindowKind,
    apply_window,
    fix_roots,
    formants,
    lpc,
    lpc_polynomial,
    make_window,
    polynomial_roots,
)
from nlconfirm.errors import DegenerateFrame, NumericalFailure

from .conftest import resonator_signal

FS = 16000


class TestLpc:
    def test_ar2_recovery(self):
        rng = np.random.default_rng(5)
        n = 8000
        x = np.zeros(n)
        e = rng.standard_normal(n) * 0.1
        for i in range(2, n):
            x[i] = 1.6 * x[i - 1] - 0.9025 * x[i - 2] + e[i]
        windowed = apply_window(x, make_window(WindowKind.HANN, n))
        result = lpc(windowed, order=2)
        assert result.coefficients[0] == pytest.approx(1.6, abs=0.05)
        assert result.coefficients[1] == pytest.approx(-0.9025, abs=0.05)
        assert result.gain > 0

    def test_white_noise_small_predictors(self):
        window = make_window(WindowKind.HANN, 400)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            frame = apply_window(rng.standard_normal(400) * 0.3, window)
            result = lpc(frame)
            worst = max(worst, np.max(np.abs(result.coefficients)))
        assert worst < 0.2

    def test_zero_frame(self):
        with pytest.raises(DegenerateFrame):
            lpc(np.zeros(400))

    def test_order_and_polynomial_layout(self):
        rng = np.random.default_rng(6)
        result = lpc(rng.standard_normal(400))
        assert result.order == 12
        assert result.coefficients.shape == (12,)
        poly = lpc_polynomial(result)
        assert poly[0] == 1.0
        assert np.array_equal(poly[1:], -result.coefficients)

    def test_pure_sine_is_stable(self):
        # nearly perfectly predictable input must not blow up the recursion
        t = np.arange(400) / FS
        frame = apply_window(0.5 * np.sin(2 * np.pi * 200 * t), make_window(WindowKind.HANN, 400))
        result = lpc(frame)
        assert np.isfinite(result.coefficients).all()
        assert result.gain >= 0


class TestPolynomialRoots:
    def test_difference_of_squares(self):
        roots = polynomial_roots([1.0, 0.0, -1.0])  # z^2 - 1
        assert sorted(np.round(roots.real, 9)) == [-1.0, 1.0]
        assert np.allclose(roots.imag, 0.0, atol=1e-9)

    def test_double_root(self):
        roots = polynomial_roots([1.0, -2.0, 1.0])  # (z - 1)^2
        assert np.all(np.abs(roots - 1.0) < 1e-4)

    def test_trailing_zero_deflation(self):
        roots = polynomial_roots([1.0, 1.0, 0.0])  # z^2 + z = z(z + 1)
        assert sorted(np.round(roots.real, 9)) == [-1.0, 0.0]

    def test_known_degree_12(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            angles = np.sort(rng.uniform(0.3, np.pi - 0.3, 5))
            mags = rng.uniform(0.4, 0.95, 5)
            complex_roots = mags * np.exp(1j * angles)
            chosen = np.concatenate([
                complex_roots, np.conj(complex_roots), rng.uniform(-0.9, 0.9, 2)
            ])
            poly = np.real(np.poly(chosen))
            got = polynomial_roots(poly)
            got_sorted = np.sort_complex(np.round(got, 8))
            want_sorted = np.sort_complex(np.round(chosen, 8))
            assert np.max(np.abs(got_sorted - want_sorted)) < 1e-6

    def test_residual_gate(self):
        with pytest.raises(NumericalFailure):
            polynomial_roots([1.0, 0.0, 1.0], residual_tol=1e-300)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 0.0])
        with pytest.raises(ValueError):
            polynomial_roots([3.0])


class TestFixRoots:
    def test_reflection(self):
        r = 1.25 * np.exp(1j * np.pi / 8)
        fixed = fix_roots(np.array([r]))[0]
        assert np.abs(fixed) == pytest.approx(0.8, abs=1e-12)
        assert np.angle(fixed) == pytest.approx(np.pi / 8, abs=1e-12)

    def test_inside_unchanged(self):
        r = 0.5 * np.exp(1j * np.pi / 4)
        assert fix_roots(np.array([r]))[0] == r

    def test_boundary_unchanged(self):
        r = np.exp(1j * 0.3)
        fixed = fix_roots(np.array([r]))[0]
        assert fixed == r

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.complex128, 6,
                  elements=st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                              allow_infinity=False)))
    def test_idempotent_and_bounded(self, roots):
        once = fix_roots(roots)
        assert np.array_equal(fix_roots(once), once)
        assert np.all(np.abs(once) <= 1.0 + 1e-12)


class TestFormants:
    def test_single_pair_at_1000hz(self):
        angle = np.pi / 8
        pair = np.array([0.98 * np.exp(1j * angle), 0.98 * np.exp(-1j * angle)])
        fp = formants(pair, FS)
        assert fp.f1 == pytest.approx(1000.0, abs=1e-9)
        assert fp.f2 == 0.0

    def test_all_real_roots(self):
        fp = formants(np.array([0.9, -0.8, 0.5]), FS)
        assert (fp.f1, fp.f2) == (0.0, 0.0)

    def test_low_frequency_cut(self):
        angle = 2 * np.pi * 50 / FS  # 50 Hz < 90 Hz cut
        fp = formants(np.array([0.99 * np.exp(1j * angle)]), FS)
        assert (fp.f1, fp.f2) == (0.0, 0.0)

    def test_bandwidth_cut(self):
        # |r| = 0.8 gives bandwidth ~1136 Hz > 400 Hz
        fp = formants(np.array([0.8 * np.exp(1j * np.pi / 4)]), FS)
        assert (fp.f1, fp.f2) == (0.0, 0.0)

    def test_monotone_in_angle(self):
        angles = np.linspace(0.2, np.pi - 0.2, 10)
        freqs = [formants(np.array([0.99 * np.exp(1j * a)]), FS).f1 for a in angles]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))

    def test_sorted_two_lowest(self):
        mk = lambda f: 0.98 * np.exp(1j * 2 * np.pi * f / FS)
        fp = formants(np.array([mk(2200), mk(500), mk(1200)]), FS)
        assert fp.f1 == pytest.approx(500, abs=1e-6)
        assert fp.f2 == pytest.approx(1200, abs=1e-6)


class TestResonatorRecovery:
    def test_known_resonator_pair(self):
        window = make_window(WindowKind.HANN, 400)
        sig = resonator_signal(700, 1200, duration_s=0.3)
        frame = apply_window(sig[2400:2800], window)
        chain = fix_roots(polynomial_roots(lpc_polynomial(lpc(frame))))
        fp = formants(chain, FS)
        assert fp.f1 == pytest.approx(700, abs=50)
        assert fp.f2 == pytest.approx(1200, abs=50)

    def test_twenty_random_pairs(self):
        rng = np.random.default_rng(42)
        window = make_window(WindowKind.HANN, 400)
        for _ in range(20):
            f1 = rng.uniform(300, 900)
            f2 = rng.uniform(1000, 2500)
            sig = resonator_signal(f1, f2, duration_s=0.3)
            frame = apply_window(sig[2400:2800], window)
            fp = formants(fix_roots(polynomial_roots(lpc_polynomial(lpc(frame)))), FS)
            assert abs(fp.f1 - f1) < 50, (f1, f2, fp)
            assert abs(fp.f2 - f2) < 50, (f1, f2, fp)


def _reference_roots(coefficients, residual_tol):
    """Companion-matrix roots, each checked with its own np.polyval residual."""
    c = np.atleast_1d(np.asarray(coefficients, dtype=np.complex128))
    c = c[np.nonzero(np.abs(c) > 0.0)[0][0]:]
    tail = 0
    while np.abs(c[-1]) == 0.0:
        c = c[:-1]
        tail += 1
    roots = np.zeros(tail, dtype=np.complex128)
    if c.size >= 2:
        monic = c / c[0]
        deg = monic.size - 1
        companion = np.zeros((deg, deg), dtype=np.complex128)
        companion[0, :] = -monic[1:]
        companion[1:, :-1] = np.eye(deg - 1)
        roots = np.concatenate([np.linalg.eigvals(companion), roots])
    full = np.concatenate([c, np.zeros(tail, dtype=np.complex128)])
    for r in roots:
        residual = np.abs(np.polyval(full, r))
        scale = np.polyval(np.abs(full), max(np.abs(r), 1e-300))
        if residual > residual_tol * scale:
            return roots, (
                f"root {r} residual {residual:.3e} exceeds {residual_tol:.0e} * scale {scale:.3e}"
            )
    return roots, None


def _reference_formants(roots, sample_rate):
    """Formant picking one root at a time."""
    candidates = []
    for r in np.asarray(roots, dtype=np.complex128):
        angle = np.angle(r)
        mag = np.abs(r)
        if not (0.0 < angle < np.pi) or mag <= 0.0:
            continue
        freq = angle * sample_rate / (2.0 * np.pi)
        bandwidth = -(sample_rate / np.pi) * np.log(mag)
        if freq < 90.0 or bandwidth > 400.0:
            continue
        candidates.append(freq)
    candidates.sort()
    candidates += [0.0, 0.0]
    return np.array(candidates[:2])


@st.composite
def degree_12_polynomials(draw):
    """Real degree-12 coefficients, highest power first, with 0-3 trailing zeros."""
    lead = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    rest = draw(st.lists(st.floats(-10.0, 10.0), min_size=12, max_size=12))
    tail = draw(st.integers(0, 3))
    return np.array([lead] + rest[: 12 - tail] + [0.0] * tail)


class TestResidualCheckOracle:
    @settings(max_examples=300, deadline=None)
    @given(degree_12_polynomials(), st.sampled_from([1e-300, 1e-15, 1e-14, 1e-13, 1e-6]))
    def test_raises_exactly_when_a_root_misses_the_bound(self, coefficients, tol):
        want_roots, want_failure = _reference_roots(coefficients, tol)
        if want_failure is None:
            got = polynomial_roots(coefficients, residual_tol=tol)
            assert got.tobytes() == want_roots.tobytes()
        else:
            with pytest.raises(NumericalFailure) as excinfo:
                polynomial_roots(coefficients, residual_tol=tol)
            assert str(excinfo.value) == want_failure

    def test_lpc_frames_match_reference(self):
        window = make_window(WindowKind.HANN, 400)
        rng = np.random.default_rng(11)
        for _ in range(30):
            sig = resonator_signal(rng.uniform(300, 900), rng.uniform(1000, 2500))
            poly = lpc_polynomial(lpc(apply_window(sig[2400:2800], window)))
            want, failure = _reference_roots(poly, 1e-6)
            assert failure is None
            assert polynomial_roots(poly).tobytes() == want.tobytes()


def _polar(freq_hz, mag):
    return mag * np.exp(1j * 2 * np.pi * freq_hz / FS)


_root_kinds = st.one_of(
    st.builds(_polar, st.floats(90.0, 8000.0), st.floats(0.93, 1.0)),   # kept, up to Nyquist
    st.builds(_polar, st.floats(0.5, 89.99), st.floats(0.93, 1.0)),     # below 90 Hz
    st.builds(_polar, st.floats(90.0, 8000.0), st.floats(0.05, 0.92)),  # wider than 400 Hz
    st.builds(_polar, st.floats(-7990.0, -0.5), st.floats(0.05, 1.0)),  # lower half plane
    st.builds(complex, st.floats(-1.0, 1.0), st.just(0.0)),             # on the real axis
    st.just(0j),
)


class TestFormantsOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_root_kinds, min_size=0, max_size=14))
    def test_equals_scalar_loop(self, roots):
        roots = np.array(roots, dtype=np.complex128)
        got = formants(roots, FS).as_array()
        assert got.tobytes() == _reference_formants(roots, FS).tobytes()

    def test_equals_scalar_loop_on_conjugate_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            upper = _polar(rng.uniform(0, 8000, 6), rng.uniform(0.5, 1.0, 6))
            roots = np.concatenate([upper, np.conj(upper)])
            got = formants(roots, FS).as_array()
            assert got.tobytes() == _reference_formants(roots, FS).tobytes()

    def test_candidate_exactly_at_low_cut_is_kept(self):
        # nudge the angle until the computed frequency is exactly 90 Hz
        start = 2 * np.pi * 90.0 / FS
        for step in range(-200, 200):
            angle = start + step * np.spacing(start)
            root = complex(0.99 * np.cos(angle), 0.99 * np.sin(angle))
            if np.angle(root) * FS / (2.0 * np.pi) == 90.0:
                break
        else:
            raise AssertionError("no root with a computed frequency of exactly 90 Hz")
        roots = np.array([root, np.conj(root)])
        assert formants(roots, FS).as_array().tobytes() == _reference_formants(roots, FS).tobytes()
        assert formants(roots, FS).f1 == 90.0
