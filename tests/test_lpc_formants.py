"""LPC analysis, polynomial roots and formant extraction."""

import importlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.linalg import _umath_linalg

from nlconfirm import _native
from nlconfirm.corpus import FRAME_LEN, HOP_LEN
from nlconfirm.dsp import (
    LPC_ORDER,
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
from nlconfirm.featset import _formant_pair
from nlconfirm.synth import CONFIRMATION_FORMANTS, SynthConfig, _confirmation_token

from .conftest import resonator_signal

lpc_module = importlib.import_module("nlconfirm.dsp.lpc")  # `nlconfirm.dsp.lpc` is the function

FS = 16000
TINY = float(np.finfo(np.float64).tiny)  # smallest normal float


class TestLpc:
    def test_ar2_recovery(self, monkeypatch):
        monkeypatch.setattr(lpc_module, "LPC_ORDER", 2)
        rng = np.random.default_rng(5)
        n = 8000
        x = np.zeros(n)
        e = rng.standard_normal(n) * 0.1
        for i in range(2, n):
            x[i] = 1.6 * x[i - 1] - 0.9025 * x[i - 2] + e[i]
        windowed = apply_window(x, make_window(WindowKind.HANN, n))
        result = lpc(windowed)
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
        # z^2 + z + 1: the roots' residual is about 3e-16 against a bound of 1e-300 * 3
        with patch.object(lpc_module, "ROOT_RESIDUAL_TOL", 1e-300), \
                pytest.raises(NumericalFailure):
            polynomial_roots([1.0, 1.0, 1.0])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 0.0])
        with pytest.raises(ValueError):
            polynomial_roots([3.0])

    # 2^-1024 is the largest leading coefficient for which -1 / c[0] overflows
    OVERFLOW_EDGE = float.fromhex("0x0.4000000000000p-1022")

    @pytest.mark.parametrize("coefficients", [
        [2.2e-311, 1.0], [1e-300, 1e10, 1.0], [OVERFLOW_EDGE, 1.0], [-OVERFLOW_EDGE, 1.0],
        [1.0, np.inf], [1.0, -np.inf, 2.0], [1.0, np.nan, 2.0],
        [np.nan, 1.0, 2.0], [np.inf, 1.0], [0.0, np.nan, 1.0]])
    def test_a_non_finite_companion_row_is_a_numerical_failure(self, coefficients):
        with pytest.raises(NumericalFailure, match="companion row"):
            polynomial_roots(coefficients)
        assert np.isnan(polynomial_roots([coefficients])).all()

    def test_the_smallest_leading_coefficient_that_fits(self):
        lead = np.nextafter(self.OVERFLOW_EDGE, 1.0)
        roots = polynomial_roots([lead, 1.0])
        assert roots.tolist() == [complex(-1.0 / lead, 0.0)] and np.isfinite(roots).all()

    @pytest.mark.usefixtures("binding")
    def test_eigenvalues_that_do_not_converge_are_a_numerical_failure(self, monkeypatch):
        def no_convergence(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(_native, "eigvals", no_convergence)
        with pytest.raises(NumericalFailure, match="did not converge"):
            polynomial_roots([1.0, -3.0, 2.0])


@st.composite
def companion_stacks(draw):
    """A stack of 1-4 companion matrices of one degree.

    Each matrix's real polynomial has all-real, mixed or all-complex roots.
    """
    degree = draw(st.integers(1, LPC_ORDER))
    kinds = ["real"] + ["complex"] * (degree >= 2) + ["mixed"] * (degree >= 3)
    matrices = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        pairs = {"real": 0, "complex": degree // 2}.get(kind)
        if pairs is None:
            pairs = draw(st.integers(1, (degree - 1) // 2))
        real = draw(st.lists(st.floats(-2.0, 2.0), min_size=degree - 2 * pairs,
                             max_size=degree - 2 * pairs))
        polar = st.tuples(st.floats(0.05, 1.5), st.floats(0.01, 3.13))
        upper = [radius * np.exp(1j * angle)
                 for radius, angle in draw(st.lists(polar, min_size=pairs, max_size=pairs))]
        poly = np.poly(np.array(real + upper + np.conj(upper).tolist(), dtype=np.complex128)).real
        companion = np.eye(degree, k=-1)
        companion[0] = -poly[1:] / poly[0]
        matrices.append(companion)
    return np.stack(matrices)


@pytest.mark.usefixtures("binding")
class TestEigvalsSeam:
    """`_native.eigvals` has the bits of `np.linalg.eigvals`; both paths of polynomial_roots use it."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(companion_stacks())
    def test_bits_of_numpy_eigvals(self, stack):
        want = np.linalg.eigvals(stack).astype(np.complex128)
        assert _native.eigvals(stack).tobytes() == want.tobytes()
        for matrix, row in zip(stack, want):
            single = np.linalg.eigvals(matrix).astype(np.complex128)
            assert _native.eigvals(matrix).tobytes() == single.tobytes()
            assert single.tobytes() == row.tobytes()

    def test_a_result_the_gufunc_marks_as_not_converged_is_a_failure(self, monkeypatch):
        rng = np.random.default_rng(8)
        window = make_window(WindowKind.HANN, FRAME_LEN)
        block = lpc_polynomial(lpc(apply_window(rng.uniform(-0.5, 0.5, (6, FRAME_LEN)), window)))
        want = [polynomial_roots(poly) for poly in block]
        bad = 4
        gufunc = _umath_linalg.eigvals

        def leaves_the_bad_row_nan(matrices, signature):
            found = gufunc(matrices, signature=signature)
            hit = (matrices[..., 0, :] == -block[bad, 1:]).all(axis=-1)
            if hit.any():  # NaN eigenvalues and the invalid flag, as LAPACK's failure gives
                found[hit] = np.subtract(np.inf, np.inf)
            return found

        monkeypatch.setattr(_umath_linalg, "eigvals", leaves_the_bad_row_nan)
        companion = np.eye(LPC_ORDER, k=-1)
        companion[0] = -block[bad, 1:]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvals(companion)  # numpy reads the result the same way
        with pytest.raises(np.linalg.LinAlgError):
            _native.eigvals(companion)
        with pytest.raises(NumericalFailure, match="did not converge"):
            polynomial_roots(block[bad])
        got = polynomial_roots(block)
        assert np.isnan(got[bad]).all()
        for i in np.flatnonzero(np.arange(len(block)) != bad):
            assert got[i].tobytes() == want[i].tobytes()


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
        fp = formants(pair)
        assert fp[0] == pytest.approx(1000.0, abs=1e-9)
        assert fp[1] == 0.0

    def test_all_real_roots(self):
        fp = formants(np.array([0.9, -0.8, 0.5]))
        assert tuple(fp) == (0.0, 0.0)

    def test_low_frequency_cut(self):
        angle = 2 * np.pi * 50 / FS  # 50 Hz < 90 Hz cut
        fp = formants(np.array([0.99 * np.exp(1j * angle)]))
        assert tuple(fp) == (0.0, 0.0)

    def test_bandwidth_cut(self):
        # |r| = 0.8 gives bandwidth ~1136 Hz > 400 Hz
        fp = formants(np.array([0.8 * np.exp(1j * np.pi / 4)]))
        assert tuple(fp) == (0.0, 0.0)

    def test_monotone_in_angle(self):
        angles = np.linspace(0.2, np.pi - 0.2, 10)
        freqs = [formants(np.array([0.99 * np.exp(1j * a)]))[0] for a in angles]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))

    def test_sorted_two_lowest(self):
        mk = lambda f: 0.98 * np.exp(1j * 2 * np.pi * f / FS)
        fp = formants(np.array([mk(2200), mk(500), mk(1200)]))
        assert fp[0] == pytest.approx(500, abs=1e-6)
        assert fp[1] == pytest.approx(1200, abs=1e-6)


class TestResonatorRecovery:
    def test_known_resonator_pair(self):
        window = make_window(WindowKind.HANN, 400)
        sig = resonator_signal(700, 1200, duration_s=0.3)
        frame = apply_window(sig[2400:2800], window)
        chain = fix_roots(polynomial_roots(lpc_polynomial(lpc(frame))))
        fp = formants(chain)
        assert fp[0] == pytest.approx(700, abs=50)
        assert fp[1] == pytest.approx(1200, abs=50)

    def test_twenty_random_pairs(self):
        rng = np.random.default_rng(42)
        window = make_window(WindowKind.HANN, 400)
        for _ in range(20):
            f1 = rng.uniform(300, 900)
            f2 = rng.uniform(1000, 2500)
            sig = resonator_signal(f1, f2, duration_s=0.3)
            frame = apply_window(sig[2400:2800], window)
            fp = formants(fix_roots(polynomial_roots(lpc_polynomial(lpc(frame)))))
            assert abs(fp[0] - f1) < 50, (f1, f2, fp)
            assert abs(fp[1] - f2) < 50, (f1, f2, fp)


def _reference_roots(coefficients, residual_tol):
    """Real companion-matrix roots, each checked with its own np.polyval residual."""
    c = np.atleast_1d(np.asarray(coefficients, dtype=np.float64))
    c = c[np.nonzero(np.abs(c) > 0.0)[0][0]:]
    tail = 0
    while np.abs(c[-1]) == 0.0:
        c = c[:-1]
        tail += 1
    roots = np.zeros(tail, dtype=np.complex128)
    if c.size >= 2:
        monic = c / c[0]
        deg = monic.size - 1
        companion = np.zeros((deg, deg))
        companion[0, :] = -monic[1:]
        companion[1:, :-1] = np.eye(deg - 1)
        roots = np.concatenate([np.linalg.eigvals(companion).astype(np.complex128), roots])
    full = np.concatenate([c, np.zeros(tail)]).astype(np.complex128)
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
        with patch.object(lpc_module, "ROOT_RESIDUAL_TOL", tol):
            if want_failure is None:
                got = polynomial_roots(coefficients)
                assert got.tobytes() == want_roots.tobytes()
            else:
                with pytest.raises(NumericalFailure) as excinfo:
                    polynomial_roots(coefficients)
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


def _roots_or_failure(coefficients, tol):
    """The roots' bytes at residual bound `tol`, or the type and message of what the call raised."""
    try:
        with patch.object(lpc_module, "ROOT_RESIDUAL_TOL", tol):
            return polynomial_roots(coefficients).tobytes()
    except Exception as exc:  # NumericalFailure, or a LinAlgError of eigvals
        return f"{type(exc).__name__}: {exc}"


class TestUndeflatedPath:
    """A polynomial with nonzero first and last coefficients skips the deflation scan."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing Horner steps
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14).flatmap(lambda degree: st.lists(
               st.floats(-1e3, 1e3).filter(lambda v: v != 0.0), min_size=degree + 1,
               max_size=degree + 1)),
           st.sampled_from([1e-300, 1e-15, 1e-14, 1e-13, 1e-6]))
    def test_equals_the_deflating_path(self, coefficients, tol):
        # a leading zero sends the same polynomial through the deflation scan
        c = np.array(coefficients)
        assert _roots_or_failure(c, tol) == _roots_or_failure(np.concatenate(([0.0], c)), tol)


def _reference_lpc(frame, order=12):
    """numpy Levinson-Durbin: lags from one np.dot each, the recursion on arrays.

    Returns (coefficients, gain, stage): stage is the k at which the
    residual energy collapsed (err <= 0) and the recursion stopped, else None.
    """
    x = np.asarray(frame, dtype=np.float64)
    r = np.array([np.dot(x[: x.size - k], x[k:]) for k in range(order + 1)])
    if r[0] <= 0.0:
        raise DegenerateFrame("zero-energy frame")
    r[0] *= 1.0 + 1e-9
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    stage = None
    for k in range(1, order + 1):
        if err <= 0.0:
            stage = k
            break
        acc = r[k] + np.dot(a[1:k], r[k - 1:0:-1])
        lam = -acc / err
        a[1 : k + 1] += lam * a[k - 1 :: -1][:k]
        err *= 1.0 - lam * lam
    return -a[1:], float(max(err, 0.0)), stage


def _toeplitz_condition(frame, order=12):
    """Condition number of the order x order autocorrelation matrix Levinson solves."""
    x = np.asarray(frame, dtype=np.float64)
    r = np.array([np.dot(x[: x.size - k], x[k:]) for k in range(order)])
    r[0] *= 1.0 + 1e-9
    eig = np.linalg.eigvalsh(r[np.abs(np.subtract.outer(np.arange(order), np.arange(order)))] / r[0])
    return eig[-1] / eig[0]


@st.composite
def lpc_frames(draw, n: int | None = None):
    """Frames of 13-400 samples: arbitrary values, or a sinusoid with little or no noise.

    `n` fixes the length, for blocks of equal-length frames.
    """
    n = draw(st.integers(13, 400)) if n is None else n
    amplitude = 10.0 ** draw(st.floats(-100.0, 100.0))
    if draw(st.booleans()):
        values = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
        return amplitude * values
    t = np.arange(n)
    omega = draw(st.floats(0.001, np.pi))
    phase = draw(st.floats(0.0, 2 * np.pi))
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = np.sin(omega * t + phase) + noise * rng.standard_normal(n)
    if draw(st.booleans()):
        frame *= make_window(WindowKind.HANN, n)
    return amplitude * frame


class TestLpcOracle:
    """`lpc` against the numpy Levinson-Durbin it replaced.

    Both solve the same Toeplitz system in a different summation order, so
    they may differ by the system's forward error, about eps * kappa. The
    gate is 1e-10 relative, widened to 16 eps kappa where kappa > ~3e4
    (sinusoids with little noise reach kappa ~ 1e10 and differences of
    ~1e-6).
    """

    @settings(max_examples=300, deadline=None)
    @given(lpc_frames())
    def test_matches_numpy_levinson(self, frame):
        try:
            want, want_gain, _ = _reference_lpc(frame)
        except DegenerateFrame:
            with pytest.raises(DegenerateFrame):
                lpc(frame)
            return
        assume(np.dot(frame, frame) > 1e-280)  # subnormal lags: see the early-stop test
        got = lpc(frame)
        tol = max(1e-10, 16 * np.finfo(float).eps * _toeplitz_condition(frame))
        assert np.max(np.abs(got.coefficients - want)) <= tol * np.max(np.abs(want))
        assert abs(got.gain - want_gain) <= tol * want_gain

    @settings(max_examples=200, deadline=None)
    @given(st.integers(13, 400), st.floats(-161.0, -155.0), st.floats(0.001, np.pi),
           st.floats(0.0, 2 * np.pi), st.booleans())
    def test_collapsed_residual_stops_the_recursion(self, n, log_amplitude, omega, phase, hann):
        # The 1e-9 floor keeps err >= 1e-9 r[0] at normal scale, so only frames
        # whose lags are subnormal (where the floor rounds away) reach err <= 0
        # in the reference. lpc reports every such frame as silent instead of
        # fitting coefficients to rounding; frames of normal energy still fit.
        frame = 10.0 ** log_amplitude * np.sin(omega * np.arange(n) + phase)
        if hann:
            frame *= make_window(WindowKind.HANN, n)
        energy = float(np.dot(frame, frame))  # r[0], up to a few subnormal units
        if energy < TINY * (1 - 1e-6):
            with pytest.raises(DegenerateFrame):
                lpc(frame)
        elif energy > TINY * (1 + 1e-6):
            got = lpc(frame)
            assert np.isfinite(got.coefficients).all() and got.gain > 0.0

    def test_early_stop_on_an_exact_frame(self):
        # 5 * 2 cos(pi t / 3) on the subnormal grid: every lag and product is
        # exact and the reference stops early with zero residual energy. All
        # its lags are subnormal, so lpc reports it as silent.
        frame = np.ldexp(5.0 * np.resize([2.0, 1.0, -1.0, -2.0, -1.0, 1.0], 20), -540)
        _, want_gain, stage = _reference_lpc(frame)
        assert stage is not None and want_gain == 0.0
        with pytest.raises(DegenerateFrame):
            lpc(frame)

    def test_subnormal_energy_is_silent_at_the_boundary(self):
        # a Hann sinusoid scaled so that r[0] sits just below, then just above,
        # the smallest normal float
        shape = np.sin(0.3 * np.arange(400)) * make_window(WindowKind.HANN, 400)
        boundary = np.sqrt(TINY / np.dot(shape, shape))
        with pytest.raises(DegenerateFrame):
            lpc(boundary * (1 - 1e-6) * shape)
        got = lpc(boundary * (1 + 1e-6) * shape)
        assert np.isfinite(got.coefficients).all() and got.gain > 0.0
        with pytest.raises(DegenerateFrame):  # fitted with gain 0.0 before
            lpc(1e-160 * shape)

    @pytest.mark.parametrize("frame", [np.zeros(400), np.full(400, 1e-170)])
    def test_silent_frames(self, frame):
        with pytest.raises(DegenerateFrame):
            _reference_lpc(frame)
        with pytest.raises(DegenerateFrame):
            lpc(frame)

    def test_frame_no_longer_than_the_order(self):
        with pytest.raises(DegenerateFrame):
            lpc(np.ones(12))


@st.composite
def lpc_blocks(draw):
    """(k, n) blocks of `lpc_frames` rows, some scaled to zero or to about 1e-160 (silent)."""
    n = draw(st.integers(13, 400))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = draw(lpc_frames(n))
        peak = max(float(np.max(np.abs(row))), 1e-300)
        rows.append(row * draw(st.sampled_from([1.0, 1.0, 0.0, 1e-160 / peak])))
    return np.stack(rows)


@st.composite
def root_blocks(draw):
    """(k, m) blocks of root sets, every kind of `_root_kinds`, some rows holding a NaN."""
    m = draw(st.integers(0, 14))
    rows = draw(st.lists(st.lists(_root_kinds, min_size=m, max_size=m), min_size=1, max_size=6))
    block = np.array(rows, dtype=np.complex128).reshape(len(rows), m)
    if m and draw(st.booleans()):
        block[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, m - 1))] = np.nan
    return block


class TestBlocks:
    """Each chain function on a (k, ·) block against its 1-D call on every row."""

    @settings(max_examples=200, deadline=None)
    @given(lpc_blocks())
    def test_lpc_rows_are_frame_calls(self, block):
        got = lpc(block)
        assert got.coefficients.shape == (len(block), 12) and got.gain.shape == (len(block),)
        for row, coefficients, gain in zip(block, got.coefficients, got.gain):
            try:
                want = lpc(row)
            except DegenerateFrame:
                assert np.isnan(coefficients).all() and np.isnan(gain)
                continue
            if np.isnan(gain):  # the recursion stopped early, leaving zero residual energy
                assert want.gain == 0.0
                continue
            assert coefficients.tobytes() == want.coefficients.tobytes()
            assert np.float64(gain).tobytes() == np.float64(want.gain).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(degree_12_polynomials(), min_size=1, max_size=6),
           st.sampled_from([1e-300, 1e-15, 1e-14, 1e-13, 1e-6]))
    def test_polynomial_roots_rows_are_polynomial_calls(self, polynomials, tol):
        # a row is NaN exactly where its 1-D call raises; a zero last
        # coefficient would be deflated alone: NaN in a block, unchecked
        with patch.object(lpc_module, "ROOT_RESIDUAL_TOL", tol):
            got = polynomial_roots(np.stack(polynomials))
            assert got.shape == (len(polynomials), 12) and got.dtype == np.complex128
            for row, poly in zip(got, polynomials):
                if poly[-1] == 0.0:
                    assert np.isnan(row).all()
                    continue
                try:
                    want = polynomial_roots(poly)
                except NumericalFailure:
                    assert np.isnan(row).all()
                    continue
                assert row.tobytes() == want.tobytes()

    def test_non_finite_rows_are_nan(self):
        block = np.stack([lpc_polynomial(lpc(np.sin(0.3 * np.arange(400))))] * 3)
        block[1, 4] = np.nan
        block[2, 0] = np.inf
        got = polynomial_roots(block)
        assert got[0].tobytes() == polynomial_roots(block[0]).tobytes()
        assert np.isnan(got[1:]).all()

    def test_an_overflowing_row_among_good_rows_is_nan(self):
        good = [lpc_polynomial(lpc(np.sin(w * np.arange(400)) + 0.01 * np.cos(3 * w * np.arange(400))))
                for w in (0.2, 0.3, 0.5)]
        bad = good[1].copy()
        bad[0] = 2.2e-311  # -bad[1:] / bad[0] overflows
        with pytest.raises(NumericalFailure):
            polynomial_roots(bad)
        got = polynomial_roots(np.stack([good[0], bad, good[1], good[2]]))
        assert np.isnan(got[1]).all()
        for row, poly in zip(got[[0, 2, 3]], good):
            assert row.tobytes() == polynomial_roots(poly).tobytes()
        edge = TestPolynomialRoots.OVERFLOW_EDGE
        got = polynomial_roots([[edge, 1.0], [np.nextafter(edge, 1.0), 1.0]])
        assert np.isnan(got[0]).all()
        assert got[1].tobytes() == polynomial_roots([np.nextafter(edge, 1.0), 1.0]).tobytes()

    @pytest.mark.usefixtures("binding")
    def test_a_block_that_does_not_converge_is_solved_row_by_row(self, monkeypatch):
        rng = np.random.default_rng(8)
        window = make_window(WindowKind.HANN, FRAME_LEN)
        block = lpc_polynomial(lpc(apply_window(rng.uniform(-0.5, 0.5, (6, FRAME_LEN)), window)))
        want = [polynomial_roots(poly) for poly in block]
        bad = 2
        eigvals, calls = _native.eigvals, []

        def fails_on_the_bad_row(matrices):
            calls.append(matrices.ndim)
            if (matrices[..., 0, :] == -block[bad, 1:]).all(axis=-1).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(matrices)

        monkeypatch.setattr(_native, "eigvals", fails_on_the_bad_row)
        got = polynomial_roots(block)
        assert calls == [3] + [2] * len(block)  # the stacked call, then one per row
        assert np.isnan(got[bad]).all()
        for i in np.flatnonzero(np.arange(len(block)) != bad):
            assert got[i].tobytes() == want[i].tobytes()
        calls.clear()  # the next block takes the stacked call alone again
        assert polynomial_roots(block[:bad]).tobytes() == got[:bad].tobytes()
        assert calls == [3]

    @settings(max_examples=300, deadline=None)
    @given(root_blocks())
    def test_fix_roots_and_formants_rows_are_root_set_calls(self, block):
        fixed = fix_roots(block)
        pair = formants(fixed)
        assert pair.shape == (len(block), 2)
        for row, fixed_row, got in zip(block, fixed, pair):
            assert fixed_row.tobytes() == fix_roots(row).tobytes()
            if np.isnan(row).any():
                assert np.isnan(got).all()
            else:
                assert got.tobytes() == formants(fixed_row).tobytes()


# LPC polynomial (Hann window) of frame 1897 of seed-0 `spk01.wav`. Its roots
# include the real root -0.9476, which a complex-typed solver returned with an
# imaginary part of 3.3e-16 and formant picking took for a formant at Nyquist.
PHANTOM_NYQUIST_POLYNOMIAL = np.array([
    1.0, 0.2895854625102028, 0.21716017684341632, -0.006891209918057348,
    -0.027595155178687842, 0.06826008390994365, -0.05420035039877054,
    -0.008821326983862487, -0.005304986430798663, 0.16460304980386342,
    -0.01951757056176859, 0.06629960730270112, -0.17301563555076693,
])


class TestRealRoots:
    def test_real_root_is_no_formant(self):
        roots = polynomial_roots(PHANTOM_NYQUIST_POLYNOMIAL)
        assert roots.dtype == np.complex128
        fp = formants(fix_roots(roots))
        assert tuple(fp) == (0.0, 0.0)

    def test_all_real_roots_come_back_complex(self):
        roots = polynomial_roots([1.0, 0.0, -1.0])
        assert roots.dtype == np.complex128
        assert np.all(roots.imag == 0.0)


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
        got = formants(roots)
        assert got.tobytes() == _reference_formants(roots, FS).tobytes()

    def test_equals_scalar_loop_on_conjugate_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            upper = _polar(rng.uniform(0, 8000, 6), rng.uniform(0.5, 1.0, 6))
            roots = np.concatenate([upper, np.conj(upper)])
            got = formants(roots)
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
        assert formants(roots).tobytes() == _reference_formants(roots, FS).tobytes()
        assert formants(roots)[0] == 90.0


def _token_formants(noise_db: float, f0_low: float = 95.0, f0_high: float = 235.0,
                    tokens: int = 20) -> np.ndarray:
    """(n, 2) formant pairs of the Hann frames of synthetic confirmation tokens.

    Each token gets a speaker pitch drawn from [f0_low, f0_high] (the
    synthesizer's range is 95-235 Hz). Frames that overlap the 30 ms
    fade-in or fade-out are skipped; every frame goes through the feature
    layer's own per-frame chain.
    """
    cfg = SynthConfig(noise_db=noise_db)
    rng = np.random.default_rng(3)
    window = make_window(WindowKind.HANN, FRAME_LEN)
    ramp = 30 * FS // 1000
    pairs = []
    for _ in range(tokens):
        token = _confirmation_token(rng, rng.uniform(f0_low, f0_high), cfg)
        for start in range(ramp, token.size - ramp - FRAME_LEN + 1, HOP_LEN):
            pairs.append(_formant_pair(apply_window(token[start:start + FRAME_LEN], window)))
    return np.array(pairs)


def _recovered(pairs: np.ndarray) -> np.ndarray:
    """Frames with F1 within 75 Hz and F2 within 150 Hz of the synthesizer's centres.

    The synthesizer jitters each token's centres by +/-25 and +/-50 Hz.
    """
    f1_c, f2_c = CONFIRMATION_FORMANTS
    return (np.abs(pairs[:, 0] - f1_c) <= 75.0) & (np.abs(pairs[:, 1] - f2_c) <= 150.0)


class TestFormantRecoveryOracle:
    """Formants of synthetic confirmation tokens against the synthesizer's resonators."""

    def test_every_quiet_frame_recovers_both_formants(self):
        # up to 212.5 Hz pitch the second harmonic lies inside F1's 75 Hz tolerance
        pairs = _token_formants(-40.0, f0_high=212.0)
        assert len(pairs) > 500
        assert _recovered(pairs).all(), pairs[~_recovered(pairs)]

    def test_high_pitch_frames_mostly_recover(self):
        # above it, LPC sometimes locks F1 onto the second harmonic (about 3 % of frames)
        pairs = _token_formants(-40.0, f0_low=212.5)
        assert _recovered(pairs).mean() >= 0.95

    @pytest.mark.parametrize("noise_db", [-40.0, -25.0])
    def test_no_zero_pairs_at_low_noise(self, noise_db):
        pairs = _token_formants(noise_db)
        assert not np.any(np.all(pairs == 0.0, axis=1))
