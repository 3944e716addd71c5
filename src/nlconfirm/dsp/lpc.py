"""Linear prediction, polynomial roots and formant frequencies.

The chain for one Hann-windowed frame: autocorrelation LPC of order 12
(Levinson-Durbin) -> roots of the prediction-error polynomial (eigenvalues
of its real companion matrix) -> reflection of out-of-circle roots -> the
two lowest resonance frequencies that survive the low-cut and bandwidth
filters. The real-typed solver returns real roots with an imaginary part
of exactly 0, so a real root near -1 has angle pi and is no formant
candidate.

`lpc`, `lpc_polynomial`, `polynomial_roots`, `fix_roots` and `formants`
also take a (k, ·) block, one frame (or polynomial, or root set) per row,
and give each row the bits of a call on that row alone: the lags come from
one batched product with the 1-D dot loop, Levinson runs across rows in the
1-D order of operations, the companion matrices go to one stacked
`np.linalg.eigvals` call, and the picking is one masked sort. A row the 1-D
call would reject or solve at a lower degree (zero or subnormal energy, a
recursion that stops early, a zero last coefficient) comes back NaN, so the
caller can run it alone; feature extraction does so (`featset`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateFrame, NumericalFailure

LPC_ORDER = 12

# candidate filters for formant picking
FORMANT_MIN_HZ = 90.0
FORMANT_MAX_BANDWIDTH_HZ = 400.0

ROOT_RESIDUAL_TOL = 1e-6

_TINY = float(np.finfo(np.float64).tiny)  # smallest normal float


@dataclass(frozen=True)
class LpcResult:
    """Predictor coefficients c_k with x[n] ~ sum_k c_k x[n-k], plus residual energy."""

    order: int
    coefficients: np.ndarray
    gain: float


@dataclass(frozen=True)
class FormantPair:
    """First two formant frequencies in Hz; 0 marks an absent formant.

    Floats for one frame, (k,) arrays for a block.
    """

    f1: float | np.ndarray
    f2: float | np.ndarray

    def as_array(self) -> np.ndarray:
        """(2,) for one frame; (k, 2), one row per frame, for a block."""
        return np.array([self.f1, self.f2]).T


def lpc(windowed: np.ndarray, order: int = LPC_ORDER) -> LpcResult:
    """Autocorrelation-method LPC via the Levinson-Durbin recursion.

    The order + 1 autocorrelation lags are one product of the frame with a
    strided (n, order + 1) view of its zero-padded copy; the recursion then
    runs on Python floats, which beats numpy calls at order 12. Raises
    DegenerateFrame for a frame whose energy r[0] is below the smallest
    normal float: zero, or so small that every lag is subnormal and the
    coefficients would depend on rounding alone. A tiny noise floor (1e-9
    relative) keeps the recursion stable on nearly-perfectly predictable
    input; if the residual energy still collapses, the remaining
    reflection coefficients are treated as zero.

    A (k, n) block gives (k, order) coefficients and (k,) gains, each row
    bitwise that of its frame: the lags come from one batched product over
    a (k, n, order + 1) view, with the dot loop of the 1-D product, and the
    recursion runs on (k,) arrays in the 1-D order of operations. Rows the
    1-D call would reject as degenerate, or whose recursion stops early,
    are NaN.
    """
    x = np.asarray(windowed, dtype=np.float64)
    n = x.shape[-1] if x.ndim == 2 else x.size
    if n <= order:
        raise DegenerateFrame(f"frame of {n} samples too short for order {order}")
    if x.ndim == 2:
        padded = np.zeros((len(x), n + order))
        padded[:, :n] = x
        lagged = np.ndarray((len(x), n, order + 1), np.float64, padded, 0,
                            (padded.strides[0], padded.itemsize, padded.itemsize))
        r = np.matmul(x[:, None, :], lagged)[:, 0, :].T.copy()  # r[j]: lag j of every row
        stopped = r[0] < _TINY
        r[0] *= 1.0 + 1e-9
        a = np.zeros((order + 1, len(x)))
        a[0] = 1.0
        err = r[0].copy()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(1, order + 1):
                stopped |= err <= 0.0
                acc = np.zeros(len(x))
                for j in range(1, k):
                    acc += a[j] * r[k - j]
                lam = -(r[k] + acc) / err
                a[1:k + 1] += lam * a[k - 1::-1]
                err *= 1.0 - lam * lam
        a[:, stopped] = np.nan
        err[stopped] = np.nan
        return LpcResult(order=order, coefficients=-a[1:].T, gain=np.maximum(err, 0.0))
    padded = np.zeros(n + order)
    padded[:n] = x
    step = padded.itemsize
    lagged = np.ndarray((n, order + 1), np.float64, padded, 0, (step, step))
    r = (x @ lagged).tolist()   # r[k] = sum_i x[i] x[i + k]
    if r[0] < _TINY:
        raise DegenerateFrame("zero or subnormal frame energy")
    r[0] *= 1.0 + 1e-9
    a = [1.0] + [0.0] * order
    err = r[0]
    for k in range(1, order + 1):
        if err <= 0.0:
            break
        acc = 0.0
        for j in range(1, k):
            acc += a[j] * r[k - j]
        lam = -(r[k] + acc) / err
        a[1:k + 1] = [a[j] + lam * a[k - j] for j in range(1, k + 1)]
        err *= 1.0 - lam * lam
    return LpcResult(order=order, coefficients=-np.array(a[1:]), gain=max(err, 0.0))


def lpc_polynomial(result: LpcResult) -> np.ndarray:
    """Prediction-error polynomial A(z) = 1 - sum c_k z^{-k}, highest power first.

    A block result gives one polynomial per row.
    """
    coefficients = result.coefficients
    if coefficients.ndim == 2:
        return np.concatenate((np.ones((len(coefficients), 1)), -coefficients), axis=1)
    return np.concatenate(([1.0], -coefficients))


def polynomial_roots(coefficients: np.ndarray, residual_tol: float = ROOT_RESIDUAL_TOL) -> np.ndarray:
    """All complex roots of a real polynomial (coefficients highest power first).

    Solved as eigenvalues of the real companion matrix, so a real root
    comes back with an imaginary part of exactly 0; the result is always
    complex128. Every root r is checked against
    |p(r)| <= tol * sum_i |c_i| |r|^(deg-i); NumericalFailure names the
    first root that misses that residual bound.

    A (k, m) block gives (k, m - 1) roots, each row bitwise that of its
    polynomial: the companion matrices of all rows go to one stacked
    `np.linalg.eigvals` call, and one Horner pass checks every root. Rows
    the 1-D call would solve at a lower degree (a zero first or last
    coefficient) or cannot solve (NaN or infinite coefficients) are NaN.
    A root that misses the residual bound raises NumericalFailure for the
    block, as the 1-D call does for its polynomial.
    """
    c = np.atleast_1d(np.asarray(coefficients, dtype=np.float64))
    if c.ndim == 2:
        k, m = c.shape
        if m < 2:
            raise ValueError("polynomial degree must be >= 1")
        roots = np.full((k, m - 1), np.nan, dtype=np.complex128)
        solvable = np.isfinite(c).all(axis=1) & (c[:, 0] != 0.0) & (c[:, -1] != 0.0)
        c = c[solvable]
        companion = np.zeros((len(c), m - 1, m - 1))
        companion[:, 1:, :-1] = np.eye(m - 2)
        companion[:, 0, :] = -c[:, 1:] / c[:, :1]
        found = np.linalg.eigvals(companion).astype(np.complex128, copy=False)
        # one Horner pass over all rows: [:, 0] is p(r), [:, 1] the bound
        steps = np.stack((c, np.abs(c)), axis=1).astype(np.complex128)
        point = np.stack((found, np.maximum(np.abs(found), 1e-300)), axis=1)
        value = np.zeros_like(point)
        for i in range(m):
            value *= point
            value += steps[:, :, i:i + 1]
        residual = np.abs(value[:, 0])
        scale = value[:, 1].real
        failed = np.argwhere(residual > residual_tol * scale)
        if failed.size:
            row, i = failed[0]
            raise NumericalFailure(
                f"row {np.flatnonzero(solvable)[row]}: root {found[row, i]} residual "
                f"{residual[row, i]:.3e} exceeds {residual_tol:.0e} * scale {scale[row, i]:.3e}"
            )
        roots[solvable] = found
        return roots
    nonzero = np.flatnonzero(np.abs(c) > 0.0)
    if nonzero.size == 0:
        raise ValueError("zero polynomial has no defined roots")
    c = c[nonzero[0]:]
    if c.size < 2:
        raise ValueError("polynomial degree must be >= 1")
    # trailing zero coefficients are roots at the origin
    tail = 0
    while c[-1] == 0.0:
        c = c[:-1]
        tail += 1
    roots = np.zeros(c.size - 1 + tail, dtype=np.complex128)
    if c.size >= 2:
        companion = np.eye(c.size - 1, k=-1)
        companion[0, :] = -c[1:] / c[0]
        roots[:c.size - 1] = np.linalg.eigvals(companion)
    # one Horner pass: row 0 is p(r), row 1 the bound sum_i |c_i| |r|^(deg-i)
    full = np.concatenate((c, np.zeros(tail)))
    steps = np.array([full, np.abs(full)], dtype=np.complex128).T[:, :, None]
    point = np.array([roots, np.maximum(np.abs(roots), 1e-300)])
    value = np.zeros_like(point)
    for step in steps:
        value *= point
        value += step
    residual = np.abs(value[0])
    scale = value[1].real
    failed = np.flatnonzero(residual > residual_tol * scale)
    if failed.size:
        i = failed[0]
        raise NumericalFailure(
            f"root {roots[i]} residual {residual[i]:.3e} exceeds {residual_tol:.0e} * scale {scale[i]:.3e}"
        )
    return roots


def fix_roots(roots: np.ndarray) -> np.ndarray:
    """Reflect roots outside the unit circle to 1/conj(r); angle is preserved. Any shape."""
    roots = np.asarray(roots, dtype=np.complex128)
    mags = np.abs(roots)
    out = roots.copy()
    outside = mags > 1.0
    out[outside] = 1.0 / np.conj(roots[outside])
    return out


def formants(roots: np.ndarray, sample_rate: int) -> FormantPair:
    """First two formant frequencies from fixed LPC roots.

    Candidates are roots with angle in (0, pi); frequency = angle * fs / 2pi
    and bandwidth = -(fs/pi) * ln|r|. Candidates below 90 Hz or wider than
    400 Hz bandwidth are discarded; the two lowest survivors are returned,
    padded with 0.

    A (k, m) block of root sets gives a pair of (k,) arrays, each row
    bitwise that of its root set: the survivors are picked with one masked
    sort. A row holding a NaN root gives a NaN pair.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    angle = np.angle(roots)
    freq = angle * sample_rate / (2.0 * np.pi)
    # freq >= FORMANT_MIN_HZ > 0 implies angle > 0, hence |r| > 0
    upper = (freq >= FORMANT_MIN_HZ) & (angle < np.pi)
    bandwidth = -(sample_rate / np.pi) * np.log(np.abs(roots[upper]))
    if roots.ndim == 2:
        kept = upper.copy()
        kept[upper] = bandwidth <= FORMANT_MAX_BANDWIDTH_HZ
        candidates = np.full((len(roots), roots.shape[1] + 2), np.inf)  # two inf pads per row
        candidates[:, :-2] = np.where(kept, freq, np.inf)
        pair = np.sort(candidates, axis=1)[:, :2]
        pair[np.isinf(pair)] = 0.0
        pair[np.isnan(roots).any(axis=1)] = np.nan
        return FormantPair(f1=pair[:, 0], f2=pair[:, 1])
    kept = freq[upper][bandwidth <= FORMANT_MAX_BANDWIDTH_HZ]
    candidates = np.sort(kept).tolist() + [0.0, 0.0]
    return FormantPair(f1=candidates[0], f2=candidates[1])
