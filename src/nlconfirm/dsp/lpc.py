"""Linear prediction, polynomial roots and formant frequencies.

The chain for one Hann-windowed frame: autocorrelation LPC of order 12
(Levinson-Durbin) -> roots of the prediction-error polynomial (eigenvalues
of its real companion matrix) -> reflection of out-of-circle roots -> the
two lowest resonance frequencies that survive the low-cut and bandwidth
filters. The real-typed solver returns real roots with an imaginary part
of exactly 0, so a real root near -1 has angle pi and is no formant
candidate.

Eigenvalues come from `_native.eigvals`, with the bits of `np.linalg.eigvals`.

`lpc`, `lpc_polynomial`, `polynomial_roots`, `fix_roots` and `formants`
also take a (k, ·) block, one frame (or polynomial, or root set) per row,
and give each row the bits of a call on that row alone: the lags come from
one batched product with the 1-D dot loop, Levinson runs across rows in the
1-D order of operations, the companion matrices go to one stacked
`_native.eigvals` call, and the picking is one masked sort. A row the 1-D
call would not finish comes back NaN: one it would reject (zero or
subnormal energy, a root that misses the residual bound) or solve at a
lower degree (a recursion that stops early, a zero last coefficient). The
caller can run such a row alone; feature extraction does so (`featset`).
`formants` returns a plain array: (F1, F2) for one root set, (k, 2) for
a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .. import _native
from ..corpus import SAMPLE_RATE
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

    coefficients: np.ndarray
    gain: float


def lpc(windowed: np.ndarray) -> LpcResult:
    """Autocorrelation-method LPC of order LPC_ORDER via the Levinson-Durbin recursion.

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
    order = LPC_ORDER
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
        return LpcResult(coefficients=-a[1:].T, gain=np.maximum(err, 0.0))
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
        prev = a[:k + 1]
        for j in range(1, k + 1):
            a[j] = prev[j] + lam * prev[k - j]
        err *= 1.0 - lam * lam
    return LpcResult(coefficients=-np.array(a[1:]), gain=max(err, 0.0))


def lpc_polynomial(result: LpcResult) -> np.ndarray:
    """Prediction-error polynomial A(z) = 1 - sum c_k z^{-k}, highest power first.

    A block result gives one polynomial per row.
    """
    coefficients = result.coefficients
    polynomial = np.empty(coefficients.shape[:-1] + (coefficients.shape[-1] + 1,))
    polynomial[..., 0] = 1.0
    np.negative(coefficients, out=polynomial[..., 1:])
    return polynomial


def polynomial_roots(coefficients: np.ndarray) -> np.ndarray:
    """All complex roots of a real polynomial (coefficients highest power first).

    Solved as eigenvalues of the real companion matrix, so a real root
    comes back with an imaginary part of exactly 0; the result is always
    complex128. Every root r is checked against
    |p(r)| <= ROOT_RESIDUAL_TOL * sum_i |c_i| |r|^(deg-i); NumericalFailure
    names the first root that misses that residual bound. It is also raised for a
    NaN or infinite coefficient (before any root is solved), when the
    companion row -c[1:] / c[0] overflows (a leading coefficient so small,
    subnormal say, that the row is not finite) and when the eigenvalues do
    not converge (`_native.eigvals` raises LinAlgError). Leading zero
    coefficients are dropped and trailing ones give roots at the origin; a
    polynomial with neither (every LPC polynomial) skips that scan.

    A (k, m) block gives (k, m - 1) roots, each row bitwise that of its
    polynomial: the companion matrices of all rows go to one stacked
    `_native.eigvals` call, and one Horner pass checks every root. Rows
    the 1-D call would solve at a lower degree (a zero first or last
    coefficient), cannot solve (NaN or infinite coefficients) or would
    reject (an overflowing companion row, a root that misses the residual
    bound) are NaN; the block call itself does not raise NumericalFailure.
    When the stacked `_native.eigvals` does not converge, that block's rows
    are solved one by one, and the rows that do not converge alone are NaN.
    """
    c = np.asarray(coefficients, dtype=np.float64)
    if c.ndim == 2:
        k, m = c.shape
        if m < 2:
            raise ValueError("polynomial degree must be >= 1")
        roots = np.full((k, m - 1), np.nan, dtype=np.complex128)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            top = -c[:, 1:] / c[:, :1]  # the companion rows; a tiny c[0] overflows them
        solvable = (np.isfinite(c).all(axis=1) & np.isfinite(top).all(axis=1)
                    & (c[:, 0] != 0.0) & (c[:, -1] != 0.0))
        c = c[solvable]
        companion = np.tile(_subdiagonal(m - 1), (len(c), 1, 1))
        companion[:, 0, :] = top[solvable]
        try:
            found = _native.eigvals(companion)
        except LinAlgError:
            found = np.full((len(c), m - 1), np.nan, dtype=np.complex128)
            for i, matrix in enumerate(companion):
                try:
                    found[i] = _native.eigvals(matrix)
                except LinAlgError:
                    pass  # the row stays NaN
        # one Horner pass over all rows: [:, 0] is p(r), [:, 1] the bound
        steps = np.stack((c, np.abs(c)), axis=1).astype(np.complex128)
        point = np.stack((found, np.maximum(np.abs(found), 1e-300)), axis=1)
        value = np.zeros_like(point)
        for i in range(m):
            value *= point
            value += steps[:, :, i:i + 1]
        found[(np.abs(value[:, 0]) > ROOT_RESIDUAL_TOL * value[:, 1].real).any(axis=1)] = np.nan
        roots[solvable] = found
        return roots
    if c.ndim == 0:
        c = c.reshape(1)
    if c.size >= 2 and 0.0 < abs(c[0]) < np.inf and c[-1] != 0.0:  # nothing to deflate
        return _checked_roots(c, 0)  # which rejects a NaN or inf after c[0]
    if not np.isfinite(c).all():  # the scans below would take a NaN for a nonzero
        raise NumericalFailure(f"coefficients {c.tolist()} give no finite companion row")
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
    return _checked_roots(c, tail)


@lru_cache(maxsize=16)
def _subdiagonal(n: int) -> np.ndarray:
    """Read-only (n, n) companion-matrix template: ones on the sub-diagonal."""
    template = np.eye(n, k=-1)
    template.flags.writeable = False
    return template


def _checked_roots(c: np.ndarray, tail: int) -> np.ndarray:
    """Roots of c (nonzero first and last coefficient) and `tail` roots at the origin.

    Each root is checked against the full polynomial, c followed by `tail`
    zeros; NumericalFailure names the first that misses the residual bound.
    """
    m = c.size + tail
    # row 0 holds the roots r, row 1 max(|r|, 1e-300): one Horner pass gives
    # p(r) in row 0 and the bound sum_i |c_i| |r|^(deg-i) in row 1
    point = np.zeros((2, m - 1), dtype=np.complex128)
    roots = point[0]
    if c.size >= 2:
        companion = _subdiagonal(c.size - 1).copy()
        with np.errstate(over="ignore"):
            np.divide(c[1:], -c[0], out=companion[0])  # -c[1:] / c[0]; a tiny c[0] overflows it
        if not np.isfinite(companion[0]).all():  # the block call's test of its rows
            raise NumericalFailure(f"companion row of {c.tolist()} is not finite")
        try:
            roots[:c.size - 1] = _native.eigvals(companion)
        except LinAlgError as exc:
            raise NumericalFailure(f"eigenvalues of the companion matrix of {c.tolist()} "
                                   "did not converge") from exc
    np.maximum(np.abs(roots), 1e-300, out=point[1].real)
    # step i adds c_i to row 0 and |c_i| to row 1, spelled out per root: an
    # operand of point's shape keeps each in-place ufunc on its fast path
    steps = np.zeros((m, 2, m - 1), dtype=np.complex128)
    steps[:c.size, 0] = c[:, None]
    steps[:c.size, 1] = np.abs(c)[:, None]
    value = np.zeros_like(point)
    for step in steps:
        value *= point
        value += step
    residual = np.abs(value[0])
    scale = value[1].real
    failed = residual > ROOT_RESIDUAL_TOL * scale
    if failed.any():
        i = failed.argmax()
        raise NumericalFailure(
            f"root {roots[i]} residual {residual[i]:.3e} exceeds {ROOT_RESIDUAL_TOL:.0e} "
            f"* scale {scale[i]:.3e}"
        )
    return roots


def fix_roots(roots: np.ndarray) -> np.ndarray:
    """Reflect roots outside the unit circle to 1/conj(r); angle is preserved. Any shape.

    With no root outside (as for every LPC polynomial of a stable fit), the
    complex128 array of `roots` comes back as it is, not copied.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    outside = np.abs(roots) > 1.0
    if not outside.any():
        return roots
    out = roots.copy()
    out[outside] = 1.0 / np.conj(roots[outside])
    return out


def formants(roots: np.ndarray) -> np.ndarray:
    """First two formant frequencies in Hz, (F1, F2), from fixed LPC roots of a 16 kHz frame.

    Candidates are roots with angle in (0, pi); frequency = angle * fs / 2pi
    and bandwidth = -(fs/pi) * ln|r|. Candidates below 90 Hz or wider than
    400 Hz bandwidth are discarded; the two lowest survivors are returned
    as a (2,) array, padded with 0 (an absent formant). One root set picks
    on Python floats, whose products, quotients and comparisons are those
    of numpy's float64 arrays; the angles and logarithms come from numpy.
    It keeps the two lowest in one pass, in the order a sort would give,
    without the lists and generator of a sort: fewer objects for the cyclic
    garbage collector, whose pauses land in whichever call allocates.

    A (k, m) block of root sets gives (k, 2), each row bitwise that of its
    root set: the survivors are picked with one masked sort. A row holding
    a NaN root gives a NaN pair.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    angle = np.arctan2(roots.imag, roots.real)
    if roots.ndim == 1:
        upper, freq = [], []
        for i, a in enumerate(angle.tolist()):
            f = a * SAMPLE_RATE / (2.0 * np.pi)
            if f >= FORMANT_MIN_HZ and a < np.pi:  # f > 0 implies angle > 0, hence |r| > 0
                upper.append(i)
                freq.append(f)
        first = second = np.inf
        for f, log_radius in zip(freq, np.log(np.abs(roots[upper])).tolist()):
            if -(SAMPLE_RATE / np.pi) * log_radius <= FORMANT_MAX_BANDWIDTH_HZ:
                if f < first:
                    first, second = f, first
                elif f < second:
                    second = f
        return np.array((first if first < np.inf else 0.0, second if second < np.inf else 0.0))
    freq = angle * SAMPLE_RATE / (2.0 * np.pi)
    # freq >= FORMANT_MIN_HZ > 0 implies angle > 0, hence |r| > 0
    upper = (freq >= FORMANT_MIN_HZ) & (angle < np.pi)
    bandwidth = -(SAMPLE_RATE / np.pi) * np.log(np.abs(roots[upper]))
    kept = upper.copy()
    kept[upper] = bandwidth <= FORMANT_MAX_BANDWIDTH_HZ
    candidates = np.full((len(roots), roots.shape[1] + 2), np.inf)  # two inf pads per row
    candidates[:, :-2] = np.where(kept, freq, np.inf)
    pair = np.sort(candidates, axis=1)[:, :2]
    pair[np.isinf(pair)] = 0.0
    pair[np.isnan(roots).any(axis=1)] = np.nan
    return pair
