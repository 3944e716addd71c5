"""Linear prediction, polynomial roots and formant frequencies.

The chain for one Hann-windowed frame: autocorrelation LPC of order 12
(Levinson-Durbin) -> roots of the prediction-error polynomial (eigenvalues
of its real companion matrix) -> reflection of out-of-circle roots -> the
two lowest resonance frequencies that survive the low-cut and bandwidth
filters. The real-typed solver returns real roots with an imaginary part
of exactly 0, so a real root near -1 has angle pi and is no formant
candidate. Streaming and block extraction both run this one chain, frame
by frame.
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
    """First two formant frequencies in Hz; 0 marks an absent formant."""

    f1: float
    f2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.f1, self.f2])


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
    """
    x = np.asarray(windowed, dtype=np.float64)
    n = x.size
    if n <= order:
        raise DegenerateFrame(f"frame of {n} samples too short for order {order}")
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
    """Prediction-error polynomial A(z) = 1 - sum c_k z^{-k}, highest power first."""
    return np.concatenate(([1.0], -result.coefficients))


def polynomial_roots(coefficients: np.ndarray, residual_tol: float = ROOT_RESIDUAL_TOL) -> np.ndarray:
    """All complex roots of a real polynomial (coefficients highest power first).

    Solved as eigenvalues of the real companion matrix, so a real root
    comes back with an imaginary part of exactly 0; the result is always
    complex128. Every root r is checked against
    |p(r)| <= tol * sum_i |c_i| |r|^(deg-i); NumericalFailure names the
    first root that misses that residual bound.
    """
    c = np.atleast_1d(np.asarray(coefficients, dtype=np.float64))
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
    """Reflect roots outside the unit circle to 1/conj(r); angle is preserved."""
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
    """
    roots = np.asarray(roots, dtype=np.complex128)
    angle = np.angle(roots)
    freq = angle * sample_rate / (2.0 * np.pi)
    # freq >= FORMANT_MIN_HZ > 0 implies angle > 0, hence |r| > 0
    upper = (freq >= FORMANT_MIN_HZ) & (angle < np.pi)
    bandwidth = -(sample_rate / np.pi) * np.log(np.abs(roots[upper]))
    kept = freq[upper][bandwidth <= FORMANT_MAX_BANDWIDTH_HZ]
    candidates = np.sort(kept).tolist() + [0.0, 0.0]
    return FormantPair(f1=candidates[0], f2=candidates[1])
