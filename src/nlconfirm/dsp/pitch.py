"""Fundamental-frequency estimation: Yin computed in the frequency domain.

Autocorrelation comes from the FFT of the Hann-windowed frame and is
divided by the window's own autocorrelation, which removes the taper's
envelope from the lag domain (a windowed periodic signal then yields the
same difference function as the unwindowed one). The cumulative-mean
normalized difference function is scanned for its first dip below the
threshold; the lag is refined by parabolic interpolation of the raw
difference function, as the normalization skews dip shapes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import _native
from ..corpus import SAMPLE_RATE
from .spectral import next_pow2
from .windows import WindowKind, make_window

PITCH_FMIN = 40.0
PITCH_FMAX = 600.0
DIP_THRESHOLD = 0.15
FALLBACK_THRESHOLD = 0.5
# lags where the window overlaps itself less than this are too unreliable to search
MIN_WINDOW_OVERLAP = 0.1

UNVOICED = 0.0


def _autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    spec = _native.rfft(x, next_pow2(2 * x.size))
    return _native.irfft(spec.real * spec.real + spec.imag * spec.imag)[: max_lag + 1]


@lru_cache(maxsize=None)
def _window_acf(length: int, max_lag: int) -> np.ndarray:
    acf = _autocorrelation(make_window(WindowKind.HANN, length), max_lag)
    acf.flags.writeable = False
    return acf


def _parabolic_min(y: np.ndarray, i: int, lo: int, hi: int) -> float:
    if i <= lo or i >= hi:
        return float(i)
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return float(i)
    return i + 0.5 * (y[i - 1] - y[i + 1]) / denom


def pitch_yin_fft(windowed: np.ndarray) -> float:
    """Pitch of one Hann-windowed 16 kHz frame in Hz; 0.0 means unvoiced.

    The first local CMNDF minimum below DIP_THRESHOLD inside the search
    band (PITCH_FMIN .. PITCH_FMAX) wins. If none dips that low, the
    global minimum is used only when it stays below FALLBACK_THRESHOLD;
    otherwise the frame counts as unvoiced.
    """
    x = np.asarray(windowed, dtype=np.float64)
    n = x.size
    tau_min = max(2, int(SAMPLE_RATE / PITCH_FMAX))
    tau_max = min(int(np.ceil(SAMPLE_RATE / PITCH_FMIN)), n - 1)
    if tau_max <= tau_min:
        return UNVOICED

    window_acf = _window_acf(n, tau_max)
    usable = window_acf > MIN_WINDOW_OVERLAP * window_acf[0]
    if not usable.all():
        tau_max = min(tau_max, int(np.argmin(usable)) - 1)
        if tau_max <= tau_min:
            return UNVOICED

    acf = _autocorrelation(x, tau_max)
    compensated = acf[: tau_max + 1] / window_acf[: tau_max + 1]
    diff = 2.0 * (compensated[0] - compensated)

    cmndf = np.ones_like(diff)
    cumulative = np.cumsum(diff[1:])
    positive = cumulative > 0.0
    cmndf[1:][positive] = (
        diff[1:][positive] * np.arange(1, diff.size)[positive] / cumulative[positive]
    )

    def refine(tau: int) -> float:
        # recenter on the raw difference function before interpolating it
        while tau + 1 <= tau_max and diff[tau + 1] < diff[tau]:
            tau += 1
        while tau - 1 >= tau_min and diff[tau - 1] < diff[tau]:
            tau -= 1
        return SAMPLE_RATE / _parabolic_min(diff, tau, 1, tau_max)

    tau = tau_min
    while tau <= tau_max:
        if cmndf[tau] < DIP_THRESHOLD:
            while tau + 1 <= tau_max and cmndf[tau + 1] < cmndf[tau]:
                tau += 1
            return refine(tau)
        tau += 1

    best = tau_min + int(np.argmin(cmndf[tau_min : tau_max + 1]))
    if cmndf[best] < FALLBACK_THRESHOLD:
        return refine(best)
    return UNVOICED
