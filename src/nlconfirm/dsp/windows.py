"""Analysis windows: symmetric Hann and 4-term Blackman-Harris."""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from ..errors import LengthMismatch

# 4-term -92 dB Blackman-Harris coefficients
_BH4 = (0.35875, 0.48829, 0.14128, 0.01168)


class WindowKind(enum.Enum):
    HANN = "hann"
    BLACKMAN_HARRIS4 = "blackman_harris4"


def _cosine_sum(length: int, terms: tuple[float, ...]) -> np.ndarray:
    # build one half and mirror so w[n] == w[length-1-n] holds bit-exactly
    if length == 1:
        return np.array([sum(terms[0::2]) - sum(terms[1::2])])
    n = np.arange((length + 1) // 2)
    w = np.zeros(len(n))
    for k, a in enumerate(terms):
        w += ((-1) ** k) * a * np.cos(2.0 * np.pi * k * n / (length - 1))
    full = np.empty(length)
    full[: len(n)] = w
    full[length - len(n):] = w[::-1]
    return full


@lru_cache(maxsize=None)
def make_window(kind: WindowKind, length: int) -> np.ndarray:
    """Precompute (and cache) a symmetric window of the given length, read-only."""
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if kind is WindowKind.HANN:
        coeffs = _cosine_sum(length, (0.5, 0.5))
    elif kind is WindowKind.BLACKMAN_HARRIS4:
        coeffs = _cosine_sum(length, _BH4)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown window kind {kind}")
    coeffs.flags.writeable = False
    return coeffs


def apply_window(frame: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Pointwise product of a frame, or of each row of an (n, length) block, with the window."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim == 0 or frame.shape[-1] != window.size:
        raise LengthMismatch(f"frame shape {frame.shape} does not end in window length "
                             f"{window.size}")
    return frame * window
