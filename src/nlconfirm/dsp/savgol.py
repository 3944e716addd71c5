"""Savitzky-Golay convolution filters for smoothed differentiation.

y_t = (1/h) * sum_i a_i * x_{t+i}, i = -(n-1)/2 .. (n-1)/2. Boundaries
replicate the edge sample, so output length equals input length. The two
shipped filters are the length-7 first- and second-derivative kernels
(h = 28 and h = 42).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SeriesTooShort


@dataclass(frozen=True)
class SavitzkyGolayFilter:
    coefficients: np.ndarray  # a_i, length n (odd)
    h: float                  # normalization factor

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=np.float64)
        if a.ndim != 1 or a.size % 2 == 0:
            raise ValueError("filter length must be odd")
        if self.h == 0:
            raise ValueError("normalization factor must be nonzero")
        a.flags.writeable = False
        object.__setattr__(self, "coefficients", a)

    @property
    def n(self) -> int:
        return self.coefficients.size

    @property
    def half(self) -> int:
        return self.coefficients.size // 2


FIRST_DERIVATIVE = SavitzkyGolayFilter(np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]), 28.0)
SECOND_DERIVATIVE = SavitzkyGolayFilter(np.array([5.0, 0.0, -3.0, -4.0, -3.0, 0.0, 5.0]), 42.0)


def sg_at(series: np.ndarray, t: int, filt: SavitzkyGolayFilter) -> float | np.ndarray:
    """Filter response at index t with edge replication (clamped indexing).

    Works on a 1-D series or a (time, dim) matrix. This is the reference
    arithmetic: `savitzky_golay` applies it index by index, and tests
    compare the feature extractor's batched (matmul) derivative rows
    against that.
    """
    idx = np.clip(np.arange(t - filt.half, t + filt.half + 1), 0, len(series) - 1)
    return (filt.coefficients @ series[idx]) / filt.h


def savitzky_golay(series: np.ndarray, filt: SavitzkyGolayFilter) -> np.ndarray:
    """Apply a Savitzky-Golay filter along a series (edge-replicated)."""
    series = np.asarray(series, dtype=np.float64)
    if len(series) < filt.n:
        raise SeriesTooShort(f"series length {len(series)} < filter length {filt.n}")
    return np.stack([sg_at(series, t, filt) for t in range(len(series))])
