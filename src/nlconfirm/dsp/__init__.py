"""Per-frame signal-processing primitives.

Pure functions on 1-D numpy arrays of 16 kHz audio. The sample rate
(`corpus.SAMPLE_RATE`), the mel band layout, the MFCC count and the Yin
band and threshold are module constants, not arguments. `apply_window`,
`power_spectrum`, `mfcc`, `lpc`, `lpc_polynomial`, `polynomial_roots`,
`fix_roots` and `formants` also take an (n, ·) block, one frame
(polynomial, root set) per row, and give each row the bits of a call on
that row alone; the formant chain leaves NaN the rows a 1-D call would
reject or solve at a lower degree, and raises for none (see `lpc`);
`formants` gives (F1, F2) as a plain array. `pitch_yin_fft` takes one
frame at a time. `sg_at` is the reference Savitzky-Golay arithmetic.
Window and filterbank tables are precomputed, immutable and shared.
Windowing happens in the feature layer, so everything here expects
already-windowed frames where it matters.
"""

from .windows import WindowKind, make_window, apply_window
from .spectral import (
    power_spectrum,
    mel_filterbank,
    mfcc,
    N_MFCC,
    N_MEL_BANDS,
    MEL_FMIN,
    MEL_FMAX,
    LOG_FLOOR,
)
from .savgol import (
    SavitzkyGolayFilter,
    FIRST_DERIVATIVE,
    SECOND_DERIVATIVE,
    sg_at,
)
from .lpc import (
    LpcResult,
    LPC_ORDER,
    lpc,
    lpc_polynomial,
    polynomial_roots,
    fix_roots,
    formants,
)
from .pitch import pitch_yin_fft

__all__ = [
    "WindowKind", "make_window", "apply_window",
    "power_spectrum", "mel_filterbank", "mfcc",
    "N_MFCC", "N_MEL_BANDS", "MEL_FMIN", "MEL_FMAX", "LOG_FLOOR",
    "SavitzkyGolayFilter", "FIRST_DERIVATIVE", "SECOND_DERIVATIVE", "sg_at",
    "LpcResult", "LPC_ORDER", "lpc", "lpc_polynomial",
    "polynomial_roots", "fix_roots", "formants",
    "pitch_yin_fft",
]
