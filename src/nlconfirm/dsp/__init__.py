"""Per-frame signal-processing primitives.

Pure functions on 1-D numpy arrays; `apply_window`, `power_spectrum` and
`mfcc` also take an (n, length) block of frames, one frame per row, and
give each row the bits of a call on that frame alone. Window and
filterbank tables are precomputed, immutable and shared. Windowing happens
in the feature layer, so everything here expects already-windowed frames
where it matters.
"""

from .windows import WindowKind, WindowFunction, make_window, apply_window
from .spectral import (
    power_spectrum,
    mel_filterbank,
    mel_log_energies,
    mfcc_from_log_energies,
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
    savitzky_golay,
)
from .lpc import (
    LpcResult,
    FormantPair,
    LPC_ORDER,
    lpc,
    lpc_polynomial,
    polynomial_roots,
    fix_roots,
    formants,
)
from .pitch import pitch_yin_fft

__all__ = [
    "WindowKind", "WindowFunction", "make_window", "apply_window",
    "power_spectrum", "mel_filterbank", "mel_log_energies",
    "mfcc_from_log_energies", "mfcc",
    "N_MFCC", "N_MEL_BANDS", "MEL_FMIN", "MEL_FMAX", "LOG_FLOOR",
    "SavitzkyGolayFilter", "FIRST_DERIVATIVE", "SECOND_DERIVATIVE", "savitzky_golay",
    "LpcResult", "FormantPair", "LPC_ORDER", "lpc", "lpc_polynomial",
    "polynomial_roots", "fix_roots", "formants",
    "pitch_yin_fft",
]
