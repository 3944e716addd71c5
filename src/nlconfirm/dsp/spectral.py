"""Power spectra and mel-frequency cepstral coefficients.

The MFCC chain, at the one sample rate `corpus.SAMPLE_RATE` (16 kHz):
Blackman-Harris-windowed frame -> power spectrum (FFT zero-padded to the
next power of two) -> 40 triangular mel filters between 20 and 7800 Hz ->
floored log energies -> orthonormal DCT-II -> first 13 coefficients (the
0th is kept).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..corpus import SAMPLE_RATE

N_MFCC = 13
N_MEL_BANDS = 40
MEL_FMIN = 20.0
MEL_FMAX = 7800.0
LOG_FLOOR = 1e-10


def next_pow2(n: int) -> int:
    size = 1
    while size < n:
        size *= 2
    return size


def power_spectrum(windowed: np.ndarray) -> np.ndarray:
    """Magnitude-squared spectrum, N/2+1 bins, zero-padded to a power of two.

    Transforms along the last axis, so an (n, length) block gives one
    spectrum per row. Bin k sits at frequency k * fs / n_fft.
    """
    x = np.asarray(windowed, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("empty input")
    n_fft = next_pow2(x.shape[-1])
    spec = np.fft.rfft(x, n_fft)
    return (spec.real * spec.real + spec.imag * spec.imag)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(n_fft: int) -> np.ndarray:
    """Triangular mel filterbank, (N_MEL_BANDS, n_fft//2 + 1), each row unit-sum."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), N_MEL_BANDS + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (SAMPLE_RATE / n_fft)
    bank = np.zeros((N_MEL_BANDS, bin_freqs.size))
    for b in range(N_MEL_BANDS):
        lo, center, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        total = tri.sum()
        if total > 0:
            tri /= total
        bank[b] = tri
    bank.flags.writeable = False
    return bank


@lru_cache(maxsize=None)
def _dct2_ortho_matrix(n_out: int, n_in: int) -> np.ndarray:
    m = np.arange(n_in)
    k = np.arange(n_out)[:, None]
    mat = np.cos(np.pi * k * (2 * m + 1) / (2.0 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    mat.flags.writeable = False
    return mat


def _rows_times(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """x @ matrix with each row of x taken as its own (1, k) matrix product.

    A batched matmul keeps every row on the single-vector BLAS path, so a
    block gives the bits of one row at a time; a plain 2-D product runs
    as one gemm and can differ in the last bits.
    """
    if x.ndim == 1:
        return x @ matrix
    return np.matmul(x[..., None, :], matrix)[..., 0, :]


def mel_log_energies(power: np.ndarray) -> np.ndarray:
    """Floored log of the 40 mel-band energies of a power spectrum (or of each row)."""
    power = np.asarray(power, dtype=np.float64)
    n_fft = 2 * (power.shape[-1] - 1)
    bank = mel_filterbank(n_fft)
    return np.log(np.maximum(_rows_times(power, bank.T), LOG_FLOOR))


def mfcc_from_log_energies(log_energies: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of log mel energies (or of each row), truncated to N_MFCC."""
    log_energies = np.asarray(log_energies, dtype=np.float64)
    mat = _dct2_ortho_matrix(N_MFCC, log_energies.shape[-1])
    return _rows_times(log_energies, mat.T)


def mfcc(windowed: np.ndarray) -> np.ndarray:
    """First 13 MFCCs of a Blackman-Harris-windowed frame, or of each row of an (n, 400) block.

    A block gives bitwise the rows of calling mfcc frame by frame.
    """
    return mfcc_from_log_energies(mel_log_energies(power_spectrum(windowed)))
