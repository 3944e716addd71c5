"""Power spectra and mel-frequency cepstral coefficients.

The MFCC chain, at the one sample rate `corpus.SAMPLE_RATE` (16 kHz):
Blackman-Harris-windowed frame -> power spectrum (FFT zero-padded to the
next power of two) -> 40 triangular mel filters between 20 and 7800 Hz ->
floored log energies -> orthonormal DCT-II -> first 13 coefficients (the
0th is kept).

The FFT comes from `_native.rfft`, with the bits of `np.fft.rfft`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import _native
from ..corpus import SAMPLE_RATE

N_MFCC = 13
N_MEL_BANDS = 40
MEL_FMIN = 20.0
MEL_FMAX = 7800.0
LOG_FLOOR = 1e-10


def next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def power_spectrum(windowed: np.ndarray) -> np.ndarray:
    """Magnitude-squared spectrum, N/2+1 bins, zero-padded to a power of two.

    Transforms along the last axis, so an (n, length) block gives one
    spectrum per row. Bin k sits at frequency k * fs / n_fft.
    """
    x = np.asarray(windowed, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("empty input")
    spec = _native.rfft(x, next_pow2(x.shape[-1]))
    power, imag = spec.real * spec.real, spec.imag
    np.multiply(imag, imag, out=imag)  # in the transform's own buffer
    power += imag
    return power


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
    """x @ matrix with each row of a block x taken as its own (1, k) matrix product.

    A batched matmul keeps every row on the single-vector BLAS path, so a
    block gives the bits of one row at a time; a plain 2-D product runs
    as one gemm and can differ in the last bits.
    """
    return np.matmul(x[..., None, :], matrix)[..., 0, :]


def mfcc(windowed: np.ndarray) -> np.ndarray:
    """First 13 MFCCs of a Blackman-Harris-windowed frame, or of each row of an (n, 400) block.

    A block gives bitwise the rows of calling mfcc frame by frame. One
    frame takes the same products and ufuncs as a block row, with the mel
    energies floored and logged in place.
    """
    x = np.asarray(windowed, dtype=np.float64)
    power = power_spectrum(x)
    bank = mel_filterbank(2 * (power.shape[-1] - 1))
    if x.ndim != 1:
        log_energies = np.log(np.maximum(_rows_times(power, bank.T), LOG_FLOOR))
        return _rows_times(log_energies, _dct2_ortho_matrix(N_MFCC, N_MEL_BANDS).T)
    energies = power @ bank.T
    np.maximum(energies, LOG_FLOOR, out=energies)
    np.log(energies, out=energies)
    return energies @ _dct2_ortho_matrix(N_MFCC, N_MEL_BANDS).T
