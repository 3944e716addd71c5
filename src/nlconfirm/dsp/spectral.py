"""Power spectra and mel-frequency cepstral coefficients.

The MFCC chain: Blackman-Harris-windowed frame -> power spectrum (FFT
zero-padded to the next power of two) -> 40 triangular mel filters between
20 and 7800 Hz -> floored log energies -> orthonormal DCT-II -> first 13
coefficients (the 0th is kept).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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

    Bin k sits at frequency k * fs / n_fft.
    """
    x = np.asarray(windowed, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    n_fft = next_pow2(x.size)
    spec = np.fft.rfft(x, n_fft)
    return (spec.real * spec.real + spec.imag * spec.imag)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(
    n_fft: int,
    sample_rate: int,
    n_bands: int = N_MEL_BANDS,
    fmin: float = MEL_FMIN,
    fmax: float = MEL_FMAX,
) -> np.ndarray:
    """Triangular mel filterbank, (n_bands, n_fft//2 + 1), each row unit-sum."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_bands + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bank = np.zeros((n_bands, bin_freqs.size))
    for b in range(n_bands):
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


def mel_log_energies(power: np.ndarray, sample_rate: int) -> np.ndarray:
    """Floored log of the 40 mel-band energies of a power spectrum."""
    power = np.atleast_2d(power)
    n_fft = 2 * (power.shape[-1] - 1)
    bank = mel_filterbank(n_fft, sample_rate)
    energies = power @ bank.T
    out = np.log(np.maximum(energies, LOG_FLOOR))
    return out[0] if out.shape[0] == 1 else out


def mfcc_from_log_energies(log_energies: np.ndarray, n_mfcc: int = N_MFCC) -> np.ndarray:
    """Orthonormal DCT-II of log mel energies, truncated to n_mfcc."""
    log_energies = np.asarray(log_energies, dtype=np.float64)
    mat = _dct2_ortho_matrix(n_mfcc, log_energies.shape[-1])
    return log_energies @ mat.T


def mfcc(windowed: np.ndarray, sample_rate: int = 16_000) -> np.ndarray:
    """First 13 MFCCs of one Blackman-Harris-windowed frame."""
    return mfcc_from_log_energies(mel_log_energies(power_spectrum(windowed), sample_rate))
