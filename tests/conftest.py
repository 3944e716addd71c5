"""Shared test helpers: signal builders and tiny corpora."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from nlconfirm import _native
from nlconfirm.corpus import (
    SAMPLE_RATE,
    AudioBuffer,
    AudioSegment,
    Label,
    write_wav,
)
from nlconfirm.dsp import SavitzkyGolayFilter, sg_at
from nlconfirm.synth import SynthConfig, generate_corpus


def sine(freq: float, duration_s: float, amplitude: float = 0.5, phase: float = 0.0) -> np.ndarray:
    t = np.arange(int(duration_s * SAMPLE_RATE)) / SAMPLE_RATE
    return amplitude * np.sin(2 * np.pi * freq * t + phase)


def silence(duration_s: float) -> np.ndarray:
    return np.zeros(int(duration_s * SAMPLE_RATE))


def sg_filtered(series: np.ndarray, filt: SavitzkyGolayFilter) -> np.ndarray:
    """The reference Savitzky-Golay output: `sg_at` at every index of the series."""
    series = np.asarray(series, dtype=np.float64)
    return np.stack([sg_at(series, t, filt) for t in range(len(series))])


def make_segment(
    samples: np.ndarray,
    speaker: str = "spk",
    label: Label | None = None,
    start_ms: int = 0,
    source: str = "test.wav",
) -> AudioSegment:
    end_ms = start_ms + len(samples) * 1000 // SAMPLE_RATE
    return AudioSegment(
        source_id=source,
        speaker_id=speaker,
        start_ms=start_ms,
        end_ms=end_ms,
        samples=AudioBuffer(samples),
        label=label,
    )


def resonator_signal(
    f1: float,
    f2: float,
    duration_s: float = 0.3,
    f0: float = 125.0,
    radius: float = 0.97,
) -> np.ndarray:
    """Impulse train through two known 2-pole resonators (peak-normalized)."""
    n = int(duration_s * SAMPLE_RATE)
    x = np.zeros(n)
    x[np.arange(0, n, SAMPLE_RATE / f0).astype(int)] = 1.0
    for fc in (f1, f2):
        theta = 2 * np.pi * fc / SAMPLE_RATE
        a1, a2 = -2 * radius * np.cos(theta), radius * radius
        y = np.zeros(n)
        y1 = y2 = 0.0
        for i in range(n):
            y[i] = x[i] - a1 * y1 - a2 * y2
            y2, y1 = y1, y[i]
        x = y
    return x / np.max(np.abs(x))


@pytest.fixture(params=["private", "public"])
def binding(request, monkeypatch):
    """Runs a test under each binding of `_native`: as imported, then every name on its public wrapper.

    Under @given, suppress Hypothesis's function_scoped_fixture check: one binding holds for
    every example.
    """
    if request.param == "public":
        for name, wrapper in _native.PUBLIC.items():
            monkeypatch.setattr(_native, name, wrapper)
            monkeypatch.setitem(_native.BINDINGS, name, "public")
    return request.param


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory) -> Path:
    """Small synthetic corpus shared across slower tests; returns the manifest path."""
    out = tmp_path_factory.mktemp("tiny_corpus")
    return generate_corpus(out, SynthConfig(speakers=4, segments_per_speaker=8,
                                            confirmation_rate=0.25, seed=7))


def write_test_wav(path: Path, samples: np.ndarray) -> Path:
    write_wav(path, AudioBuffer(samples))
    return path
