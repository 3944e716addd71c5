"""Synthetic speech-like corpus for end-to-end testing.

Confirmation tokens are short pulse trains driven at a flat per-speaker
pitch through two fixed vocal-tract-like resonators (stable formants near
350 and 1400 Hz). Other tokens are longer, sweep both resonators by at
least 400 Hz and modulate the pitch by at least +/-20 percent, mimicking
regular speech dynamics. Tokens are laid out per speaker into one WAV
with silence gaps, and a manifest records the spans and labels.

The resonators update their coefficients every 10 ms block. Consecutive
blocks with equal coefficients (all of a confirmation token's) are
filtered in one call, which is exact: the filter state one call returns
is the state the next call starts from. Each gap and token is written to
its WAV as soon as it is made, so a corpus of any size needs the memory
of its longest token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _native, stats
from .corpus import (
    SAMPLE_RATE,
    AudioBuffer,
    Label,
    SegmentDescriptor,
    pcm16,
    wav_writer,
    write_manifest,
)

_native.bind_scipy()

CONTROL_BLOCK = 160  # resonator coefficients update every 10 ms
CONFIRMATION_FORMANTS = (350.0, 1400.0)  # F1, F2 centers of every confirmation token
POLE_RADIUS = 0.975  # of both resonators


@dataclass(frozen=True)
class SynthConfig:
    """Shape of a synthetic corpus.

    Each speaker gets `segments_per_speaker` segments, of which
    round(confirmation_rate * segments_per_speaker) are confirmations, but
    never fewer than 2: a rate of 0 still gives 2 confirmations per
    speaker, and 2 segments per speaker leave no "other" segment.
    """

    speakers: int = 10
    segments_per_speaker: int = 40
    confirmation_rate: float = 0.08
    seed: int = 0
    noise_db: float = -40.0

    def to_dict(self) -> dict:
        return {
            "speakers": self.speakers,
            "segments_per_speaker": self.segments_per_speaker,
            "confirmation_rate": self.confirmation_rate,
            "seed": self.seed,
            "confirmation_formants": list(CONFIRMATION_FORMANTS),
            "pole_radius": POLE_RADIUS,
            "noise_db": self.noise_db,
        }


def _ms_to_samples(ms: float) -> int:
    # keep token boundaries on exact millisecond sample counts
    return int(round(ms)) * (SAMPLE_RATE // 1000)


_RAMP = _ms_to_samples(30)  # fade-in and fade-out of every token
_FADE = 0.5 - 0.5 * np.cos(np.pi * np.arange(_RAMP) / _RAMP)
_FADE.flags.writeable = False


def _pulse_train(f0_curve: np.ndarray) -> np.ndarray:
    """A unit pulse at the first sample and wherever the count of whole cycles grows."""
    cycles = f0_curve / SAMPLE_RATE
    np.floor(np.cumsum(cycles, out=cycles), out=cycles)
    out = np.zeros(f0_curve.size)
    out[np.flatnonzero(cycles[1:] > cycles[:-1]) + 1] = 1.0
    out[0] = 1.0
    return out


def _resonate(x: np.ndarray, f1_curve: np.ndarray, f2_curve: np.ndarray) -> np.ndarray:
    """Cascade of two 2-pole resonators with block-wise coefficient updates.

    Each CONTROL_BLOCK takes the coefficients of its curve value at the
    block midpoint. A run of consecutive blocks with equal coefficients is
    filtered in one `_native.linear_filter` call (scipy's `lfilter`): the
    direct-form II transposed state that a call returns is the state the
    next block starts from, so one call over the run does the per-sample
    arithmetic of one call per block, bit for bit. Both resonators filter
    one copy of `x` in place, run by run. It counts the calls (filter_calls).
    """
    starts = np.arange(0, x.size, CONTROL_BLOCK)
    mids = (starts + np.minimum(starts + CONTROL_BLOCK, x.size)) // 2
    b = np.ones(1)
    y = x.copy()
    for curve in (f1_curve, f2_curve):
        a1 = -2.0 * POLE_RADIUS * np.cos(2.0 * np.pi * curve[mids] / SAMPLE_RATE)
        firsts = np.flatnonzero(np.r_[True, a1[1:] != a1[:-1]])  # first block of each run
        runs = np.empty((firsts.size, 3))  # one row of denominator coefficients per run
        runs[:, 0], runs[:, 1], runs[:, 2] = 1.0, a1[firsts], POLE_RADIUS * POLE_RADIUS
        bounds = [*starts[firsts].tolist(), x.size]
        zi = np.zeros(2)
        for a, start, stop in zip(runs, bounds, bounds[1:]):
            y[start:stop], zi = _native.linear_filter(b, a, y[start:stop], zi)
        stats.count("filter_calls", firsts.size)
    return y


def _shape_token(token: np.ndarray, peak: float, noise_db: float, rng: np.random.Generator) -> np.ndarray:
    """Fade, peak-normalize, add noise and clip `token`, in place.

    Tokens are at least 300 ms long, so the two 30 ms ramps never overlap;
    the envelope between them is 1.0, and x * 1.0 is x.
    """
    token[:_RAMP] *= _FADE
    token[-_RAMP:] *= _FADE[::-1]
    token *= peak / max(np.max(np.abs(token)), 1e-12)
    token += rng.normal(0.0, peak * 10.0 ** (noise_db / 20.0), token.size)
    return np.clip(token, -1.0, 1.0, out=token)


def _confirmation_token(rng: np.random.Generator, f0_median: float, cfg: SynthConfig) -> np.ndarray:
    n = _ms_to_samples(rng.uniform(300, 700))
    f0 = f0_median * (1.0 + rng.uniform(-0.02, 0.02))
    f1_c, f2_c = CONFIRMATION_FORMANTS
    f1 = np.full(n, f1_c + rng.uniform(-25, 25))
    f2 = np.full(n, f2_c + rng.uniform(-50, 50))
    token = _resonate(_pulse_train(np.full(n, f0)), f1, f2)
    return _shape_token(token, rng.uniform(0.18, 0.32), cfg.noise_db, rng)


def _other_token(rng: np.random.Generator, f0_median: float, cfg: SynthConfig) -> np.ndarray:
    n = _ms_to_samples(rng.uniform(500, 3000))
    t = np.arange(n) / n
    # pitch excursion of at least +/-20 percent around the speaker median
    depth = rng.uniform(0.2, 0.35)
    cycles = rng.integers(1, 3)
    f0 = f0_median * (1.0 + depth * np.sin(2.0 * np.pi * cycles * t + rng.uniform(0, 2 * np.pi)))
    # formant trajectories sweeping at least 400 Hz
    lo1 = rng.uniform(280, 550)
    hi1 = lo1 + rng.uniform(400, 700)
    lo2 = rng.uniform(1000, 1800)
    hi2 = lo2 + rng.uniform(400, 800)
    f1 = np.linspace(lo1, hi1, n) if rng.random() < 0.5 else np.linspace(hi1, lo1, n)
    f2 = np.linspace(lo2, hi2, n) if rng.random() < 0.5 else np.linspace(hi2, lo2, n)
    token = _resonate(_pulse_train(f0), f1, f2)
    return _shape_token(token, rng.uniform(0.18, 0.32), cfg.noise_db, rng)


def generate_corpus(out_dir: str | Path, config: SynthConfig = SynthConfig()) -> Path:
    """Write per-speaker WAVs plus manifest.csv and meta.json; returns the manifest path.

    Every speaker gets at least 2 confirmations, whatever the rate (see
    SynthConfig). Each gap and token is written to its speaker's WAV as it
    is made, so memory is bounded by the longest token. It counts
    segments, samples (written to the WAVs, silence included) and
    filter_calls.
    """
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    descriptors: list[SegmentDescriptor] = []
    for s in range(config.speakers):
        speaker_id = f"spk{s:02d}"
        f0_median = rng.uniform(95, 235)
        n_segments = config.segments_per_speaker
        n_confirm = max(2, round(config.confirmation_rate * n_segments))
        kinds = np.array([True] * n_confirm + [False] * (n_segments - n_confirm))
        rng.shuffle(kinds)
        wav_name = f"wavs/{speaker_id}.wav"
        with wav_writer(out_dir / wav_name, SAMPLE_RATE) as wav:
            for is_confirmation in kinds:
                gap = np.zeros(_ms_to_samples(rng.uniform(300, 600)))
                wav.writeframes(pcm16(AudioBuffer(gap)))
                token = (
                    _confirmation_token(rng, f0_median, config)
                    if is_confirmation
                    else _other_token(rng, f0_median, config)
                )
                start = wav.tell()  # frames written so far
                descriptors.append(SegmentDescriptor(
                    wav_path=wav_name,
                    speaker_id=speaker_id,
                    start_ms=start * 1000 // SAMPLE_RATE,
                    end_ms=(start + token.size) * 1000 // SAMPLE_RATE,
                    label=Label.CONFIRMATION if is_confirmation else Label.OTHER,
                ))
                wav.writeframes(pcm16(AudioBuffer(token)))
            wav.writeframes(pcm16(AudioBuffer(np.zeros(_ms_to_samples(400)))))
            stats.count("samples", wav.tell())
    stats.count("segments", len(descriptors))
    manifest = out_dir / "manifest.csv"
    write_manifest(descriptors, manifest)
    (out_dir / "meta.json").write_text(json.dumps(config.to_dict(), indent=2))
    return manifest
