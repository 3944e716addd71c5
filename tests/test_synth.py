"""Synthetic corpus generation."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from nlconfirm import _native
from nlconfirm.corpus import SAMPLE_RATE, Label, load_segments, load_wav, parse_manifest
from nlconfirm.synth import (
    CONTROL_BLOCK,
    POLE_RADIUS,
    SynthConfig,
    _pulse_train,
    _resonate,
    _shape_token,
    generate_corpus,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    manifest = generate_corpus(out, SynthConfig(speakers=3, segments_per_speaker=6,
                                                confirmation_rate=0.2, seed=11))
    return out, manifest


def test_manifest_reloads_cleanly(corpus):
    _, manifest = corpus
    rows = parse_manifest(manifest)
    assert len(rows) == 18
    segments = load_segments(manifest)
    assert len(segments) == 18


def test_counts_and_labels(corpus):
    _, manifest = corpus
    rows = parse_manifest(manifest)
    per_speaker = {}
    for row in rows:
        per_speaker.setdefault(row.speaker_id, []).append(row)
    assert len(per_speaker) == 3
    for speaker_rows in per_speaker.values():
        confirmations = [r for r in speaker_rows if r.label is Label.CONFIRMATION]
        assert len(confirmations) >= 2  # every speaker stays split-eligible


def test_durations_in_recipe_ranges(corpus):
    _, manifest = corpus
    for row in parse_manifest(manifest):
        duration = row.end_ms - row.start_ms
        if row.label is Label.CONFIRMATION:
            assert 290 <= duration <= 710
        else:
            assert 490 <= duration <= 3010


def test_audio_in_range_and_nontrivial(corpus):
    out, _ = corpus
    for wav in sorted((out / "wavs").glob("*.wav")):
        audio = load_wav(wav)
        assert np.max(np.abs(audio.samples)) <= 1.0
        assert np.max(np.abs(audio.samples)) > 0.1


def test_deterministic_given_seed(tmp_path):
    cfg = SynthConfig(speakers=2, segments_per_speaker=4, confirmation_rate=0.3, seed=5)
    a = generate_corpus(tmp_path / "a", cfg)
    b = generate_corpus(tmp_path / "b", cfg)
    assert a.read_text() == b.read_text()
    for wav_a in sorted((tmp_path / "a" / "wavs").glob("*.wav")):
        wav_b = tmp_path / "b" / "wavs" / wav_a.name
        ha = hashlib.sha256(wav_a.read_bytes()).hexdigest()
        hb = hashlib.sha256(wav_b.read_bytes()).hexdigest()
        assert ha == hb


def resonate_per_block(x, f1_curve, f2_curve):
    """The reference resonator cascade: one `lfilter` call per CONTROL_BLOCK."""
    y = x
    for curve in (f1_curve, f2_curve):
        out = np.empty_like(y)
        zi = np.zeros(2)
        for start in range(0, y.size, CONTROL_BLOCK):
            stop = min(start + CONTROL_BLOCK, y.size)
            center = curve[(start + stop) // 2]
            theta = 2.0 * np.pi * center / SAMPLE_RATE
            a = [1.0, -2.0 * POLE_RADIUS * np.cos(theta), POLE_RADIUS * POLE_RADIUS]
            out[start:stop], zi = lfilter([1.0], a, y[start:stop], zi=zi)
        y = out
    return y


@st.composite
def formant_curve(draw, n):
    """A constant, a sweep either way, or a staircase of two levels."""
    lo = draw(st.floats(150.0, 3000.0))
    hi = lo + draw(st.floats(1.0, 1500.0))
    shape = draw(st.sampled_from(["constant", "up", "down", "steps"]))
    if shape == "constant":
        return np.full(n, lo)
    if shape == "up":
        return np.linspace(lo, hi, n)
    if shape == "down":
        return np.linspace(hi, lo, n)
    # adjacent block midpoints repeat within a step
    edges = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    levels = draw(st.lists(st.sampled_from([lo, hi]), min_size=len(edges) + 1,
                           max_size=len(edges) + 1))
    return np.concatenate([np.full(b - a, v) for a, b, v in zip([0, *edges], [*edges, n], levels)])


class TestResonateOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_merged_runs_equal_the_per_block_loop(self, data):
        # lengths below one block and not a multiple of it included
        n = data.draw(st.one_of(st.integers(1, 2 * CONTROL_BLOCK), st.integers(1, 5000)))
        x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=n)
        f1 = data.draw(formant_curve(n))
        f2 = data.draw(formant_curve(n))
        given_x = x.copy()
        assert _resonate(x, f1, f2).tobytes() == resonate_per_block(x, f1, f2).tobytes()
        assert x.tobytes() == given_x.tobytes()  # filtered in a copy

    def test_a_constant_curve_takes_one_filter_call(self, monkeypatch):
        calls, linear_filter = [], _native.linear_filter

        def counted(*args):
            calls.append(args[2].size)
            return linear_filter(*args)

        monkeypatch.setattr(_native, "linear_filter", counted)
        x = np.random.default_rng(0).normal(size=1000)
        _resonate(x, np.full(1000, 350.0), np.full(1000, 1400.0))
        assert calls == [1000, 1000]

    @pytest.mark.usefixtures("binding")
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           hz=st.floats(20.0, 7990.0), state=st.sampled_from(["zero", "random", "large"]))
    def test_filter_run_keeps_the_bits_of_lfilter(self, n, seed, hz, state):
        # the resonators' arguments: b = [1], a 3-term stable denominator, a
        # 1-D run and the two-sample state the previous run left
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        a = np.array([1.0, -2.0 * POLE_RADIUS * np.cos(2.0 * np.pi * hz / SAMPLE_RATE),
                      POLE_RADIUS * POLE_RADIUS])
        zi = {"zero": np.zeros(2), "random": rng.normal(size=2),
              "large": rng.normal(size=2) * 1e300}[state]
        out, zf = _native.linear_filter(np.ones(1), a, x, zi.copy())
        expected_out, expected_zf = lfilter(np.ones(1), a, x, zi=zi.copy())
        assert out.tobytes() == expected_out.tobytes()
        assert zf.tobytes() == expected_zf.tobytes()


def pulse_train_by_differences(f0_curve):
    """The reference pulse train: a pulse where the floored cycle count steps up, and at sample 0."""
    phase = np.cumsum(f0_curve / SAMPLE_RATE)
    out = np.zeros(f0_curve.size)
    out[np.flatnonzero(np.diff(np.floor(phase)) > 0) + 1] = 1.0
    out[0] = 1.0
    return out


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 50_000), seed=st.integers(0, 2**32 - 1), f0=st.floats(50.0, 400.0),
       depth=st.floats(0.0, 0.5), cycles=st.floats(0.0, 3.0))
def test_pulse_train_in_place_equals_the_differences(n, seed, f0, depth, cycles):
    # the curves of both token kinds: flat, and a sine around the speaker median
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    f0_curve = f0 * (1.0 + depth * np.sin(2.0 * np.pi * cycles * np.arange(n) / n + phase))
    given_curve = f0_curve.copy()
    assert _pulse_train(f0_curve).tobytes() == pulse_train_by_differences(f0_curve).tobytes()
    assert f0_curve.tobytes() == given_curve.tobytes()


def shape_token_with_envelope(token, peak, noise_db, rng):
    """The reference shaping: a whole-token envelope of ones and two 30 ms ramps."""
    ramp = 30 * SAMPLE_RATE // 1000
    envelope = np.ones(token.size)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    envelope[:ramp] = fade
    envelope[-ramp:] = fade[::-1]
    token = token * envelope
    token *= peak / max(np.max(np.abs(token)), 1e-12)
    token += rng.normal(0.0, peak * 10.0 ** (noise_db / 20.0), token.size)
    return np.clip(token, -1.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(4800, 20000), seed=st.integers(0, 2**32 - 1),
       peak=st.floats(0.18, 0.32), noise_db=st.floats(-60.0, 0.0))
def test_ramps_shaped_in_place_equal_the_whole_envelope(n, seed, peak, noise_db):
    # tokens are at least 300 ms (4800 samples) long
    token = np.random.default_rng(seed).normal(size=n)
    expected = shape_token_with_envelope(token, peak, noise_db, np.random.default_rng(seed))
    shaped = _shape_token(token, peak, noise_db, np.random.default_rng(seed))
    assert shaped.tobytes() == expected.tobytes()


def _traced_peak(out, config):
    tracemalloc.start()
    try:
        generate_corpus(out, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_segments_per_speaker(tmp_path):
    # each gap and token goes to the WAV as it is made: the peak is one
    # token's, and both corpora hold tokens near the longest (3 s)
    few = _traced_peak(tmp_path / "few", SynthConfig(speakers=2, segments_per_speaker=5, seed=0))
    many = _traced_peak(tmp_path / "many", SynthConfig(speakers=2, segments_per_speaker=40, seed=0))
    assert many <= 1.5 * few
