"""Feature-set extraction: dimensions, windows, stacking, streaming."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlconfirm.corpus import FRAME_LEN, HOP_LEN, SAMPLE_RATE, Frame, frame_stream
from nlconfirm.dsp import (
    FIRST_DERIVATIVE,
    SECOND_DERIVATIVE,
    WindowKind,
    apply_window,
    fix_roots,
    formants,
    lpc,
    lpc_polynomial,
    make_window,
    mfcc,
    pitch_yin_fft,
    polynomial_roots,
    savitzky_golay,
)
from nlconfirm.errors import SegmentTooShort
from nlconfirm.featset import (
    DELTA_CONTEXT,
    PCA_KINDS,
    STACK_DEPTH,
    FeatureKind,
    FeatureSetConfig,
    StreamingExtractor,
    dimension,
    emitted_count,
    extract,
    extract_matrix,
    feature_matrix,
    required_context,
    window_kind_for,
)

from .conftest import make_segment, sine

RNG = np.random.default_rng(99)


def frames_from(samples: np.ndarray, n: int | None = None) -> list[Frame]:
    frames = frame_stream(make_segment(samples))
    return frames if n is None else frames[:n]


def noise_frames(n: int, scale: float = 0.3, seed: int = 0) -> list[Frame]:
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-scale, scale, FRAME_LEN + (n - 1) * 160)
    return frames_from(samples)


def identical_frames(n: int, seed: int = 1) -> list[Frame]:
    rng = np.random.default_rng(seed)
    content = rng.uniform(-0.4, 0.4, FRAME_LEN)
    return [Frame(content, i, "seg") for i in range(n)]


class TestTable:
    def test_dimensions(self):
        assert dimension(FeatureKind.MFCC) == 13
        assert dimension(FeatureKind.MFCC_DELTA) == 39
        assert dimension(FeatureKind.STACKED_MFCC) == 195
        assert dimension(FeatureKind.FORMANT_SD) == 2
        assert dimension(FeatureKind.STACKED_FORMANTS) == 30
        assert dimension(FeatureKind.PITCH) == 1
        assert dimension(FeatureKind.STACKED_PITCH) == 15

    def test_window_mapping(self):
        assert window_kind_for(FeatureKind.MFCC) is WindowKind.BLACKMAN_HARRIS4
        assert window_kind_for(FeatureKind.MFCC_DELTA) is WindowKind.BLACKMAN_HARRIS4
        assert window_kind_for(FeatureKind.STACKED_MFCC) is WindowKind.BLACKMAN_HARRIS4
        assert window_kind_for(FeatureKind.FORMANT_SD) is WindowKind.HANN
        assert window_kind_for(FeatureKind.STACKED_FORMANTS) is WindowKind.HANN
        assert window_kind_for(FeatureKind.PITCH) is WindowKind.HANN
        assert window_kind_for(FeatureKind.STACKED_PITCH) is WindowKind.HANN

    def test_pca_membership(self):
        assert PCA_KINDS == {
            FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC, FeatureKind.STACKED_PITCH
        }

    def test_stack_depth_fixed(self):
        for kind in FeatureKind:
            config = FeatureSetConfig(kind)
            data = config.to_dict()
            assert data["stack_depth"] == STACK_DEPTH == 15
            assert FeatureSetConfig.from_dict(data) == config


class TestExtraction:
    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_vector_length_matches_dimension(self, kind):
        config = FeatureSetConfig(kind)
        vectors = extract(noise_frames(20), config)
        assert all(v.values.shape == (config.raw_dimension,) for v in vectors)
        assert all(np.isfinite(v.values).all() for v in vectors)

    @pytest.mark.parametrize("kind,expected", [
        (FeatureKind.MFCC, 20),
        (FeatureKind.MFCC_DELTA, 20),
        (FeatureKind.STACKED_MFCC, 6),
        (FeatureKind.FORMANT_SD, 6),
        (FeatureKind.STACKED_FORMANTS, 6),
        (FeatureKind.PITCH, 20),
        (FeatureKind.STACKED_PITCH, 6),
    ])
    def test_emitted_count_law(self, kind, expected):
        vectors = extract(noise_frames(20), FeatureSetConfig(kind))
        assert len(vectors) == expected
        assert emitted_count(kind, 20) == expected

    def test_identical_frames_stacked_mfcc(self):
        frames = identical_frames(STACK_DEPTH)
        vectors = extract(frames, FeatureSetConfig(FeatureKind.STACKED_MFCC))
        assert len(vectors) == 1
        window = make_window(WindowKind.BLACKMAN_HARRIS4, FRAME_LEN)
        single = mfcc(apply_window(frames[0].samples, window))
        assert np.array_equal(vectors[0].values, np.tile(single, STACK_DEPTH))

    def test_constant_formants_zero_sd(self):
        vectors = extract(identical_frames(STACK_DEPTH), FeatureSetConfig(FeatureKind.FORMANT_SD))
        assert len(vectors) == 1
        assert np.array_equal(vectors[0].values, np.zeros(2))

    def test_98_frames_stacked_formants(self):
        vectors = extract(frames_from(sine(200, 1.0)), FeatureSetConfig(FeatureKind.STACKED_FORMANTS))
        assert len(vectors) == 84
        assert all(v.values.shape == (30,) for v in vectors)

    def test_stack_alignment(self):
        # varying amplitude makes per-frame MFCCs distinct
        rng = np.random.default_rng(3)
        base = rng.uniform(-0.4, 0.4, FRAME_LEN)
        frames = [Frame(base * (0.2 + 0.05 * i), i, "seg") for i in range(STACK_DEPTH + 5)]
        vectors = extract(frames, FeatureSetConfig(FeatureKind.STACKED_MFCC))
        window = make_window(WindowKind.BLACKMAN_HARRIS4, FRAME_LEN)
        for vec in vectors:
            t = vec.frame_index
            newest = mfcc(apply_window(frames[t].samples, window))
            assert np.array_equal(vec.values[-13:], newest)
            oldest = mfcc(apply_window(frames[t - STACK_DEPTH + 1].samples, window))
            assert np.array_equal(vec.values[:13], oldest)

    def test_delta_blocks_on_exponential_ramp(self):
        # frames scaled by exp(a*t): c0 is linear in t, others constant
        rng = np.random.default_rng(4)
        base = rng.uniform(-0.4, 0.4, FRAME_LEN)
        alpha = 0.1
        n = 20
        frames = [Frame(base * np.exp(alpha * i) * 0.05, i, "seg") for i in range(n)]
        vectors = extract(frames, FeatureSetConfig(FeatureKind.MFCC_DELTA))
        slope = 2.0 * alpha * np.sqrt(40.0)
        for vec in vectors[3 : n - 3]:
            delta = vec.values[13:26]
            delta2 = vec.values[26:]
            assert delta[0] == pytest.approx(slope, abs=1e-9)
            assert np.allclose(delta[1:], 0.0, atol=1e-9)
            assert np.allclose(delta2, 0.0, atol=1e-9)

    def test_formant_sd_reversal_invariance(self):
        frames = noise_frames(STACK_DEPTH, seed=8)
        forward = extract(frames, FeatureSetConfig(FeatureKind.FORMANT_SD))[0]
        reversed_frames = [Frame(f.samples, i, "seg") for i, f in enumerate(reversed(frames))]
        backward = extract(reversed_frames, FeatureSetConfig(FeatureKind.FORMANT_SD))[0]
        assert np.allclose(forward.values, backward.values, atol=1e-12)

    def test_too_short_stacked(self):
        with pytest.raises(SegmentTooShort):
            extract(noise_frames(14), FeatureSetConfig(FeatureKind.STACKED_MFCC))

    def test_too_short_delta(self):
        with pytest.raises(SegmentTooShort):
            extract(noise_frames(6), FeatureSetConfig(FeatureKind.MFCC_DELTA))

    def test_required_context(self):
        assert required_context(FeatureKind.MFCC) == 1
        assert required_context(FeatureKind.MFCC_DELTA) == DELTA_CONTEXT
        assert required_context(FeatureKind.STACKED_PITCH) == STACK_DEPTH

    def test_silent_frames_are_handled(self):
        # zero-energy frames produce sentinel formants/pitch instead of errors
        frames = [Frame(np.zeros(FRAME_LEN), i, "seg") for i in range(STACK_DEPTH)]
        for kind in (FeatureKind.STACKED_FORMANTS, FeatureKind.STACKED_PITCH,
                     FeatureKind.FORMANT_SD):
            vectors = extract(frames, FeatureSetConfig(kind))
            assert np.array_equal(vectors[0].values, np.zeros(dimension(kind)))


class TestStreaming:
    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_streaming_equals_batch(self, kind):
        config = FeatureSetConfig(kind)
        frames = noise_frames(24, seed=21)
        batch = extract(frames, config)
        extractor = StreamingExtractor(config)
        streamed = []
        for frame in frames:
            streamed.extend(extractor.push(frame))
        streamed.extend(extractor.finish())
        assert len(streamed) == len(batch)
        for a, b in zip(streamed, batch):
            assert a.frame_index == b.frame_index
            assert np.array_equal(a.values, b.values)

    def test_delta_emission_order_and_lag(self):
        config = FeatureSetConfig(FeatureKind.MFCC_DELTA)
        frames = noise_frames(12, seed=22)
        extractor = StreamingExtractor(config)
        emitted = []
        for i, frame in enumerate(frames):
            out = extractor.push(frame)
            if i < 3:
                assert out == []
            emitted.extend(v.frame_index for v in out)
        tail = [v.frame_index for v in extractor.finish()]
        assert emitted == list(range(9))
        assert tail == [9, 10, 11]

    def test_reset_clears_context(self):
        config = FeatureSetConfig(FeatureKind.STACKED_PITCH)
        extractor = StreamingExtractor(config)
        frames = noise_frames(STACK_DEPTH, seed=23)
        for frame in frames:
            extractor.push(frame)
        assert extractor.frames_consumed == STACK_DEPTH
        extractor.reset()
        assert extractor.frames_consumed == 0
        assert extractor.push(frames[0]) == []  # context must refill

    def test_feature_matrix_shape(self):
        vectors = extract(noise_frames(20, seed=24), FeatureSetConfig(FeatureKind.MFCC))
        matrix = feature_matrix(vectors)
        assert matrix.shape == (20, 13)


def voiced_frames(n: int, seed: int = 0) -> list[Frame]:
    """Frames of a gliding, amplitude-modulated tone in noise: every base feature varies."""
    rng = np.random.default_rng(seed)
    t = np.arange(FRAME_LEN + (n - 1) * HOP_LEN) / SAMPLE_RATE
    phase = 2 * np.pi * (140.0 * t + 60.0 * t * t)
    samples = (0.3 + 0.1 * np.sin(7.0 * t)) * np.sin(phase) + rng.normal(0.0, 0.02, t.size)
    return frames_from(samples)


def base_series(frames: list[Frame], kind: FeatureKind) -> np.ndarray:
    """Per-frame base features of a whole segment, one row per frame."""
    window = make_window(window_kind_for(kind), FRAME_LEN)
    windowed = [apply_window(f.samples, window) for f in frames]
    if kind in (FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC):
        return np.stack([mfcc(w) for w in windowed])
    if kind is FeatureKind.STACKED_PITCH:
        return np.array([[pitch_yin_fft(w, SAMPLE_RATE)] for w in windowed])
    return np.stack([
        formants(fix_roots(polynomial_roots(lpc_polynomial(lpc(w)))), SAMPLE_RATE).as_array()
        for w in windowed
    ])


def batch_reference(series: np.ndarray, kind: FeatureKind) -> list[np.ndarray]:
    """Vectors built from the whole base series at once."""
    if kind is FeatureKind.MFCC_DELTA:
        rows = np.concatenate([series, savitzky_golay(series, FIRST_DERIVATIVE),
                               savitzky_golay(series, SECOND_DERIVATIVE)], axis=1)
        return list(rows)
    out = []
    for t in range(STACK_DEPTH - 1, len(series)):
        block = series[t - STACK_DEPTH + 1 : t + 1]
        if kind is FeatureKind.FORMANT_SD:
            out.append(np.array([np.std(block[:, 0]), np.std(block[:, 1])]))
        else:
            out.append(block.reshape(-1))
    return out


class TestRingOracle:
    """The 15-vector history against whole-series references, at its fill and wrap edges."""

    @pytest.mark.parametrize("kind", [
        FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC,
        FeatureKind.STACKED_PITCH, FeatureKind.FORMANT_SD,
    ])
    @pytest.mark.parametrize("n", [7, 8, 14, 15, 16, 17, 40])
    def test_extract_equals_whole_series_reference(self, kind, n):
        frames = voiced_frames(n, seed=n)
        config = FeatureSetConfig(kind)
        if n < required_context(kind):
            with pytest.raises(SegmentTooShort):
                extract(frames, config)
            return
        series = base_series(frames, kind)
        assert len(np.unique(series, axis=0)) == n  # distinct rows: a misaligned ring shows
        expected = batch_reference(series, kind)
        vectors = extract(frames, config)
        assert [v.frame_index for v in vectors] == list(range(n - len(expected), n))
        for vector, reference in zip(vectors, expected, strict=True):
            assert np.array_equal(vector.values, reference)
        # a reused extractor gives the same vectors after reset
        extractor = StreamingExtractor(config)
        for frame in voiced_frames(STACK_DEPTH + 8, seed=100):
            extractor.push(frame)
        extractor.reset()
        streamed = [v for f in frames for v in extractor.push(f)] + extractor.finish()
        for vector, reference in zip(streamed, expected, strict=True):
            assert np.array_equal(vector.values, reference)


class TestBoundedState:
    @staticmethod
    def peak_kib(extractor: StreamingExtractor, frames) -> float:
        """Peak traced Python heap while the extractor consumes a stream."""
        gc.collect()
        tracemalloc.start()
        try:
            for frame in frames:
                extractor.push(frame)
            extractor.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1024.0

    def test_memory_flat_from_5_to_120_seconds(self):
        pool = [f.samples for f in noise_frames(64, seed=31)]

        def stream(n: int):  # 10 ms per frame: 500 frames are 5 s
            return (Frame(pool[i % len(pool)], i, "seg") for i in range(n))

        extractor = StreamingExtractor(FeatureSetConfig(FeatureKind.MFCC_DELTA))
        short = self.peak_kib(extractor, stream(500))
        assert extractor.frames_consumed == 500
        extractor.reset()
        long = self.peak_kib(extractor, stream(12_000))
        assert extractor.frames_consumed == 12_000
        extractor.reset()
        assert extractor.frames_consumed == 0
        assert long <= 1.5 * short, f"peak {long:.1f} KiB at 120 s vs {short:.1f} KiB at 5 s"


def _cut(frames: list[Frame], sizes: list[int]) -> list[list[Frame]]:
    """Consecutive blocks of the given sizes, the last one taking what is left."""
    blocks, start = [], 0
    for size in sizes:
        if start >= len(frames):
            break
        blocks.append(frames[start:start + size])
        start += size
    if start < len(frames):
        blocks.append(frames[start:])
    return blocks


def _push_blocks(extractor: StreamingExtractor, blocks) -> tuple[list[int], list[np.ndarray]]:
    indices, rows = [], []
    for block in blocks:
        got, matrix = extractor.push_block(block)
        assert matrix.shape == (len(got), extractor.config.raw_dimension)
        indices += got
        rows += list(matrix)
    got, matrix = extractor.finish_block()
    return indices + list(got), rows + list(matrix)


class TestBlockPartition:
    """Any partition of a segment into blocks gives the vectors of `extract`, bit for bit."""

    @pytest.mark.parametrize("kind", list(FeatureKind))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_partition_equals_extract(self, kind, data):
        config = FeatureSetConfig(kind)
        n = data.draw(st.integers(1, 36), label="frames")
        sizes = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n), label="blocks")
        frames = voiced_frames(n, seed=n)
        if n >= required_context(kind):
            expected = [(v.frame_index, v.values) for v in extract(frames, config)]
        else:  # too short for extract: the online mode still streams what it can
            streamed = StreamingExtractor(config)
            expected = [(v.frame_index, v.values)
                        for v in [u for f in frames for u in streamed.push(f)] + streamed.finish()]
        extractor = StreamingExtractor(config)
        for reused in (False, True):
            if reused:  # a half-pushed segment, then reset: the context must not leak
                extractor.push_block(voiced_frames(STACK_DEPTH + 3, seed=7)[: n % 19])
                extractor.reset()
            indices, rows = _push_blocks(extractor, _cut(frames, sizes))
            assert indices == [t for t, _ in expected]
            assert all(type(t) is int for t in indices)
            for row, (_, values) in zip(rows, expected, strict=True):
                assert np.array_equal(row, values)

    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_push_is_a_block_of_one(self, kind):
        config = FeatureSetConfig(kind)
        by_push, by_block = StreamingExtractor(config), StreamingExtractor(config)
        for frame in voiced_frames(2 * STACK_DEPTH + 5, seed=41):  # past the history wrap
            pushed = by_push.push(frame)
            indices, rows = by_block.push_block([frame])
            assert [v.frame_index for v in pushed] == list(indices)
            for vector, row in zip(pushed, rows, strict=True):
                assert np.array_equal(vector.values, row)
        assert [v.frame_index for v in by_push.finish()] == list(by_block.finish_block()[0])

    def test_extract_matrix_matches_extract(self):
        frames = voiced_frames(30, seed=5)
        config = FeatureSetConfig(FeatureKind.MFCC_DELTA)
        indices, rows = extract_matrix(frames, config)
        assert list(indices) == list(range(30))
        assert np.array_equal(rows, feature_matrix(extract(frames, config)))

    def test_empty_block_emits_nothing(self):
        extractor = StreamingExtractor(FeatureSetConfig(FeatureKind.STACKED_MFCC))
        indices, rows = extractor.push_block([])
        assert len(indices) == 0 and rows.shape == (0, 195)
        assert extractor.frames_consumed == 0
