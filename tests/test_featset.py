"""Feature-set extraction: dimensions, windows, stacking, streaming."""

import gc
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
)
from nlconfirm import _native, featset
from nlconfirm.errors import NumericalFailure, SegmentTooShort
from nlconfirm.featset import (
    DELTA_CONTEXT,
    DELTA_LAG,
    STACK_DEPTH,
    FeatureKind,
    FeatureSetConfig,
    StreamingExtractor,
    extract,
    extract_matrix,
    feature_matrix,
)
from nlconfirm.stats import Stats

from .conftest import make_segment, sg_filtered, sine

lpc_module = importlib.import_module("nlconfirm.dsp.lpc")  # `nlconfirm.dsp.lpc` is the function

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
        dimensions = {kind: FeatureSetConfig(kind).raw_dimension for kind in FeatureKind}
        assert dimensions == {
            FeatureKind.MFCC: 13, FeatureKind.MFCC_DELTA: 39, FeatureKind.STACKED_MFCC: 195,
            FeatureKind.FORMANT_SD: 2, FeatureKind.STACKED_FORMANTS: 30,
            FeatureKind.PITCH: 1, FeatureKind.STACKED_PITCH: 15,
        }

    def test_window_mapping(self):
        assert FeatureSetConfig(FeatureKind.MFCC).window_kind is WindowKind.BLACKMAN_HARRIS4
        assert FeatureSetConfig(FeatureKind.MFCC_DELTA).window_kind is WindowKind.BLACKMAN_HARRIS4
        assert FeatureSetConfig(FeatureKind.STACKED_MFCC).window_kind is WindowKind.BLACKMAN_HARRIS4
        assert FeatureSetConfig(FeatureKind.FORMANT_SD).window_kind is WindowKind.HANN
        assert FeatureSetConfig(FeatureKind.STACKED_FORMANTS).window_kind is WindowKind.HANN
        assert FeatureSetConfig(FeatureKind.PITCH).window_kind is WindowKind.HANN
        assert FeatureSetConfig(FeatureKind.STACKED_PITCH).window_kind is WindowKind.HANN

    def test_pca_membership(self):
        assert {kind for kind in FeatureKind if FeatureSetConfig(kind).uses_pca} == {
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
        assert [v.frame_index for v in vectors] == list(range(20 - expected, 20))

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
        assert FeatureSetConfig(FeatureKind.MFCC).required_context == 1
        assert FeatureSetConfig(FeatureKind.MFCC_DELTA).required_context == DELTA_CONTEXT
        assert FeatureSetConfig(FeatureKind.STACKED_PITCH).required_context == STACK_DEPTH

    def test_silent_frames_are_handled(self):
        # zero-energy frames produce sentinel formants/pitch instead of errors
        frames = [Frame(np.zeros(FRAME_LEN), i, "seg") for i in range(STACK_DEPTH)]
        for kind in (FeatureKind.STACKED_FORMANTS, FeatureKind.STACKED_PITCH,
                     FeatureKind.FORMANT_SD):
            config = FeatureSetConfig(kind)
            vectors = extract(frames, config)
            assert np.array_equal(vectors[0].values, np.zeros(config.raw_dimension))


def stream(extractor: StreamingExtractor, frames) -> tuple[list[int], list[np.ndarray]]:
    """Frame indices and rows of a segment pushed frame by frame, tail flushed."""
    indices, rows = [], []
    for frame in frames:
        got, matrix = extractor.push(frame)
        assert len(got) <= 1 and matrix.shape == (len(got), extractor.config.raw_dimension)
        indices += got
        rows += list(matrix)
    got, matrix = extractor.finish()
    return indices + list(got), rows + list(matrix)


class TestStreaming:
    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_streaming_equals_batch(self, kind):
        config = FeatureSetConfig(kind)
        frames = noise_frames(24, seed=21)
        batch = extract(frames, config)
        indices, rows = stream(StreamingExtractor(config), frames)
        assert indices == [v.frame_index for v in batch]
        for row, vector in zip(rows, batch, strict=True):
            assert np.array_equal(row, vector.values)

    def test_delta_emission_order_and_lag(self):
        config = FeatureSetConfig(FeatureKind.MFCC_DELTA)
        frames = noise_frames(12, seed=22)
        extractor = StreamingExtractor(config)
        emitted = []
        for i, frame in enumerate(frames):
            out, _ = extractor.push(frame)
            if i < 3:
                assert not out
            emitted.extend(out)
        tail, _ = extractor.finish()
        assert emitted == list(range(9))
        assert list(tail) == [9, 10, 11]

    def test_reset_clears_context(self):
        config = FeatureSetConfig(FeatureKind.STACKED_PITCH)
        extractor = StreamingExtractor(config)
        frames = noise_frames(STACK_DEPTH, seed=23)
        for frame in frames:
            last, _ = extractor.push(frame)
        assert last == range(STACK_DEPTH - 1, STACK_DEPTH)  # STACK_DEPTH frames consumed
        extractor.reset()
        for frame in frames[:-1]:  # context must refill, counting from frame 0 again
            assert not extractor.push(frame)[0]
        assert extractor.push(frames[-1])[0] == range(STACK_DEPTH - 1, STACK_DEPTH)

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


def special_frames(n: int, seed: int = 0) -> list[Frame]:
    """`voiced_frames` whose middle third cycles through silent, subnormal and constant frames.

    The batched formant chain leaves silent (all-zero) and subnormal-amplitude
    (1e-160) frames to `_formant_pair`; a constant frame is an ordinary row
    without a formant candidate.
    """
    out = []
    for frame in voiced_frames(n, seed=seed):
        if n // 3 <= frame.index < 2 * n // 3:
            samples = (np.zeros(FRAME_LEN), 1e-160 * frame.samples,
                       np.full(FRAME_LEN, 0.25))[frame.index % 3]
            frame = Frame(samples, frame.index, frame.segment_ref)
        out.append(frame)
    return out


def base_series(frames: list[Frame], kind: FeatureKind) -> np.ndarray:
    """Per-frame base features of a whole segment, one row per frame."""
    window = make_window(FeatureSetConfig(kind).window_kind, FRAME_LEN)
    windowed = [apply_window(f.samples, window) for f in frames]
    if kind in (FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC):
        return np.stack([mfcc(w) for w in windowed])
    if kind is FeatureKind.STACKED_PITCH:
        return np.array([[pitch_yin_fft(w)] for w in windowed])
    return np.stack([
        formants(fix_roots(polynomial_roots(lpc_polynomial(lpc(w)))))
        for w in windowed
    ])


def batch_reference(series: np.ndarray, kind: FeatureKind) -> list[np.ndarray]:
    """Vectors built from the whole base series at once."""
    if kind is FeatureKind.MFCC_DELTA:
        rows = np.concatenate([series, sg_filtered(series, FIRST_DERIVATIVE),
                               sg_filtered(series, SECOND_DERIVATIVE)], axis=1)
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
        if n < config.required_context:
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
        _, streamed = stream(extractor, frames)
        for row, reference in zip(streamed, expected, strict=True):
            assert np.array_equal(row, reference)


class TestDeltaRows:
    """A push's one derivative row, built from a plain slice of the history, against the block path."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(DELTA_CONTEXT, 40), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-320.0, 150.0))
    def test_one_window_equals_its_block_row_at_every_position(self, n, seed, exponent):
        series = np.random.default_rng(seed).normal(size=(n, 13)) * 10.0 ** exponent
        with np.errstate(over="ignore", invalid="ignore"):
            block = featset._delta_rows(series, 0, 0, n, n)
            # every t: both clamped edges (t < 3, t > n - 4) and the unclamped middle
            for t in range(n):
                row = featset._delta_rows(series, 0, t, t + 1, n)
                assert row.shape == (1, 39)
                assert row.tobytes() == block[t: t + 1].tobytes()
            # a push reads a slice of the history: series row j is frame offset + j
            for kept in range(DELTA_CONTEXT, n + 1):
                offset = n - kept
                t = n - 1 - DELTA_LAG
                row = featset._delta_rows(series[offset:], offset, t, t + 1, n)
                assert row.tobytes() == block[t: t + 1].tobytes()

    def test_rows_are_the_savitzky_golay_reference(self):
        series = RNG.normal(size=(12, 13))
        for t in range(12):
            row = featset._delta_rows(series, 0, t, t + 1, 12)[0]
            assert np.array_equal(row[:13], series[t])
            assert np.array_equal(row[13:26], sg_filtered(series, FIRST_DERIVATIVE)[t])
            assert np.array_equal(row[26:], sg_filtered(series, SECOND_DERIVATIVE)[t])


class TestBoundedState:
    @staticmethod
    def peak_kib(extractor: StreamingExtractor, frames) -> tuple[float, range]:
        """Peak traced Python heap while the extractor consumes a stream, and its tail."""
        gc.collect()
        tracemalloc.start()
        try:
            for frame in frames:
                extractor.push(frame)
            tail, _ = extractor.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1024.0, tail

    def test_memory_flat_from_5_to_120_seconds(self):
        pool = [f.samples for f in noise_frames(64, seed=31)]

        def pool_frames(n: int):  # 10 ms per frame: 500 frames are 5 s
            return (Frame(pool[i % len(pool)], i, "seg") for i in range(n))

        extractor = StreamingExtractor(FeatureSetConfig(FeatureKind.MFCC_DELTA))
        short, tail = self.peak_kib(extractor, pool_frames(500))
        assert tail == range(497, 500)  # the flush trails the 500th frame by three
        extractor.reset()
        long, tail = self.peak_kib(extractor, pool_frames(12_000))
        assert tail == range(11_997, 12_000)
        extractor.reset()
        assert not extractor.finish()[0]  # nothing left to flush
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
    got, matrix = extractor.finish()
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
        if n >= config.required_context:
            expected = [(v.frame_index, v.values) for v in extract(frames, config)]
        else:  # too short for extract: the online mode still streams what it can
            expected = list(zip(*stream(StreamingExtractor(config), frames)))
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
        frames = voiced_frames(2 * STACK_DEPTH + 5, seed=41)  # past the history wrap
        pushed = stream(StreamingExtractor(config), frames)
        blocked = _push_blocks(StreamingExtractor(config), [frames])
        assert pushed[0] == blocked[0]
        for a, b in zip(pushed[1], blocked[1], strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", [FeatureKind.FORMANT_SD, FeatureKind.STACKED_FORMANTS])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_special_middle_frames_equal_pushes(self, kind, data):
        # the special rows of a block go through the per-frame chain: rows and counters match
        config = FeatureSetConfig(kind)
        n = data.draw(st.integers(STACK_DEPTH, 45), label="frames")
        sizes = data.draw(st.lists(st.integers(2, n), min_size=1, max_size=n), label="blocks")
        frames = special_frames(n, seed=n)
        pushed, blocked = Stats(), Stats()
        with pushed.collecting():
            want = stream(StreamingExtractor(config), frames)
        with blocked.collecting():
            got = _push_blocks(StreamingExtractor(config), _cut(frames, sizes))
        assert got[0] == want[0]
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
        assert blocked.counters == pushed.counters
        middle = range(n // 3, 2 * n // 3)
        assert pushed.counters["formant_silent"] == sum(t % 3 < 2 for t in middle)

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
        indices, _ = extractor.push_block(noise_frames(STACK_DEPTH))
        assert indices == range(STACK_DEPTH - 1, STACK_DEPTH)  # the empty block consumed nothing


def frame_by_frame(config: FeatureSetConfig) -> StreamingExtractor:
    """An extractor that holds no warm-up frame: every push runs the per-frame chain."""
    extractor = StreamingExtractor(config)
    extractor._warm_up = extractor._warm_up[:0]
    return extractor


class TestWarmUp:
    """Held warm-up frames, extracted as one block, against pushing frame by frame."""

    @pytest.mark.parametrize("kind", [FeatureKind.STACKED_FORMANTS, FeatureKind.FORMANT_SD,
                                      FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_pushes_and_blocks_equal_frame_by_frame(self, kind, data):
        config = FeatureSetConfig(kind)
        warm_up = featset.DELTA_LAG if kind is FeatureKind.MFCC_DELTA else STACK_DEPTH - 1
        # each extractor counts into its own Stats: held frames count when extracted
        held, pushed = Stats(), Stats()
        with held.collecting():
            extractor = StreamingExtractor(config)
        with pushed.collecting():
            reference = frame_by_frame(config)
        lengths = data.draw(st.lists(st.integers(1, 2 * STACK_DEPTH + 2), min_size=1, max_size=3),
                            label="segment lengths")
        for s, n in enumerate(lengths):
            frames = special_frames(n, seed=n + s) if s % 2 else voiced_frames(n, seed=n + s)
            if data.draw(st.booleans(), label="reset during warm-up"):
                # part of a warm-up, then reset: the held frames still count their zero pairs
                warm = special_frames(warm_up, seed=s)[: data.draw(
                    st.integers(1, warm_up), label="warm-up frames")]
                for target, stats in ((extractor, held), (reference, pushed)):
                    with stats.collecting():
                        for frame in warm:
                            assert not target.push(frame)[0]
                        target.reset()
            sizes = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n), label="blocks")
            indices, rows = [], []
            with held.collecting():
                for block in _cut(frames, sizes):  # a block of one is a push
                    if len(block) == 1:
                        got, matrix = extractor.push(block[0])
                    else:
                        got, matrix = extractor.push_block(block)
                    indices += got
                    rows += list(matrix)
                got, matrix = extractor.finish()
            with pushed.collecting():
                want = stream(reference, frames)
            assert indices + list(got) == want[0]
            assert np.array(rows + list(matrix)).tobytes() == np.array(want[1]).tobytes()
            assert held.counters == pushed.counters
            with held.collecting():
                extractor.reset()
            with pushed.collecting():
                reference.reset()

    def test_the_completing_push_extracts_one_block(self, monkeypatch):
        config = FeatureSetConfig(FeatureKind.STACKED_FORMANTS)
        calls = []
        def rows(windowed):
            calls.append(len(windowed))
            return np.zeros((len(windowed), 2))

        def pair(windowed):
            calls.append(1)
            return np.zeros(2)

        monkeypatch.setattr(featset, "_formant_rows", rows)
        monkeypatch.setattr(featset, "_formant_pair", pair)
        extractor = StreamingExtractor(config)
        frames = voiced_frames(STACK_DEPTH + 2)
        for frame in frames[: STACK_DEPTH - 1]:
            assert not extractor.push(frame)[0]
        assert calls == [1]  # the first frame is extracted, the next 13 are held
        assert extractor.push(frames[STACK_DEPTH - 1])[0] == range(STACK_DEPTH - 1, STACK_DEPTH)
        assert calls == [1, STACK_DEPTH - 1]
        extractor.push(frames[STACK_DEPTH])
        assert calls == [1, STACK_DEPTH - 1, 1]  # later pushes take the per-frame chain
        extractor.reset()
        for frame in frames[:5]:
            extractor.push(frame)
        extractor.finish()  # a segment too short for a vector: its frames are still extracted
        assert calls == [1, STACK_DEPTH - 1, 1, 1, 4]


_ROW_KINDS = ("silent", "subnormal", "constant", "sine", "noise", "voiced")


@st.composite
def formant_blocks(draw) -> np.ndarray:
    """(k, 400) Hann-windowed blocks mixing ordinary and special rows.

    Silent rows and rows of amplitude about 1e-160 (their lags are
    subnormal, and the recursion would stop early on them) are special;
    constant rows, sinusoids, noise at any level and voiced frames are
    ordinary.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(FRAME_LEN)
    rows = []
    for kind in draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=2, max_size=12)):
        if kind == "silent":
            row = np.zeros(FRAME_LEN)
        elif kind == "subnormal":
            row = 10.0 ** draw(st.floats(-165.0, -150.0)) * rng.uniform(-1.0, 1.0, FRAME_LEN)
        elif kind == "constant":
            row = np.full(FRAME_LEN, draw(st.floats(-1.0, 1.0)))
        elif kind == "sine":
            row = np.sin(draw(st.floats(0.001, np.pi)) * t + draw(st.floats(0.0, 6.3)))
        elif kind == "noise":
            row = 10.0 ** draw(st.floats(-8.0, 2.0)) * rng.standard_normal(FRAME_LEN)
        else:
            row = voiced_frames(1, seed=int(rng.integers(1000)))[0].samples
        rows.append(row)
    return apply_window(np.stack(rows), make_window(WindowKind.HANN, FRAME_LEN))


class TestFormantRows:
    """A block's formant pairs and counters against `_formant_pair`, one frame at a time."""

    @settings(max_examples=150, deadline=None)
    @given(formant_blocks())
    def test_block_equals_frame_by_frame(self, block):
        frame_stats, block_stats = Stats(), Stats()
        with frame_stats.collecting():
            want = np.array([featset._formant_pair(row) for row in block])
        with block_stats.collecting():
            got = featset._formant_rows(block)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert block_stats.counters == frame_stats.counters


class TestFormantSdOracle:
    """Formant SDs of stacked windows against np.std of each window column, one window at a time."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(STACK_DEPTH, 40).flatmap(lambda n: arrays(
        np.float64, (n, 2),
        elements=st.one_of(st.just(0.0), st.floats(90.0, 8000.0), st.floats(-1e150, 1e150)))))
    def test_equals_loop_in_blocks_and_pushes(self, series):
        n = len(series)
        emitted = range(STACK_DEPTH - 1, n)
        want = np.array([[np.std(w[:, 0]), np.std(w[:, 1])]
                         for w in (series[t - STACK_DEPTH + 1: t + 1] for t in emitted)])
        block = featset._stack_rows("sd", series, 0, STACK_DEPTH - 1, n)
        assert block.tobytes() == want.tobytes()
        for t, row in zip(emitted, want):  # a push: one window over the held history
            lo = max(0, t - STACK_DEPTH)
            pushed = featset._stack_rows("sd", series[lo: t + 1], lo, t, t + 1)
            assert pushed.tobytes() == row[None].tobytes()


class TestFormantCounters:
    @staticmethod
    def _counters(stats: Stats) -> dict[str, int]:
        return {k: v for k, v in stats.counters.items() if k.startswith("formant_")}

    def test_silent_frames_counted_alike_in_blocks_and_pushes(self):
        # 16 all-zero frames, then noise frames
        samples = np.concatenate([np.zeros(FRAME_LEN + 15 * HOP_LEN),
                                  RNG.uniform(-0.3, 0.3, 10 * HOP_LEN)])
        frames = frames_from(samples)
        config = FeatureSetConfig(FeatureKind.STACKED_FORMANTS)
        block, pushed = Stats(), Stats()
        with block.collecting():
            extract_matrix(frames, config)
        with pushed.collecting():
            extractor = StreamingExtractor(config)
            for frame in frames:
                extractor.push(frame)
        assert self._counters(block)["formant_silent"] == 16
        assert self._counters(block) == self._counters(pushed)

    def test_root_failures_counted(self, monkeypatch):
        def fail(coefficients):
            if np.ndim(coefficients) == 2:  # a block marks the rows a 1-D call rejects
                return np.full((len(coefficients), 12), np.nan, dtype=np.complex128)
            raise NumericalFailure("residual")
        monkeypatch.setattr(featset, "polynomial_roots", fail)
        with Stats().collecting() as stats:
            extract_matrix(noise_frames(20), FeatureSetConfig(FeatureKind.FORMANT_SD))
        assert self._counters(stats) == {
            "formant_silent": 0, "formant_root_failures": 20, "formant_no_candidate": 0}

    def test_other_kinds_add_no_formant_counters(self):
        with Stats().collecting() as stats:
            extract_matrix(noise_frames(20), FeatureSetConfig(FeatureKind.STACKED_MFCC))
        assert self._counters(stats) == {}


class TestResidualMissRow:
    """A block row whose roots miss the residual bound, among rows that meet it."""

    def test_only_the_missing_row_is_rerun(self, monkeypatch):
        window = make_window(WindowKind.HANN, FRAME_LEN)
        frames = voiced_frames(40)
        windowed = [apply_window(f.samples, window) for f in frames]

        def misses(w: np.ndarray) -> bool:
            try:
                polynomial_roots(lpc_polynomial(lpc(w)))
            except NumericalFailure:
                return True
            return False

        # the loosest tolerance that some frame's roots miss: few rows miss it;
        # it stays the residual bound for the extraction below
        for tol in np.geomspace(1e-13, 1e-16, 61):
            monkeypatch.setattr(lpc_module, "ROOT_RESIDUAL_TOL", tol)
            missed = [misses(w) for w in windowed]
            if any(missed):
                break
        bad = missed.index(True)
        good = [i for i, m in enumerate(missed) if not m][:16]
        assert len(good) == 16
        order = good[:8] + [bad] + good[8:]
        segment = [Frame(frames[i].samples, t, "seg") for t, i in enumerate(order)]

        rerun = []
        formant_pair = featset._formant_pair

        def spy(w):
            rerun.append(w.tobytes())
            return formant_pair(w)

        monkeypatch.setattr(featset, "_formant_pair", spy)
        config = FeatureSetConfig(FeatureKind.STACKED_FORMANTS)
        block, pushed = Stats(), Stats()
        with block.collecting():
            _, rows = extract_matrix(segment, config)
        assert rerun == [windowed[bad].tobytes()]  # the block chain finished every other row
        with pushed.collecting():
            _, stream_rows = stream(StreamingExtractor(config), segment)
        assert rows.tobytes() == np.array(stream_rows).tobytes()
        formant_counters = TestFormantCounters._counters
        assert formant_counters(block) == formant_counters(pushed)
        assert formant_counters(block)["formant_root_failures"] == 1


class TestOverflowRow:
    """A block row whose companion row overflows, among rows whose roots solve."""

    def test_only_the_overflowing_row_is_rerun_and_counted(self, monkeypatch):
        window = make_window(WindowKind.HANN, FRAME_LEN)
        frames = voiced_frames(20)
        windowed = [apply_window(f.samples, window) for f in frames]
        bad = 9
        bad_coefficients = lpc(windowed[bad]).coefficients.tobytes()

        def tiny_lead(result):
            # the bad frame's polynomial leads with a subnormal, in a block as alone
            polynomial = lpc_polynomial(result)
            rows = np.atleast_2d(polynomial)
            for row, coefficients in zip(rows, np.atleast_2d(result.coefficients)):
                if coefficients.tobytes() == bad_coefficients:
                    row[0] = 2.2e-311
            return polynomial

        monkeypatch.setattr(featset, "lpc_polynomial", tiny_lead)
        rerun = []
        formant_pair = featset._formant_pair

        def spy(w):
            pair = formant_pair(w)
            rerun.append((w.tobytes(), pair.tolist()))
            return pair

        monkeypatch.setattr(featset, "_formant_pair", spy)
        with Stats().collecting() as block:
            _, rows = extract_matrix(frames, FeatureSetConfig(FeatureKind.FORMANT_SD))
        assert rerun == [(windowed[bad].tobytes(), [0.0, 0.0])]  # the zero pair
        assert TestFormantCounters._counters(block)["formant_root_failures"] == 1
        with Stats().collecting() as pushed:
            _, stream_rows = stream(StreamingExtractor(FeatureSetConfig(FeatureKind.FORMANT_SD)),
                                    frames)
        assert rows.tobytes() == np.array(stream_rows).tobytes()
        assert TestFormantCounters._counters(block) == TestFormantCounters._counters(pushed)


class TestEigvalsNoConvergence:
    """A frame whose companion matrix's eigenvalues do not converge, in a block and pushed."""

    @pytest.mark.usefixtures("binding")
    def test_the_frame_gets_a_counted_zero_pair(self, monkeypatch):
        window = make_window(WindowKind.HANN, FRAME_LEN)
        frames = voiced_frames(20)
        windowed = [apply_window(f.samples, window) for f in frames]
        bad = 9
        top = -lpc_polynomial(lpc(windowed[bad]))[1:]  # the bad frame's companion row
        eigvals = _native.eigvals

        def fails_on_the_bad_frame(matrices):
            if (matrices[..., 0, :] == top).all(axis=-1).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(matrices)

        monkeypatch.setattr(_native, "eigvals", fails_on_the_bad_frame)
        with Stats().collecting() as alone:
            assert featset._formant_pair(windowed[bad]).tolist() == [0.0, 0.0]
        assert TestFormantCounters._counters(alone)["formant_root_failures"] == 1
        config = FeatureSetConfig(FeatureKind.STACKED_FORMANTS)
        block, pushed = Stats(), Stats()
        with block.collecting():
            _, rows = extract_matrix(frames, config)
        assert rows[0][2 * bad: 2 * bad + 2].tolist() == [0.0, 0.0]  # frame 9 of vector 14
        assert TestFormantCounters._counters(block)["formant_root_failures"] == 1
        with pushed.collecting():
            _, stream_rows = stream(StreamingExtractor(config), frames)
        assert rows.tobytes() == np.array(stream_rows).tobytes()
        assert TestFormantCounters._counters(block) == TestFormantCounters._counters(pushed)
