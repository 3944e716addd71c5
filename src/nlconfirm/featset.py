"""The seven per-frame feature sets.

Three base features (13 MFCCs, a formant pair, a pitch value) are lifted
into seven vector producers: plain MFCC, MFCC with first/second derivative
blocks, 15-frame stacked MFCCs, the standard deviation of each formant
over 15 frames, 15-frame stacked formants, plain pitch and 15-frame
stacked pitch.

Extraction is block-based, through one path: StreamingExtractor.push_block
consumes the next frames of a segment and returns the rows of the vectors
that became complete, and a push of one frame is a block of one. Offline
callers (`extract_matrix`, `extract`, training, `evaluate`, `classify`)
hand over whole segments, and MFCCs of a block come from one batched
`mfcc` call; the online mode pushes frame by frame. Any partition of a
segment into blocks gives bit-identical vectors, so offline and online
paths agree. Stacks are causal (a vector emitted at frame t covers frames
t-14 .. t). The derivative set is the one look-ahead consumer: frame t
needs MFCCs up to t+3, so its vectors trail the stream by three frames and
the tail is flushed with edge replication when the segment ends.

The extractor's history is the last 15 base vectors, which every
consumer's context fits in (a stack needs 15, a derivative 3 back and 3
ahead), so memory and per-frame cost stay constant however long a segment
runs.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import FRAME_LEN, SAMPLE_RATE, Frame
from .dsp import (
    FIRST_DERIVATIVE,
    N_MFCC,
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
from .errors import DegenerateFrame, NumericalFailure, SegmentTooShort

STACK_DEPTH = 15          # frames per stack / SD window
DELTA_CONTEXT = 7         # Savitzky-Golay filter length
DELTA_LAG = DELTA_CONTEXT // 2


class FeatureKind(enum.Enum):
    MFCC = "mfcc"
    MFCC_DELTA = "mfcc_delta"
    STACKED_MFCC = "stacked_mfcc"
    FORMANT_SD = "formant_sd"
    STACKED_FORMANTS = "stacked_formants"
    PITCH = "pitch"
    STACKED_PITCH = "stacked_pitch"


_DIMENSIONS = {
    FeatureKind.MFCC: 13,
    FeatureKind.MFCC_DELTA: 39,
    FeatureKind.STACKED_MFCC: 195,
    FeatureKind.FORMANT_SD: 2,
    FeatureKind.STACKED_FORMANTS: 30,
    FeatureKind.PITCH: 1,
    FeatureKind.STACKED_PITCH: 15,
}

_MFCC_KINDS = {FeatureKind.MFCC, FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC}
_FORMANT_KINDS = {FeatureKind.FORMANT_SD, FeatureKind.STACKED_FORMANTS}
_PITCH_KINDS = {FeatureKind.PITCH, FeatureKind.STACKED_PITCH}
_STACKED_KINDS = {
    FeatureKind.STACKED_MFCC,
    FeatureKind.FORMANT_SD,
    FeatureKind.STACKED_FORMANTS,
    FeatureKind.STACKED_PITCH,
}
_CONTEXT_KINDS = _STACKED_KINDS | {FeatureKind.MFCC_DELTA}  # kinds that read the history

# dimensionality reduction applies to stacked/derivative sets except stacked formants
PCA_KINDS = {FeatureKind.MFCC_DELTA, FeatureKind.STACKED_MFCC, FeatureKind.STACKED_PITCH}


@dataclass(frozen=True)
class FeatureSetConfig:
    """Identity of a feature set; dimensions are fixed by the kind."""

    kind: FeatureKind

    @property
    def raw_dimension(self) -> int:
        return _DIMENSIONS[self.kind]

    @property
    def uses_pca(self) -> bool:
        return self.kind in PCA_KINDS

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "stack_depth": STACK_DEPTH,
            "raw_dimension": self.raw_dimension,
        }

    @staticmethod
    def from_dict(data: dict) -> "FeatureSetConfig":
        return FeatureSetConfig(kind=FeatureKind(data["kind"]))


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    frame_index: int
    config: FeatureSetConfig


def dimension(config: FeatureSetConfig | FeatureKind) -> int:
    kind = config.kind if isinstance(config, FeatureSetConfig) else config
    return _DIMENSIONS[kind]


def window_kind_for(config: FeatureSetConfig | FeatureKind) -> WindowKind:
    """MFCC-family sets use Blackman-Harris; formant and pitch sets use Hann."""
    kind = config.kind if isinstance(config, FeatureSetConfig) else config
    return WindowKind.BLACKMAN_HARRIS4 if kind in _MFCC_KINDS else WindowKind.HANN


def required_context(config: FeatureSetConfig | FeatureKind) -> int:
    """Minimum frame count before the first vector can be emitted."""
    kind = config.kind if isinstance(config, FeatureSetConfig) else config
    if kind in _STACKED_KINDS:
        return STACK_DEPTH
    if kind is FeatureKind.MFCC_DELTA:
        return DELTA_CONTEXT
    return 1


def emitted_count(config: FeatureSetConfig | FeatureKind, n_frames: int) -> int:
    """Vectors emitted for n_frames input frames (tail flush included)."""
    kind = config.kind if isinstance(config, FeatureSetConfig) else config
    if kind in _STACKED_KINDS:
        return max(0, n_frames - STACK_DEPTH + 1)
    return n_frames


def _formant_pair(windowed: np.ndarray) -> np.ndarray:
    """(F1, F2) of one windowed frame.

    A frame that cannot give formants yields the zero pair (both formants
    absent) instead of aborting the stream: a zero-energy frame
    (DegenerateFrame) or one whose LPC roots miss the residual bound
    (NumericalFailure).
    """
    try:
        roots = fix_roots(polynomial_roots(lpc_polynomial(lpc(windowed))))
    except (DegenerateFrame, NumericalFailure):
        return np.zeros(2)
    return formants(roots, SAMPLE_RATE).as_array()


def _windows(series: np.ndarray, offset: int, first: int, stop: int,
             before: int, after: int, n: int) -> np.ndarray:
    """(m, before + 1 + after, d) context windows of frames t = first .. stop - 1.

    Row j of `series` is frame offset + j; the window of t holds frames
    t - before .. t + after, clamped to 0 .. n - 1 (edge replication). A
    single unclamped window is a plain slice, which keeps a push cheap.
    """
    if stop - first == 1 and first >= before and first + after < n:
        return series[first - before - offset: first + after + 1 - offset][None]
    frames = np.arange(first, stop)[:, None] + np.arange(-before, after + 1)
    return series[np.clip(frames, 0, n - 1) - offset]


def _delta_rows(series: np.ndarray, offset: int, first: int, stop: int, n: int) -> np.ndarray:
    """Base vector plus first and second Savitzky-Golay derivatives for t = first .. stop - 1."""
    windows = _windows(series, offset, first, stop, DELTA_LAG, DELTA_LAG, n)
    return np.concatenate([
        windows[:, DELTA_LAG],
        np.matmul(FIRST_DERIVATIVE.coefficients, windows) / FIRST_DERIVATIVE.h,
        np.matmul(SECOND_DERIVATIVE.coefficients, windows) / SECOND_DERIVATIVE.h,
    ], axis=1)


def _stack_rows(kind: FeatureKind, series: np.ndarray, offset: int, first: int,
                n: int) -> np.ndarray:
    """Stacked (or formant-SD) vectors for t = first .. n - 1 over the last STACK_DEPTH frames."""
    windows = _windows(series, offset, first, n, STACK_DEPTH - 1, 0, n)
    if kind is FeatureKind.FORMANT_SD:
        return np.array([[np.std(w[:, 0]), np.std(w[:, 1])] for w in windows])
    return windows.reshape(len(windows), -1).copy()  # a push's window views the history


class StreamingExtractor:
    """Incremental feature extraction for one frame stream.

    One instance per audio stream; not shareable while a segment is in
    flight. `push_block` consumes the next frames of the segment and
    returns the frame indices and rows of the vectors that became
    complete; `push` is a block of one frame. `finish` flushes look-ahead
    consumers at segment end, `reset` prepares for the next segment. Any
    partition of a segment into blocks gives the same vectors, bit for bit.

    Only the last STACK_DEPTH base vectors are kept, in a contiguous
    buffer, plus a count of frames pushed since `reset`: memory and
    per-frame cost are constant in the segment length.
    """

    def __init__(self, config: FeatureSetConfig):
        self.config = config
        self._window = make_window(window_kind_for(config), FRAME_LEN)
        kind = config.kind
        base_dimension = N_MFCC if kind in _MFCC_KINDS else 2 if kind in _FORMANT_KINDS else 1
        # rows [_end - min(_count, STACK_DEPTH), _end) are the latest base vectors
        self._history = np.empty((2 * STACK_DEPTH, base_dimension))
        self._end = 0
        self._count = 0

    def reset(self) -> None:
        self._end = 0
        self._count = 0

    @property
    def frames_consumed(self) -> int:
        return self._count

    def _base_vector(self, windowed: np.ndarray) -> np.ndarray:
        """Base vector (MFCCs, formant pair or pitch) of one windowed frame."""
        kind = self.config.kind
        if kind in _MFCC_KINDS:
            return mfcc(windowed, SAMPLE_RATE)
        if kind in _FORMANT_KINDS:
            return _formant_pair(windowed)
        return np.array([pitch_yin_fft(windowed, SAMPLE_RATE)])

    def _base_block(self, frames: Sequence[Frame]) -> np.ndarray:
        """(k, d) base vectors of k frames; MFCCs of a block come from one batched call."""
        if len(frames) == 1:  # a push: the 1-D calls skip the batching set-up
            return self._base_vector(apply_window(frames[0].samples, self._window))[None]
        windowed = apply_window(np.stack([f.samples for f in frames]), self._window)
        if self.config.kind in _MFCC_KINDS:
            return mfcc(windowed, SAMPLE_RATE)
        return np.array([self._base_vector(w) for w in windowed])

    def _extend(self, base: np.ndarray) -> tuple[np.ndarray, int]:
        """Append base rows to the history.

        Returns (series, offset): row j of series is frame offset + j, and
        series holds the new rows plus up to STACK_DEPTH before them.
        """
        held = min(self._count, STACK_DEPTH)
        offset = self._count - held
        self._count += len(base)
        if len(base) == 1:
            if self._end == len(self._history):  # move the held rows to the front
                self._history[:held] = self._history[self._end - held: self._end]
                self._end = held
            self._history[self._end] = base[0]
            self._end += 1
            return self._history[self._end - held - 1: self._end], offset
        series = np.concatenate((self._history[self._end - held: self._end], base))
        tail = series[-STACK_DEPTH:]
        self._history[: len(tail)] = tail
        self._end = len(tail)
        return series, offset

    def push_block(self, frames: Sequence[Frame]) -> tuple[range, np.ndarray]:
        """Consume the next frames of the segment.

        Returns the frame indices and the (m, d) rows of the vectors that
        became complete; m may be 0.
        """
        kind = self.config.kind
        if not frames:
            return self._nothing()
        before = self._count
        base = self._base_block(frames)
        if kind not in _CONTEXT_KINDS:
            self._count += len(base)
            return range(before, self._count), base
        series, offset = self._extend(base)
        n = self._count
        if kind is FeatureKind.MFCC_DELTA:
            first, stop = max(0, before - DELTA_LAG), n - DELTA_LAG
        else:
            # stacked kinds emit from t = STACK_DEPTH - 1 on: the window is full
            first, stop = max(before, STACK_DEPTH - 1), n
        if first >= stop:
            return self._nothing()
        if kind is FeatureKind.MFCC_DELTA:
            return range(first, stop), _delta_rows(series, offset, first, stop, n)
        return range(first, stop), _stack_rows(kind, series, offset, first, n)

    def push(self, frame: Frame) -> list[FeatureVector]:
        """Consume one frame: a block of one, which completes at most one vector."""
        indices, rows = self.push_block((frame,))
        return [FeatureVector(rows[0], indices[0], self.config)] if indices else []

    def finish_block(self) -> tuple[range, np.ndarray]:
        """Flush the derivative set's trailing frames (edge replication)."""
        n = self._count
        if self.config.kind is not FeatureKind.MFCC_DELTA or n < required_context(self.config):
            return self._nothing()
        held = min(n, STACK_DEPTH)
        series = self._history[self._end - held: self._end]
        first = max(0, n - DELTA_LAG)
        return range(first, n), _delta_rows(series, n - held, first, n, n)

    def finish(self) -> list[FeatureVector]:
        """`finish_block` as feature vectors."""
        return _vectors(*self.finish_block(), self.config)

    def _nothing(self) -> tuple[range, np.ndarray]:
        return range(0), np.empty((0, self.config.raw_dimension))


def extract_matrix(frames: Sequence[Frame], config: FeatureSetConfig) -> tuple[range, np.ndarray]:
    """Frame indices and (n, d) feature rows of one segment, pushed as one block.

    Context-bearing kinds emit N - 14 vectors for N frames; the derivative
    set and the plain kinds emit N. Raises SegmentTooShort when the stream
    is shorter than the kind's required context.
    """
    if len(frames) < required_context(config):
        raise SegmentTooShort(
            f"{len(frames)} frames < required context {required_context(config)} "
            f"for {config.kind.value}"
        )
    extractor = StreamingExtractor(config)
    indices, rows = extractor.push_block(frames)
    tail, tail_rows = extractor.finish_block()
    if tail:
        return range(indices.start, tail.stop), np.concatenate((rows, tail_rows))
    return indices, rows


def _vectors(indices: range, rows: np.ndarray, config: FeatureSetConfig) -> list[FeatureVector]:
    return [FeatureVector(row, t, config) for t, row in zip(indices, rows)]


def extract(frames: list[Frame], config: FeatureSetConfig) -> list[FeatureVector]:
    """`extract_matrix` as feature vectors."""
    return _vectors(*extract_matrix(frames, config), config)


def feature_matrix(vectors: list[FeatureVector]) -> np.ndarray:
    """Stack feature vectors into an (n, d) matrix."""
    if not vectors:
        return np.empty((0, 0))
    return np.stack([v.values for v in vectors])
