"""The seven per-frame feature sets.

Three base features (13 MFCCs, a formant pair, a pitch value) are lifted
into seven vector producers: plain MFCC, MFCC with first/second derivative
blocks, 15-frame stacked MFCCs, the standard deviation of each formant
over 15 frames, 15-frame stacked formants, plain pitch and 15-frame
stacked pitch.

Extraction is streaming at heart: StreamingExtractor consumes frames one
at a time and emits finished vectors; the batch `extract` simply drives it
over a whole segment, so offline and online paths produce bit-identical
vectors. Stacks are causal (a vector emitted at frame t covers frames
t-14 .. t). The derivative set is the one look-ahead consumer: frame t
needs MFCCs up to t+3, so its vectors trail the stream by three frames and
the tail is flushed with edge replication when the segment ends.

The extractor's history is a ring of the last 15 base vectors, which every
consumer's context fits in (a stack needs 15, a derivative 3 back and 3
ahead), so memory and per-frame cost stay constant however long a segment
runs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from .corpus import FRAME_LEN, SAMPLE_RATE, Frame
from .dsp import (
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
from .dsp.savgol import sg_at
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


class StreamingExtractor:
    """Incremental feature extraction for one frame stream.

    One instance per audio stream; not shareable while a segment is in
    flight. `push` returns the vectors that became complete with this
    frame, `finish` flushes look-ahead consumers at segment end, `reset`
    prepares for the next segment.

    Only the last STACK_DEPTH base vectors are kept, in a ring, plus a
    count of frames pushed since `reset`: memory and per-frame cost are
    constant in the segment length.
    """

    def __init__(self, config: FeatureSetConfig):
        self.config = config
        self._window = make_window(window_kind_for(config), FRAME_LEN)
        self._ring: deque[np.ndarray] = deque(maxlen=STACK_DEPTH)
        self._count = 0

    def reset(self) -> None:
        self._ring.clear()
        self._count = 0

    @property
    def frames_consumed(self) -> int:
        return self._count

    def _base_vector(self, frame: Frame) -> np.ndarray:
        windowed = apply_window(frame.samples, self._window)
        kind = self.config.kind
        if kind in _MFCC_KINDS:
            return mfcc(windowed, SAMPLE_RATE)
        if kind in _FORMANT_KINDS:
            return _formant_pair(windowed)
        return np.array([pitch_yin_fft(windowed, SAMPLE_RATE)])

    def _delta_vector(self, t: int) -> FeatureVector:
        # the filter reaches DELTA_LAG frames back and ahead of t, well inside
        # the ring, so sg_at clamps at the same frames as on the whole series
        series = np.asarray(self._ring)
        local = t - (self._count - len(series))
        parts = (series[local], sg_at(series, local, FIRST_DERIVATIVE),
                 sg_at(series, local, SECOND_DERIVATIVE))
        return FeatureVector(np.concatenate(parts), t, self.config)

    def _emit_at(self, t: int) -> FeatureVector:
        kind = self.config.kind
        if kind is FeatureKind.MFCC_DELTA:
            return self._delta_vector(t)
        if kind in _STACKED_KINDS:
            # stacked kinds emit from t = STACK_DEPTH - 1 on: the ring is full
            if kind is FeatureKind.FORMANT_SD:
                block = np.asarray(self._ring)
                values = np.array([np.std(block[:, 0]), np.std(block[:, 1])])
            else:
                values = np.concatenate(self._ring)
            return FeatureVector(values, t, self.config)
        return FeatureVector(self._ring[-1], t, self.config)

    def push(self, frame: Frame) -> list[FeatureVector]:
        self._ring.append(self._base_vector(frame))
        t = self._count
        self._count += 1
        kind = self.config.kind
        if kind is FeatureKind.MFCC_DELTA:
            pending = t - DELTA_LAG
            return [self._emit_at(pending)] if pending >= 0 else []
        if kind in _STACKED_KINDS:
            return [self._emit_at(t)] if t >= STACK_DEPTH - 1 else []
        return [self._emit_at(t)]

    def finish(self) -> list[FeatureVector]:
        """Flush the derivative set's trailing frames (edge replication)."""
        n = self._count
        if self.config.kind is not FeatureKind.MFCC_DELTA or n < required_context(self.config):
            return []
        first_pending = max(0, n - DELTA_LAG)
        return [self._emit_at(t) for t in range(first_pending, n)]


def extract(frames: list[Frame], config: FeatureSetConfig) -> list[FeatureVector]:
    """Feature vectors for an ordered frame stream of one segment.

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
    out: list[FeatureVector] = []
    for frame in frames:
        out.extend(extractor.push(frame))
    out.extend(extractor.finish())
    return out


def feature_matrix(vectors: list[FeatureVector]) -> np.ndarray:
    """Stack feature vectors into an (n, d) matrix."""
    if not vectors:
        return np.empty((0, 0))
    return np.stack([v.values for v in vectors])
