"""The seven per-frame feature sets.

Three base features (13 MFCCs, a formant pair, a pitch value) are lifted
into seven vector producers: plain MFCC, MFCC with first/second derivative
blocks, 15-frame stacked MFCCs, the standard deviation of each formant
over 15 frames, 15-frame stacked formants, plain pitch and 15-frame
stacked pitch.

Extraction is block-based, through one path with one output shape,
`(indices, rows)`: the frame indices and rows of the vectors that became
complete. StreamingExtractor.push_block consumes the next frames of a
segment, a push of one frame is a block of one, and `finish` flushes the
tail. Offline callers (`extract_matrix`, `extract`, training, `evaluate`,
`classify`) hand over whole segments; the online mode pushes frame by
frame. MFCCs of a block come from one batched `mfcc` call, and formants
from one `lpc`, `polynomial_roots` and `formants` call on the block; the
rows that chain leaves NaN (silent frames, a recursion that stops early,
a root that misses the residual bound) go through the per-frame chain one
by one. Any partition of a segment into blocks gives bit-identical vectors
and formant counters, so offline and online paths agree. Stacks are
causal (a vector emitted at frame t covers frames t-14 .. t). The
derivative set is the one look-ahead consumer: frame t needs MFCCs up to
t+3, so its vectors trail the stream by three frames and the tail is
flushed with edge replication when the segment ends.

Each set is one row of a recipe table: its base feature, its lift over
frames (the frame itself, the derivative set, a stack, or the SD of a
stack) and whether PCA follows. Dimension, window, context and the
extraction branch all follow from that row.

The extractor's history is the last 15 base vectors, which every
consumer's context fits in (a stack needs 15, a derivative 3 back and 3
ahead), so memory and per-frame cost stay constant however long a segment
runs. A segment's warm-up frames after its first, which cannot complete
a vector yet, are held windowed and extracted as one block by the push
that completes the first vector; every other push takes the 1-D calls.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stats
from .corpus import FRAME_LEN, Frame
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
# the divisors of a one-push derivative row's two halves (the set lifts MFCCs)
_DELTA_H = np.repeat([FIRST_DERIVATIVE.h, SECOND_DERIVATIVE.h], N_MFCC)
_DELTA_H.flags.writeable = False


class FeatureKind(enum.Enum):
    MFCC = "mfcc"
    MFCC_DELTA = "mfcc_delta"
    STACKED_MFCC = "stacked_mfcc"
    FORMANT_SD = "formant_sd"
    STACKED_FORMANTS = "stacked_formants"
    PITCH = "pitch"
    STACKED_PITCH = "stacked_pitch"


class _Recipe(NamedTuple):
    base: str   # per-frame feature: "mfcc", "formants" or "pitch"
    lift: str   # "frame", "delta" (plus two derivatives), "stack" or "sd" (SD of a stack)
    pca: bool


_RECIPES = {
    FeatureKind.MFCC: _Recipe("mfcc", "frame", False),
    FeatureKind.MFCC_DELTA: _Recipe("mfcc", "delta", True),
    FeatureKind.STACKED_MFCC: _Recipe("mfcc", "stack", True),
    FeatureKind.FORMANT_SD: _Recipe("formants", "sd", False),
    FeatureKind.STACKED_FORMANTS: _Recipe("formants", "stack", False),
    FeatureKind.PITCH: _Recipe("pitch", "frame", False),
    FeatureKind.STACKED_PITCH: _Recipe("pitch", "stack", True),
}
_BASE_DIMENSION = {"mfcc": N_MFCC, "formants": 2, "pitch": 1}
_LIFT_WIDTH = {"frame": 1, "delta": 3, "stack": STACK_DEPTH, "sd": 1}  # base vectors per row
_LIFT_CONTEXT = {"frame": 1, "delta": DELTA_CONTEXT, "stack": STACK_DEPTH, "sd": STACK_DEPTH}
# frames held after a segment's first: those that come before its first vector completes
_LIFT_WARM_UP = {"frame": 0, "delta": DELTA_LAG - 1,
                 "stack": STACK_DEPTH - 2, "sd": STACK_DEPTH - 2}
_FORMANT_COUNTERS = ("formant_silent", "formant_root_failures", "formant_no_candidate")


@dataclass(frozen=True)
class FeatureSetConfig:
    """Identity of a feature set; dimensions are fixed by the kind."""

    kind: FeatureKind

    @property
    def raw_dimension(self) -> int:
        base, lift, _ = _RECIPES[self.kind]
        return _BASE_DIMENSION[base] * _LIFT_WIDTH[lift]

    @property
    def uses_pca(self) -> bool:
        return _RECIPES[self.kind].pca

    @property
    def window_kind(self) -> WindowKind:
        """MFCC-family sets use Blackman-Harris; formant and pitch sets use Hann."""
        base = _RECIPES[self.kind].base
        return WindowKind.BLACKMAN_HARRIS4 if base == "mfcc" else WindowKind.HANN

    @property
    def required_context(self) -> int:
        """Minimum frame count before the first vector can be emitted."""
        return _LIFT_CONTEXT[_RECIPES[self.kind].lift]

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


def _formant_pair(windowed: np.ndarray) -> np.ndarray:
    """(F1, F2) of one windowed frame.

    A frame that cannot give formants yields the zero pair (both formants
    absent) instead of aborting the stream: a frame of zero or subnormal
    energy (DegenerateFrame) or one whose LPC roots miss the residual bound
    (NumericalFailure). It counts zero pairs by cause: formant_silent,
    formant_root_failures, and formant_no_candidate when no root survives
    the formant filters.
    """
    try:
        roots = fix_roots(polynomial_roots(lpc_polynomial(lpc(windowed))))
    except DegenerateFrame:
        stats.count("formant_silent")
        return np.zeros(2)
    except NumericalFailure:
        stats.count("formant_root_failures")
        return np.zeros(2)
    pair = formants(roots)
    if pair[0] == 0.0:
        stats.count("formant_no_candidate")
    return pair


def _formant_rows(windowed: np.ndarray) -> np.ndarray:
    """(k, 2) formant pairs of a (k, 400) block, each row bitwise `_formant_pair` of its frame.

    One call of each chain function serves the whole block. The rows it
    leaves NaN (zero or subnormal energy, a recursion that stops early, a
    zero last coefficient, a root that misses the residual bound) go
    through `_formant_pair`, so the zero pairs and the counters are those
    of the frame-by-frame chain.
    """
    pairs = formants(fix_roots(polynomial_roots(lpc_polynomial(lpc(windowed)))))
    no_candidate = np.count_nonzero(pairs[:, 0] == 0.0)
    if no_candidate:
        stats.count("formant_no_candidate", no_candidate)
    for i in np.flatnonzero(np.isnan(pairs[:, 0])):
        pairs[i] = _formant_pair(windowed[i])
    return pairs


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
    """Base vector plus first and second Savitzky-Golay derivatives for t = first .. stop - 1.

    A push's single unclamped window is built as one row: each derivative
    is the product of the coefficients with that (7, d) slice, the product
    a batched matmul makes for each window, and both are divided by their
    h in one call, so the row has the bits of the block path.
    """
    if stop - first == 1 and first >= DELTA_LAG and first + DELTA_LAG < n:
        window = series[first - DELTA_LAG - offset: first + DELTA_LAG + 1 - offset]
        row = np.concatenate((window[DELTA_LAG], FIRST_DERIVATIVE.coefficients @ window,
                              SECOND_DERIVATIVE.coefficients @ window))
        derivatives = row[window.shape[1]:]
        derivatives /= _DELTA_H
        return row[None]
    windows = _windows(series, offset, first, stop, DELTA_LAG, DELTA_LAG, n)
    return np.concatenate([
        windows[:, DELTA_LAG],
        np.matmul(FIRST_DERIVATIVE.coefficients, windows) / FIRST_DERIVATIVE.h,
        np.matmul(SECOND_DERIVATIVE.coefficients, windows) / SECOND_DERIVATIVE.h,
    ], axis=1)


def _stack_rows(lift: str, series: np.ndarray, offset: int, first: int, n: int) -> np.ndarray:
    """Rows of t = first .. n - 1 over the last STACK_DEPTH frames: the stack, or its SDs ("sd")."""
    windows = _windows(series, offset, first, n, STACK_DEPTH - 1, 0, n)
    if lift == "sd":  # each SD over a contiguous row, as np.std of one column
        return np.std(np.ascontiguousarray(windows.transpose(0, 2, 1)), axis=-1)
    return windows.reshape(len(windows), -1).copy()  # a push's window views the history


class StreamingExtractor:
    """Incremental feature extraction for one frame stream.

    One instance per audio stream; not shareable while a segment is in
    flight. `push_block` consumes the next frames of the segment, `push`
    is a block of one frame and `finish` flushes look-ahead consumers at
    segment end; all three return `(indices, rows)`, the frame indices and
    rows of the vectors that became complete. `reset` prepares for the
    next segment. Any partition of a segment into blocks gives the same
    vectors, bit for bit.

    Warm-up frames that follow the segment's first frame and cannot
    complete a vector yet (frames 1 .. STACK_DEPTH - 2 of a stacked or SD
    set, 1 .. DELTA_LAG - 1 of the derivative set) are windowed and held;
    the push that completes the first vector extracts them together with
    its own frames as one block, and `finish` or `reset` extracts any still
    held, so the formant counters are those of frame-by-frame extraction.
    Beyond those few frames, only the last STACK_DEPTH base vectors are
    kept, in a contiguous buffer, plus a count of frames extracted since
    `reset`: memory and per-frame cost are constant in the segment length.
    Formant sets count zero pairs (`_formant_pair`), each counter from 0.
    """

    def __init__(self, config: FeatureSetConfig):
        self.config = config
        self._window = make_window(config.window_kind, FRAME_LEN)
        self._base, self._lift, _ = _RECIPES[config.kind]
        if self._base == "formants":
            for name in _FORMANT_COUNTERS:
                stats.count(name, 0)
        # rows [_end - min(_count, STACK_DEPTH), _end) are the latest base vectors
        self._history = np.empty((2 * STACK_DEPTH, _BASE_DIMENSION[self._base]))
        self._end = 0
        self._count = 0
        # rows [0, _held) are windowed warm-up frames, not yet extracted
        self._warm_up = np.empty((_LIFT_WARM_UP[self._lift], FRAME_LEN))
        self._held = 0

    def reset(self) -> None:
        self._release()
        self._end = 0
        self._count = 0

    def _base_rows(self, windowed: np.ndarray) -> np.ndarray:
        """(k, d) base vectors (MFCCs, formant pairs or pitch) of k windowed frames.

        One frame (1-D) takes the 1-D calls, which skip the batching set-up;
        MFCCs and formants of a (k, FRAME_LEN) block come batched.
        """
        one = windowed.ndim == 1
        if self._base == "mfcc":
            rows = mfcc(windowed)
        elif self._base == "formants":
            rows = (_formant_pair if one else _formant_rows)(windowed)
        else:
            rows = np.array([pitch_yin_fft(w) for w in np.atleast_2d(windowed)])
        return rows.reshape(1 if one else len(windowed), -1)

    def _release(self) -> None:
        """Extract the held warm-up frames into the history."""
        if self._held:
            base = self._base_rows(self._warm_up[: self._held])
            self._held = 0
            self._extend(base)

    def _extend(self, base: np.ndarray) -> tuple[np.ndarray, int]:
        """Append base rows to the history.

        Returns (series, offset): row j of series is frame offset + j, and
        series holds the new rows plus up to STACK_DEPTH before them.
        """
        kept = min(self._count, STACK_DEPTH)
        offset = self._count - kept
        self._count += len(base)
        if len(base) == 1:
            if self._end == len(self._history):  # move the kept rows to the front
                self._history[:kept] = self._history[self._end - kept: self._end]
                self._end = kept
            self._history[self._end] = base[0]
            self._end += 1
            return self._history[self._end - kept - 1: self._end], offset
        series = np.concatenate((self._history[self._end - kept: self._end], base))
        tail = series[-STACK_DEPTH:]
        self._history[: len(tail)] = tail
        self._end = len(tail)
        return series, offset

    def push_block(self, frames: Sequence[Frame]) -> tuple[range, np.ndarray]:
        """Consume the next frames of the segment.

        Returns the frame indices and the (m, d) rows of the vectors that
        became complete; m may be 0.
        """
        if not frames:
            return self._nothing()
        samples = frames[0].samples if len(frames) == 1 else np.stack([f.samples for f in frames])
        windowed = apply_window(samples, self._window)
        held = self._held
        # a segment's first frame is extracted at its push (perfbench's span
        # test reads the `dsp` spans of a fresh extractor's first push); the
        # warm-up frames after it wait for the push that completes a vector
        if self._count == 1 and held + len(frames) <= len(self._warm_up):
            self._warm_up[held: held + len(frames)] = windowed
            self._held += len(frames)
            return self._nothing()
        if held:  # the held frames and these as one block
            windowed = np.concatenate((self._warm_up[:held], windowed.reshape(len(frames), -1)))
        before = self._count
        base = self._base_rows(windowed)
        self._held = 0
        if self._lift == "frame":  # no history read
            self._count += len(base)
            return range(before, self._count), base
        series, offset = self._extend(base)
        n = self._count
        if self._lift == "delta":
            first, stop = max(0, before - DELTA_LAG), n - DELTA_LAG
        else:
            # stacks emit from t = STACK_DEPTH - 1 on: the window is full
            first, stop = max(before, STACK_DEPTH - 1), n
        if first >= stop:
            return self._nothing()
        if self._lift == "delta":
            return range(first, stop), _delta_rows(series, offset, first, stop, n)
        return range(first, stop), _stack_rows(self._lift, series, offset, first, n)

    def push(self, frame: Frame) -> tuple[range, np.ndarray]:
        """Consume one frame: a block of one, which completes at most one vector."""
        return self.push_block((frame,))

    def finish(self) -> tuple[range, np.ndarray]:
        """Flush the derivative set's trailing frames (edge replication).

        Held warm-up frames are extracted first; they complete no vector.
        """
        self._release()
        n = self._count
        if self._lift != "delta" or n < DELTA_CONTEXT:
            return self._nothing()
        kept = min(n, STACK_DEPTH)
        series = self._history[self._end - kept: self._end]
        first = max(0, n - DELTA_LAG)
        return range(first, n), _delta_rows(series, n - kept, first, n, n)

    def _nothing(self) -> tuple[range, np.ndarray]:
        return range(0), np.empty((0, self.config.raw_dimension))


def extract_matrix(frames: Sequence[Frame], config: FeatureSetConfig) -> tuple[range, np.ndarray]:
    """Frame indices and (n, d) feature rows of one segment, pushed as one block.

    Context-bearing kinds emit N - 14 vectors for N frames; the derivative
    set and the plain kinds emit N. Raises SegmentTooShort when the stream
    is shorter than the kind's required context; its message names the
    segment. It counts frames, vectors and formant zero pairs.
    """
    if len(frames) < config.required_context:
        ref = frames[0].segment_ref if frames else "(no frames)"
        raise SegmentTooShort(
            f"{ref}: {len(frames)} frames < required context {config.required_context} "
            f"for {config.kind.value}"
        )
    extractor = StreamingExtractor(config)
    indices, rows = extractor.push_block(frames)
    tail, tail_rows = extractor.finish()
    if tail:
        indices, rows = range(indices.start, tail.stop), np.concatenate((rows, tail_rows))
    stats.count("frames", len(frames))
    stats.count("vectors", len(rows))
    return indices, rows


def extract(frames: list[Frame], config: FeatureSetConfig) -> list[FeatureVector]:
    """`extract_matrix` as feature vectors."""
    indices, rows = extract_matrix(frames, config)
    return [FeatureVector(row, t, config) for t, row in zip(indices, rows)]


def feature_matrix(vectors: list[FeatureVector]) -> np.ndarray:
    """Stack feature vectors into an (n, d) matrix."""
    if not vectors:
        return np.empty((0, 0))
    return np.stack([v.values for v in vectors])
