"""Offline and streaming classification.

Every feature vector gets one SVM decision value, the score's sign
becomes a +1/-1 vote, and a segment latches as a confirmation the first
time the mean of the last five votes exceeds the majority threshold.
Offline classification (`classify_offline`, used by `classify` and
`evaluate`) extracts each segment's rows in one block (`extract_matrix`),
scores them in one `ModelBundle.decide_many` call and replays the vote
rule over the scores (`decision_from_scores`). The online mode (`listen`)
streams frame by frame through `OnlineClassifier`, scoring each vector
with `ModelBundle.decide` as it completes. Both read the extractor's one
output shape, `(indices, rows)`; extraction gives the same rows however a
segment is split into blocks, and `decide_many` gives each row the bits
`decide` gives it, so the two modes agree bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .corpus import FRAME_MS, HOP_MS, AudioSegment, Frame, Label, frame_stream
from .featset import StreamingExtractor, extract_matrix
from .learn import ModelBundle

VOTE_WINDOW = 5


@dataclass(frozen=True)
class TriggerEvent:
    """Emitted once per segment when the rolling vote crosses the threshold."""

    segment_ref: str
    frame_index: int      # index of the frame whose vote latched the segment
    rolling_mean: float


@dataclass
class OnlineState:
    """Rolling-vote state for one in-flight segment."""

    majority_threshold: float = 0.0
    votes: deque[int] = field(default_factory=lambda: deque(maxlen=VOTE_WINDOW))
    votes_cast: int = 0
    latched: bool = False
    trigger: TriggerEvent | None = None

    def push_vote(self, vote: int, frame_index: int, segment_ref: str) -> TriggerEvent | None:
        """Account one +1/-1 vote; returns a trigger when the segment latches."""
        self.votes.append(vote)
        self.votes_cast += 1
        if self.latched or self.votes_cast < VOTE_WINDOW:
            return None
        mean = sum(self.votes) / VOTE_WINDOW
        if mean > self.majority_threshold:
            self.latched = True
            self.trigger = TriggerEvent(
                segment_ref=segment_ref, frame_index=frame_index, rolling_mean=mean
            )
            return self.trigger
        return None


@dataclass(frozen=True)
class SegmentDecision:
    """Outcome for one segment: the latching trigger (if any) plus the stored frame scores."""

    segment_ref: str
    trigger: TriggerEvent | None
    frame_indices: np.ndarray
    frame_scores: np.ndarray

    @property
    def decided_label(self) -> Label:
        return Label.OTHER if self.trigger is None else Label.CONFIRMATION

    @property
    def trigger_frame(self) -> int | None:
        """Index of the frame whose vote latched the segment."""
        return None if self.trigger is None else self.trigger.frame_index


class OnlineClassifier:
    """Streaming classifier for one frame stream.

    Every `(index, row)` the extractor completes is scored and voted at
    once. Not shareable between threads mid-stream; the model bundle
    itself is immutable and may back any number of concurrent classifiers.
    """

    def __init__(self, bundle: ModelBundle, majority_threshold: float = 0.0):
        self.bundle = bundle
        self.majority_threshold = majority_threshold
        self._extractor = StreamingExtractor(bundle.feature_config)
        self.state = OnlineState(majority_threshold=majority_threshold)
        self._segment_ref: str | None = None
        self._indices: list[int] = []
        self._scores: list[float] = []

    def reset_segment(self) -> None:
        """Clear votes, latch and feature context for the next segment."""
        self._extractor.reset()
        self.state = OnlineState(majority_threshold=self.majority_threshold)
        self._segment_ref = None
        self._indices = []
        self._scores = []

    def _score_rows(self, indices: range, rows: np.ndarray) -> TriggerEvent | None:
        """Score and vote the extractor's completed rows in frame order."""
        trigger = None
        for frame_index, values in zip(indices, rows):
            score = self.bundle.decide(values)
            self._indices.append(frame_index)
            self._scores.append(score)
            vote = 1 if score > 0.0 else -1
            event = self.state.push_vote(vote, frame_index, self._segment_ref or "")
            trigger = trigger or event
        return trigger

    def push_frame(self, frame: Frame) -> TriggerEvent | None:
        """Consume one frame; returns a trigger event if the segment latches.

        Warm-up frames (feature context not yet full) cast no vote.
        """
        if self._segment_ref is None:
            self._segment_ref = frame.segment_ref
        return self._score_rows(*self._extractor.push(frame))

    def finish_segment(self) -> TriggerEvent | None:
        """Flush look-ahead features at segment end (may still latch)."""
        return self._score_rows(*self._extractor.finish())

    def decision(self) -> SegmentDecision:
        """Decision for the segment streamed so far (call after finish_segment)."""
        return SegmentDecision(
            segment_ref=self._segment_ref or "",
            trigger=self.state.trigger,
            frame_indices=np.asarray(self._indices, dtype=int),
            frame_scores=np.asarray(self._scores),
        )


def classify_segment(
    segment: AudioSegment,
    bundle: ModelBundle,
    majority_threshold: float = 0.0,
) -> SegmentDecision:
    """Stream one segment frame by frame through the classifier (the online mode).

    It counts frames, vectors and formant zero pairs.
    """
    classifier = OnlineClassifier(bundle, majority_threshold)
    frames = frame_stream(segment)
    for frame in frames:
        classifier.push_frame(frame)
    classifier.finish_segment()
    decision = classifier.decision()
    stats.count("frames", len(frames))
    stats.count("vectors", decision.frame_scores.size)
    return decision


def classify_offline(
    segments: list[AudioSegment],
    bundle: ModelBundle,
    majority_threshold: float = 0.0,
) -> list[SegmentDecision]:
    """Per-frame scores and vote-latched decisions for annotated segments.

    Each segment's rows are extracted in one block and scored in one
    `decide_many` call, which gives the streamed scores bit for bit; the
    vote rule is then replayed over them. Segments shorter than the feature
    set's required context propagate SegmentTooShort. Extraction counts
    frames, vectors and formant zero pairs.
    """
    decisions = []
    for segment in segments:
        indices, rows = extract_matrix(frame_stream(segment), bundle.feature_config)
        scores = bundle.decide_many(rows)
        decisions.append(decision_from_scores(segment.segment_id, indices, scores,
                                              majority_threshold))
    return decisions


def segment_score(decision: SegmentDecision) -> float:
    """Real-valued segment score: the maximum 5-vote rolling mean.

    Usable for segment-level ROC sweeps. Falls back to the mean of the
    available votes when fewer than five were cast.
    """
    votes = np.where(decision.frame_scores > 0.0, 1.0, -1.0)
    if votes.size == 0:
        return -1.0
    if votes.size < VOTE_WINDOW:
        return float(votes.mean())
    window_sums = np.convolve(votes, np.ones(VOTE_WINDOW), mode="valid")
    return float(window_sums.max() / VOTE_WINDOW)


def decision_from_scores(
    segment_ref: str,
    frame_indices: np.ndarray,
    frame_scores: np.ndarray,
    majority_threshold: float = 0.0,
) -> SegmentDecision:
    """Replay the rolling vote rule over precomputed frame scores."""
    state = OnlineState(majority_threshold=majority_threshold)
    for idx, score in zip(frame_indices, frame_scores):
        state.push_vote(1 if score > 0.0 else -1, int(idx), segment_ref)
    return SegmentDecision(
        segment_ref=segment_ref,
        trigger=state.trigger,
        frame_indices=np.asarray(frame_indices, dtype=int),
        frame_scores=np.asarray(frame_scores, dtype=np.float64),
    )


def trigger_time_ms(segment: AudioSegment, frame_index: int) -> float:
    """Absolute time of a voted frame's end within the source audio."""
    return segment.start_ms + frame_index * HOP_MS + FRAME_MS
