"""Offline and streaming classification.

Both modes share one code path: frames flow through a StreamingExtractor,
each finished feature vector is scored by the model, the score's sign
becomes a +1/-1 vote, and a segment latches as a confirmation the first
time the mean of the last five votes exceeds the majority threshold.
Offline classification simply drives the stream over a whole segment and
keeps the per-frame scores, so the two modes agree bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .corpus import FRAME_MS, HOP_MS, AudioSegment, Frame, Label, frame_stream
from .errors import SegmentTooShort
from .featset import StreamingExtractor, required_context
from .learn import ModelBundle

VOTE_WINDOW = 5


@dataclass(frozen=True)
class TriggerEvent:
    """Emitted once per segment when the rolling vote crosses the threshold."""

    segment_ref: str
    frame_index: int      # index of the frame whose vote latched the segment
    rolling_mean: float
    time_ms: float | None = None


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

    @property
    def predictions(self) -> np.ndarray:
        """Frame-level +1/-1 predictions (sign of the decision values)."""
        return np.where(self.frame_scores > 0.0, 1, -1)


class OnlineClassifier:
    """Streaming classifier for one frame stream.

    Not shareable between threads mid-stream; the model bundle itself is
    immutable and may back any number of concurrent classifiers.
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

    def _score_vectors(self, vectors) -> TriggerEvent | None:
        trigger = None
        for vec in vectors:
            score = self.bundle.decide(vec.values)
            self._indices.append(vec.frame_index)
            self._scores.append(score)
            vote = 1 if score > 0.0 else -1
            event = self.state.push_vote(vote, vec.frame_index, self._segment_ref or "")
            trigger = trigger or event
        return trigger

    def push_frame(self, frame: Frame) -> TriggerEvent | None:
        """Consume one frame; returns a trigger event if the segment latches.

        Warm-up frames (feature context not yet full) cast no vote.
        """
        if self._segment_ref is None:
            self._segment_ref = frame.segment_ref
        return self._score_vectors(self._extractor.push(frame))

    def finish_segment(self) -> TriggerEvent | None:
        """Flush look-ahead features at segment end (may still latch)."""
        return self._score_vectors(self._extractor.finish())

    def decision(self) -> SegmentDecision:
        """Decision for the segment streamed so far (call after finish_segment)."""
        return SegmentDecision(
            segment_ref=self._segment_ref or "",
            trigger=self.state.trigger,
            frame_indices=np.asarray(self._indices, dtype=int),
            frame_scores=np.asarray(self._scores),
        )


def _classify_frames(
    frames: list[Frame], bundle: ModelBundle, majority_threshold: float
) -> SegmentDecision:
    classifier = OnlineClassifier(bundle, majority_threshold)
    for frame in frames:
        classifier.push_frame(frame)
    classifier.finish_segment()
    return classifier.decision()


def classify_segment(
    segment: AudioSegment, bundle: ModelBundle, majority_threshold: float = 0.0
) -> SegmentDecision:
    """Stream one segment through the classifier and return its decision."""
    return _classify_frames(frame_stream(segment), bundle, majority_threshold)


def classify_offline(
    segments: list[AudioSegment],
    bundle: ModelBundle,
    majority_threshold: float = 0.0,
) -> list[SegmentDecision]:
    """Per-frame scores and vote-latched decisions for annotated segments.

    Segments shorter than the feature set's required context propagate
    SegmentTooShort.
    """
    min_frames = required_context(bundle.feature_config)
    decisions = []
    for segment in segments:
        frames = frame_stream(segment)
        if len(frames) < min_frames:
            raise SegmentTooShort(
                f"{segment.segment_id}: {len(frames)} frames < context {min_frames}"
            )
        decisions.append(_classify_frames(frames, bundle, majority_threshold))
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
