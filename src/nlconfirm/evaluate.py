"""Per-speaker training frames, cross-validation reports, ROC/AUC and confusion metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import AudioSegment, Label, frame_stream
from .errors import LengthMismatch, MissingClass
from .featset import FeatureSetConfig, extract_matrix
from .learn.cv_core import FoldResult, SpeakerFrames, weighted_accuracy
from .learn.svm import SvmHyperParams
from .pipeline import SegmentDecision
from .stats import Stats

__all__ = [
    "ConfusionCounts", "RocCurve", "CvReport", "EvalReport", "SpeakerFrames",
    "speaker_frames", "roc_auc",
    "segment_metrics", "frame_metrics",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def tpr(self) -> float:
        pos = self.tp + self.fn
        return self.tp / pos if pos else 0.0

    @property
    def fpr(self) -> float:
        neg = self.fp + self.tn
        return self.fp / neg if neg else 0.0

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "accuracy": self.accuracy, "tpr": self.tpr, "fpr": self.fpr,
        }


@dataclass(frozen=True)
class RocCurve:
    """(FPR, TPR) points for a threshold sweep from +inf to -inf, plus trapezoid AUC."""

    points: np.ndarray  # (n, 2)
    auc: float


@dataclass(frozen=True)
class CvReport:
    folds: list[FoldResult]

    @property
    def weighted_accuracy(self) -> float:
        return weighted_accuracy(self.folds)

    @property
    def min_accuracy(self) -> float:
        return min(f.accuracy for f in self.folds)

    @property
    def max_accuracy(self) -> float:
        return max(f.accuracy for f in self.folds)

    def to_dict(self) -> dict:
        return {
            "weighted_accuracy": self.weighted_accuracy,
            "folds": [
                {
                    "speaker_id": f.speaker_id,
                    "accuracy": f.accuracy,
                    "confirmation_count": f.weight,
                    "n_test_frames": f.n_test,
                }
                for f in self.folds
            ],
        }


def label_sign(label: Label) -> int:
    return 1 if label is Label.CONFIRMATION else -1


def speaker_frames(
    segments: list[AudioSegment], config: FeatureSetConfig, stats: Stats | None = None
) -> list[SpeakerFrames]:
    """Extract per-speaker frame features; fold weight = confirmation segment count.

    Each segment goes through extraction as one block. Speakers without a
    confirmation segment are excluded, as are segments shorter than the
    feature set's context. `stats`, if given, counts frames, vectors and
    formant zero pairs.
    """
    min_frames = config.required_context
    by_speaker: dict[str, list[AudioSegment]] = {}
    for seg in segments:
        by_speaker.setdefault(seg.speaker_id, []).append(seg)
    out = []
    for speaker_id in sorted(by_speaker):
        segs = by_speaker[speaker_id]
        if not any(s.label is Label.CONFIRMATION for s in segs):
            continue
        blocks, labels = [], []
        confirmations = 0
        for seg in segs:
            frames = frame_stream(seg)
            if len(frames) < min_frames:
                continue
            _, rows = extract_matrix(frames, config, stats)
            blocks.append(rows)
            labels.append(np.full(len(rows), label_sign(seg.label)))
            if seg.label is Label.CONFIRMATION:
                confirmations += 1
        if not blocks:
            continue
        out.append(SpeakerFrames(
            speaker_id=speaker_id,
            vectors=np.concatenate(blocks),
            labels=np.concatenate(labels).astype(np.float64),
            weight=float(confirmations),
        ))
    return out


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC curve and trapezoid AUC from decision values and +1/-1 labels.

    Thresholds sweep the unique score values from high to low; tied scores
    flip together. Each tie group ends where the next sorted score differs;
    the positives counted up to that end give tp, the rest fp.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.size != labels.size:
        raise LengthMismatch(f"{scores.size} scores vs {labels.size} labels")
    n_pos = int(np.sum(labels > 0))
    n_neg = int(np.sum(labels < 0))
    if n_pos == 0 or n_neg == 0:
        raise MissingClass("ROC needs both classes")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), scores.size - 1)
    tp = np.cumsum(labels[order] > 0)[ends]
    pts = np.zeros((ends.size + 1, 2))
    pts[1:, 0] = (ends + 1 - tp) / n_neg
    pts[1:, 1] = tp / n_pos
    x, y = pts[:, 0], pts[:, 1]
    auc = float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))
    return RocCurve(points=pts, auc=auc)


def segment_metrics(
    decisions: list[SegmentDecision], truth: list[Label]
) -> ConfusionCounts:
    """Confusion counts at segment granularity: each decided label counts as a score of +-1."""
    if len(decisions) != len(truth):
        raise LengthMismatch(f"{len(decisions)} decisions vs {len(truth)} labels")
    return frame_metrics(np.array([label_sign(d.decided_label) for d in decisions]),
                         np.array([label_sign(label) for label in truth]))


def frame_metrics(scores: np.ndarray, labels: np.ndarray) -> ConfusionCounts:
    """Confusion counts for frame scores thresholded at zero."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.size != labels.size:
        raise LengthMismatch(f"{scores.size} scores vs {labels.size} labels")
    predicted = scores > 0.0
    actual = labels > 0
    return ConfusionCounts(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


@dataclass(frozen=True)
class EvalReport:
    """Everything the evaluation harness measures for one feature set."""

    feature_kind: str
    raw_dimension: int
    model_dimension: int
    params: SvmHyperParams
    cv: CvReport | None
    frame_confusion: ConfusionCounts
    roc: RocCurve
    segment_confusion: ConfusionCounts
    segment_roc: RocCurve | None = None  # max-rolling-mean scores, behind a CLI flag

    def to_dict(self) -> dict:
        return {
            "feature_kind": self.feature_kind,
            "raw_dimension": self.raw_dimension,
            "model_dimension": self.model_dimension,
            "params": self.params.to_dict(),
            "cv": self.cv.to_dict() if self.cv else None,
            "frame": self.frame_confusion.to_dict(),
            "roc_auc": self.roc.auc,
            "segment": self.segment_confusion.to_dict(),
            "segment_roc_auc": self.segment_roc.auc if self.segment_roc else None,
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def save_roc_csv(self, path: str | Path) -> None:
        with Path(path).open("w") as fh:
            fh.write("fpr,tpr\n")
            for fpr, tpr in self.roc.points:
                fh.write(f"{fpr:.10g},{tpr:.10g}\n")
