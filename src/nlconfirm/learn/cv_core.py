"""The fit path and the leave-one-speaker-out fold engine.

`fit_bundle` is the one way a model is trained: the frames are
class-balanced, normalization (and PCA, when the feature set calls for
it) is fitted on the balanced set and the SVM is trained on the result.
`train`, `evaluate`, cross-validation and the grid search all call it.
Callers hand in per-speaker matrices, labels and fold weights, so the
module needs no corpus or audio code. Each fold fits on every other
speaker and scores the held-out speaker's frames unbalanced.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, MissingClass
from ..featset import FeatureSetConfig
from .model_io import ModelBundle
from .normalize import fit_normalizer
from .pca import fit_pca
from .svm import SvmHyperParams, train_svm


@dataclass(frozen=True)
class SpeakerFrames:
    """All frame features of one speaker, plus the fold weight (confirmation count)."""

    speaker_id: str
    vectors: np.ndarray  # (n, d)
    labels: np.ndarray   # (n,) in {+1, -1}
    weight: float


@dataclass(frozen=True)
class FoldResult:
    speaker_id: str
    accuracy: float
    weight: float
    n_test: int


def balance_classes(
    vectors: np.ndarray, labels: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly subsample the majority class down to the minority count.

    In practice the majority is the "other" class, whose frames are
    discarded to match the confirmation frame count. Deterministic for a
    given seed; raises MissingClass when a class is absent.
    """
    labels = np.asarray(labels)
    pos_idx = np.flatnonzero(labels > 0)
    neg_idx = np.flatnonzero(labels < 0)
    if pos_idx.size == 0 or neg_idx.size == 0:
        raise MissingClass("both classes are required for balancing")
    rng = np.random.default_rng(seed)
    if pos_idx.size < neg_idx.size:
        neg_idx = np.sort(rng.choice(neg_idx, size=pos_idx.size, replace=False))
    elif neg_idx.size < pos_idx.size:
        pos_idx = np.sort(rng.choice(pos_idx, size=neg_idx.size, replace=False))
    keep = np.sort(np.concatenate([pos_idx, neg_idx]))
    return vectors[keep], labels[keep]


def fit_bundle(
    speakers: list[SpeakerFrames],
    config: FeatureSetConfig,
    params: SvmHyperParams,
    *,
    seed: int,
    pca_epsilon: float,
) -> ModelBundle:
    """Balance -> normalize -> PCA (for PCA feature sets) -> SVM on the speakers' frames.

    Raises DataError when no speaker is given.
    """
    if not speakers:
        raise DataError("no usable training data (no speaker with confirmations)")
    x = np.concatenate([s.vectors for s in speakers])
    y = np.concatenate([s.labels for s in speakers])
    bal_x, bal_y = balance_classes(x, y, seed)
    normalizer = fit_normalizer(bal_x)
    projected = normalizer.transform(bal_x)
    pca = None
    if config.uses_pca:
        pca = fit_pca(projected, pca_epsilon)
        projected = pca.transform(projected)
    return ModelBundle(
        feature_config=config,
        hyperparams=params,
        normalizer=normalizer,
        pca=pca,
        svm=train_svm(projected, bal_y, params),
    )


def _fold_seed(seed: int, speaker_id: str) -> int:
    # stable across processes (unlike hash())
    return int(np.random.SeedSequence([seed, zlib.crc32(speaker_id.encode())]).generate_state(1)[0])


def run_louo_folds(
    speakers: list[SpeakerFrames],
    config: FeatureSetConfig,
    params: SvmHyperParams,
    *,
    pca_epsilon: float = 0.95,
    seed: int = 0,
) -> list[FoldResult]:
    """One fold per speaker: fit_bundle on the rest, score the speaker unbalanced.

    Fold accuracy counts signs only, so the held-out frames are scored in
    one batch (`decide_many`).
    """
    if len(speakers) < 2:
        raise MissingClass("leave-one-user-out needs at least two speakers")
    results = []
    for held_out in speakers:
        rest = [s for s in speakers if s.speaker_id != held_out.speaker_id]
        bundle = fit_bundle(rest, config, params, seed=_fold_seed(seed, held_out.speaker_id),
                            pca_epsilon=pca_epsilon)
        predicted = np.where(bundle.decide_many(held_out.vectors) > 0.0, 1.0, -1.0)
        accuracy = float(np.mean(predicted == held_out.labels))
        results.append(FoldResult(
            speaker_id=held_out.speaker_id,
            accuracy=accuracy,
            weight=held_out.weight,
            n_test=held_out.labels.size,
        ))
    return results


def weighted_accuracy(folds: list[FoldResult]) -> float:
    """Fold accuracies weighted by confirmation counts, normalized to [0, 1]."""
    total = sum(f.weight for f in folds)
    if total <= 0:
        return float(np.mean([f.accuracy for f in folds]))
    return sum(f.accuracy * f.weight for f in folds) / total
