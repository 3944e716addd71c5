"""The fit path and the leave-one-speaker-out fold engine.

`fit_chain` is the parameter-free part of training: the frames are
class-balanced, and normalization (and PCA keeping PCA_EPSILON of the
variance, when the feature set calls for it) is fitted on the balanced
set. `fit_bundle` is that chain plus `train_svm`, the one way a model is
trained for `train` and `evaluate`. Callers hand in per-speaker
matrices, labels and fold weights, so the module needs no corpus or
audio code.

`run_louo_folds` scores a whole grid of SVM parameters in one pass over
the folds. Each fold fits on every other speaker and scores the held-out
speaker's frames unbalanced. The chain and the squared-distance matrix
do not depend on the SVM parameters, so each fold builds them once, takes
one RBF kernel per gamma and one SMO run per (C, gamma), which yields
the models of every eps (`smo_path`). Every model is bit for bit the one
`fit_bundle` trains for its point. Scoring works on blocks too: the
held-out rows are projected once per fold, and each gamma takes one
kernel against the union of its models' support rows and one product of
it with all its models' signed alphas. Those values match `decide_many`
up to the low bits, and fold accuracy counts signs only.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, MissingClass
from ..featset import FeatureSetConfig
from .model_io import ModelBundle
from .normalize import NormalizerStats, fit_normalizer
from .pca import PcaTransform, fit_pca
from .svm import (SvmHyperParams, SvmModel, rbf_kernel, smo_path, squared_distances,
                  support_model, train_svm)

PCA_EPSILON = 0.95  # retained-variance ratio of every PCA feature set


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


def _balanced_rows(labels: np.ndarray, seed: int) -> np.ndarray:
    """Sorted indices of the rows kept when the majority class is subsampled to the minority count.

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
    return np.sort(np.concatenate([pos_idx, neg_idx]))


@dataclass(frozen=True)
class FitChain:
    """The balanced training rows after normalization (and PCA), with the fitted transforms."""

    normalizer: NormalizerStats
    pca: PcaTransform | None
    vectors: np.ndarray  # (n, d) projected rows
    labels: np.ndarray   # (n,)


def fit_chain(
    speakers: list[SpeakerFrames],
    config: FeatureSetConfig,
    *,
    seed: int,
) -> FitChain:
    """Balance -> normalize -> PCA (for PCA feature sets) on the speakers' frames.

    Balancing picks rows by label first, so only the kept rows are
    gathered. Raises DataError when no speaker is given.
    """
    if not speakers:
        raise DataError("no usable training data (no speaker with confirmations)")
    y = np.concatenate([s.labels for s in speakers])
    keep = _balanced_rows(y, seed)
    starts = np.cumsum([0] + [s.labels.size for s in speakers])
    bal_x = np.concatenate([
        s.vectors[keep[(keep >= lo) & (keep < hi)] - lo]
        for s, lo, hi in zip(speakers, starts[:-1], starts[1:])
    ])
    normalizer = fit_normalizer(bal_x)
    projected = normalizer.transform(bal_x)
    pca = None
    if config.uses_pca:
        pca = fit_pca(projected, PCA_EPSILON)
        projected = pca.transform(projected)
    return FitChain(normalizer=normalizer, pca=pca, vectors=projected, labels=y[keep])


def fit_bundle(
    speakers: list[SpeakerFrames],
    config: FeatureSetConfig,
    params: SvmHyperParams,
    *,
    seed: int,
) -> ModelBundle:
    """`fit_chain` then `train_svm` on the speakers' frames.

    Raises DataError when no speaker is given.
    """
    chain = fit_chain(speakers, config, seed=seed)
    return ModelBundle(
        feature_config=config,
        hyperparams=params,
        normalizer=chain.normalizer,
        pca=chain.pca,
        svm=train_svm(chain.vectors, chain.labels, params),
    )


def _fold_seed(seed: int, speaker_id: str) -> int:
    # stable across processes (unlike hash())
    return int(np.random.SeedSequence([seed, zlib.crc32(speaker_id.encode())]).generate_state(1)[0])


def _grid_models(
    chain: FitChain, grid: Sequence[SvmHyperParams]
) -> tuple[list[SvmModel], list[np.ndarray]]:
    """One SVM per grid point from one distance matrix and one SMO run per (C, gamma).

    Also returns each model's support mask (alpha > 0) over the chain's rows.
    """
    x = np.asarray(chain.vectors, dtype=np.float64)  # as train_svm takes them
    y = np.asarray(chain.labels, dtype=np.float64)
    runs: dict[float, dict[float, list[int]]] = {}
    for index, params in enumerate(grid):
        runs.setdefault(params.gamma, {}).setdefault(params.C, []).append(index)
    d2 = squared_distances(x, x)
    kernel = np.empty_like(d2)
    svms: list[SvmModel | None] = [None] * len(grid)
    supports: list[np.ndarray | None] = [None] * len(grid)
    for gamma, by_c in runs.items():
        np.multiply(d2, -gamma, out=kernel)  # the bits of rbf_kernel(x, x, gamma)
        np.exp(kernel, out=kernel)
        for C, indices in by_c.items():
            snapshots = smo_path(kernel, y, C, [grid[k].eps for k in indices])
            for k, (alpha, bias, _) in zip(indices, snapshots):
                svms[k] = support_model(x, y, alpha, bias, gamma)
                supports[k] = alpha > 0.0
    return svms, supports


def run_louo_folds(
    speakers: list[SpeakerFrames],
    config: FeatureSetConfig,
    points: Sequence[SvmHyperParams],
    *,
    seed: int = 0,
) -> list[list[FoldResult]]:
    """One fold per speaker: fit every point on the rest, score the speaker unbalanced.

    Returns each point's folds, in the order of `points`. A fold runs
    `fit_chain` once and builds all its models before the training
    distance matrix and kernel are dropped. The fold's models share one
    normalizer and PCA, so the held-out rows are projected once. Per
    gamma, one kernel between them and the union of that gamma's support
    rows, times one (union, models) matrix of signed alphas that is zero
    off each model's support, gives every model's values in one product.
    These differ from `decide_many` in the low bits only (the BLAS sums
    run over the union, zeros included); fold accuracy counts signs.
    """
    if len(speakers) < 2:
        raise MissingClass("leave-one-user-out needs at least two speakers")
    results: list[list[FoldResult]] = [[] for _ in points]
    for held_out in speakers:
        rest = [s for s in speakers if s.speaker_id != held_out.speaker_id]
        chain = fit_chain(rest, config, seed=_fold_seed(seed, held_out.speaker_id))
        svms, supports = _grid_models(chain, points)
        z = chain.normalizer.transform(held_out.vectors)  # as ModelBundle.project
        if chain.pca is not None:
            z = chain.pca.transform(z)
        for gamma in dict.fromkeys(p.gamma for p in points):
            members = [k for k, p in enumerate(points) if p.gamma == gamma]
            union = np.logical_or.reduce([supports[k] for k in members])
            kernel = rbf_kernel(z, chain.vectors[union], gamma)
            signed = np.zeros((np.count_nonzero(union), len(members)))
            for column, k in enumerate(members):
                signed[supports[k][union], column] = svms[k].alphas_signed
            values = kernel @ signed
            values += [svms[k].bias for k in members]
            predicted = np.where(values > 0.0, 1.0, -1.0)
            accuracies = np.mean(predicted == held_out.labels[:, None], axis=0)
            for column, k in enumerate(members):
                results[k].append(FoldResult(
                    speaker_id=held_out.speaker_id,
                    accuracy=float(accuracies[column]),
                    weight=held_out.weight,
                    n_test=held_out.labels.size,
                ))
    return results


def _sum_in_order(values) -> float:
    """Left-to-right float sum: the same bits on every Python (`sum()` compensates from 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


def weighted_accuracy(folds: list[FoldResult]) -> float:
    """Fold accuracies weighted by confirmation counts, normalized to [0, 1]."""
    total = _sum_in_order(f.weight for f in folds)
    if total <= 0:
        return float(np.mean([f.accuracy for f in folds]))
    return _sum_in_order(f.accuracy * f.weight for f in folds) / total
