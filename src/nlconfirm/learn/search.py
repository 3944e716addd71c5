"""Hyperparameter grid search scored by cross-validated weighted accuracy.

The whole grid goes to the fold engine in one call, so each fold's fit
chain and distance matrix are shared by every point, and one SMO run per
(C, gamma) gives the models of all eps values (see `cv_core`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..featset import FeatureKind, FeatureSetConfig
from .cv_core import FoldResult, SpeakerFrames, run_louo_folds, weighted_accuracy
from .svm import SvmHyperParams

GRID_C = (1.0, 5.0)
GRID_EPS = (0.005, 0.05, 0.1, 0.5)
GRID_GAMMA = (0.005, 0.05)

DEFAULT_GRID: tuple[SvmHyperParams, ...] = tuple(
    SvmHyperParams(C=c, eps=e, gamma=g)
    for c, e, g in sorted(itertools.product(GRID_C, GRID_EPS, GRID_GAMMA))
)

# shipped per-feature-set defaults (the grid winners used when no explicit
# parameters and no fresh search are requested)
DEFAULT_SVM_PARAMS: dict[FeatureKind, SvmHyperParams] = {
    FeatureKind.MFCC: SvmHyperParams(C=1.0, eps=0.5, gamma=0.005),
    FeatureKind.MFCC_DELTA: SvmHyperParams(C=1.0, eps=0.1, gamma=0.005),
    FeatureKind.STACKED_MFCC: SvmHyperParams(C=1.0, eps=0.5, gamma=0.005),
    FeatureKind.FORMANT_SD: SvmHyperParams(C=5.0, eps=0.005, gamma=0.05),
    FeatureKind.STACKED_FORMANTS: SvmHyperParams(C=1.0, eps=0.5, gamma=0.05),
    FeatureKind.PITCH: SvmHyperParams(C=5.0, eps=0.005, gamma=0.05),
    FeatureKind.STACKED_PITCH: SvmHyperParams(C=5.0, eps=0.5, gamma=0.05),
}


@dataclass(frozen=True)
class GridPoint:
    params: SvmHyperParams
    weighted_accuracy: float
    folds: list[FoldResult]


@dataclass(frozen=True)
class GridSearchResult:
    best_point: GridPoint
    points: list[GridPoint]

    @property
    def best(self) -> SvmHyperParams:
        return self.best_point.params


def grid_search(
    speakers: list[SpeakerFrames],
    config: FeatureSetConfig,
    *,
    seed: int = 0,
) -> GridSearchResult:
    """Score every DEFAULT_GRID point by leave-one-user-out weighted accuracy.

    Ties go to the lexicographically smaller (C, eps, gamma) triple; the
    grid is built in that order, so the first strict maximum wins.
    """
    per_point = run_louo_folds(speakers, config, DEFAULT_GRID, seed=seed)
    points: list[GridPoint] = []
    best: GridPoint | None = None
    for params, folds in zip(DEFAULT_GRID, per_point):
        point = GridPoint(params=params, weighted_accuracy=weighted_accuracy(folds), folds=folds)
        points.append(point)
        if best is None or point.weighted_accuracy > best.weighted_accuracy:
            best = point
    assert best is not None
    return GridSearchResult(best_point=best, points=points)
