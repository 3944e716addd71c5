"""Soft-margin RBF-SVM trained with sequential minimal optimization.

The dual problem  min 1/2 a'Qa - e'a  s.t. y'a = 0, 0 <= a <= C  (with
Q_ij = y_i y_j K_ij) is solved by repeatedly optimizing the maximal
KKT-violating pair: i maximizing and j minimizing -y grad over the
admissible index sets. Convergence is declared when the violation gap
drops to the stopping tolerance. The kernel matrix is precomputed, which
keeps per-iteration cost at two cached columns.

The iterates do not depend on the tolerance, which only decides when the
loop stops. `smo_path` therefore runs once for several tolerances and
snapshots the solution at the first iteration whose gap is within each;
`smo_solve` is that loop with one tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceFailure, DimensionMismatch, SingleClass

MAX_ITERATIONS = 1_000_000
_SNAP = 1e-12  # relative distance at which alphas snap onto a box bound


@dataclass(frozen=True)
class SvmHyperParams:
    """Regularization C, SMO stopping tolerance eps, RBF width gamma."""

    C: float
    eps: float
    gamma: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.C, self.eps, self.gamma)):
            raise ValueError(f"hyperparameters must be finite and positive, got {self}")

    def to_dict(self) -> dict:
        return {"C": self.C, "eps": self.eps, "gamma": self.gamma}

    @staticmethod
    def from_dict(data: dict) -> "SvmHyperParams":
        return SvmHyperParams(C=data["C"], eps=data["eps"], gamma=data["gamma"])


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier: f(x) = sum_i w_i K(s_i, x) + b with w_i = alpha_i y_i."""

    support_vectors: np.ndarray  # (m, d)
    alphas_signed: np.ndarray    # (m,)
    bias: float
    gamma: float

    @property
    def dimension(self) -> int:
        return self.support_vectors.shape[1]


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (len(a), len(b))."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    # (|a|^2 + |b|^2) - 2 a.b, clipped at 0, in two (len(a), len(b)) buffers
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    gram = a @ b.T
    gram *= 2.0
    d2 -= gram
    return np.maximum(d2, 0.0, out=d2)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * squared_distances(a, b))


def smo_path(
    kernel: np.ndarray,
    labels: np.ndarray,
    C: float,
    tolerances: list[float],
    max_iterations: int = MAX_ITERATIONS,
) -> list[tuple[np.ndarray, float, int]]:
    """Run SMO once on a precomputed kernel matrix for one or more stopping tolerances.

    Returns one (alpha, bias, iterations) per tolerance, in the given
    order: the solution at the first iteration whose maximal KKT violation
    is within that tolerance, which is what a run stopping there returns.
    Raises ConvergenceFailure when the iteration cap is hit before the
    smallest tolerance is reached.
    """
    y = np.asarray(labels, dtype=np.float64)
    n = y.size
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    pos = y > 0
    pending = sorted(range(len(tolerances)), key=tolerances.__getitem__)  # largest last
    snapshots: list = [None] * len(tolerances)

    for iteration in range(max_iterations):
        score = -y * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0.0))
        low = (~pos & (alpha < C)) | (pos & (alpha > 0.0))
        up_score = np.where(up, score, -np.inf)
        low_score = np.where(low, score, np.inf)
        i = int(np.argmax(up_score))
        j = int(np.argmin(low_score))
        gap = up_score[i] - low_score[j]
        if gap <= tolerances[pending[-1]]:
            bias = float((up_score[i] + low_score[j]) / 2.0)
            while pending and gap <= tolerances[pending[-1]]:
                snapshots[pending.pop()] = (alpha.copy(), bias, iteration)
            if not pending:
                return snapshots
        eta = max(kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j], 1e-12)
        step = gap / eta
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        step = min(step, room_i, room_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        for k in (i, j):
            if alpha[k] < _SNAP * C:
                alpha[k] = 0.0
            elif alpha[k] > C * (1.0 - _SNAP):
                alpha[k] = C
        grad += y * step * (kernel[:, i] - kernel[:, j])

    raise ConvergenceFailure(
        f"SMO did not reach tolerance {tolerances[pending[0]]} within {max_iterations} iterations"
    )


def smo_solve(
    kernel: np.ndarray,
    labels: np.ndarray,
    C: float,
    eps: float,
    max_iterations: int = MAX_ITERATIONS,
) -> tuple[np.ndarray, float, int]:
    """Run SMO on a precomputed kernel matrix.

    Returns (alpha, bias, iterations). Raises ConvergenceFailure when the
    iteration cap is hit before the maximal KKT violation falls to eps.
    """
    return smo_path(kernel, labels, C, [eps], max_iterations)[0]


def support_model(
    vectors: np.ndarray, labels: np.ndarray, alpha: np.ndarray, bias: float, gamma: float
) -> SvmModel:
    """Keep the rows with alpha > 0 of an SMO solution as the model's support vectors.

    Raises ConvergenceFailure when a class ends up with no support vector.
    """
    support = alpha > 0.0
    model = SvmModel(
        support_vectors=vectors[support],
        alphas_signed=(alpha * labels)[support],
        bias=bias,
        gamma=gamma,
    )
    if not (np.any(model.alphas_signed > 0) and np.any(model.alphas_signed < 0)):
        raise ConvergenceFailure("degenerate solution: a class ended up with no support vector")
    return model


def train_svm(
    vectors: np.ndarray,
    labels: np.ndarray,
    params: SvmHyperParams,
    max_iterations: int = MAX_ITERATIONS,
) -> SvmModel:
    """Train on (n, d) vectors with labels in {+1, -1}.

    Vectors are expected to be normalized (and projected, where PCA
    applies) already.
    """
    x = np.asarray(vectors, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DimensionMismatch(f"vectors {x.shape} do not match {y.size} labels")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClass("training data must contain both classes")
    kernel = rbf_kernel(x, x, params.gamma)
    alpha, bias, _ = smo_solve(kernel, y, params.C, params.eps, max_iterations)
    return support_model(x, y, alpha, bias, params.gamma)


def decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Decision function for a batch of row vectors."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.dimension:
        raise DimensionMismatch(f"vector dim {x.shape[1]} != model dim {model.dimension}")
    k = rbf_kernel(x, model.support_vectors, model.gamma)
    return k @ model.alphas_signed + model.bias


def decision_value(model: SvmModel, x: np.ndarray) -> float:
    """Decision function for one vector; positive means confirmation."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch("decision_value expects a single vector")
    if x.size != model.dimension:
        raise DimensionMismatch(f"vector dim {x.size} != model dim {model.dimension}")
    diff = model.support_vectors - x
    k = np.exp(-model.gamma * (diff * diff).sum(axis=1))
    return float(k @ model.alphas_signed + model.bias)
