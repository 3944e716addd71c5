"""Soft-margin RBF-SVM trained with sequential minimal optimization.

The dual problem  min 1/2 a'Qa - e'a  s.t. y'a = 0, 0 <= a <= C  (with
Q_ij = y_i y_j K_ij) is solved by repeatedly optimizing the maximal
KKT-violating pair: i maximizing and j minimizing -y grad over the
admissible index sets. Convergence is declared when the violation gap
drops to the stopping tolerance. The kernel matrix is precomputed and
symmetric, so an iteration reads two contiguous kernel rows (as LIBSVM's
solver reads rows of Q); its scalar work runs on Python floats. The loop
keeps no gradient: two arrays hold the score -y grad, one on the up set
and -inf off it, one on the low set and +inf off it. Each iteration
updates both in place with one kernel-row difference, and a row that
changes sets takes its score from the other array. The iterates carry
the bits of the gradient form: only an exactly zero score can differ,
in its sign, and scores are signed on reading.

`squared_distances` writes its result over the Gram matrix in row
chunks, so it needs one output-sized buffer, and `rbf_kernel`
exponentiates that buffer in place.

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
_CHUNK_ELEMENTS = 1 << 15  # differences per batch-scoring chunk (256 KiB, kept in cache)
_DISTANCE_CHUNK_ELEMENTS = 1 << 13  # distances per chunk of squared_distances (64 KiB)


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
    """Pairwise squared Euclidean distances, (len(a), len(b)).

    (|a|^2 + |b|^2) - 2 a.b, clipped at 0, written over the Gram matrix a @ b.T
    in row chunks of about _DISTANCE_CHUNK_ELEMENTS, so the result is the one
    (len(a), len(b)) buffer.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    sq_a, sq_b = (a * a).sum(axis=1), (b * b).sum(axis=1)
    d2 = a @ b.T
    rows = max(1, _DISTANCE_CHUNK_ELEMENTS // max(1, d2.shape[1]))
    for lo in range(0, d2.shape[0], rows):
        gram = d2[lo:lo + rows]
        gram *= 2.0
        np.subtract(sq_a[lo:lo + rows, None] + sq_b, gram, out=gram)
        np.maximum(gram, 0.0, out=gram)
    return d2


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    kernel = squared_distances(a, b)
    kernel *= -gamma
    return np.exp(kernel, out=kernel)


def smo_path(
    kernel: np.ndarray,
    labels: np.ndarray,
    C: float,
    tolerances: list[float],
) -> list[tuple[np.ndarray, float, int]]:
    """Run SMO once on a precomputed kernel matrix for one or more stopping tolerances.

    Returns one (alpha, bias, iterations) per tolerance, in the given
    order: the solution at the first iteration whose maximal KKT violation
    is within that tolerance, which is what a run stopping there returns.
    Raises ConvergenceFailure when MAX_ITERATIONS iterations pass before
    the smallest tolerance is reached, and ValueError when no tolerance is
    given.

    The kernel must be a bitwise symmetric float64 matrix, as
    `rbf_kernel(x, x, gamma)` and `squared_distances(x, x)` build it
    (numpy computes x @ x.T with a symmetric rank-k update): the loop
    reads row i where the column K[:, i] is meant.
    """
    if not tolerances:
        raise ValueError("smo_path needs at least one tolerance")
    y = np.asarray(labels, dtype=np.float64)
    pos = y > 0
    # -y * grad on each admissible set, -inf / +inf off it. At alpha = 0 the
    # gradient is -1, so the score is y: up holds the positive rows, low the negative
    up_score = np.where(pos, y, -np.inf)
    low_score = np.where(pos, np.inf, y)
    change = np.empty(y.size)
    # scalar work on Python floats: the same doubles as numpy scalars, without their overhead
    C = float(C)
    alpha = [0.0] * y.size
    y_list, pos_list = y.tolist(), pos.tolist()
    up, low = pos_list.copy(), [not p for p in pos_list]
    diagonal = kernel.diagonal().tolist()
    snap_low, snap_high = _SNAP * C, C * (1.0 - _SNAP)
    pending = sorted(range(len(tolerances)), key=tolerances.__getitem__)  # largest last
    snapshots: list = [None] * len(tolerances)

    for iteration in range(MAX_ITERATIONS):
        i = int(up_score.argmax())
        j = int(low_score.argmin())
        # an exactly zero score takes the sign of -y * (+0.0), as -y * grad gives it
        score_i = up_score.item(i) or (-0.0 if pos_list[i] else 0.0)
        score_j = low_score.item(j) or (-0.0 if pos_list[j] else 0.0)
        gap = score_i - score_j
        if gap <= tolerances[pending[-1]]:
            bias = (score_i + score_j) / 2.0
            while pending and gap <= tolerances[pending[-1]]:
                snapshots[pending.pop()] = (np.array(alpha), bias, iteration)
            if not pending:
                return snapshots
        row_i, row_j = kernel[i], kernel[j]
        eta = max(diagonal[i] + diagonal[j] - 2.0 * row_i.item(j), 1e-12)
        step = gap / eta
        room_i = C - alpha[i] if pos_list[i] else alpha[i]
        room_j = alpha[j] if pos_list[j] else C - alpha[j]
        step = min(step, room_i, room_j)
        alpha[i] += y_list[i] * step
        alpha[j] -= y_list[j] * step
        for k in (i, j):
            if alpha[k] < snap_low:
                alpha[k] = 0.0
            elif alpha[k] > snap_high:
                alpha[k] = C
            above_zero, below_c = alpha[k] > 0.0, alpha[k] < C
            in_up = below_c if pos_list[k] else above_zero
            in_low = above_zero if pos_list[k] else below_c
            if in_up != up[k] or in_low != low[k]:
                # every row is in at least one set; a row entering a set takes the
                # score held by the set it was in
                value = up_score.item(k) if up[k] else low_score.item(k)
                up_score[k] = value if in_up else -np.inf
                low_score[k] = value if in_low else np.inf
                up[k], low[k] = in_up, in_low
        # score - step * (K[:, i] - K[:, j]) has the bits of -y * (grad + y * step * d)
        # wherever it is not zero: y = +-1 only flips signs, and rounding is symmetric.
        # Where it cancels to zero the sign can differ, so zeros are signed on reading.
        np.subtract(row_i, row_j, out=change)
        change *= step
        up_score -= change
        low_score -= change

    raise ConvergenceFailure(
        f"SMO did not reach tolerance {tolerances[pending[0]]} within {MAX_ITERATIONS} iterations"
    )


def smo_solve(
    kernel: np.ndarray,
    labels: np.ndarray,
    C: float,
    eps: float,
) -> tuple[np.ndarray, float, int]:
    """Run SMO on a precomputed kernel matrix.

    Returns (alpha, bias, iterations). Raises ConvergenceFailure when
    MAX_ITERATIONS iterations pass before the maximal KKT violation falls
    to eps.
    """
    return smo_path(kernel, labels, C, [eps])[0]


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
    alpha, bias, _ = smo_solve(kernel, y, params.C, params.eps)
    return support_model(x, y, alpha, bias, params.gamma)


def decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Decision function for a batch of row vectors, bitwise equal row by row to `_decision`.

    Each row takes the single-vector arithmetic: differences to the support
    vectors, squared and summed per support vector, exp, then one dot
    product with the signed alphas. Rows go in chunks of at most
    _CHUNK_ELEMENTS differences, so the temporaries stay small.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.dimension:
        raise DimensionMismatch(f"vector dim {x.shape[1]} != model dim {model.dimension}")
    sv = model.support_vectors
    rows = max(1, _CHUNK_ELEMENTS // max(1, sv.size))
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], rows):
        diff = sv[None] - x[lo:lo + rows, None]
        np.multiply(diff, diff, out=diff)
        k = diff.sum(axis=-1)
        k *= -model.gamma
        np.exp(k, out=k)
        out[lo:lo + rows] = np.matmul(k[:, None, :], model.alphas_signed)[:, 0]
    out += model.bias
    return out


def _decision(model: SvmModel, x: np.ndarray) -> float:
    """Decision value of one float64 vector of the model's dimension, unchecked.

    Differences to the support vectors, squared in place and summed per
    support vector, times -gamma, exp, then one dot product with the signed
    alphas plus the bias: the arithmetic `decision_values` repeats per row.
    """
    diff = model.support_vectors - x
    diff *= diff
    k = np.add.reduce(diff, axis=1)
    k *= -model.gamma
    np.exp(k, out=k)
    return float(k @ model.alphas_signed + model.bias)
