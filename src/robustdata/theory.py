"""The robust/non-robust feature abstraction model and its closed forms.

The data model has one strongly label-correlated coordinate x1 (equals y
with probability p) and d weakly correlated coordinates. Three sampling
modes:

  * gaussian          x_i ~ N(mu * y, 1)           (the base model)
  * general-symmetric x_i ~ mu * y + symmetric     (uniform/laplace/gaussian)
  * robust-star       x_i = 1                      (the analytically optimal
                                                    robust dataset: strong
                                                    feature kept, weak ones
                                                    made uninformative)

Closed forms implemented below, for weight vectors with equal tail
weights c: natural accuracy, and robust accuracy under the worst-case
l-infinity perturbation delta = -eps * sign(y*w). The robust case shifts
the weak-feature mean from mu to mu - eps and moves x1 to y*(1 -+ eps).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attacks import AttackConfig, robust_accuracy
from .dataset import Dataset
from .errors import ParameterError
from .models import LinearClassifier, TrainConfig, accuracy, sgd_train
from .rng import RngStream

GAUSSIAN = "gaussian"
GENERAL_SYMMETRIC = "general-symmetric"
ROBUST_STAR = "robust-star"

_LAW_KINDS = ("gaussian", "uniform", "laplace")


def phi(x: float) -> float:
    """Standard normal CDF; erf-based, absolute error below 1e-12."""
    return 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2.0)))


@dataclass
class DistributionSpec:
    """Parameters of the abstraction model (total width d + 1)."""

    d: int
    mu: float = 0.0
    p: float = 0.9
    mode: str = GAUSSIAN
    law: str = "gaussian"  # tail law for general-symmetric mode

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")
        if not abs(self.mu) < np.inf:  # abs(nan) < inf is False too
            raise ParameterError(f"mu must be finite, got {self.mu}")
        if not 0.5 < self.p <= 1.0:
            raise ParameterError(f"p must be in (0.5, 1], got {self.p}")
        if self.mode not in (GAUSSIAN, GENERAL_SYMMETRIC, ROBUST_STAR):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.mode == GENERAL_SYMMETRIC:
            if self.law not in _LAW_KINDS:
                raise ParameterError(f"unknown symmetric law {self.law!r}")
            if abs(self.mu) > 1.0:
                raise ParameterError("symmetric tail mean must satisfy |mu| <= 1")


def _centered_unit_variance(law: str, rng: RngStream, shape) -> np.ndarray:
    if law == "gaussian":
        return rng.normal(0.0, 1.0, shape)
    if law == "uniform":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), shape)
    if law == "laplace":
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), shape)
    raise ParameterError(f"unknown symmetric law {law!r}")


def check_sample_size(n: int, name: str = "n") -> None:
    """A sample holds at least one point."""
    if n < 1:
        raise ParameterError(f"{name} must be >= 1, got {n}")


def sample(spec: DistributionSpec, n: int, rng: RngStream) -> Dataset:
    """Draw n labeled points. Draw order is fixed: labels, x1 flips, tails."""
    check_sample_size(n)
    seed, counter = rng.seed, rng.counter
    y = rng.rademacher(n)
    keep = 2.0 * rng.bernoulli(spec.p, n) - 1.0  # +1 keep, -1 flip
    x1 = y * keep

    if spec.mode == ROBUST_STAR:
        tails = np.ones((n, spec.d))
    else:  # the gaussian mode is the general-symmetric one with a gaussian law
        law = spec.law if spec.mode == GENERAL_SYMMETRIC else "gaussian"
        tails = spec.mu * y[:, None] + _centered_unit_variance(law, rng, (n, spec.d))

    features = np.concatenate([x1[:, None], tails], axis=1)
    provenance = {
        "generator": "distribution",
        "mode": spec.mode,
        "d": spec.d,
        "mu": spec.mu,
        "p": spec.p,
        "law": spec.law if spec.mode == GENERAL_SYMMETRIC else None,
        "seed": seed,
        "counter": counter,
    }
    return Dataset(features, y.astype(np.int64), None, provenance)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def optimal_linf_perturbation(w: np.ndarray, y: int, eps: float) -> np.ndarray:
    """Worst-case l-infinity perturbation of the hinge: delta = -eps * sign(y*w)."""
    if not 0 < eps < np.inf:  # as AttackConfig: `eps <= 0` is False for NaN
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    return -eps * np.sign(float(y) * np.asarray(w, dtype=np.float64))


def closed_form_accuracies(w: np.ndarray, spec: DistributionSpec, eps: float) -> tuple[float, float]:
    """(natural, robust) accuracy of an equal-tail-weight linear classifier.

    Tail weights may deviate from their mean by up to 0.25 of the weight
    scale; the mean is used as the common value c. eps is >= 0, inf allowed.
    """
    if not eps >= 0:  # False for NaN
        raise ParameterError(f"eps must be >= 0, got {eps}")
    if spec.mode != GAUSSIAN:
        raise ParameterError("closed forms cover the gaussian model only")
    w = np.asarray(w, dtype=np.float64)
    if w.size != spec.d + 1:
        raise ParameterError(f"weight length {w.size} does not match d+1={spec.d + 1}")
    w1, tail = float(w[0]), w[1:]
    c = float(tail.mean())
    if c < 0:
        raise ParameterError(f"tail weight must be nonnegative, got mean {c}")
    scale = max(abs(w1), abs(c), 1e-12)
    if np.max(np.abs(tail - c)) > 0.25 * scale:
        raise ParameterError("tail weights deviate too much from a common value")

    d, mu, p = spec.d, spec.mu, spec.p
    sqd = math.sqrt(d)
    if c == 0.0:
        if w1 == 0.0:
            raise ParameterError("w must not be identically zero")
        natural = p if w1 > 0 else 1.0 - p
        # budget >= 1 flips the strong feature, so nothing survives
        robust = natural if eps < 1.0 else 0.0
        return natural, robust

    r = w1 / c
    natural = p * phi((r + d * mu) / sqd) + (1.0 - p) * phi((-r + d * mu) / sqd)
    # worst case: x1 -> y*(1 -+ eps) and weak means mu -> mu - eps
    shift = eps * abs(r) if r else 0.0  # inf * 0 is NaN
    robust = p * phi((r - shift + d * (mu - eps)) / sqd) + (1.0 - p) * phi(
        (-r - shift + d * (mu - eps)) / sqd
    )
    return natural, robust


def corner_oracle_gap(rng: RngStream, tuples: int, d_max: int, eps_max: float) -> float:
    """Largest |hinge at optimal_linf_perturbation - max hinge over the ball's corners| in `tuples` draws."""
    worst = 0.0
    for _ in range(tuples):
        d = int(rng.integers(1, d_max))
        w = rng.normal(0.0, 1.0, (d + 1,))
        x = rng.normal(0.0, 1.0, (d + 1,))
        y = 1 if rng.uniform(0, 1, ()) < 0.5 else -1
        eps = float(rng.uniform(0.05, eps_max, ()))
        delta = optimal_linf_perturbation(w, y, eps)
        attained = max(0.0, 1.0 - y * float(np.dot(w, x + delta)))
        corners = eps * np.array(list(itertools.product([-1, 1], repeat=d + 1)))
        best = float(np.max(np.maximum(0.0, 1.0 - y * ((x[None, :] + corners) @ w))))
        worst = max(worst, abs(attained - best))
    return worst


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def natural_svm(train: Dataset, test: Dataset, cfg: TrainConfig, attack: AttackConfig):
    """(model, natural accuracy, PGD robust accuracy on `test`) of a zero-start linear SVM trained on `train`."""
    model, _ = sgd_train(LinearClassifier.zeros(train.width), train, cfg)
    return model, accuracy(model, test), robust_accuracy(model, test, attack)


@dataclass
class WeightStructureReport:
    """Outcome of the four weight-structure checks plus measured statistics."""

    tail_equal: bool
    nonnegative: bool
    ordering: bool
    tail_vanishing: bool
    w1: float
    tail_mean: float
    tail_std: float
    tail_cv: float
    tail_min: float
    tail_max_abs: float

    def to_kv_lines(self, prefix: str = "weights") -> list[str]:
        out = []
        for name, value in self.__dict__.items():
            if isinstance(value, bool):
                out.append(f"{prefix}.{name}={int(value)}")
            else:
                out.append(f"{prefix}.{name}={value:.6g}")
        return out


def verify_weight_structure(w: np.ndarray, d: int) -> WeightStructureReport:
    """Check a weight vector against the optimal-SVM structure results.

    Naturally trained weights should have equal, nonnegative tail weights
    with w1 < sqrt(d) * tail; robust-dataset weights should instead have a
    vanishing tail and positive w1. Tolerances: the tails' coefficient of
    variation at most 0.2, a nonnegativity slack of 1e-3, w1 below 1.1 *
    sqrt(d) * tail mean, and a vanishing tail at most 0.05 * |w1|.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size != d + 1:
        raise ParameterError(f"weight length {w.size} does not match d+1={d + 1}")
    w1, tail = float(w[0]), w[1:]
    tail_mean = float(tail.mean())
    tail_std = float(tail.std())
    cv = tail_std / abs(tail_mean) if tail_mean != 0 else math.inf

    return WeightStructureReport(
        tail_equal=cv <= 0.2,
        nonnegative=bool(tail.min() >= -1e-3 and w1 >= -1e-3),
        ordering=bool(w1 < 1.1 * math.sqrt(d) * tail_mean),
        tail_vanishing=bool(np.max(np.abs(tail)) <= 0.05 * abs(w1)),
        w1=w1,
        tail_mean=tail_mean,
        tail_std=tail_std,
        tail_cv=cv,
        tail_min=float(tail.min()),
        tail_max_abs=float(np.max(np.abs(tail))),
    )


# ---------------------------------------------------------------------------
# symmetric-sum check
# ---------------------------------------------------------------------------


@dataclass
class SymmetricLaw:
    kind: str
    mean: float = 0.0

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise ParameterError(f"unknown symmetric law {self.kind!r}")

    def draw(self, n: int, rng: RngStream) -> np.ndarray:
        """n draws of unit variance about `mean`."""
        return self.mean + _centered_unit_variance(self.kind, rng, n)


@dataclass
class SymmetricSumReport:
    skewness: float
    n: int

    @property
    def symmetric(self) -> bool:
        return abs(self.skewness) <= 0.05

    def to_kv_lines(self) -> list[str]:
        return [
            f"symmetric_sum.skewness={self.skewness:.6g}",
            f"symmetric_sum.n={self.n}",
            f"symmetric_sum.symmetric={int(self.symmetric)}",
        ]


def symmetric_sum_check(laws: Sequence[SymmetricLaw], n: int, rng: RngStream) -> SymmetricSumReport:
    """Empirical skewness of a sum of independent symmetric draws.

    A symmetric distribution has zero third central moment, and sums of
    independent symmetric distributions stay symmetric; the check
    estimates the standardized skewness of the centered sum and calls the
    sum symmetric when its absolute value is at most 0.05.
    """
    if not laws:
        raise ParameterError("need at least one law")
    total = np.zeros(n)
    for law in laws:
        total += law.draw(n, rng)
    centered = total - total.mean()
    std = centered.std()
    if std == 0:
        return SymmetricSumReport(0.0, n)
    skew = float(np.mean(centered**3) / std**3)
    return SymmetricSumReport(skew, n)
