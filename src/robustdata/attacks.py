"""Projected gradient descent adversaries and robust-accuracy evaluation.

The PGD update follows the sign-of-gradient rule under l-infinity and a
normalized-gradient step under l2, with projection back to the threat
ball after every step and a final clamp to the value range when one is
configured. Attacks start at the natural point; a random start inside
the ball exists but is off by default.

Attack gradients for hinge-trained models use the raw margin 1 - y*f(x)
rather than its clamped value: the clamp has zero gradient wherever the
model is confident, which would silently mask the attack. On a linear
model the margin direction reproduces the closed-form worst case
delta = -eps * sign(y*w) exactly, so the attained hinge loss equals
max(0, 1 - y*w.x + eps*||w||_1) from any starting point. That input
gradient is -y*w for every row, so it is returned in closed form without
a tape (after checking X and w are finite, as tape leaves would); the
tape form of -sum(y * (X @ w)) is kept in the tests as the bit-exact
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import Dataset
from .errors import ContractError, NonFiniteError, ParameterError
from .models import LinearClassifier, true_class_log_probs
from .rng import RngStream

LINF = "linf"
L2 = "l2"


@dataclass
class AttackConfig:
    norm: str = LINF
    eps: float = 0.1
    alpha: Optional[float] = None  # defaults to eps / 10
    steps: int = 10
    clamp: Optional[tuple[float, float]] = None
    random_start: bool = False

    def __post_init__(self):
        if self.norm not in (LINF, L2):
            raise ParameterError(f"norm must be '{LINF}' or '{L2}', got {self.norm!r}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if self.alpha is None:
            self.alpha = self.eps / 10.0
        if self.alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.clamp is not None and not self.clamp[0] <= self.clamp[1]:
            raise ParameterError(f"invalid clamp {self.clamp}")

    def with_eps(self, eps: float) -> "AttackConfig":
        return AttackConfig(self.norm, eps, None, self.steps, self.clamp, self.random_start)


def _row_norms(x: np.ndarray) -> np.ndarray:
    if x.ndim == 1:
        return np.linalg.norm(x)
    return np.linalg.norm(x, axis=1, keepdims=True)


def project_to_ball(x: np.ndarray, center: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Project onto the threat ball around `center`, then into the value range."""
    x = np.asarray(x, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if x.shape != center.shape:
        raise ContractError(f"shape mismatch {x.shape} vs {center.shape}")
    if cfg.norm == LINF:
        out = np.clip(x, center - cfg.eps, center + cfg.eps)
    else:
        offset = x - center
        norms = _row_norms(offset)
        scale = np.where(norms > cfg.eps, cfg.eps / np.maximum(norms, 1e-300), 1.0)
        out = center + offset * scale
    if cfg.clamp is not None:
        out = np.clip(out, cfg.clamp[0], cfg.clamp[1])
    return out


def attack_gradient(model, params_arrays, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row gradient of the model's attack objective w.r.t. the inputs."""
    if isinstance(model, LinearClassifier):
        # d/dX of the unclamped surrogate -sum(y * (X @ w)) is -y w^T, whatever X is
        if len(params_arrays) != 1:
            raise ParameterError(f"the linear classifier has one weight vector, got {len(params_arrays)} arrays")
        (w,) = params_arrays
        if not (np.isfinite(X).all() and np.isfinite(w).all()):
            raise NonFiniteError("tensor contains NaN or Inf")
        return np.outer(-np.asarray(y, dtype=np.float64), w).reshape(np.shape(X))
    with np.errstate(all="ignore"):  # NonFiniteError is the only report
        leaf = Tensor(X)
        params = [Tensor(p) for p in params_arrays]
        objective = ad.neg(ad.tsum(true_class_log_probs(model, params, leaf, y)))
        return ad.backward(objective, [leaf])[0].data


def pgd_attack(
    model,
    x_nat: np.ndarray,
    y: np.ndarray,
    cfg: AttackConfig,
    rng: Optional[RngStream] = None,
) -> np.ndarray:
    """Iterative ascent on the attack objective inside the threat ball."""
    x_nat = np.asarray(x_nat, dtype=np.float64)
    y = np.asarray(y)
    x_adv = x_nat.copy()

    if cfg.random_start:
        if rng is None:
            raise ParameterError("random_start requires an RngStream")
        x_adv = project_to_ball(x_adv + rng.uniform(-cfg.eps, cfg.eps, x_nat.shape), x_nat, cfg)

    params = model.params()
    for _ in range(cfg.steps):
        g = attack_gradient(model, params, x_adv, y)
        if cfg.norm == LINF:
            x_adv = x_adv + cfg.alpha * np.sign(g)
        else:
            norms = _row_norms(g)
            step = np.divide(g, norms, out=np.zeros_like(g), where=norms > 0)
            x_adv = x_adv + cfg.alpha * step
        x_adv = project_to_ball(x_adv, x_nat, cfg)
    return x_adv


def robust_accuracy(
    model,
    dataset: Dataset,
    cfg: AttackConfig,
    rng: Optional[RngStream] = None,
    chunk: int = 4096,
) -> float:
    """Accuracy on per-point PGD adversarial examples."""
    if dataset.n == 0:
        raise ParameterError("robust accuracy of an empty dataset is undefined")
    correct = 0
    for start in range(0, dataset.n, chunk):
        X = dataset.features[start : start + chunk]
        y = dataset.labels[start : start + chunk]
        sub_rng = rng.child(start) if rng is not None else None
        x_adv = pgd_attack(model, X, y, cfg, rng=sub_rng)
        correct += int(np.sum(model.predict(x_adv) == y))
    return correct / dataset.n


def closed_form_linear_robust_accuracy(model: LinearClassifier, dataset: Dataset, eps: float) -> float:
    """Exact worst-case l-infinity accuracy of a linear model (Holder bound)."""
    y = model.targets(dataset.labels).astype(np.float64)
    worst_margins = y * (dataset.features @ model.w) - eps * np.abs(model.w).sum()
    return float(np.mean(worst_margins > 0))
