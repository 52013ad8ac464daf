"""Projected gradient descent adversaries and robust-accuracy evaluation.

The PGD update follows the sign-of-gradient rule under l-infinity and a
normalized-gradient step under l2, with projection back to the threat
ball after every step and a final clamp to the value range when one is
configured. Attacks start at the natural point and draw no randomness,
so an attack's output depends only on the model, the rows and the config.

Attack gradients for hinge-trained models use the raw margin 1 - y*f(x)
rather than its clamped value: the clamp has zero gradient wherever the
model is confident, which would silently mask the attack. On a linear
model the margin direction reproduces the closed-form worst case
delta = -eps * sign(y*w) exactly, so the attained hinge loss equals
max(0, 1 - y*w.x + eps*||w||_1) from any starting point. That input
gradient is -y*w for every row, so it is returned in closed form without
a tape (after checking X and w are finite, as tape leaves would), and
pgd_attack computes a linear model's step once per attack, checking each
later iterate finite itself. A network's input gradient of
-sum(true-class log-softmax) comes from models.mlp_input_grad, a numpy
backward that forms no weight or bias adjoint, so no attack builds a
tape. The tape forms of both gradients and the per-step PGD loop are kept
in the tests as the bit-exact references.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .dataset import Dataset
from .errors import ContractError, DataError, NonFiniteError, ParameterError
from .models import LinearClassifier, mlp_input_grad

LINF = "linf"
L2 = "l2"
CHUNK = 4096  # rows per pgd_attack call over a dataset


@dataclass
class AttackConfig:
    norm: str = LINF
    eps: float = 0.1
    alpha: Optional[float] = None  # defaults to eps / 10
    steps: int = 10
    clamp: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.norm not in (LINF, L2):
            raise ParameterError(f"norm must be '{LINF}' or '{L2}', got {self.norm!r}")
        if not 0 < self.eps < np.inf:
            raise ParameterError(f"eps must be positive and finite, got {self.eps}")
        if self.alpha is None:
            self.alpha = self.eps / 10.0
        if not 0 < self.alpha < np.inf:
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.clamp is not None and not self.clamp[0] <= self.clamp[1]:
            raise ParameterError(f"invalid clamp {self.clamp}")

    def with_eps(self, eps: float) -> "AttackConfig":
        return replace(self, eps=eps, alpha=None)


def attack_for_dataset(cfg: AttackConfig, dataset: Dataset) -> AttackConfig:
    """Attack config with the dataset's value range as the clamp, if any.

    A configured clamp must lie inside the value range: rows clamped to a
    wider box would leave the dataset's feasible set.
    """
    vr = dataset.value_range
    if cfg.clamp is None and vr is not None:
        return replace(cfg, clamp=vr)
    if cfg.clamp is not None and vr is not None and not vr[0] <= cfg.clamp[0] <= cfg.clamp[1] <= vr[1]:
        raise ParameterError(f"attack clamp {cfg.clamp} is not inside the value range {vr}")
    return cfg


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
    """Per-row gradient of the model's attack objective w.r.t. the inputs; `y` is model.targets(labels)."""
    if isinstance(model, LinearClassifier):
        # d/dX of the unclamped surrogate -sum(y * (X @ w)) is -y w^T, whatever X is
        if len(params_arrays) != 1:
            raise ParameterError(f"the linear classifier has one weight vector, got {len(params_arrays)} arrays")
        (w,) = params_arrays
        if not (np.isfinite(X).all() and np.isfinite(w).all()):
            raise NonFiniteError("tensor contains NaN or Inf")
        return np.outer(-np.asarray(y, dtype=np.float64), w).reshape(np.shape(X))
    return mlp_input_grad(params_arrays, X, y)


def _ascent_step(g: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    if cfg.norm == LINF:
        return cfg.alpha * np.sign(g)
    norms = _row_norms(g)
    return cfg.alpha * np.divide(g, norms, out=np.zeros_like(g), where=norms > 0)


def pgd_attack(model, x_nat: np.ndarray, y: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """Iterative ascent on the attack objective inside the threat ball, from the natural point.

    A linear model's step is computed once per call; every iterate is still checked finite.
    """
    x_nat = np.asarray(x_nat, dtype=np.float64)
    y = model.targets(np.asarray(y))
    params, linear = model.params(), isinstance(model, LinearClassifier)
    lo, hi = (x_nat - cfg.eps, x_nat + cfg.eps) if cfg.norm == LINF else (None, None)
    x_adv, step = x_nat, None
    for _ in range(cfg.steps):
        if step is None or not linear:
            step = _ascent_step(attack_gradient(model, params, x_adv, y), cfg)
        elif not np.isfinite(x_adv).all():  # what attack_gradient checks; w cannot change here
            raise NonFiniteError("tensor contains NaN or Inf")
        x_adv = x_adv + step  # a new array: x_nat is never written
        if cfg.norm == LINF:
            np.clip(x_adv, lo, hi, out=x_adv)
            if cfg.clamp is not None:
                np.clip(x_adv, cfg.clamp[0], cfg.clamp[1], out=x_adv)
        else:
            x_adv = project_to_ball(x_adv, x_nat, cfg)
    return x_adv


def adversarial_chunks(model, dataset: Dataset, cfg: AttackConfig) -> Iterator:
    """(x_adv, targets) of CHUNK rows at a time, attacked inside the dataset's value range.

    Labels are converted once. An empty dataset is a DataError.
    """
    if dataset.n == 0:
        raise DataError("cannot attack an empty dataset")
    cfg = attack_for_dataset(cfg, dataset)
    targets = model.targets(dataset.labels)
    for start in range(0, dataset.n, CHUNK):
        y = targets[start : start + CHUNK]
        yield pgd_attack(model, dataset.features[start : start + CHUNK], y, cfg), y


def robust_accuracy(model, dataset: Dataset, cfg: AttackConfig) -> float:
    """Accuracy on per-point PGD adversarial examples inside the dataset's value range."""
    correct = 0
    for x_adv, y in adversarial_chunks(model, dataset, cfg):
        correct += int(np.sum(model.predict(x_adv) == y))
    return correct / dataset.n


def closed_form_linear_robust_accuracy(model: LinearClassifier, dataset: Dataset, eps: float) -> float:
    """Exact worst-case l-infinity accuracy of a linear model (Holder bound)."""
    y = model.targets(dataset.labels).astype(np.float64)
    worst_margins = y * (dataset.features @ model.w) - eps * np.abs(model.w).sum()
    return float(np.mean(worst_margins > 0))
