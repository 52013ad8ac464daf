"""Tri-level robust dataset learning and the baseline dataset generators.

One learning run keeps a single classifier alive and, per mini-batch:

  1. takes one plain gradient step on the robust batch (the one-step
     parameter estimate),
  2. builds PGD adversarial examples of the paired natural batch against
     the updated classifier,
  3. moves the robust batch by -beta * sign(meta-gradient), where the
     meta-gradient is the derivative of the adversarial loss through the
     step-1 update: -gamma * d/d(data) <d(train)/d(theta), g>, and
     clips it to the attack's box (`attack_for_dataset`).

Steps 1 and 3 are one call of `autodiff.unrolled_grad`, the function the
acceptance gate checks against finite differences; step 2 is its
callback.

The adversarial examples are constants with respect to the data: the
meta-gradient flows only through the parameter update. In the default
meta-gradient mode g is the adversarial-loss gradient at the updated
parameters; in the alternating mode the classifier is frozen at its
pre-step value when g is evaluated, so the two modes coincide as
gamma -> 0. Labels are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attacks import AttackConfig, adversarial_chunks, attack_for_dataset, pgd_attack
from .dataset import Dataset
from .errors import DataError, NonFiniteError, ParameterError
from .models import TrainConfig, batch_loss_graph, sgd_train
from .rng import RngStream

META_GRADIENT = "meta-gradient"
ALTERNATING = "alternating"


@dataclass
class RobustLearnConfig:
    epochs: int
    gamma: float
    beta: float
    attack: AttackConfig
    batch_size: int = 128
    theta0_seed: int = 0
    mode: str = META_GRADIENT
    lam: float = 1e-3  # ridge coefficient of the classifier objective

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        # comparisons against inf, since `x <= 0` is False for NaN
        if not 0 < self.gamma < np.inf:
            raise ParameterError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 <= self.beta < np.inf:  # beta = 0 freezes the data, a useful control
            raise ParameterError(f"beta must be >= 0 and finite, got {self.beta}")
        if not 0 <= self.lam < np.inf:
            raise ParameterError(f"lam must be >= 0 and finite, got {self.lam}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mode not in (META_GRADIENT, ALTERNATING):
            raise ParameterError(f"unknown mode {self.mode!r}")


@dataclass
class EpochTrace:
    clean_loss: float
    adv_loss: float
    update_norm: float


def learn_robust_dataset(
    x_nat: Dataset,
    model_factory: Callable[[int], object],
    cfg: RobustLearnConfig,
    rng: RngStream,
) -> tuple[Dataset, list[EpochTrace]]:
    """Run the tri-level learner; returns the learned dataset and per-epoch trace."""
    if x_nat.n == 0:
        raise DataError("cannot learn from an empty dataset")
    model = model_factory(cfg.theta0_seed)
    y = model.targets(x_nat.labels)
    x_natural = x_nat.features
    x_rob = x_natural.copy()
    n = x_nat.n

    # one box for the data updates and the attack
    attack_cfg = attack_for_dataset(cfg.attack, x_nat)
    box = attack_cfg.clamp

    params = [p.copy() for p in model.params()]
    shuffle = rng.child(1)
    trace: list[EpochTrace] = []

    for epoch in range(cfg.epochs):
        order = shuffle.permutation(n)
        clean_losses, adv_losses, update_norms = [], [], []
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            try:
                with np.errstate(all="ignore"):  # NonFiniteError is the only report
                    idx = order[start : start + cfg.batch_size]
                    b_nat, yb = x_natural[idx], y[idx]

                    def train_loss(theta, data):
                        return batch_loss_graph(model, theta, data, yb, cfg.lam)

                    def adv_grad(updated):
                        # step 2: adversarial examples of the natural batch against the
                        # step-1 estimate (constants below); g is taken at that estimate,
                        # or at the pre-step parameters in the alternating mode
                        model.set_params(updated)
                        x_adv = pgd_attack(model, b_nat, yb, attack_cfg)
                        leaves = [Tensor(p) for p in (updated if cfg.mode == META_GRADIENT else params)]
                        adv_out = batch_loss_graph(model, leaves, Tensor(x_adv), yb, cfg.lam)
                        adv_losses.append(adv_out.item())
                        return [g.data for g in ad.backward(adv_out, leaves)]

                    # steps 1 and 3: one gradient step on the robust batch, then the
                    # signed meta-gradient update of that batch through the step
                    meta, params, train_out = ad.unrolled_grad(
                        train_loss, adv_grad, [Tensor(p) for p in params], Tensor(x_rob[idx]), cfg.gamma
                    )
                    step = -cfg.beta * np.sign(meta)
                    updated = x_rob[idx] + step
                    if box is not None:
                        np.clip(updated, box[0], box[1], out=updated)
                    update_norms.append(float(np.linalg.norm(updated - x_rob[idx])))
                    x_rob[idx] = updated

                    clean_losses.append(train_out.item())
            except NonFiniteError as exc:
                raise NonFiniteError(f"learner diverged at epoch {epoch}, batch {batch}: {exc}") from exc
        trace.append(
            EpochTrace(
                float(np.mean(clean_losses)),
                float(np.mean(adv_losses)),
                float(np.mean(update_norms)),
            )
        )

    provenance = dict(
        x_nat.provenance,
        generator="robust-learn",
        mode=cfg.mode,
        epochs=cfg.epochs,
        gamma=cfg.gamma,
        beta=cfg.beta,
        eps=cfg.attack.eps,
        seed=rng.seed,
        theta0_seed=cfg.theta0_seed,
    )
    learned = Dataset(x_rob, x_nat.labels.copy(), x_nat.value_range, provenance)
    return learned, trace


def baseline_adv_dataset(model, x_nat: Dataset, attack_cfg: AttackConfig) -> Dataset:
    """Replace every row by its PGD adversarial example against `model`, inside the value range."""
    rows = [x_adv for x_adv, _ in adversarial_chunks(model, x_nat, attack_cfg)]
    provenance = dict(
        x_nat.provenance,
        generator="adv-data",
        eps=attack_cfg.eps,
        norm=attack_cfg.norm,
        steps=attack_cfg.steps,
    )
    return Dataset(np.concatenate(rows, axis=0), x_nat.labels.copy(), x_nat.value_range, provenance)


def adversarially_train_reference(
    model_factory: Callable[[int], object],
    dataset: Dataset,
    attack_cfg: AttackConfig,
    train_cfg: TrainConfig,
) -> tuple[object, list[float]]:
    """PGD adversarial training: sgd_train with each batch attacked before its step.

    The attack starts at the natural batch and draws no randomness, so the
    run is fixed by `train_cfg.seed`. With a vanishing attack budget the
    trajectory coincides with natural training.
    """
    model = model_factory(train_cfg.seed)
    attack_cfg = attack_for_dataset(attack_cfg, dataset)

    def perturb(X, y):
        return pgd_attack(model, X, y, attack_cfg)

    return sgd_train(model, dataset, train_cfg, perturb)
