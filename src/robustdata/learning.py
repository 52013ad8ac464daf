"""Tri-level robust dataset learning and the baseline dataset generators.

One learning run keeps a single classifier alive and, per mini-batch:

  1. takes one plain gradient step on the robust batch (the one-step
     parameter estimate),
  2. builds PGD adversarial examples of the paired natural batch against
     the updated classifier,
  3. moves the robust batch by -beta * sign(meta-gradient), where the
     meta-gradient is the derivative of the adversarial loss through the
     step-1 update: -gamma * d/d(data) <G, g>, G = d(train)/d(theta),
     taken as G's vector-Jacobian product with g, and clips it to the
     attack's box (`attack_for_dataset`).

`learner_batch` runs steps 1-3 of one batch on `models.batch_loss_graph`'s
numpy (loss, grad, meta_of) and builds the batch's one tape node, G, whose
vjp is meta_of: one `backward` call per batch, and step 3 builds no tape.
The acceptance gate checks the meta-gradient against finite differences.

The adversarial examples are constants with respect to the data: the
meta-gradient flows only through the parameter update. In the default
meta-gradient mode g is the adversarial-loss gradient at the updated
parameters; in the alternating mode the classifier is frozen at its
pre-step value when g is evaluated, so the two modes coincide as
gamma -> 0. Labels are never modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .attacks import AttackConfig, adversarial_chunks, attack_for_dataset, pgd_attack
from .dataset import Dataset
from .errors import ContractError, DataError, NonFiniteError, ParameterError
from .models import TrainConfig, batch_loss_graph, flatten, sgd_train, unflatten
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


def _unformed(g):
    raise ContractError("the fused objective forms no such derivative (see learner_batch)")


def learner_batch(model, theta, b_rob, b_nat, yb, cfg: RobustLearnConfig, attack_cfg: AttackConfig):
    """Steps 1-3 of one batch: (meta-gradient, step-1 theta, step-1 loss, its G, adversarial loss).

    G, the train-loss gradient on `b_rob`, is the batch's one tape node, over
    the leaf X, whose vjp is batch_loss_graph's meta_of: the meta-gradient
    -gamma * d/d(b_rob) <G, g>, the data's second-order dependence through the
    step, is backward(G, [X], g), the batch's one backward call. A derivative
    of that result raises ContractError. `model` is left at the step-1 theta.
    """
    X = ad.Tensor(b_rob)
    train_loss, grad, meta_of = batch_loss_graph(model, theta, b_rob, yb, cfg.lam)
    G = ad.Tensor(grad, (X,), (lambda gg: ad.Tensor(meta_of(gg.data), (X, gg), (_unformed,) * 2),))
    updated = theta - cfg.gamma * grad
    g, adv_loss = _adversarial_gradient(model, theta, updated, b_nat, yb, cfg, attack_cfg)
    (meta,) = ad.backward(G, [X], g)
    return -cfg.gamma * meta.data, updated, train_loss, G, adv_loss


def _adversarial_gradient(model, theta, updated, b_nat, yb, cfg: RobustLearnConfig, attack_cfg: AttackConfig):
    """Step 2 and (g, adversarial loss): g, the adversarial objective's gradient, is an array; no tape is built."""
    model.set_params(unflatten(model, updated))
    x_adv = pgd_attack(model, b_nat, yb, attack_cfg)
    adv_loss, g, _ = batch_loss_graph(model, updated if cfg.mode == META_GRADIENT else theta, x_adv, yb, cfg.lam)
    return g, adv_loss


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

    theta = flatten(model.params())  # one flat vector
    shuffle = rng.child(1)
    trace: list[EpochTrace] = []

    for epoch in range(cfg.epochs):
        order = shuffle.permutation(n)
        clean_losses, adv_losses, update_norms = [], [], []
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            try:
                with np.errstate(all="ignore"):  # NonFiniteError is the only report
                    idx = order[start : start + cfg.batch_size]
                    b_rob, b_nat, yb = x_rob[idx], x_natural[idx], y[idx]
                    # G holds the step-1 node until the next batch's learner_batch returns
                    meta, theta, train_loss, G, adv_loss = learner_batch(model, theta, b_rob, b_nat, yb, cfg, attack_cfg)
                    updated = b_rob - cfg.beta * np.sign(meta)
                    if box is not None:
                        np.clip(updated, box[0], box[1], out=updated)
                    step = (updated - b_rob).ravel()
                    update_norms.append(math.sqrt(step.dot(step)))  # np.linalg.norm's own default path
                    x_rob[idx] = updated

                    clean_losses.append(train_loss)
                    adv_losses.append(adv_loss)
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
