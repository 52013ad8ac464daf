"""Evaluation protocol: natural training on a candidate dataset, then
attacks on clean-distribution test data.

A fresh classifier is always re-initialized from the plan's seed, so
nothing leaks from whatever produced the dataset; an architecture's
seeds train in one lock-step sgd_train call, and are attacked at each
budget in one lock-step robust_accuracy call, each as it would alone.
Robustness is always measured on perturbations of clean test points,
never of the candidate dataset itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import AttackConfig, robust_accuracy
from .datafile import atomic_write, json_plain, write_csv
from .dataset import Dataset
from .errors import DataError, ParameterError
from .learning import adversarially_train_reference, baseline_adv_dataset
from .models import LinearClassifier, MlpClassifier, TrainConfig, accuracy, sgd_train
from .rng import RngStream

REPORT_COLUMNS = ["arch", "seed", "budget", "natural_acc", "robust_acc", "train_seconds", "attack_seconds"]
_TIMINGS = ("train_seconds", "attack_seconds")


def parse_arch(arch: str) -> tuple[str, list[int]]:
    """'linear' or 'mlp:<w1>-<w2>-...' into (kind, hidden widths)."""
    if arch == "linear":
        return "linear", []
    if arch.startswith("mlp:"):
        tokens = arch[len("mlp:") :].split("-")
        # each width is a positive decimal integer: int() alone would take " 8", "+8" and "8_0"
        if not all(tok.isascii() and tok.isdigit() and int(tok) > 0 for tok in tokens):
            raise ParameterError(f"bad mlp architecture {arch!r}")
        return "mlp", [int(tok) for tok in tokens]
    raise ParameterError(f"unknown architecture {arch!r}")


def make_model(arch: str, width: int, num_classes: int, seed: int):
    kind, hidden = parse_arch(arch)
    if kind == "linear":
        if num_classes != 2:
            raise ParameterError("linear classifier is binary")
        return LinearClassifier.zeros(width)
    return MlpClassifier.init([width] + hidden + [num_classes], RngStream(seed))


def model_factory(arch: str, width: int):
    """seed -> a fresh binary classifier of `arch` on `width` features."""
    return lambda seed: make_model(arch, width, 2, seed)


def check_grid(architectures: list[str], seeds: list[int], budgets: list[float], attack: AttackConfig) -> None:
    """Reject a grid before any model trains: an empty list, an unknown architecture,
    a budget that is not a usable eps, or a repeat, whose cells would be written twice."""
    if not architectures or not seeds or not budgets:
        raise ParameterError("need at least one architecture, seed, and budget")
    for arch in architectures:
        parse_arch(arch)
    for b in budgets:  # AttackConfig's check of eps
        attack.with_eps(b)
    ordered = sorted(budgets)  # budgets within RunReport.cell's 1e-12 are one cell
    if len(set(architectures)) < len(architectures) or len(set(seeds)) < len(seeds) \
            or any(b - a < 1e-12 for a, b in zip(ordered, ordered[1:])):
        raise ParameterError(f"repeated architecture, seed or budget in {architectures}, {seeds}, "
                             f"{budgets}: its cells would be written twice")


def report_tags(fractions: list[float]) -> list[str]:
    """Each subsample fraction's report-name suffix: '' for 1, else _frac<fraction:g>.

    There must be at least one fraction, each in (0, 1] and with its own name.
    """
    tags = ["" if fraction == 1.0 else f"_frac{fraction:g}" for fraction in fractions]
    if not tags or len(set(tags)) < len(tags):
        raise ParameterError(f"eval.subsample_fractions {fractions} must name at least one fraction, each with "
                             "its own report name (report_frac<fraction:g>, or report for 1)")
    if not all(0.0 < fraction <= 1.0 for fraction in fractions):
        raise ParameterError(f"eval.subsample_fractions {fractions} must each be in (0, 1]")
    return tags


@dataclass
class EvalPlan:
    dataset: Dataset
    test: Dataset
    architectures: list[str]
    seeds: list[int]
    budgets: list[float]
    attack: AttackConfig
    train: TrainConfig

    def __post_init__(self):
        check_grid(self.architectures, self.seeds, self.budgets, self.attack)
        if self.dataset.width != self.test.width:
            raise DataError(f"dataset has {self.dataset.width} features but its test set has {self.test.width}")


@dataclass
class RunReport:
    cells: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add_cell(self, arch: str, seed: int, budget: float, natural_acc: float, robust_acc: float,
                 train_seconds: float, attack_seconds: float):
        if robust_acc > natural_acc + 1e-12:
            raise ParameterError("robust accuracy cannot exceed natural accuracy")
        self.cells.append(dict(arch=arch, seed=seed, budget=budget, natural_acc=natural_acc, robust_acc=robust_acc,
                               train_seconds=train_seconds, attack_seconds=attack_seconds))

    def sorted_cells(self) -> list[dict]:
        return sorted(self.cells, key=lambda c: (c["arch"], c["seed"], c["budget"]))

    def cell(self, arch: str, seed: int, budget: float) -> dict:
        for c in self.cells:
            if c["arch"] == arch and c["seed"] == seed and abs(c["budget"] - budget) < 1e-12:
                return c
        raise KeyError((arch, seed, budget))

    def write_csv(self, path) -> None:
        write_csv(path, REPORT_COLUMNS, (
            [c["arch"], c["seed"], repr(c["budget"]), repr(c["natural_acc"]), repr(c["robust_acc"])]
            + [f"{c[k]:.3f}" for k in _TIMINGS]
            for c in self.sorted_cells()
        ))

    def write_json(self, path) -> None:
        doc = {"provenance": self.provenance, "cells": self.sorted_cells()}
        atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: everything except wall times."""
        cells = [{k: v for k, v in c.items() if k not in _TIMINGS} for c in self.sorted_cells()]
        doc = {"provenance": self.provenance, "cells": cells}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def evaluate_dataset(plan: EvalPlan, rng: RngStream) -> RunReport:
    """Train naturally per (arch, seed), then attack each arch's seeds per budget on the clean test set.

    With `budgets=[attack.eps]` this is the architecture x seed transfer grid.
    A cell's train_seconds is its seed's share of its architecture's one
    training call plus its clean-accuracy time, and its attack_seconds its
    seed's share of the one robust_accuracy call of its (arch, budget).
    `rng` is unused: each model is initialised from its plan seed and the
    attacks draw no randomness. The parameter stays for existing callers.
    """
    report = RunReport(
        provenance={
            "seeds": list(plan.seeds),
            "architectures": list(plan.architectures),
            "budgets": list(plan.budgets),
            "train_seed_base": plan.train.seed,
            "dataset_provenance": json_plain(plan.dataset.provenance),
        }
    )
    # the Dataset convention over both sets: {-1,+1} is binary, other labels are class indices
    labels = np.concatenate([plan.dataset.labels, plan.test.labels])
    num_classes = 2 if not np.any(np.abs(labels) != 1) else max(2, int(labels.max()) + 1)
    for arch in plan.architectures:
        start = time.perf_counter()
        models = [make_model(arch, plan.dataset.width, num_classes, seed) for seed in plan.seeds]
        sgd_train(models, plan.dataset, [replace(plan.train, seed=seed) for seed in plan.seeds])
        share = (time.perf_counter() - start) / len(plan.seeds)
        naturals, train_seconds = [], []
        for model in models:
            start = time.perf_counter()
            naturals.append(accuracy(model, plan.test))
            train_seconds.append(share + (time.perf_counter() - start))
        robust, attack_seconds = [], []
        for budget in plan.budgets:
            start = time.perf_counter()
            robust.append(robust_accuracy(models, plan.test, plan.attack.with_eps(budget)))
            attack_seconds.append((time.perf_counter() - start) / len(plan.seeds))
        for i, seed in enumerate(plan.seeds):
            for b, budget in enumerate(plan.budgets):
                report.add_cell(arch, seed, budget, naturals[i], robust[b][i], train_seconds[i], attack_seconds[b])
    return report


# ---------------------------------------------------------------------------
# two-dimensional demonstration
# ---------------------------------------------------------------------------


@dataclass
class Figure2Result:
    robust_model_w: np.ndarray
    retrained_model_w: np.ndarray
    robust_natural_acc: float
    robust_robust_acc: float
    retrained_natural_acc: float
    retrained_robust_acc: float
    angle_degrees: float

    def to_kv_lines(self) -> list[str]:
        return [
            f"toy.robust_natural_acc={self.robust_natural_acc:.4f}",
            f"toy.robust_robust_acc={self.robust_robust_acc:.4f}",
            f"toy.retrained_natural_acc={self.retrained_natural_acc:.4f}",
            f"toy.retrained_robust_acc={self.retrained_robust_acc:.4f}",
            f"toy.angle_degrees={self.angle_degrees:.2f}",
        ]


TOY_MEAN = np.array([2.0, 2.0])


def two_gaussians(rng: RngStream, n_per_class: int) -> Dataset:
    """Balanced 2-D toy: class y has mean y * TOY_MEAN, identity covariance."""
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)]).astype(np.int64)
    noise = rng.normal(0.0, 1.0, (2 * n_per_class, 2))
    X = y[:, None] * TOY_MEAN[None, :] + noise
    return Dataset(X, y, None, {"generator": "two-gaussians", "mean": TOY_MEAN.tolist()})


def figure2_toy(rng: RngStream, eps: float = 1.0, csv_path=None) -> Figure2Result:
    """Natural training on adversarial examples of a robust classifier.

    Adversarially trains a robust linear classifier on the 2-D toy (200
    training and 2000 test points per class), generates its PGD
    adversarial examples, naturally retrains a fresh classifier on them,
    and reports both models' accuracy on clean test data. Optionally
    dumps the point clouds and both decision lines as CSV (800 point rows
    + 2 line rows after the header).
    """
    train = two_gaussians(rng.child(10), 200)
    test = two_gaussians(rng.child(11), 2000)
    attack = AttackConfig(norm="linf", eps=eps, steps=10)
    train_cfg = TrainConfig(lr=0.01, momentum=0.9, weight_decay=1e-3, epochs=40, batch_size=50, seed=0)

    factory = model_factory("linear", 2)
    robust_model, _ = adversarially_train_reference(factory, train, attack, train_cfg)
    adv_data = baseline_adv_dataset(robust_model, train, attack)
    retrained, _ = sgd_train(factory(0), adv_data, train_cfg)

    w_rob, w_ret = robust_model.w, retrained.w
    cosine = float(np.dot(w_rob, w_ret) / max(np.linalg.norm(w_rob) * np.linalg.norm(w_ret), 1e-300))
    result = Figure2Result(
        robust_model_w=w_rob.copy(),
        retrained_model_w=w_ret.copy(),
        robust_natural_acc=accuracy(robust_model, test),
        robust_robust_acc=robust_accuracy(robust_model, test, attack),
        retrained_natural_acc=accuracy(retrained, test),
        retrained_robust_acc=robust_accuracy(retrained, test, attack),
        angle_degrees=float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0)))),
    )

    if csv_path is not None:
        rows = [[kind, repr(row[0]), repr(row[1]), label]
                for kind, ds in (("nat", train), ("adv", adv_data))
                for row, label in zip(ds.features, ds.labels)]
        rows += [["line_robust", repr(w_rob[0]), repr(w_rob[1]), 0],
                 ["line_retrained", repr(w_ret[0]), repr(w_ret[1]), 0]]
        write_csv(csv_path, ["kind", "x1", "x2", "label"], rows)
    return result
