"""Labeled dataset container.

Features are a dense float64 matrix, labels are integers that learning
never modifies. Binary tasks use labels in {-1, +1}; multiclass tasks use
{0, ..., k-1}. The optional value range records the feasible box for
image-like data and is enforced whenever features are rewritten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, ParameterError
from .rng import RngStream


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    value_range: Optional[tuple[float, float]] = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        try:
            with np.errstate(invalid="ignore"):  # an out-of-range cast is caught by the comparison below
                self.labels = labels.astype(np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise DataError(f"labels must be integers that fit in int64: {exc}") from exc
        if not np.array_equal(self.labels, labels):
            raise DataError("labels must be integers that fit in int64")
        if self.features.ndim != 2 or self.features.shape[1] == 0:
            raise DataError(f"features must be 2-D with at least one column, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError(
                f"labels shape {self.labels.shape} does not match {self.features.shape[0]} rows"
            )
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain NaN or Inf")
        if self.value_range is not None:
            lo, hi = self.value_range
            if not lo <= hi:
                raise ParameterError(f"invalid value range [{lo}, {hi}]")
            if self.features.size and (self.features.min() < lo or self.features.max() > hi):
                raise DataError("features fall outside the declared value range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.value_range, dict(self.provenance))


def subsample(dataset: Dataset, fraction: float, rng: RngStream) -> Dataset:
    """Class-stratified sample of ceil(fraction * n) rows.

    Per-class counts follow the class proportions (largest-remainder
    rounding), so each class is within +-1 of its exact share.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"fraction must be in (0, 1], got {fraction}")
    if dataset.n == 0:
        raise DataError("cannot subsample an empty dataset")
    total = math.ceil(fraction * dataset.n)
    classes = dataset.classes()
    exact = {c: fraction * int((dataset.labels == c).sum()) for c in classes}
    counts = {c: int(math.floor(v)) for c, v in exact.items()}
    short = total - sum(counts.values())
    for c in sorted(classes, key=lambda c: exact[c] - counts[c], reverse=True):
        if short <= 0:
            break
        if counts[c] < int((dataset.labels == c).sum()):
            counts[c] += 1
            short -= 1

    picked = []
    for c in classes:
        rows = np.flatnonzero(dataset.labels == c)
        order = rng.permutation(rows.size)
        picked.append(rows[order[: counts[c]]])
    idx = np.sort(np.concatenate(picked))
    out = dataset.take(idx)
    out.provenance = dict(dataset.provenance, subsample_fraction=fraction)
    return out
