"""Reference gradients for the tests: `grad`, central finite differences and
the linear objective and its margins written in tape primitives.

Nothing in the package calls these; the autodiff tests and the acceptance
gate (criterion 7) compare the tape against them. `tape_loss_graph` is the
bit-exact reference for the fused hinge node of `models.batch_loss_graph`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from robustdata import autodiff as ad
from robustdata.autodiff import Tensor, backward
from robustdata.errors import ContractError, ParameterError
from robustdata.models import LinearClassifier, batch_loss_graph


def grad(objective: Callable[..., Tensor], inputs: Sequence[Tensor]) -> list[Tensor]:
    """Evaluate `objective(*inputs)` and return d(objective)/d(input) for each input."""
    out = objective(*inputs)
    if not isinstance(out, Tensor):
        raise ContractError("objective must return a Tensor")
    return backward(out, inputs)


def tape_margins(X: Tensor, w: Tensor, y) -> Tensor:
    """The hinge margins y * (X @ w) as two tape nodes; `y` is one label or one per row."""
    return ad.mul(ad.constant(np.asarray(y, dtype=np.float64)), ad.matmul(X, w))


def tape_loss_graph(model, params, X: Tensor, y: np.ndarray, lam: float) -> Tensor:
    """batch_loss_graph with the linear objective built from tape primitives, one node per operation.

    mean(max(0, 1 - y * X@w)) + lam * ||w||^2 as 15 small nodes; the network
    objective is batch_loss_graph's own. Patch it over
    `robustdata.learning.batch_loss_graph` to run the learner on it.
    """
    if not isinstance(model, LinearClassifier):
        return batch_loss_graph(model, params, X, y, lam)
    (w,) = params
    hinge = ad.mean(ad.relu(ad.add(ad.constant(1.0), ad.neg(tape_margins(X, w, y)))))
    return ad.add(hinge, ad.mul(ad.constant(lam), ad.tsum(ad.mul(w, w))))


class FiniteDiffReport:
    """Outcome of a central-difference check of `grad` at one point."""

    def __init__(self, max_rel_error: float, rel_errors: np.ndarray, non_comparable: np.ndarray):
        self.max_rel_error = max_rel_error
        self.rel_errors = rel_errors
        self.non_comparable = non_comparable

    @property
    def n_non_comparable(self) -> int:
        return int(self.non_comparable.sum())

    def __repr__(self):
        return (
            f"FiniteDiffReport(max_rel_error={self.max_rel_error:.3e},"
            f" non_comparable={self.n_non_comparable})"
        )


def finite_diff_check(objective: Callable[[Tensor], Tensor], point: Tensor, step: float) -> FiniteDiffReport:
    """Compare grad(objective) against central finite differences at `point`.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8).
    Coordinates where forward and backward one-sided differences disagree
    (a kink under the stencil) are flagged non-comparable and excluded
    from the reported maximum.
    """
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    analytic = grad(objective, [point])[0].data

    flat = point.data.reshape(-1)
    numeric = np.zeros_like(flat)
    non_comparable = np.zeros(flat.shape, dtype=bool)
    f0 = float(objective(Tensor(point.data)).data)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = step
        shaped = e.reshape(point.shape)
        fp = float(objective(Tensor(point.data + shaped)).data)
        fm = float(objective(Tensor(point.data - shaped)).data)
        numeric[i] = (fp - fm) / (2 * step)
        fwd = (fp - f0) / step
        bwd = (f0 - fm) / step
        scale = max(abs(fwd), abs(bwd), 1.0)
        if abs(fwd - bwd) > 0.1 * scale:
            non_comparable[i] = True

    numeric = numeric.reshape(point.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    mask = non_comparable.reshape(point.shape)
    comparable = rel[~mask]
    max_err = float(comparable.max()) if comparable.size else 0.0
    return FiniteDiffReport(max_err, rel, mask)
