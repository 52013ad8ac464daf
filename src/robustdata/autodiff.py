"""Reverse-mode automatic differentiation with second-order support.

Tensors are immutable float64 arrays that remember how they were computed.
Each primitive keeps one vjp per parent. Backward passes are themselves
expressed with Tensor operations, so the adjoints returned by `backward`
live on a fresh tape and can be differentiated again (re-recording). That
is exactly what `unrolled_grad` needs: the derivative of a loss through
one gradient-descent parameter update. The network loss is built from
the primitives; the linear loss is one node with closed-form vjps. So the
tape is 2-D: matmul takes two matrices, and there is no 1-D product.

`backward` forms only the adjoints on a path from the output to a
requested input (activity analysis): adjoints of constants, of leaves not
asked for and of anything computed from those alone are never formed.

Convention fixed here and relied on by the rest of the package:
relu'(0) = 0 (the flat side of the hinge wins at the kink).

Every tensor is checked on creation and NonFiniteError is the only report
of overflow or NaN. The primitives do not silence numpy's floating-point
warnings themselves (a per-node np.errstate costs more than many of the
nodes); the package's entry points to the tape do: sgd_train's network
step and the batch body of learn_robust_dataset. Attacks and linear
training use numpy closed forms and build no tape.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NonFiniteError, ParameterError

Shape = tuple[int, ...]


class Tensor:
    """Dense float64 array plus tape bookkeeping."""

    __slots__ = ("data", "_parents", "_vjp")

    def __init__(self, data, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor contains NaN or Inf")
        self.data = arr
        self._parents: tuple[Tensor, ...] = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> Shape:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor({self.data!r})"


def constant(x) -> Tensor:
    """A tensor with no tape history (gradients do not flow into it)."""
    return Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g: Tensor, shape: Shape) -> Tensor:
    """Reduce a broadcasted adjoint back to `shape` (sums stay on the tape)."""
    if g.shape == shape:
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    vjps = (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape))
    return Tensor(a.data + b.data, (a, b), vjps)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, (a,), (neg,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    vjps = (lambda g: _unbroadcast(mul(g, b), a.shape), lambda g: _unbroadcast(mul(g, a), b.shape))
    return Tensor(a.data * b.data, (a, b), vjps)


def power(a: Tensor, k: float) -> Tensor:
    k = float(k)
    return Tensor(a.data**k, (a,), (lambda g: mul(g, mul(constant(k), power(a, k - 1.0))),))


def texp(a: Tensor) -> Tensor:
    # The vjp closes over its own output, so every tape through texp (each
    # network loss) is a reference cycle that only the cyclic GC frees: one
    # mlp:64 loss+backward leaves 66 objects to gc.collect(), a 2-batch learn
    # 264, a linear run 0. Network attacks build no tape, so one pgd_attack
    # leaves 0. These cycles are why learn-mlp peak RSS grows with run
    # length. A cycle-free texp kept it flat (about 70 MB against 183 MB)
    # but cost more page faults and wall time; see CHANGES.md.
    out = Tensor(np.exp(a.data), (a,), None)
    out._vjp = (lambda g: mul(g, out),)
    return out


def tlog(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), (a,), (lambda g: mul(g, power(a, -1.0)),))


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0).astype(np.float64)  # strict: subgradient 0 at the kink
    return Tensor(a.data * mask, (a,), (lambda g: mul(g, constant(mask)),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g: Tensor):
        if axis is None:
            return broadcast_to(reshape(g, (1,) * a.data.ndim), a.shape)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        if keepdims:
            gk = g
        else:
            kshape = list(a.shape)
            for ax in axes:
                kshape[ax % a.data.ndim] = 1
            gk = reshape(g, tuple(kshape))
        return broadcast_to(gk, a.shape)

    return Tensor(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), (vjp,))


def mean(a: Tensor) -> Tensor:
    return mul(tsum(a), constant(1 / a.size))


def broadcast_to(a: Tensor, shape: Shape) -> Tensor:
    return Tensor(np.broadcast_to(a.data, shape).copy(), (a,), (lambda g: _unbroadcast(g, a.shape),))


def reshape(a: Tensor, shape: Shape) -> Tensor:
    old = a.shape
    return Tensor(a.data.reshape(shape), (a,), (lambda g: reshape(g, old),))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ContractError("transpose expects a 2-D tensor")
    # a view is safe: no array is written in place while a tape built on it is in use
    return Tensor(a.data.T, (a,), (transpose,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError(f"the tape is 2-D: matmul takes two 2-D operands, got ndim {a.data.ndim} "
                            f"and {b.data.ndim}")
    return Tensor(a.data @ b.data, (a, b), (lambda g: matmul(g, transpose(b)), lambda g: matmul(transpose(a), g)))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _active_order(root: Tensor, inputs: Sequence[Tensor]) -> tuple[list[Tensor], set[Tensor]]:
    """The nodes under `root` that depend on one of `inputs`, parents first, and their set.

    A depth-first post-order places every parent before its children, so
    whether a node is active (an input, or a child of an active node) is
    known when it is placed. Leaves below `root` are never placed: an input
    leaf is active from the start and has no vjp to call. Tensors hash by
    identity.
    """
    active = set(inputs)
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if node in active or not active.isdisjoint(node._parents):
                active.add(node)
                order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._parents and p not in seen:
                stack.append((p, False))
    return order, active


def backward(output: Tensor, inputs: Sequence[Tensor]) -> list[Tensor]:
    """Adjoints of a scalar output w.r.t. `inputs`.

    Only the adjoints on a path from `output` to one of `inputs` are formed:
    a node's vjp is called for a parent only when that parent depends on an
    input. An input off every path gets a zeros tensor, built only for it.
    The returned tensors carry their own tape, so expressions built from
    them can be differentiated again.
    """
    if output.shape != ():
        raise ContractError(f"objective must be scalar, got shape {output.shape}")
    order, active = _active_order(output, inputs)
    adjoint: dict[Tensor, Tensor] = {output: constant(1.0)}
    for node in reversed(order):  # every active node under `output` has an adjoint when reached
        if node._vjp is None:  # `output` itself, an input leaf
            continue
        g = adjoint[node]
        for parent, vjp in zip(node._parents, node._vjp):
            if parent in active:
                pg = vjp(g)
                prev = adjoint.get(parent)
                adjoint[parent] = pg if prev is None else add(prev, pg)
    return [adjoint[t] if t in adjoint else constant(np.zeros(t.shape)) for t in inputs]


def unrolled_grad(
    train_loss: Callable[[Sequence[Tensor], Tensor], Tensor],
    adv_grad: Callable[[list[np.ndarray]], Sequence[np.ndarray]],
    params: Sequence[Tensor],
    data: Tensor,
    lr: float,
) -> tuple[np.ndarray, list[np.ndarray], Tensor]:
    """Gradient w.r.t. data of an adversarial loss through one descent step.

    Takes the step updated = params - lr * d(train_loss)/d(params), calls
    adv_grad(updated) for g (one array per parameter, treated as constant)
    and returns (meta, updated, train_out), where
    meta = -lr * d/d(data) < d(train_loss)/d(params), g >. When g is the
    adversarial-loss gradient at `updated`, meta is the derivative of that
    loss through the step. The train-loss gradient is kept on the tape,
    which is where the second-order dependence on `data` lives.
    """
    if lr <= 0:
        raise ParameterError(f"lr must be positive, got {lr}")
    train_out = train_loss(params, data)
    param_grads = backward(train_out, params)
    updated = [p.data - lr * g.data for p, g in zip(params, param_grads)]

    inner = reduce(add, [tsum(mul(pg, constant(g))) for pg, g in zip(param_grads, adv_grad(updated))])
    meta = -lr * backward(inner, [data])[0].data
    return meta, updated, train_out
