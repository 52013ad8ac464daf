"""Reverse-mode automatic differentiation with second-order support.

Tensors are immutable float64 arrays that remember how they were computed.
Each primitive keeps one vjp per parent. Backward passes are themselves
expressed with Tensor operations, so the adjoints returned by `backward`
live on a fresh tape and can be differentiated again (re-recording). That
is exactly what `learning.learner_batch` needs: the derivative of a loss
through one gradient-descent parameter update, the vjp backward(G, [X], g)
of the parameter gradient G with a constant g. G is the one node
learner_batch builds, over the leaf X, with the closed-form vjp that
models.batch_loss_graph returns in numpy, so a learner batch builds four
tensors and makes one `backward` call; `learning` is the one package module
that imports the tape. The tape keeps `add`, with which `backward`
sums adjoints, what reduces a broadcast adjoint, and `mul`, which the
benchmark's self-test uses; a loss's primitives are the tests' reference.

`backward` forms only the adjoints on a path from the output to a
requested input (activity analysis): adjoints of constants, of leaves not
asked for and of anything computed from those alone are never formed.

Every tensor is checked on creation (errors.check_finite), and
NonFiniteError is the only report of overflow or NaN. The primitives do not
silence numpy's floating-point warnings themselves (a per-node np.errstate
costs more than many of the nodes); the package's one entry point to the
tape does: the batch body of learn_robust_dataset. Attacks, training and
the objectives use numpy closed forms and build no tape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractError, check_finite

Shape = tuple[int, ...]


class Tensor:
    """Dense float64 array plus tape bookkeeping."""

    __slots__ = ("data", "_parents", "_vjp")

    def __init__(self, data, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        check_finite(self.data)
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    vjps = (lambda g: _unbroadcast(mul(g, b), a.shape), lambda g: _unbroadcast(mul(g, a), b.shape))
    return Tensor(a.data * b.data, (a, b), vjps)


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


def broadcast_to(a: Tensor, shape: Shape) -> Tensor:
    # a read-only view: no tensor's data is written in place
    return Tensor(np.broadcast_to(a.data, shape), (a,), (lambda g: _unbroadcast(g, a.shape),))


def reshape(a: Tensor, shape: Shape) -> Tensor:
    old = a.shape
    return Tensor(a.data.reshape(shape), (a,), (lambda g: reshape(g, old),))


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


def backward(output: Tensor, inputs: Sequence[Tensor], adjoint=None) -> list[Tensor]:
    """Adjoints of a scalar output w.r.t. `inputs`, or the vjp of `adjoint`.

    `adjoint`, an array of the output's shape, seeds the output in place of
    a scalar output's 1.0 (for a gradient output: a Hessian-vector product).
    Only the adjoints on a path from `output` to one of `inputs` are formed:
    a node's vjp is called for a parent only when that parent depends on an
    input. An input off every path gets a zeros tensor, built only for it.
    The returned tensors carry their own tape, so expressions built from
    them can be differentiated again.
    """
    if adjoint is None and output.shape != ():
        raise ContractError(f"objective must be scalar, got shape {output.shape}")
    if adjoint is not None and np.shape(adjoint) != output.shape:
        raise ContractError(f"adjoint shape {np.shape(adjoint)} does not match output shape {output.shape}")
    order, active = _active_order(output, inputs)
    adjoints: dict[Tensor, Tensor] = {output: constant(1.0 if adjoint is None else adjoint)}
    for node in reversed(order):  # every active node under `output` has an adjoint when reached
        if node._vjp is None:  # `output` itself, an input leaf
            continue
        g = adjoints[node]
        for parent, vjp in zip(node._parents, node._vjp):
            if parent in active:
                pg = vjp(g)
                prev = adjoints.get(parent)
                adjoints[parent] = pg if prev is None else add(prev, pg)
    return [adjoints[t] if t in adjoints else constant(np.zeros(t.shape)) for t in inputs]
