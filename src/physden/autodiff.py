"""Reverse-mode automatic differentiation over dense float64 arrays.

Deliberately small: the tape, the elementwise ops and the loss that training
records. The denoiser's forward and the physics residuals run on arrays and
record one fused node each through ``_record``. Tensors are dense 0-D to 3-D
float64 arrays; binary operations take operands of equal shape (two 0-d
scalars included) and never broadcast. Gradients are computed by walking an
explicit tape of recorded operations in reverse, and are returned in a dict
keyed by the tensor objects themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Node",
    "NumericalError",
    "backward",
    "recording",
    "add",
    "mul",
    "mse",
    "AdamState",
    "adam_step",
]


class NumericalError(RuntimeError):
    """A computation produced non-finite values or failed a numeric check."""


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop.

    ``requires_grad`` marks leaves the caller wants gradients for; it
    propagates to results of operations so the tape can prune dead branches.
    Tensors hash by identity (no ``__eq__``), which keys backward's gradients.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 3:
            raise ValueError(f"Tensor supports at most 3 dims, got {self.data.ndim}")
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded operation: inputs, output, and its vector-Jacobian rule."""

    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 vjp: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of operations; every node's inputs precede it.

    Use as a context manager; operations executed inside record themselves
    when any input requires a gradient. Creation order is evaluation order,
    so the node list is always topologically sorted.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on these inputs records a node: a tape is active and some input requires a gradient."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op's output and record its node on the active tape (the model and physics nodes use it too)."""
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if recording(inputs):
        _TAPE_STACK[-1].nodes.append(Node(op, inputs, out, vjp))
    return out


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(tensor) for every tensor the loss reaches on the tape, keyed by the tensor.

    A tensor the loss does not reach, or that needs no gradient, has no
    entry. Pure in the tape: calling twice returns identical gradients. The
    loss must be a scalar (0-d) tensor.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    for node in reversed(tape.nodes):
        g = grads.get(node.output)
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.vjp(g)):
            if gi is None:
                continue
            acc = grads.get(inp)
            grads[inp] = np.asarray(gi, dtype=np.float64) if acc is None else acc + gi
    return grads


# ---------------------------------------------------------------------------
# Elementwise operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("add", a, b)

    def vjp(g):
        return (g if a.requires_grad else None), (g if b.requires_grad else None)

    return _record("add", (a, b), a.data + b.data, vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("mul", a, b)
    ad, bd = a.data, b.data

    def vjp(g):
        return (g * bd if a.requires_grad else None), (g * ad if b.requires_grad else None)

    return _record("mul", (a, b), ad * bd, vjp)


# ---------------------------------------------------------------------------
# Losses


def mse(a, target) -> Tensor:
    """Mean over all elements of (a - target) squared, with target a constant.

    target is an array of a's shape or a number such as 0.0; only a gets a
    gradient. One node whose VJP replays the arithmetic of a subtract,
    square and mean chain.
    """
    a = _as_tensor(a)
    target = np.asarray(target, dtype=np.float64)
    if a.data.shape != target.shape and target.ndim != 0:
        raise ValueError(f"mse: shape mismatch {a.data.shape} vs {target.shape}")
    d = a.data - target

    def vjp(g):
        t = np.full(d.shape, float(g) / d.size) * d
        return (t + t if a.requires_grad else None,)

    return _record("mse", (a,), np.asarray((d * d).mean()), vjp)


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, flat over the parameter list, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "AdamState":
        size = sum(p.data.size for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size))


# Adam's moment decay rates and denominator guard, at the usual values.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def adam_step(params: Sequence[Tensor], grads: dict[Tensor, np.ndarray], state: AdamState,
              lr: float) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter tensors.

    grads is backward's dict; a parameter without an entry has a zero
    gradient. The parameters' gradients are updated as one flat block,
    elementwise as each parameter alone would be. A non-finite gradient
    raises before any parameter, moment or the step counter changes.
    """
    if state.m.size != sum(p.data.size for p in params):
        raise ValueError("adam_step: state does not match parameter list")
    t = state.t + 1
    g = np.concatenate([grads[p].ravel() if p in grads else np.zeros(p.data.size) for p in params])
    if not np.all(np.isfinite(g)):
        first = next(i for i, p in enumerate(params) if not np.all(np.isfinite(grads.get(p, 0.0))))
        raise NumericalError(f"non-finite gradient for parameter {first} at step {t}")
    state.t = t
    state.m = _BETA1 * state.m + (1.0 - _BETA1) * g
    state.v = _BETA2 * state.v + (1.0 - _BETA2) * (g * g)
    mhat = state.m / (1.0 - _BETA1 ** t)
    vhat = state.v / (1.0 - _BETA2 ** t)
    step = lr * mhat / (np.sqrt(vhat) + _EPS)
    offset = 0
    for p in params:
        p.data -= step[offset:offset + p.data.size].reshape(p.data.shape)
        offset += p.data.size
    return state
