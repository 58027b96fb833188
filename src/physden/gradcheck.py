"""Finite-difference verification of every differentiable operation.

Each case builds a scalar loss from randomized inputs out of ops that
training records, computes reverse-mode gradients, and compares them entry
by entry against central differences, each input stepped by _EPS times its
largest absolute entry (at least _EPS).
The relative error uses max(1, |analytic|, |numeric|) as denominator so
near-zero gradients are compared absolutely. Inputs are drawn away from
non-smooth points (relu kinks). Each physics family in FAMILIES is one
residual family, whose case is drawn from its record: a short simulated
block made noisy, so a family added to the table is checked with no edit here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .autodiff import (
    Tape,
    Tensor,
    _record,
    add,
    backward,
    mse,
    mul,
)
from .model import ModelParams, conv1d, forward, init_params, merge_denoised, relu
from .physics import FAMILIES, PhysicsSpec, stacked_residual

__all__ = ["CheckResult", "check_gradient", "run_suite"]


@dataclass
class CheckResult:
    """Worst relative error over all instances of one operation family."""

    name: str
    instances: int
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


# Central-difference step of an input whose entries are at most 1 in absolute value.
_EPS = 1e-6


def _step(x: np.ndarray) -> float:
    """_EPS scaled to an input array's largest entry, so large operating points keep their digits."""
    return _EPS * max(1.0, float(np.max(np.abs(x))))


def check_gradient(fn: Callable[[list[Tensor]], Tensor], inputs: Sequence[np.ndarray]) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    fn maps a list of tensors to a scalar tensor and must be a pure function
    of them; it is re-evaluated ~2 x total-entry-count times.
    """
    base = [np.array(v, dtype=np.float64) for v in inputs]
    with Tape() as tape:
        xs = [Tensor(v.copy(), requires_grad=True) for v in base]
        loss = fn(xs)
    grads = backward(loss, tape)

    def value() -> float:
        return float(fn([Tensor(v) for v in base]).data)

    worst = 0.0
    for i, x in enumerate(xs):
        analytic = grads.get(x, np.zeros_like(x.data))
        arr = base[i]
        h = _step(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus = value()
            arr[idx] = orig - h
            f_minus = value()
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[idx])
            denom = max(1.0, abs(a), abs(numeric))
            worst = max(worst, abs(a - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Case construction


def _half_sse(out: Tensor, target: np.ndarray) -> Tensor:
    """0.5 * sum((out - target)^2), recorded as training records a weighted loss: mse times a constant."""
    return mul(mse(out, target), Tensor(out.data.size / 2))


def _probe(op: Callable[[list[Tensor]], Tensor], inputs: Sequence[np.ndarray], w: np.ndarray) -> Callable:
    """op's output reduced by _half_sse against op(inputs) - w, so its cotangent at inputs is w."""
    target = op([Tensor(v) for v in inputs]).data - w
    return lambda xs: _half_sse(op(xs), target)


def _away_from_zero(x: np.ndarray, margin: float = 0.1) -> np.ndarray:
    s = np.where(x >= 0, 1.0, -1.0)
    return x + s * margin


def _batch(rng: np.random.Generator) -> tuple[int, ...]:
    """A batch axis of two windows (C x 2 x T inputs) for about half the instances."""
    return (2,) if rng.uniform() < 0.5 else ()


def _residual_case(rng: np.random.Generator, family: str) -> tuple[Callable, list[np.ndarray]]:
    """The family's residual probed at 6 simulated steps, with weights drawn last.

    One window, or two where _batch draws a batch, is simulated with the record's environment
    defaults and dt from seeds drawn from rng, stacked into a C x [B x] T block and moved off the
    constraint by gaussian noise of 0.1 x each window row's std plus 1e-3.
    """
    record = FAMILIES[family]
    env = record.environment(dt=record.dt)
    batch = _batch(rng)
    seeds = rng.integers(2**32, size=batch or 1)
    vals = np.stack([w.values for w in record.simulate(5 * record.dt, env, seeds)], axis=1)
    vals = vals.reshape(vals.shape[0], *batch, vals.shape[-1])
    vals = vals + rng.normal(size=vals.shape) * (0.1 * vals.std(axis=-1, keepdims=True) + 1e-3)
    spec = PhysicsSpec(family, env, record.channels)
    w = rng.uniform(-1.0, 1.0, size=stacked_residual(vals, spec).shape)
    return _probe(lambda xs: stacked_residual(xs[0], spec), [vals], w), [vals]


def _model_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    c, shape = 2, (*_batch(rng), 9)
    params = init_params(c, (2, 3, 2), rng)
    x = rng.uniform(-1.0, 1.0, size=(c, *shape))
    target = rng.uniform(-1.0, 1.0, size=(c, *shape))
    arrays = [x]
    for w, b in zip(params.weights, params.biases):
        arrays.append(w.data)
        # init_params' zero biases would put a pre-activation fed by all-zero
        # relu outputs exactly on the kink.
        arrays.append(_away_from_zero(rng.uniform(-0.2, 0.2, size=b.shape), 0.05))

    def fn(xs: list[Tensor]) -> Tensor:
        return mse(forward(ModelParams(weights=xs[1::2], biases=xs[2::2]), xs[0]), target)

    return fn, arrays


def _elementwise_case(op: Callable) -> Callable:
    def case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
        a = rng.uniform(-2.0, 2.0, size=(2, 3))
        b = rng.uniform(-2.0, 2.0, size=(2, 3))
        w = rng.uniform(-1.0, 1.0, size=(2, 3))
        return _probe(lambda xs: op(xs[0], xs[1]), [a, b], w), [a, b]

    return case


def _relu_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    """model.relu as a one-node probe, its VJP as forward's node runs it."""
    a = _away_from_zero(rng.uniform(-2.0, 2.0, size=(2, 5)))
    w = rng.uniform(-1.0, 1.0, size=(2, 5))

    def op(xs: list[Tensor]) -> Tensor:
        out, vjp = relu(xs[0].data)
        return _record("relu", (xs[0],), out, lambda g: (vjp(g),))

    return _probe(op, [a], w), [a]


def _conv1d_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    """model.conv1d as a one-node probe, its input gradient included."""
    k = int(rng.choice([3, 5]))
    shape = (*_batch(rng), 8)
    x = rng.uniform(-1.0, 1.0, size=(2, *shape))
    wgt = rng.uniform(-1.0, 1.0, size=(3, 2, k))
    b = rng.uniform(-1.0, 1.0, size=(3,))
    w = rng.uniform(-1.0, 1.0, size=(3, *shape))

    def op(xs: list[Tensor]) -> Tensor:
        out, vjp = conv1d(*(t.data for t in xs))
        return _record("conv1d", tuple(xs), out, lambda g: vjp(g, True))

    return _probe(op, [x, wgt, b], w), [x, wgt, b]


def _mse_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    """mse of a against a constant target of a's shape or, in about 3 of 10 instances, a number."""
    a = rng.uniform(-2.0, 2.0, size=(2, 5))
    target = rng.uniform(-2.0, 2.0, size=(2, 5) if rng.uniform() < 0.7 else ())
    return (lambda xs: mse(xs[0], target)), [a]


def _merge_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    """The training merge into 5 base rows; rows 3 and 1 are neither first nor contiguous."""
    rows, shape = [3, 1], (*_batch(rng), 6)
    y = rng.uniform(-2.0, 2.0, size=(len(rows), *shape))
    z = rng.uniform(-2.0, 2.0, size=y.shape) if rng.uniform() < 0.5 else None
    base = rng.uniform(-2.0, 2.0, size=(5, *shape))
    mean, std = rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.5, 2.0, size=2)
    w = rng.uniform(-1.0, 1.0, size=base.shape)
    return _probe(lambda xs: merge_denoised(xs[0], z, base, rows, mean, std), [y], w), [y]


def _cases() -> dict[str, Callable[[np.random.Generator], tuple[Callable, list[np.ndarray]]]]:
    """Each operation family's case builder, in suite order, with one residual family per FAMILIES entry."""
    residuals = {f"residual_{name}": partial(_residual_case, family=name) for name in FAMILIES}
    return {"add": _elementwise_case(add), "mul": _elementwise_case(mul), "relu": _relu_case,
            "conv1d": _conv1d_case, "mse": _mse_case, "merge": _merge_case, **residuals,
            "model_forward": _model_case}


def run_suite(seed: int = 0, instances: int = 20, tolerance: float = 1e-5) -> list[CheckResult]:
    """Check `instances` random cases of every operation family, in suite order; one result row each.

    seed must be at least 0, as numpy's generators take it, instances at least
    1 and tolerance finite and positive, so that a passing suite has checked
    something against a real bound.
    """
    if seed < 0:
        raise ValueError(f"gradcheck: seed must be >= 0, got {seed}")
    if instances < 1:
        raise ValueError(f"gradcheck: instances must be >= 1, got {instances}")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"gradcheck: tolerance must be finite and positive, got {tolerance}")
    rng = np.random.default_rng(seed)
    results = []
    for name, case in _cases().items():
        worst = 0.0
        for _ in range(instances):
            fn, inputs = case(rng)
            worst = max(worst, check_gradient(fn, inputs))
        results.append(CheckResult(name=name, instances=instances, max_rel_err=worst, tol=tolerance))
    return results
