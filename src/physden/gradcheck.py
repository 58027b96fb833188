"""Finite-difference verification of every differentiable operation.

Each case builds a scalar loss from randomized inputs out of ops that
training records, computes reverse-mode gradients, and compares them entry
by entry against central differences.
The relative error uses max(1, |analytic|, |numeric|) as denominator so
near-zero gradients are compared absolutely. Inputs are drawn away from
non-smooth points (relu kinks, zero-norm quaternions).
"""
from __future__ import annotations

from dataclasses import dataclass
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
from .physics import (
    Co2Environment,
    HvacEnvironment,
    InsEnvironment,
    FAMILIES,
    PhysicsSpec,
    stacked_residual,
)

__all__ = ["CheckResult", "check_gradient", "run_suite", "SUITE_FAMILIES"]


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


# Central-difference step.
_EPS = 1e-6


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
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + _EPS
            f_plus = value()
            arr[idx] = orig - _EPS
            f_minus = value()
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * _EPS)
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


def _residual_case(
    rng: np.random.Generator, family: str, env, vals: np.ndarray
) -> tuple[Callable, list[np.ndarray]]:
    """The family's residual rows probed with weights drawn last in the residual's shape."""
    spec = PhysicsSpec(family, env, FAMILIES[family].channels)
    w = rng.uniform(-1.0, 1.0, size=stacked_residual(vals, spec).shape)
    return _probe(lambda xs: stacked_residual(xs[0], spec), [vals], w), [vals]


def _ins_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    shape = (*_batch(rng), 6)
    vals = rng.uniform(-1.0, 1.0, size=(13, *shape))
    # Orientation samples of norm 0.6 to 2, away from the zero quaternion.
    vals[3:7] = rng.choice([-1.0, 1.0], size=(4, *shape)) * rng.uniform(0.3, 1.0, size=(4, *shape))
    return _residual_case(rng, "ins", InsEnvironment(dt=0.05), vals)


def _co2_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    shape = (*_batch(rng), 6)
    env = Co2Environment(room_volume=64.0, emission_rate=0.5, initial_ppm=4.0, dt=2.0)
    # c_room and c_out, then the driver rows: flow, inflow and headcount.
    vals = np.concatenate([
        rng.uniform(3.0, 5.0, size=(2, *shape)),
        rng.uniform(0.05, 0.2, size=(1, *shape)),
        rng.uniform(3.0, 5.0, size=(1, *shape)),
        rng.integers(0, 3, size=(1, *shape)).astype(float),
    ])
    return _residual_case(rng, "co2", env, vals)


def _hvac_case(rng: np.random.Generator) -> tuple[Callable, list[np.ndarray]]:
    env = HvacEnvironment(dt=1.0, mass_flow=rng.uniform(0.5, 1.5), specific_heat=1.0)
    return _residual_case(rng, "hvac", env, rng.uniform(-2.0, 2.0, size=(3, *_batch(rng), 6)))


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


# Each operation family's case builder, in suite order.
_CASES: dict[str, Callable[[np.random.Generator], tuple[Callable, list[np.ndarray]]]] = {
    "add": _elementwise_case(add),
    "mul": _elementwise_case(mul),
    "relu": _relu_case,
    "conv1d": _conv1d_case,
    "mse": _mse_case,
    "merge": _merge_case,
    "residual_ins": _ins_case,
    "residual_co2": _co2_case,
    "residual_hvac": _hvac_case,
    "model_forward": _model_case,
}

SUITE_FAMILIES = tuple(_CASES)


def run_suite(seed: int = 0, instances: int = 20, rel_tol: float = 1e-5) -> list[CheckResult]:
    """Check `instances` random cases of every family in SUITE_FAMILIES; one result row each.

    instances must be at least 1 and rel_tol finite and positive, so that a
    passing suite has checked something against a real bound.
    """
    if instances < 1:
        raise ValueError(f"gradcheck: instances must be >= 1, got {instances}")
    if not (np.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"gradcheck: tolerance must be finite and positive, got {rel_tol}")
    rng = np.random.default_rng(seed)
    results = []
    for name in SUITE_FAMILIES:
        worst = 0.0
        for _ in range(instances):
            fn, inputs = _CASES[name](rng)
            worst = max(worst, check_gradient(fn, inputs))
        results.append(CheckResult(name=name, instances=instances, max_rel_err=worst, tol=rel_tol))
    return results
