"""Shared fixtures: the gate's inertial dataset and its weighting sweep, and a toy tank family.

The gate experiment is training.GATE_DATA plus training.lambda_sweep of
GATE_TRAIN: adaptive weighting and fixed weights 0 / 0.1 / 1 / 10, each
evaluated on the test split. Several gate tests compare these runs against
each other, so they are built once per session. Everything is seeded and
single-threaded: BLAS and OpenMP run one thread unless the environment sets
their thread counts. The numbers quoted in the gate tests reproduce exactly
on a given platform.

The tank family is added to physics.FAMILIES as one entry, with no library
edit, by the tank fixture; tests/test_families.py runs it end to end.
"""
import dataclasses
import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads its BLAS

import numpy as np
import pytest

from physden.data import generate_dataset
from physden.physics import FAMILIES, Family, SampleWindow, exclusive_prefix_sum_values
from physden.training import GATE_DATA, GATE_TRAIN, lambda_sweep


@pytest.fixture(scope="session")
def bench_timings():
    return {}


@pytest.fixture(scope="session")
def bench_dataset(bench_timings):
    start = time.perf_counter()
    dataset = generate_dataset(GATE_DATA)
    bench_timings["dataset_build"] = time.perf_counter() - start
    return dataset


@pytest.fixture(scope="session")
def bench_runs(bench_dataset, bench_timings):
    """The noisy test split's report, and the sweep's runs by label ("adaptive", "fixed 0", ...)."""
    noisy, runs = lambda_sweep(bench_dataset, GATE_TRAIN, (0, 0.1, 1, 10))
    bench_timings.update((run.label, run.seconds) for run in runs)
    return noisy, {run.label: run for run in runs}


@dataclasses.dataclass
class TankEnvironment:
    """A tank's cross-section (m^2, a power of two) and initial level (m)."""

    dt: float
    area: float = 4.0
    initial_level: float = 1.0


def _tank_supply(q_in, q_out, env):
    """A h0 + sum_{s<t} (q_in - q_out) dt: the volume the flows leave in the tank."""
    return env.area * env.initial_level + exclusive_prefix_sum_values((q_in - q_out) * env.dt)


def residual_tank(h, q_in, q_out, env):
    """Volume balance A h[t] - (A h0 + sum_{s<t} (q_in - q_out) dt), 1 x [B x] T, and its VJP."""
    out = h * env.area - _tank_supply(q_in, q_out, env)

    def vjp(g):
        later = (np.cumsum(g[..., ::-1], axis=-1)[..., ::-1] - g) * env.dt
        return g * env.area, -later, later

    return out, vjp


def simulate_tank(duration, env, seeds):
    """Random inflow and outflow rows per seed, and the level they leave; A a power of two
    makes the level's A h[t] the supply exactly, so the clean residual is 0.0."""
    t_len = int(round(duration / env.dt)) + 1
    windows = []
    for seed in seeds:
        q_in, q_out = np.random.default_rng(seed).uniform(0.0, 0.5, size=(2, 1, t_len))
        level = _tank_supply(q_in, q_out, env) / env.area
        windows.append(SampleWindow(list(TANK.channels), np.concatenate([level, q_in, q_out]),
                                    env.dt, list(TANK.units)))
    return windows


TANK = Family(
    groups=(("h",), ("q_in",), ("q_out",)), units=("m", "m^3/s", "m^3/s"), denoise=("h",),
    environment=TankEnvironment, residual=residual_tank, simulate=simulate_tank,
    duration=40.0, dt=1.0)


@pytest.fixture
def tank(monkeypatch):
    monkeypatch.setitem(FAMILIES, "tank", TANK)
    return TANK
