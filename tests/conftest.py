"""Shared fixtures: the gate's inertial dataset and its weighting sweep.

The gate experiment is training.GATE_DATA plus training.lambda_sweep of
GATE_TRAIN: adaptive weighting and fixed weights 0 / 0.1 / 1 / 10, each
evaluated on the test split. Several gate tests compare these runs against
each other, so they are built once per session. Everything is seeded and
single-threaded; the numbers quoted in the gate tests reproduce exactly on a
given platform.
"""
import time

import pytest

from physden.data import generate_dataset
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
