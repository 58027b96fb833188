"""Two-phase training loop: weighting rule, logging, determinism, failure paths."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import physden
import physden.training as training_mod
from physden.autodiff import NumericalError, Tensor
from physden.data import (
    NoiseSpec,
    SimulateConfig,
    compute_norm_stats,
    generate_dataset,
)
from physden.gradcheck import _probe, check_gradient
from physden.model import denoise, merge_denoised
from physden.physics import (
    FAMILIES,
    HvacEnvironment,
    PhysicsSpec,
    SampleWindow,
    simulate_hvac,
    window_residuals,
)
from physden.training import (
    LAMBDA_MAX,
    LAMBDA_MIN,
    TrainConfig,
    TrainingAborted,
    _lambda_for,
    train,
)

SMALL = TrainConfig(
    lr=1e-3,
    batch_size=2,
    epochs_total=5,
    pretrain_fraction=0.4,
    noise=NoiseSpec(kind="gaussian", scale=0.1),
    seed=3,
    widths=(2, 3, 2),
)


def hvac_setup(count=4, seed=0):
    cfg = SimulateConfig(family="hvac", count=count, duration=600.0, dt=60.0, seed=seed,
                         noise_scale=0.1)
    ds = generate_dataset(cfg)
    return ds


# ---------------------------------------------------------------------------
# Configuration


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs_total"):
        TrainConfig(epochs_total=0)
    with pytest.raises(ValueError, match="pretrain_fraction"):
        TrainConfig(pretrain_fraction=1.5)
    with pytest.raises(ValueError, match="lambda_mode"):
        TrainConfig(lambda_mode="auto")
    with pytest.raises(ValueError, match="lambda_value"):
        TrainConfig(lambda_value=-1.0)


# ---------------------------------------------------------------------------
# Weighting rule


def hvac_losses(offset, rebalance=False):
    """(l_rec, l_phy) of a clean hvac window shifted by offset, against the clean one."""
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1000.0)
    spec = PhysicsSpec(
        family="hvac",
        environment=env,
        channels=FAMILIES["hvac"].channels,
    )
    [clean] = simulate_hvac(300.0, env, [6])
    values = clean.values + offset
    if rebalance:
        values[2] = 1000.0 * (values[0] - values[1])  # keep balance exact
    off = dataclasses.replace(clean, values=values)
    (r,) = window_residuals([off], spec)
    return float(np.mean((off.values - clean.values) ** 2)), float(np.mean(r * r))


def test_adaptive_weight_balances_terms():
    l_rec, l_phy = hvac_losses(0.5)
    assert l_rec > 0 and l_phy > 0
    lam = _lambda_for(l_rec, l_phy, "adaptive", 1.0)
    assert lam == pytest.approx(l_rec / l_phy)
    # the balanced total is exactly twice the reconstruction term
    assert l_rec + lam * l_phy == pytest.approx(2.0 * l_rec)


def test_fixed_weight_passthrough():
    l_rec, l_phy = hvac_losses(1.0)
    assert _lambda_for(l_rec, l_phy, "fixed", 2.5) == 2.5
    assert _lambda_for(0.0, 0.0, "fixed", 2.5) == 2.5


def test_adaptive_weight_clamps_and_zero_residual_case():
    # identical windows: l_rec = 0 and l_phy = 0, weight pegs at the top clamp
    assert hvac_losses(0.0) == (0.0, 0.0)
    assert _lambda_for(0.0, 0.0, "adaptive", 1.0) == LAMBDA_MAX

    # huge reconstruction error over a satisfied constraint: upper clamp
    l_rec, l_phy = hvac_losses(np.array([[1e6], [1e6], [0.0]]), rebalance=True)
    assert l_rec > 0 and l_phy == 0.0
    assert _lambda_for(l_rec, l_phy, "adaptive", 1.0) == LAMBDA_MAX

    # ratios beyond either bound are clamped to it
    assert _lambda_for(1e10, 1.0, "adaptive", 1.0) == LAMBDA_MAX
    assert _lambda_for(1.0, 1e10, "adaptive", 1.0) == LAMBDA_MIN
    assert LAMBDA_MIN == 1e-8 and LAMBDA_MAX == 1e8


# ---------------------------------------------------------------------------
# Loop structure and logging


def test_phase_boundary_rounds_pretrain_fraction():
    ds = hvac_setup()
    cfg = dataclasses.replace(SMALL, epochs_total=5, pretrain_fraction=0.5)
    result = train(ds.train_windows, ds.spec, cfg, norm_stats=ds.norm_stats)
    phases = {}
    for row in result.log:
        phases.setdefault(row.epoch, row.phase)
    # round(0.5 * 5) = 2 reconstruction-only epochs
    assert [phases[e] for e in sorted(phases)] == [1, 1, 2, 2, 2]


def test_phase1_never_evaluates_residual():
    ds = hvac_setup()
    result = train(ds.train_windows, ds.spec, SMALL, norm_stats=ds.norm_stats)
    for row in result.log:
        if row.phase == 1:
            assert row.l_phy is None and row.lam is None
            assert row.total == row.l_rec
        else:
            assert row.l_phy is not None and row.lam is not None
            assert row.total == pytest.approx(row.l_rec + row.lam * row.l_phy)


def test_pretrain_fraction_one_is_reconstruction_only():
    ds = hvac_setup()
    cfg = dataclasses.replace(SMALL, pretrain_fraction=1.0)
    result = train(ds.train_windows, ds.spec, cfg, norm_stats=ds.norm_stats)
    assert all(row.phase == 1 for row in result.log)


def test_iterations_cover_windows_in_batches():
    ds = hvac_setup(count=6)  # 3 train windows, batch 2 -> 2 iterations/epoch
    result = train(ds.train_windows, ds.spec, SMALL, norm_stats=ds.norm_stats)
    per_epoch = {}
    for row in result.log:
        per_epoch.setdefault(row.epoch, []).append(row.iteration)
    for iters in per_epoch.values():
        assert iters == [0, 1]


def test_training_is_deterministic_per_seed():
    ds = hvac_setup()
    a = train(ds.train_windows, ds.spec, SMALL, norm_stats=ds.norm_stats)
    b = train(ds.train_windows, ds.spec, SMALL, norm_stats=ds.norm_stats)
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa.data, wb.data)
    assert [(r.l_rec, r.total) for r in a.log] == [(r.l_rec, r.total) for r in b.log]

    c = train(ds.train_windows, ds.spec, dataclasses.replace(SMALL, seed=4),
              norm_stats=ds.norm_stats)
    assert not np.array_equal(a.params.weights[0].data, c.params.weights[0].data)


_TRAIN_DIGEST = """
import hashlib
from physden.data import NoiseSpec, SimulateConfig, generate_dataset
from physden.training import TrainConfig, train

ds = generate_dataset(SimulateConfig(family="ins", count=4, duration=0.3, dt=0.01, seed=1))
# widths large enough that a multithreaded BLAS splits the conv matmuls
cfg = TrainConfig(lr=1e-3, batch_size=2, epochs_total=4, pretrain_fraction=0.5,
                  noise=NoiseSpec(kind="gaussian", scale=0.1), seed=2, widths=(64, 128, 64))
result = train(ds.train_windows, ds.spec, cfg, norm_stats=ds.norm_stats)
digest = hashlib.sha256()
for t in result.params.all_tensors():
    digest.update(t.data.tobytes())
print(digest.hexdigest())
"""

# The serve shape: 7 denoised rows of 100 samples per window through the 271,623-parameter model.
_DENOISE_DIGEST = """
import hashlib
from physden.data import SimulateConfig, generate_dataset
from physden.model import Denoiser, denoise, init_params
from physden.physics import FAMILIES

ds = generate_dataset(SimulateConfig(family="ins", count=4, duration=0.99, dt=0.01, seed=1))
channels = list(FAMILIES["ins"].denoise)
model = Denoiser(init_params(len(channels), (128, 256, 128), rng=1), channels,
                 *ds.norm_stats.subset(channels))
digest = hashlib.sha256()
for w in ds.windows:
    digest.update(denoise(model, w).values.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("script", [_TRAIN_DIGEST, _DENOISE_DIGEST], ids=["train", "denoise"])
def test_training_is_bitwise_equal_across_blas_thread_counts(script):
    src = str(Path(physden.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# The GATE_DATA dataset's digest, and 4 of its windows after model.denoise by the seeded serve-shape
# model, saved to the path given; the first word printed is the OpenBLAS core in use.
_KERNEL_RUN = """
import ctypes, hashlib, sys
import numpy as np
from physden.data import generate_dataset
from physden.model import Denoiser, denoise, init_params
from physden.physics import FAMILIES
from physden.training import GATE_DATA

try:
    from numpy._core import _multiarray_umath

    corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    kernel = corename().decode()
except (ImportError, OSError, AttributeError):
    kernel = "unknown"
ds = generate_dataset(GATE_DATA)
digest = hashlib.sha256(repr(ds.split).encode())
for values in [w.values for w in ds.windows + ds.clean] + [ds.norm_stats.mean, ds.norm_stats.std]:
    digest.update(values.tobytes())
channels = list(FAMILIES["ins"].denoise)
model = Denoiser(init_params(len(channels), (128, 256, 128), rng=1), channels,
                 *ds.norm_stats.subset(channels))
np.save(sys.argv[1], np.stack([denoise(model, w).values for w in ds.windows[:4]]))
print(kernel, digest.hexdigest())
"""


def test_dataset_bits_hold_and_denoise_agrees_to_8_eps_across_openblas_kernels(tmp_path):
    # Measured on a SkylakeX host between Haswell and Sandybridge: every dataset bit equal, and
    # each denoised entry within 3.1 eps of its channel's largest magnitude (2.8 eps over all 64
    # windows); 8 eps is the bound stated for this contract.
    src = str(Path(physden.__file__).resolve().parents[1])
    runs = []
    for kernel in ("Haswell", "Sandybridge"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", _KERNEL_RUN, str(tmp_path / f"{kernel}.npy")],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        runs.append(out.stdout.split())
    if [run[0] for run in runs] != ["Haswell", "Sandybridge"]:
        pytest.skip(f"numpy's OpenBLAS runs {runs[0][0]} and {runs[1][0]} here, not the two kernels asked for")
    assert runs[0][1] == runs[1][1]
    a, b = (np.load(tmp_path / f"{kernel}.npy") for kernel in ("Haswell", "Sandybridge"))
    scale = np.maximum(np.abs(a), np.abs(b)).max(axis=(0, 2), keepdims=True)
    # The two kernels' denoised bits differ here (about a fifth of the entries), so the bound is the contract.
    assert np.all(np.abs(a - b) <= 8 * np.finfo(np.float64).eps * scale)


def test_train_validates_inputs():
    ds = hvac_setup()
    with pytest.raises(ValueError, match="at least one window"):
        train([], ds.spec, SMALL)
    with pytest.raises(ValueError, match="lack denoise channels"):
        train(ds.train_windows, ds.spec, SMALL, denoise_channels=["t_sa", "nope"])
    with pytest.raises(ValueError, match="^Denoiser: channel names must be distinct, got t_sa, t_sa$"):
        train(ds.train_windows, ds.spec, SMALL, denoise_channels=["t_sa", "t_sa"])
    first, second = ds.windows[:2]
    t_len = first.n_timesteps
    short = SampleWindow(second.channels, second.values[:, 1:], second.dt, second.units)
    with pytest.raises(ValueError, match=f"window 1 has length {t_len - 1}, window 0 has {t_len}"):
        train([first, short, short], ds.spec, SMALL)
    slow = [dataclasses.replace(w, dt=120.0) for w in ds.train_windows]
    with pytest.raises(ValueError, match="window dt 120.0 does not match environment dt 60.0"):
        train(slow, ds.spec, SMALL)


def test_train_rejects_windows_whose_rows_are_in_another_order():
    ds = hvac_setup()
    order = [1, 0, 2]
    permuted = [SampleWindow([w.channels[i] for i in order], w.values[order], w.dt,
                             [w.units[i] for i in order]) for w in ds.train_windows]
    with pytest.raises(ValueError, match="^window channels t_mix, t_sa, dq differ from "
                                         "the spec's t_sa, t_mix, dq$"):
        train(permuted, ds.spec, SMALL)


def test_passthrough_channels_come_from_target_window():
    ds = hvac_setup()
    result = train(ds.train_windows, ds.spec, SMALL, norm_stats=ds.norm_stats)
    # hvac denoises the two temperatures; the power row passes through
    assert result.denoiser.channels == ["t_sa", "t_mix"]
    w = ds.train_windows[0]
    restored = denoise(result.denoiser, w)
    assert np.array_equal(restored.row("dq"), w.row("dq"))


@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("residual", [False, True])
def test_merge_denoised_values_and_gradient(batch, residual):
    rng = np.random.default_rng(len(batch) + 2 * residual)
    rows, shape = [3, 1], (*batch, 6)  # neither first nor contiguous
    y = rng.normal(size=(2, *shape))
    z = rng.normal(size=y.shape) if residual else None
    base = rng.normal(size=(5, *shape))
    mean, std = np.array([0.5, -2.0]), np.array([3.0, 0.25])
    out = merge_denoised(Tensor(y), z, base, rows, mean, std).data
    for j, row in enumerate(rows):
        assert np.array_equal(out[row], ((y[j] + z[j]) if residual else y[j]) * std[j] + mean[j])
    for row in (0, 2, 4):
        assert np.array_equal(out[row], base[row])
    w = rng.normal(size=base.shape)
    fn = _probe(lambda xs: merge_denoised(xs[0], z, base, rows, mean, std), [y], w)
    assert check_gradient(fn, [y]) <= 1e-5


def test_phase2_ins_batch_records_seven_nodes(monkeypatch):
    ds = generate_dataset(SimulateConfig(family="ins", count=4, duration=0.3, dt=0.01, seed=1))
    cfg = dataclasses.replace(SMALL, epochs_total=2, pretrain_fraction=0.5, predict_residual=True)
    tapes = []
    real_backward = training_mod.backward

    def recording_backward(loss, tape):
        tapes.append([node.op for node in tape.nodes])
        return real_backward(loss, tape)

    monkeypatch.setattr(training_mod, "backward", recording_backward)
    result = train(ds.train_windows, ds.spec, cfg, norm_stats=ds.norm_stats)
    assert result.log[-1].phase == 2
    assert tapes[-1] == ["model_forward", "merge", "mse", "residual_ins", "mse", "mul", "add"]
    assert tapes[0] == ["model_forward", "merge", "mse"]


def test_training_abort_carries_last_good_state():
    ds = hvac_setup()
    # Adam steps are bounded by lr, so pick one that overflows the next
    # forward pass outright.
    cfg = dataclasses.replace(SMALL, lr=1e308, epochs_total=6)
    with np.errstate(all="ignore"), pytest.raises(TrainingAborted) as excinfo:
        train(ds.train_windows, ds.spec, cfg, norm_stats=ds.norm_stats)
    err = excinfo.value
    assert "non-finite loss" in str(err) and "epoch" in str(err)
    assert err.log, "log up to the failure is preserved"
    assert err.denoiser.channels == ["t_sa", "t_mix"]
    # the carried parameters are finite (last epoch-end snapshot)
    for w in err.denoiser.params.weights:
        assert np.all(np.isfinite(w.data))


def test_training_abort_carries_the_last_completed_epoch_to_the_bit(monkeypatch):
    ds = hvac_setup(count=8)
    cfg = dataclasses.replace(SMALL, epochs_total=6, pretrain_fraction=1.0)
    per_epoch = -(-len(ds.train_windows) // cfg.batch_size)
    assert per_epoch >= 2
    real_adam_step, calls = training_mod.adam_step, []

    def failing_adam_step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2 * per_epoch + 2:  # epoch 2, iteration 1
            raise NumericalError("injected")
        return real_adam_step(*args, **kwargs)

    monkeypatch.setattr(training_mod, "adam_step", failing_adam_step)
    with pytest.raises(TrainingAborted, match="aborted at epoch 2 iteration 1: injected") as excinfo:
        train(ds.train_windows, ds.spec, cfg, norm_stats=ds.norm_stats)
    monkeypatch.undo()
    two = train(ds.train_windows, ds.spec, dataclasses.replace(cfg, epochs_total=2), norm_stats=ds.norm_stats)
    carried = excinfo.value.denoiser.params.all_tensors()
    assert len(excinfo.value.log) == 2 * per_epoch + 1
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(carried, two.params.all_tensors()))
