"""Two-phase denoiser training with physics-balanced loss.

Phase 1 (a configurable fraction of the epochs) minimizes reconstruction
alone and never evaluates the physics residual; phase 2 adds the residual
term with a weight that is either fixed or rebalanced every iteration to
the ratio of the two losses, so both contribute equally at the evaluation
point. The weight itself is always treated as a constant during
differentiation; only the residual term carries gradient.

Batches re-noise the observed windows on the fly: the model sees window
plus fresh noise and is trained to reproduce the window, which is what
makes the denoiser generalize instead of memorizing. Each batch draws its
noise once, for all of its windows.

The acceptance gate's experiment lives here too: its inertial dataset
(GATE_DATA), its training (GATE_TRAIN) and the weighting sweep over them
(lambda_sweep), which the gate and scripts/lambda_sweep.py both run.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import (
    AdamState,
    NumericalError,
    Tape,
    Tensor,
    adam_step,
    add,
    backward,
    mse,
    mul,
)
from .data import (
    Dataset,
    NoiseSpec,
    SimulateConfig,
    compute_norm_stats,
    generate_dataset,
    inject_noise,
    noise_std,
    NormStats,
)
from .metrics import EvalReport, evaluate
from .model import Denoiser, ModelParams, denoise, forward, init_params, merge_denoised
from .physics import (
    FAMILIES,
    PhysicsSpec,
    SampleWindow,
    _check_finite,
    check_window,
    physics_loss_tensor,
)

__all__ = [
    "NoiseSpec",
    "TrainConfig",
    "LogRow",
    "TrainResult",
    "TrainingAborted",
    "train",
    "BiasDemoReport",
    "bias_demo",
    "GATE_DATA",
    "GATE_TRAIN",
    "SweepRun",
    "lambda_sweep",
]

LAMBDA_MIN = 1e-8
LAMBDA_MAX = 1e8


@dataclass
class TrainConfig:
    """Optimization settings.

    lambda_mode is "adaptive" (weight = l_rec/l_phy each iteration, clamped
    to [1e-8, 1e8]) or "fixed" (weight = lambda_value throughout phase 2).
    """

    lr: float = 1e-4
    batch_size: int = 16
    epochs_total: int = 50
    pretrain_fraction: float = 0.2
    lambda_mode: str = "adaptive"
    lambda_value: float = 1.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    widths: tuple[int, int, int] = (128, 256, 128)
    predict_residual: bool = False

    def __post_init__(self):
        _check_finite(self)
        if self.lr <= 0:
            raise ValueError(f"TrainConfig: lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"TrainConfig: batch_size must be >= 1, got {self.batch_size}")
        if self.epochs_total < 1:
            raise ValueError(f"TrainConfig: epochs_total must be >= 1, got {self.epochs_total}")
        if not 0.0 <= self.pretrain_fraction <= 1.0:
            raise ValueError(
                f"TrainConfig: pretrain_fraction must be in [0,1], got {self.pretrain_fraction}"
            )
        if self.lambda_mode not in ("adaptive", "fixed"):
            raise ValueError(
                f"TrainConfig: lambda_mode must be 'adaptive' or 'fixed', got {self.lambda_mode!r}"
            )
        if self.lambda_value < 0:
            raise ValueError(f"TrainConfig: lambda_value must be >= 0, got {self.lambda_value}")
        if self.seed < 0:
            raise ValueError(f"TrainConfig: seed must be >= 0, got {self.seed}")


@dataclass
class LogRow:
    """One optimizer step, one row of the training log CSV. l_phy and lam are None in phase 1."""

    epoch: int
    iteration: int
    phase: int
    l_rec: float
    l_phy: float | None
    lam: float | None
    total: float


@dataclass
class TrainResult:
    denoiser: Denoiser
    log: list[LogRow]

    @property
    def params(self) -> ModelParams:
        return self.denoiser.params


class TrainingAborted(RuntimeError):
    """Raised on a non-finite loss or gradient, as "aborted at epoch E iteration I: <cause>".

    denoiser carries the parameters of the last completed epoch (the initial
    ones when epoch 0 aborts); log holds every step before the failing one.
    """

    def __init__(self, message: str, denoiser: Denoiser, log: list[LogRow]):
        super().__init__(message)
        self.denoiser = denoiser
        self.log = log


def _lambda_for(l_rec: float, l_phy: float, mode: str, value: float) -> float:
    if mode == "fixed":
        return float(value)
    if l_phy == 0.0:
        # Perfectly satisfied constraint: the ratio is unbounded, so the
        # weight sits at the upper clamp (the term contributes 0 anyway).
        return LAMBDA_MAX
    return float(min(max(l_rec / l_phy, LAMBDA_MIN), LAMBDA_MAX))


# ---------------------------------------------------------------------------
# Training loop


def train(
    windows: Sequence[SampleWindow],
    spec: PhysicsSpec,
    cfg: TrainConfig,
    denoise_channels: Sequence[str] | None = None,
    norm_stats: NormStats | None = None,
) -> TrainResult:
    """Fit a denoiser on observed windows.

    Epoch layout: the first round(pretrain_fraction * epochs_total) epochs
    are reconstruction-only (phase 1, residual never evaluated); the rest
    add the weighted residual (phase 2). Windows are shuffled each epoch and
    batched; a batch runs as one channel x window x time block, so all
    windows must pass check_window (the spec's channels) and share one
    length, and each batch loss is a mean over all of its windows' entries.
    All randomness (init, shuffling, injected noise) derives from cfg.seed,
    so runs repeat bitwise. The returned Denoiser is built before the first
    step, so repeated denoise channels are its error and no step runs. A
    non-finite loss or gradient raises TrainingAborted, "aborted at epoch E
    iteration I: <cause>", carrying the parameters of the last completed
    epoch (the initial ones in epoch 0).
    """
    windows = list(windows)
    if not windows:
        raise ValueError("train: need at least one window")
    t_len = windows[0].n_timesteps
    for i, w in enumerate(windows):
        check_window(w, spec)
        if w.n_timesteps != t_len:
            raise ValueError(f"train: window {i} has length {w.n_timesteps}, window 0 has {t_len}")
    if denoise_channels is None:
        denoise_channels = FAMILIES[spec.family].denoise
    denoise_channels = [str(c) for c in denoise_channels]
    missing = [c for c in denoise_channels if c not in spec.channels]
    if missing:
        raise ValueError(f"train: windows lack denoise channels: {', '.join(missing)}")
    if norm_stats is None:
        norm_stats = compute_norm_stats(windows)
    den_idx = [spec.channels.index(c) for c in denoise_channels]

    seed_init, seed_shuffle, seed_noise = np.random.SeedSequence(cfg.seed).spawn(3)
    model = Denoiser(init_params(len(den_idx), cfg.widths, np.random.default_rng(seed_init)), denoise_channels,
                     *norm_stats.subset(denoise_channels), cfg.predict_residual, spec.dt)
    tensors = model.params.all_tensors()
    state = AdamState.for_params(tensors)
    rng_shuffle = np.random.default_rng(seed_shuffle)
    rng_noise = np.random.default_rng(seed_noise)

    pretrain_epochs = int(round(cfg.pretrain_fraction * cfg.epochs_total))
    log: list[LogRow] = []
    last_good = [t.data.copy() for t in tensors]

    # The windows never change: one C x N x T block and each window's noise scale.
    values = np.stack([w.values for w in windows], axis=1)
    scaled_std = noise_std(values, cfg.noise).T
    for epoch in range(cfg.epochs_total):
        phase = 1 if epoch < pretrain_epochs else 2
        order = rng_shuffle.permutation(len(windows))
        for iteration, start in enumerate(range(0, len(windows), cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            target = values.take(batch, axis=1)
            with Tape() as tape:
                noisy = inject_noise(target, cfg.noise, scaled_std[batch], rng_noise)
                z = (noisy[den_idx] - model.norm_mean[:, None, None]) / model.norm_std[:, None, None]
                merged = merge_denoised(forward(model.params, Tensor(z)), z if model.predict_residual else None,
                                        target, den_idx, model.norm_mean, model.norm_std)
                l_rec_t = mse(merged, target)
                l_rec = float(l_rec_t.data)
                if phase == 2:
                    l_phy_t = physics_loss_tensor(merged, spec)
                    l_phy = float(l_phy_t.data)
                    lam = _lambda_for(l_rec, l_phy, cfg.lambda_mode, cfg.lambda_value)
                    total_t = add(l_rec_t, mul(l_phy_t, lam))
                else:
                    l_phy = None
                    lam = None
                    total_t = l_rec_t
                total = float(total_t.data)

            try:
                if not np.isfinite(total):
                    raise NumericalError("non-finite loss")
                adam_step(tensors, backward(total_t, tape), state, lr=cfg.lr)
            except NumericalError as err:
                last = [Tensor(data, requires_grad=True) for data in last_good]
                carried = dataclasses.replace(model, params=ModelParams(last[0::2], last[1::2]))
                raise TrainingAborted(f"aborted at epoch {epoch} iteration {iteration}: {err}",
                                      denoiser=carried, log=log) from err
            log.append(LogRow(epoch, iteration, phase, l_rec, l_phy, lam, total))
        last_good = [t.data.copy() for t in tensors]

    return TrainResult(denoiser=model, log=log)


# ---------------------------------------------------------------------------
# Naive-denoiser bias demonstration


@dataclass
class BiasDemoReport:
    """Mean output error of a reconstruction-only vs physics-weighted denoiser.

    Errors are on the biased channel against the clean truth, averaged per
    window and then across windows; stderr is over the per-window means.
    A reconstruction-only model targets the observations, so its mean error
    approaches the inherent bias; the physics term pulls it back toward the
    constraint-consistent value.
    """

    channel: str
    eta_frac: float
    eta_abs: float
    channel_std: float
    n_windows: int
    rec_mean_error: float
    rec_stderr: float
    phys_mean_error: float
    phys_stderr: float

    @property
    def rec_error_frac(self) -> float:
        return self.rec_mean_error / self.channel_std

    @property
    def phys_error_frac(self) -> float:
        return self.phys_mean_error / self.channel_std


def _mean_error_stats(
    denoiser: Denoiser,
    noisy: Sequence[SampleWindow],
    clean: Sequence[SampleWindow],
    channel: str,
) -> tuple[float, float]:
    per_window = []
    for obs, truth in zip(noisy, clean):
        restored = denoise(denoiser, obs)
        per_window.append(float(np.mean(restored.row(channel) - truth.row(channel))))
    per_window = np.asarray(per_window)
    return float(per_window.mean()), float(per_window.std(ddof=1) / np.sqrt(len(per_window)))


# The physics-weighted model of the bias demonstration; its reconstruction-
# only twin differs in pretrain_fraction alone.
BIAS_DEMO_TRAIN = TrainConfig(
    lr=3e-3,
    batch_size=16,
    epochs_total=600,
    pretrain_fraction=0.2,
    lambda_mode="adaptive",
    noise=NoiseSpec(kind="gaussian", scale=0.2),
    seed=0,
    widths=(16, 32, 16),
    predict_residual=True,
)


def bias_demo(eta_frac: float = 0.5, n_windows: int = 48, seed: int = 11) -> BiasDemoReport:
    """Train twin denoisers on biased observations and report their mean errors.

    Builds an air-handler dataset of 48-step windows whose supply-air channel
    carries a constant inherent bias of eta_frac times its clean pooled std
    (plus zero-mean gaussian inherent noise on all channels), then trains a
    reconstruction-only model (pretrain_fraction 1, the naive denoiser) and a
    physics-weighted model on identical observations. Both train on all
    windows, normalized by statistics pooled over all noisy windows rather
    than a train split, and are evaluated against the clean truth on all
    windows. n_windows must be at least 2, as the dataset's split needs both halves.
    """
    if n_windows < 2:
        raise ValueError(f"bias_demo: n_windows must be >= 2, got {n_windows}")
    if not np.isfinite(eta_frac):
        raise ValueError(f"bias_demo: eta_frac must be finite, got {eta_frac}")
    channel = "t_sa"
    dataset = generate_dataset(
        SimulateConfig(
            family="hvac",
            count=n_windows,
            duration=47 * 60.0,
            dt=60.0,
            seed=seed,
            noise_kind="gaussian",
            noise_scale=0.15,
            bias_frac={channel: eta_frac},
        )
    )
    clean, noisy, spec = dataset.clean, dataset.windows, dataset.spec
    channel_std = float(compute_norm_stats(clean).std[clean[0].channel_index(channel)])
    norm = compute_norm_stats(noisy)

    rec_cfg = dataclasses.replace(BIAS_DEMO_TRAIN, pretrain_fraction=1.0)
    rec = train(noisy, spec, rec_cfg, norm_stats=norm)
    phys = train(noisy, spec, BIAS_DEMO_TRAIN, norm_stats=norm)

    rec_mean, rec_se = _mean_error_stats(rec.denoiser, noisy, clean, channel)
    phys_mean, phys_se = _mean_error_stats(phys.denoiser, noisy, clean, channel)
    return BiasDemoReport(
        channel=channel,
        eta_frac=eta_frac,
        eta_abs=eta_frac * channel_std,
        channel_std=channel_std,
        n_windows=n_windows,
        rec_mean_error=rec_mean,
        rec_stderr=rec_se,
        phys_mean_error=phys_mean,
        phys_stderr=phys_se,
    )


# ---------------------------------------------------------------------------
# The gate's weighting sweep


# 64 windows of 128 samples; observations carry gaussian noise at 0.2 of
# each channel's std plus a constant offset of 0.3 std on every channel.
GATE_DATA = SimulateConfig(
    family="ins",
    count=64,
    duration=1.27,
    dt=0.01,
    seed=7,
    noise_kind="gaussian",
    noise_scale=0.2,
    bias_frac={c: 0.3 for c in FAMILIES["ins"].channels},
)

# Training shared by the sweep's runs; only the weighting mode and value
# differ between them.
GATE_TRAIN = TrainConfig(
    lr=1e-3,
    batch_size=2,
    epochs_total=30,
    pretrain_fraction=0.2,
    lambda_mode="adaptive",
    noise=NoiseSpec(kind="gaussian", scale=0.1),
    seed=7,
    widths=(16, 32, 16),
    predict_residual=True,
)


@dataclass
class SweepRun:
    """One training of a weighting sweep, evaluated on the test split; seconds is its training's wall time."""

    label: str
    result: TrainResult
    report: EvalReport
    seconds: float


def lambda_sweep(
    dataset: Dataset, base: TrainConfig, lambdas: Sequence[float]
) -> tuple[EvalReport, list[SweepRun]]:
    """Train base with adaptive weighting, then with each fixed weight, and evaluate each.

    Runs are labelled "adaptive" and "fixed {lam:g}" ("fixed 0" is the
    reconstruction-only model). Each trains on the train split with the
    dataset's denoise channels and norm stats, and its denoised test split is
    evaluated against the clean test windows. Returns the report of the noisy
    test split and one SweepRun per run, in that order.
    """
    test_clean = [dataset.clean[i] for i in dataset.split[1]]

    def report(label: str, windows: Sequence[SampleWindow]) -> EvalReport:
        return evaluate(label, windows, dataset.spec, test_clean, channels=dataset.denoise_channels)

    noisy = report("noisy", dataset.test_windows)
    settings = [("adaptive", dataclasses.replace(base, lambda_mode="adaptive"))]
    settings += [(f"fixed {lam:g}", dataclasses.replace(base, lambda_mode="fixed", lambda_value=lam))
                 for lam in lambdas]
    runs = []
    for label, cfg in settings:
        start = time.perf_counter()
        result = train(dataset.train_windows, dataset.spec, cfg,
                       denoise_channels=dataset.denoise_channels, norm_stats=dataset.norm_stats)
        seconds = time.perf_counter() - start
        restored = [denoise(result.denoiser, w) for w in dataset.test_windows]
        runs.append(SweepRun(label, result, report(label, restored), seconds))
    return noisy, runs
