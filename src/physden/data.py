"""Synthetic data generation, corruption, splitting, and CSV/manifest plumbing.

Simulators produce ground truth that satisfies the matching residual family
by construction: the CO2 and HVAC generators reuse the residual's own
arithmetic (same helper functions, same association order), so their clean
output cancels to exactly 0.0; the inertial generator is limited only by the
finite-difference stencil, giving a documented O(dt^2) mean-square residual.

File formats: one window per CSV with header ``t,<channel names>`` and a
strictly increasing, uniformly spaced time column; a dataset is an INI
manifest naming the window files, the physics family, environment constants,
units, and the train/test split.
"""
from __future__ import annotations

import configparser
import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .physics import (
    CHANNEL_NAMES,
    CHANNEL_UNITS,
    DENOISE_CHANNELS,
    Co2Environment,
    HvacEnvironment,
    InsEnvironment,
    RESIDUAL_BLOCK,
    PhysicsSpec,
    _check_finite,
    check_window,
    co2_known_terms,
    default_channel_map,
    hamilton_rows,
    hvac_heat_capacity_rate,
    quat_exp,
    window_residuals,
)

__all__ = [
    "SampleWindow",
    "NormStats",
    "NoiseSpec",
    "Dataset",
    "SimulateConfig",
    "simulate_ins",
    "simulate_co2",
    "simulate_hvac",
    "inject_noise",
    "noise_std",
    "split_by_alignment",
    "compute_norm_stats",
    "save_csv",
    "load_csv",
    "save_dataset",
    "load_manifest",
    "generate_dataset",
]


# ---------------------------------------------------------------------------
# Core containers


@dataclass
class SampleWindow:
    """One c x T block of named, uniformly sampled sensor channels."""

    channels: list[str]
    values: np.ndarray
    dt: float
    units: list[str]

    def __post_init__(self):
        self.channels = [str(c) for c in self.channels]
        self.values = np.asarray(self.values, dtype=np.float64)
        self.units = [str(u) for u in self.units]
        if self.values.ndim != 2:
            raise ValueError(f"SampleWindow: values must be c x T, got shape {self.values.shape}")
        c, t_len = self.values.shape
        if c < 1 or t_len < 3:
            raise ValueError(f"SampleWindow: need c >= 1 and T >= 3, got shape {self.values.shape}")
        if len(self.channels) != c:
            raise ValueError(f"SampleWindow: {len(self.channels)} names for {c} rows")
        if not np.isfinite(self.values).all():
            row, t = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(f"SampleWindow: {self.channels[row]!r} is non-finite at timestep {t}")
        if len(set(self.channels)) != c:
            raise ValueError("SampleWindow: channel names must be unique")
        if len(self.units) != c:
            raise ValueError(f"SampleWindow: {len(self.units)} units for {c} rows")
        if not self.dt > 0:
            raise ValueError(f"SampleWindow: dt must be positive, got {self.dt}")

    @property
    def n_timesteps(self) -> int:
        return self.values.shape[1]

    def channel_index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise ValueError(f"window has no channel {name!r}") from None

    def row(self, name: str) -> np.ndarray:
        return self.values[self.channel_index(name), :]


@dataclass
class NormStats:
    """Per-channel mean and population std pooled over windows and timesteps."""

    channels: list[str]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        n = len(self.channels)
        if self.mean.shape != (n,) or self.std.shape != (n,):
            raise ValueError("NormStats: mean/std must match the channel list")
        if np.any(self.std <= 0):
            raise ValueError("NormStats: std entries must be positive")

    def subset(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        idx = [self.channels.index(n) for n in names]
        return self.mean[idx], self.std[idx]


def compute_norm_stats(windows: Sequence[SampleWindow]) -> NormStats:
    """Pool all timesteps of all windows; zero-variance channels get std 1."""
    if not windows:
        raise ValueError("compute_norm_stats: need at least one window")
    channels = windows[0].channels
    for w in windows:
        if w.channels != channels:
            raise ValueError("compute_norm_stats: windows must share a channel layout")
    stacked = np.concatenate([w.values for w in windows], axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    std = np.where(std > 0, std, 1.0)
    return NormStats(channels=list(channels), mean=mean, std=std)


NOISE_KINDS = ("gaussian", "uniform", "zero-mask")


@dataclass
class NoiseSpec:
    """Additive noise description.

    scale is a fraction of each channel's own std within the window (gaussian
    std, or uniform half-width); zero-mask instead zeroes a mask_fraction of
    timesteps chosen uniformly per channel.
    """

    kind: str = "gaussian"
    scale: float = 0.1
    mask_fraction: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"NoiseSpec: kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.scale < 0:
            raise ValueError(f"NoiseSpec: scale must be >= 0, got {self.scale}")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ValueError(f"NoiseSpec: mask_fraction must be in [0,1], got {self.mask_fraction}")


def noise_std(values: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Each window's per-channel noise scale: spec.scale times the channel's std over time."""
    return spec.scale * values.std(axis=-1)


def _draw(spec: NoiseSpec, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if spec.kind == "gaussian":
        return rng.standard_normal(shape)
    return rng.uniform(-1.0, 1.0, size=shape)


def _add_noise(values: np.ndarray, spec: NoiseSpec, rng, scaled_std: np.ndarray | None = None) -> None:
    """Add noise in place to a B x C x T block (or view) of windows.

    rng is one generator, which serves the windows in turn (one B x C x T
    draw equals B sequential C x T draws), or a sequence of one generator per
    window. Window b's rows are scaled by row b of scaled_std, by default
    noise_std of the block.
    """
    rngs = [rng] * len(values) if isinstance(rng, np.random.Generator) else rng
    t_len = values.shape[-1]
    if spec.kind == "zero-mask":
        n_mask = int(round(spec.mask_fraction * t_len))
        for window, g in zip(values, rngs):
            for row in window:
                row[g.choice(t_len, size=n_mask, replace=False)] = 0.0
        return
    if scaled_std is None:
        scaled_std = noise_std(values, spec)
    if isinstance(rng, np.random.Generator):
        noise = _draw(spec, rng, values.shape)
    else:
        noise = np.stack([_draw(spec, g, values.shape[1:]) for g in rng])
    noise *= scaled_std[..., None]
    values += noise


def inject_noise(block: np.ndarray, spec: NoiseSpec, scaled_std: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Fresh noisy copy of a C x B x T block of windows, all drawn from rng at once.

    Window b gets the noise a C x T draw of its own would give, in batch
    order, scaled by row b of the B x C scaled_std (noise_std of the clean
    windows); deterministic given the generator state.
    """
    noisy = block.copy()
    _add_noise(noisy.transpose(1, 0, 2), spec, rng, scaled_std)
    return noisy


# ---------------------------------------------------------------------------
# Simulators


def _sum_of_modes(amp: np.ndarray, freq: np.ndarray, phase: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k amp[...,k] sin(2 pi freq[...,k] t + phase[...,k]), shape (..., len(t)).

    Modes are added one at a time in order, as np.sum over a mode axis adds
    them, so no (..., modes, T) block is held.
    """
    total = None
    for k in range(amp.shape[-1]):
        term = amp[..., k, None] * np.sin(2.0 * np.pi * freq[..., k, None] * t + phase[..., k, None])
        total = term if total is None else total + term
    return total


def _sum_of_modes_ddot(amp: np.ndarray, freq: np.ndarray, phase: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Second time derivative of _sum_of_modes."""
    return _sum_of_modes(-amp * (2.0 * np.pi * freq) ** 2, freq, phase, t)


def _timesteps(duration: float, dt: float) -> int:
    t_len = int(round(duration / dt)) + 1
    if t_len < 3:
        raise ValueError(f"duration {duration} with dt {dt} gives T={t_len}, need >= 3")
    return t_len


def _windows(family: str, values: np.ndarray, dt: float) -> list[SampleWindow]:
    """One SampleWindow of the family's channels per row of a B x C x T block."""
    return [SampleWindow(list(CHANNEL_NAMES[family]), block, dt, list(CHANNEL_UNITS[family]))
            for block in values]


def simulate_ins(duration: float, env: InsEnvironment, seeds: Sequence, motion_scale: float = 1.0,
                 rotation_scale: float = 0.5, n_modes: int = 4) -> list[SampleWindow]:
    """Smooth inertial trajectories with self-consistent sensor channels, one per seed.

    Positions and angular rates are superpositions of random sinusoids whose
    coefficients are drawn before any time sampling, so regenerating with a
    halved dt (same seed) samples the same continuous motion. Orientation is
    integrated with the left-endpoint incremental rotation
    q[t+1] = q[t] * exp(0.5 w[t] dt), which leaves the orientation-rate
    residual at O(dt) per entry: its mean square is bounded by
    dt^2 * max_t |w_dot(t)|^2 / 16 and shrinks by ~4x when dt is halved.
    Accelerometer rows use the analytic second derivative of position, rotated
    by the residual's own conjugation Im(conj(q) (0, p_ddot - g0) q), so the
    specific-force residual carries only the O(dt^2) stencil truncation.

    Each window draws its mode coefficients from its own generator (amplitude,
    frequency, phase of position, then of angular rate), and every window runs
    in the same block operations: each step's exponential is one block (Solà,
    arXiv:1711.02508, section 4), the q recurrence is one Hamilton product per
    step on length-B arrays, renormalised with residual_ins's norm, and the
    accelerometer rows are one block conjugation. Every operation is
    elementwise and none goes through BLAS, so each window is bitwise the
    window simulated alone.
    """
    dt = env.dt
    t_len = _timesteps(duration, dt)
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append([
            rng.uniform(lo, hi, size=(3, n_modes))
            for scale in (motion_scale, rotation_scale)
            for lo, hi in ((-scale, scale), (0.05, 0.4), (0.0, 2.0 * np.pi))
        ])
    # 3 x B x n_modes each: a channel x window block, as the residual takes.
    amp_p, freq_p, phase_p, amp_w, freq_w, phase_w = (np.stack(c, axis=1) for c in zip(*draws))

    n_win = len(draws)
    values = np.empty((n_win, len(CHANNEL_NAMES["ins"]), t_len))  # the windows' rows, B x C x T
    p, q, w, a = np.split(values.transpose(1, 0, 2), [3, 7, 10])  # C x B x T views
    t = np.arange(t_len) * dt
    p[...] = _sum_of_modes(amp_p, freq_p, phase_p, t)
    w[...] = _sum_of_modes(amp_w, freq_w, phase_w, t)

    steps = quat_exp(0.5 * dt * w[:, :, :-1].reshape(3, -1)).reshape(4, n_win, t_len - 1)
    steps = steps.transpose(2, 0, 1).copy()  # (T-1) x 4 x B
    q[:, :, 0] = np.array([1.0, 0.0, 0.0, 0.0])[:, None]
    qk = q[:, :, 0]
    for k in range(t_len - 1):
        qw, qx, qy, qz = hamilton_rows(qk, steps[k])
        n = np.sqrt(((qw * qw + qx * qx) + qy * qy) + qz * qz)
        qk = (qw / n, qx / n, qy / n, qz / n)
        q[:, :, k + 1] = qk
    v = _sum_of_modes_ddot(amp_p, freq_p, phase_p, t) - env.gravity[:, None, None]
    conj = (q[0], -q[1], -q[2], -q[3])
    a[...] = hamilton_rows(hamilton_rows(conj, (0.0, *v)), q)[1:]
    return _windows("ins", values, dt)


def _random_occupancy(t_len: int, rng: np.random.Generator) -> np.ndarray:
    """Piecewise-constant headcount of 0 to 4, in segments of 5 to 19 steps."""
    occ = np.zeros(t_len)
    i = 0
    while i < t_len:
        seg = int(rng.integers(5, 20))
        occ[i : i + seg] = float(rng.integers(0, 5))
        i += seg
    return occ


def simulate_co2(duration: float, env: Co2Environment, seeds: Sequence, flow: float,
                 inflow_ppm: float) -> list[SampleWindow]:
    """Room CO2 by the exact discrete mass balance, next to its driver rows, one window per seed.

    Each window's flow and inflow_ppm rows hold the given constants and its
    occupancy row a random piecewise-constant headcount drawn from its seed.
    The update runs once over the B windows and uses the residual's own
    accumulated-supply helper and association order, so the residual of the
    clean output is exactly 0.0 bitwise when room_volume is a power of two
    (the default elsewhere in the package); for other volumes it is zero up to
    the final rounding step.

    c_out is modeled as the well-mixed room value.
    """
    t_len = _timesteps(duration, env.dt)
    occupants = np.array([_random_occupancy(t_len, np.random.default_rng(seed)) for seed in seeds])
    flow_rows = np.full(occupants.shape, float(flow))
    inflow_rows = np.full(occupants.shape, float(inflow_ppm))

    base = co2_known_terms(flow_rows, inflow_rows, occupants, env)
    c_room = np.empty(occupants.shape)
    removed = 0.0
    for k in range(t_len):
        c_room[:, k] = (base[:, k] - removed) / env.room_volume
        removed = removed + (c_room[:, k] * flow_rows[:, k]) * env.dt
    values = np.stack([c_room, c_room, flow_rows, inflow_rows, occupants], axis=1)
    return _windows("co2", values, env.dt)


def simulate_hvac(duration: float, env: HvacEnvironment, seeds: Sequence) -> list[SampleWindow]:
    """Air-handler temperatures consistent with the coil power balance, one window per seed.

    Each window draws a smooth mixed-air temperature (295 K plus three
    sinusoids of up to 2 K) and a smooth coil power schedule (three sinusoids
    of up to 2 kW) from its own seed, then sets t_sa = t_mix + dq/(m c). The
    stored power row is recomputed as m*c*(t_sa - t_mix), the residual's exact
    expression, so the clean residual is 0.0 bitwise.
    """
    mc = hvac_heat_capacity_rate(env)
    if mc == 0.0:
        raise ValueError("simulate_hvac: degenerate environment, m*c is zero")
    dt = env.dt
    t_len = _timesteps(duration, dt)
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append([rng.uniform(lo, hi, size=3) for amp in (2.0, 2000.0)
                      for lo, hi in ((-amp, amp), (0.2, 2.0), (0.0, 2.0 * np.pi))])
    # B x 3 each: mixed-air temperature modes, then coil power modes.
    amp_m, freq_m, phase_m, amp_q, freq_q, phase_q = (np.array(c) for c in zip(*draws))
    freq_m, freq_q = freq_m / (t_len * dt), freq_q / (t_len * dt)
    t = np.arange(t_len) * dt
    t_mix = 295.0 + _sum_of_modes(amp_m, freq_m, phase_m, t)
    dq = _sum_of_modes(amp_q, freq_q, phase_q, t)
    t_sa = t_mix + dq / mc
    values = np.stack([t_sa, t_mix, mc * (t_sa - t_mix)], axis=1)
    return _windows("hvac", values, dt)


# ---------------------------------------------------------------------------
# Alignment split


def _alignment_scores(windows: Sequence[SampleWindow], spec: PhysicsSpec) -> list[float]:
    """Each window's sum of squared residual entries; the split's ranking statistic."""
    return [float(np.sum(r * r)) for r in window_residuals(windows, spec)]


def split_by_alignment(
    windows: Sequence[SampleWindow], spec: PhysicsSpec
) -> tuple[list[int], list[int]]:
    """Best-aligned half trains, the rest tests.

    Ranks windows by _alignment_scores ascending with ties broken by original
    index (stable sort); the ceil(N/2) smallest go to train.
    """
    if len(windows) < 2:
        raise ValueError(f"split_by_alignment: need at least 2 windows, got {len(windows)}")
    scores = np.array(_alignment_scores(windows, spec))
    order = np.argsort(scores, kind="stable")
    n_train = (len(windows) + 1) // 2
    train = sorted(int(i) for i in order[:n_train])
    test = sorted(int(i) for i in order[n_train:])
    return train, test


# ---------------------------------------------------------------------------
# Dataset container


@dataclass
class Dataset:
    """Observed windows plus their physics wiring, split, and train-split stats.

    clean holds the pre-corruption ground truth when the data came from a
    simulator (evaluation only); denoise_channels names the rows a model
    should reconstruct, the rest pass through.
    """

    windows: list[SampleWindow]
    spec: PhysicsSpec
    split: tuple[list[int], list[int]]
    norm_stats: NormStats
    clean: list[SampleWindow] | None = None
    denoise_channels: list[str] = field(default_factory=list)

    def __post_init__(self):
        _check_split(self.split, len(self.windows))
        if self.clean is not None and len(self.clean) != len(self.windows):
            raise ValueError("Dataset: clean list must pair 1:1 with windows")
        if not self.denoise_channels:
            self.denoise_channels = list(DENOISE_CHANNELS[self.spec.family])

    @property
    def train_windows(self) -> list[SampleWindow]:
        return [self.windows[i] for i in self.split[0]]

    @property
    def test_windows(self) -> list[SampleWindow]:
        return [self.windows[i] for i in self.split[1]]


def _check_split(split: tuple[list[int], list[int]], n_windows: int) -> None:
    """Reject a split whose train and test lists do not partition the window indices."""
    if sorted([*split[0], *split[1]]) != list(range(n_windows)):
        raise ValueError("Dataset: split must partition window indices")


def _dataset(family: str, environment, windows: list[SampleWindow], clean: list[SampleWindow],
             split: tuple[list[int], list[int]] | None = None,
             denoise_channels: Sequence[str] = ()) -> Dataset:
    """A Dataset of observed windows: the family's channel map by name, the
    given split (by default split_by_alignment) and the train split's norm stats.
    Every window must pass check_window, with a given split as without."""
    spec = PhysicsSpec(family, environment, default_channel_map(family, windows[0].channels))
    if split is None:
        split = split_by_alignment(windows, spec)  # which checks each window
    else:
        for window in windows:
            check_window(window, spec)
    _check_split(split, len(windows))  # before the train split's stats index the windows
    stats = compute_norm_stats([windows[i] for i in split[0]] or windows)
    return Dataset(windows, spec, split, stats, clean=clean or None,
                   denoise_channels=list(denoise_channels))


# ---------------------------------------------------------------------------
# CSV window files


def save_csv(window: SampleWindow, path) -> None:
    """Write one window as ``t,<channels>`` rows at 17 significant digits.

    ``csv.writer`` writes (and quotes) the header; the rows are formatted in
    one pass with the ``%.17g`` fields and CRLF ends the writer would produce.
    """
    path = Path(path)
    table = np.vstack([np.arange(window.n_timesteps) * window.dt, window.values]).T
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(["t"] + list(window.channels))
        fh.write((line * table.shape[0]) % tuple(table.ravel().tolist()))


def load_csv(path, schema: Sequence[str] | None = None) -> SampleWindow:
    """Read a window CSV; dt is inferred from the time column.

    schema, when given, lists channel names that must be present (extra
    columns are kept, file order preserved). Values, the time column
    included, must be finite. Errors carry path:line. A CSV stores no
    units, so every row gets '1'; load_manifest sets the manifest's.
    The data lines are parsed in one pass with ``float``; a file that pass
    cannot take whole (a bad line, a quoted number) is rescanned by csv.reader.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        lines = fh.readlines()
    if header is None:
        raise ValueError(f"{path}:1: empty file")
    if not header or header[0] != "t":
        raise ValueError(f"{path}:1: header must start with 't', got {header[:1]}")
    names = header[1:]
    if not names:
        raise ValueError(f"{path}:1: no channel columns")
    if schema is not None:
        missing = [n for n in schema if n not in names]
        if missing:
            raise ValueError(f"{path}:1: missing channels: {', '.join(missing)}")

    n_cols = len(header)
    try:
        parsed = np.array([list(map(float, line.split(","))) for line in lines])
    except ValueError:
        parsed = None
    if parsed is None or parsed.shape != (len(lines), n_cols):
        # Rescan record by record as csv.reader sees them, to name the first bad line.
        records = list(csv.reader(lines))
        parsed = np.empty((len(records), n_cols))
        for k, row in enumerate(records):
            line = k + 2
            if len(row) != n_cols:
                raise ValueError(f"{path}:{line}: expected {n_cols} columns, got {len(row)}")
            try:
                parsed[k, :] = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{line}: non-numeric value in row") from None
    non_finite = np.flatnonzero(~np.isfinite(parsed).all(axis=1))
    if non_finite.size:
        raise ValueError(f"{path}:{non_finite[0] + 2}: non-finite value in row")

    if parsed.shape[0] < 3:
        raise ValueError(f"{path}: need at least 3 data rows, got {parsed.shape[0]}")
    t = parsed[:, 0]
    steps = np.diff(t)
    bad = np.flatnonzero(steps <= 0)
    if bad.size:
        raise ValueError(f"{path}:{bad[0] + 3}: time column not strictly increasing")
    dt = float(t[1] - t[0])
    off = np.flatnonzero(np.abs(steps - dt) > 1e-6 * dt)
    if off.size:
        raise ValueError(f"{path}:{off[0] + 3}: non-uniform time step")

    return SampleWindow(channels=names, values=parsed[:, 1:].T.copy(), dt=dt, units=["1"] * len(names))


# ---------------------------------------------------------------------------
# Dataset manifest (INI)

_ENVIRONMENTS = {"ins": InsEnvironment, "co2": Co2Environment, "hvac": HvacEnvironment}


def _env_keys(env_type) -> list[str]:
    """An environment's fields in manifest order: dt first, then as declared."""
    return sorted((f.name for f in dataclasses.fields(env_type)), key=lambda name: name != "dt")


def _env_section(spec: PhysicsSpec) -> dict[str, str]:
    """[environment] key/values, each constant at 17 significant digits.

    gravity's three components are joined by commas.
    """
    env = spec.environment
    return {name: ",".join(f"{float(v):.17g}" for v in np.atleast_1d(getattr(env, name)))
            for name in _env_keys(env)}


def _manifest_value(path: Path, section, key: str) -> str:
    """A required manifest entry; a missing one is an error naming its section and key."""
    if key not in section:
        raise ValueError(f"{path}: [{section.name}] is missing the {key!r} key")
    return section[key]


def _manifest_numbers(path: Path, section, key: str, kind=float, size: int | None = 1) -> list:
    """A required manifest entry as its comma-separated numbers of the given kind.

    There must be exactly size of them; with size None, any number, and
    empty items are skipped. Any other value is an error naming the
    manifest, the section and the key.
    """
    raw = _manifest_value(path, section, key)
    try:
        values = [kind(v) for v in raw.split(",") if size is not None or v.strip()]
    except ValueError:
        values = None
    if values is None or size not in (None, len(values)):
        noun = "integer" if kind is int else "number"
        want = f"comma-separated {noun}s" if size is None else f"{size} {noun}" + "s" * (size > 1)
        raise ValueError(f"{path}: [{section.name}] {key} must be {want}, got {raw!r}")
    return values


def _env_from_section(family: str, section, path: Path):
    if family not in _ENVIRONMENTS:
        raise ValueError(f"{path}: unknown family {family!r}")
    env_type = _ENVIRONMENTS[family]
    values = {}
    for name in _env_keys(env_type):
        if name == "gravity":
            values[name] = np.array(_manifest_numbers(path, section, name, size=3))
        else:
            [values[name]] = _manifest_numbers(path, section, name)
    return env_type(**values)


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write window CSVs and manifest.ini; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str

    cfg["dataset"] = {
        "family": dataset.spec.family,
        "count": str(len(dataset.windows)),
        "denoise": ",".join(dataset.denoise_channels),
    }

    cfg["environment"] = _env_section(dataset.spec)

    cfg["units"] = {
        name: unit for name, unit in zip(dataset.windows[0].channels, dataset.windows[0].units)
    }
    cfg["split"] = {
        "train": ",".join(str(i) for i in dataset.split[0]),
        "test": ",".join(str(i) for i in dataset.split[1]),
    }

    files: dict[str, str] = {}
    for i, w in enumerate(dataset.windows):
        name = f"noisy_{i:03d}.csv"
        save_csv(w, out_dir / name)
        files[f"noisy_{i:03d}"] = name
    if dataset.clean is not None:
        for i, w in enumerate(dataset.clean):
            name = f"clean_{i:03d}.csv"
            save_csv(w, out_dir / name)
            files[f"clean_{i:03d}"] = name
    cfg["windows"] = files

    manifest = out_dir / "manifest.ini"
    with manifest.open("w") as fh:
        cfg.write(fh)
    return manifest


def load_manifest(path) -> Dataset:
    """Rebuild a Dataset from a manifest.ini written by save_dataset."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"manifest not found: {path}")
    base = path.parent
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    try:
        cfg.read(path)
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: manifest is not text ({err.reason} at offset {err.start})") from None
    for section in ("dataset", "environment", "windows"):
        if section not in cfg:
            raise ValueError(f"{path}: manifest is missing the [{section}] section")

    family = _manifest_value(path, cfg["dataset"], "family").lower()
    [count] = _manifest_numbers(path, cfg["dataset"], "count", int)
    if count < 1:
        raise ValueError(f"{path}: [dataset] count must be at least 1, got {count}")
    denoise = [c for c in cfg["dataset"].get("denoise", "").split(",") if c]

    env = _env_from_section(family, cfg["environment"], path)
    units = dict(cfg["units"]) if "units" in cfg else {}

    def window(key: str) -> SampleWindow:
        file = base / cfg["windows"][key]
        if not file.is_file():
            raise ValueError(f"{path}: [windows] {key} names no file: {file}")
        w = load_csv(file, schema=CHANNEL_NAMES[family])
        if windows and w.channels != windows[0].channels:
            # Every window is read with window 0's channel map.
            raise ValueError(f"{file}:1: columns {','.join(w.channels)} differ from "
                             f"the first window's {','.join(windows[0].channels)}")
        w.units = [units.get(name, "1") for name in w.channels]
        return w

    windows: list[SampleWindow] = []
    clean: list[SampleWindow] = []
    for i in range(count):
        key = f"noisy_{i:03d}"
        if key not in cfg["windows"]:
            raise ValueError(f"{path}: [windows] is missing {key}")
        windows.append(window(key))
        clean_key = f"clean_{i:03d}"
        if clean_key in cfg["windows"]:
            clean.append(window(clean_key))

    if clean and len(clean) != count:
        raise ValueError(f"{path}: expected 0 or {count} clean windows, got {len(clean)}")

    split = None
    if "split" in cfg and cfg["split"].get("train"):
        split = tuple(_manifest_numbers(path, cfg["split"], key, int, size=None)
                      for key in ("train", "test"))
    return _dataset(family, env, windows, clean, split, denoise)


# ---------------------------------------------------------------------------
# One-call generation


_FAMILY_DEFAULTS = {
    "ins": {"duration": 2.0, "dt": 0.01},
    "co2": {"duration": 3600.0, "dt": 30.0},
    "hvac": {"duration": 3840.0, "dt": 60.0},
}


@dataclass
class SimulateConfig:
    """Everything needed to manufacture a corrupted synthetic dataset."""

    family: str = "ins"
    count: int = 8
    duration: float | None = None
    dt: float | None = None
    seed: int = 0
    noise_kind: str = "gaussian"
    noise_scale: float = 0.1
    mask_fraction: float = 0.0
    bias_frac: dict[str, float] = field(default_factory=dict)
    # ins motion
    motion_scale: float = 1.0
    rotation_scale: float = 0.5
    n_modes: int = 4
    # co2 environment (room_volume defaults to a power of two: the clean
    # residual then cancels bitwise, see simulate_co2)
    room_volume: float = 64.0
    emission_rate: float = 10.0
    initial_ppm: float = 420.0
    # co2's constant flow (m^3/s) and inflow (ppm) rows
    flow: float = 0.03
    inflow_ppm: float = 420.0
    # hvac environment
    mass_flow: float = 1.0
    specific_heat: float = 1006.0

    def __post_init__(self):
        self.family = self.family.lower()
        if self.family not in _FAMILY_DEFAULTS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.count < 2:
            raise ValueError(f"count must be >= 2 (split needs both halves), got {self.count}")
        defaults = _FAMILY_DEFAULTS[self.family]
        if self.duration is None:
            self.duration = defaults["duration"]
        if self.dt is None:
            self.dt = defaults["dt"]
        _check_finite(self)
        if self.seed < 0:
            raise ValueError(f"SimulateConfig: seed must be >= 0, got {self.seed}")
        if not np.isfinite(list(self.bias_frac.values())).all():
            raise ValueError(f"SimulateConfig: bias_frac must be finite, got {self.bias_frac}")
        if self.n_modes < 1:
            raise ValueError(f"SimulateConfig: n_modes must be >= 1, got {self.n_modes}")
        for name in ("motion_scale", "rotation_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"SimulateConfig: {name} must be >= 0, got {getattr(self, name)}")


# Each family's simulator and the SimulateConfig fields it takes after its seeds.
_SIMULATORS = {
    "ins": (simulate_ins, ("motion_scale", "rotation_scale", "n_modes")),
    "co2": (simulate_co2, ("flow", "inflow_ppm")),
    "hvac": (simulate_hvac, ()),
}


def generate_dataset(cfg: SimulateConfig) -> Dataset:
    """Simulate clean windows, corrupt them, split, and pool norm stats.

    The family's environment is built from the config's fields of the same
    names (ins keeps its default gravity), and the family's simulator
    simulates every window as one block, each from its own seed, co2's
    occupancy row included. Every row is noised by the same rule, so
    constant rows (co2's flow and inflow) get none.
    """
    ss = np.random.SeedSequence(cfg.seed)
    sim_seeds = ss.spawn(cfg.count)
    noise_seeds = ss.spawn(cfg.count)

    env_type = _ENVIRONMENTS[cfg.family]
    env = env_type(**{name: getattr(cfg, name) for name in _env_keys(env_type)
                      if hasattr(cfg, name)})
    simulate, constants = _SIMULATORS[cfg.family]
    clean = simulate(cfg.duration, env, sim_seeds, *(getattr(cfg, name) for name in constants))

    bias = None
    if cfg.bias_frac:
        channels = clean[0].channels
        unknown = sorted(set(cfg.bias_frac) - set(channels))
        if unknown:
            raise ValueError(f"bias_frac names unknown channels: {', '.join(unknown)}")
        pooled = compute_norm_stats(clean)
        bias = np.zeros(len(channels))
        for name, frac in cfg.bias_frac.items():
            i = channels.index(name)
            bias[i] = frac * pooled.std[i]

    noise = NoiseSpec(kind=cfg.noise_kind, scale=cfg.noise_scale, mask_fraction=cfg.mask_fraction)
    # Noise RESIDUAL_BLOCK windows at a time: one 64-window block raised peak RSS by 1 MB.
    observed = np.stack([w.values for w in clean])
    rngs = [np.random.default_rng(seed) for seed in noise_seeds]
    for lo in range(0, len(clean), RESIDUAL_BLOCK):
        _add_noise(observed[lo:lo + RESIDUAL_BLOCK], noise, rngs[lo:lo + RESIDUAL_BLOCK])
    if bias is not None:
        observed += bias[:, None]
    windows = [SampleWindow(w.channels, v, w.dt, w.units) for w, v in zip(clean, observed)]
    return _dataset(cfg.family, env, windows, clean)
