"""Noise, splitting, and CSV/manifest plumbing around the physics families.

generate_dataset runs the simulator of a family's FAMILIES entry (physics.py),
then corrupts the clean windows and splits them by physics alignment.

File formats: one window per CSV with header ``t,<channel names>`` and a
strictly increasing, uniformly spaced time column; a dataset is an INI
manifest naming the window files, the physics family, environment constants,
units, and the train/test split.
"""
from __future__ import annotations

import configparser
import csv
import dataclasses
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .physics import (
    FAMILIES,
    RESIDUAL_BLOCK,
    PhysicsSpec,
    SampleWindow,
    _check_finite,
    check_window,
    get_family,
    same_dt,
    window_residuals,
)

__all__ = [
    "NormStats",
    "NoiseSpec",
    "Dataset",
    "SimulateConfig",
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


def _add_noise(values: np.ndarray, spec: NoiseSpec, rngs: Sequence[np.random.Generator],
               scaled_std: np.ndarray | None = None) -> None:
    """Add noise in place to a B x C x T block (or view) of windows, window b's drawn from rngs[b].

    Window b's rows are scaled by row b of scaled_std, by default noise_std of the block.
    """
    t_len = values.shape[-1]
    if spec.kind == "zero-mask":
        n_mask = int(round(spec.mask_fraction * t_len))
        for window, g in zip(values, rngs):
            for row in window:
                row[g.choice(t_len, size=n_mask, replace=False)] = 0.0
        return
    if scaled_std is None:
        scaled_std = noise_std(values, spec)
    noise = np.stack([_draw(spec, g, values.shape[1:]) for g in rngs])
    noise *= scaled_std[..., None]
    values += noise


def inject_noise(block: np.ndarray, spec: NoiseSpec, scaled_std: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Fresh noisy copy of a C x B x T block of windows, all drawn from rng.

    Window b gets the b-th of B sequential C x T draws, scaled by row b of
    the B x C scaled_std (noise_std of the clean windows); deterministic
    given the generator state.
    """
    noisy = block.copy()
    _add_noise(noisy.transpose(1, 0, 2), spec, [rng] * block.shape[1], scaled_std)
    return noisy


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
            self.denoise_channels = list(FAMILIES[self.spec.family].denoise)

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
    """A Dataset of observed windows: a spec over window 0's channels, the
    given split (by default split_by_alignment) and the train split's norm stats.
    Every window must pass check_window, with a given split as without."""
    spec = PhysicsSpec(family, environment, windows[0].channels)
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


def _not_text(path: Path, kind: str, err: UnicodeDecodeError) -> ValueError:
    """The error for a file that does not decode, at its first bad byte's offset in the file.

    A text reader counts a decode error's offset from its current chunk, so
    the file is decoded again in one piece, on this error path only.
    """
    try:
        path.read_bytes().decode(err.encoding)
    except UnicodeDecodeError as whole:
        err = whole
    return ValueError(f"{path}: {kind} is not text ({err.reason} at offset {err.start})")


def _read_ini(cfg: configparser.ConfigParser, path: Path, kind: str) -> None:
    """cfg.read(path); a file that is not text or not INI syntax raises a ValueError naming it."""
    try:
        cfg.read(str(path))  # as a str: configparser's messages quote a Path's repr
    except UnicodeDecodeError as err:
        raise _not_text(path, kind, err) from None
    except configparser.Error as err:
        # The reason and its line, on one line: a ParsingError goes on to list every bad line.
        detail = " ".join(" ".join(str(err).splitlines()[:2]).split())
        raise ValueError(f"{path}: {kind} is not an INI file ({detail})") from None


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
        try:
            header = next(csv.reader(fh), None)
            lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise _not_text(path, "window CSV", err) from None
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

def _env_section(spec: PhysicsSpec) -> dict[str, str]:
    """[environment] key/values in field order, each constant at 17 significant digits.

    gravity's three components are joined by commas.
    """
    env = spec.environment
    return {f.name: ",".join(f"{float(v):.17g}" for v in np.atleast_1d(getattr(env, f.name)))
            for f in dataclasses.fields(env)}


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


def _env_from_section(env_type, section, path: Path):
    values = {}
    for f in dataclasses.fields(env_type):
        if f.name == "gravity":
            values[f.name] = np.array(_manifest_numbers(path, section, f.name, size=3))
        else:
            [values[f.name]] = _manifest_numbers(path, section, f.name)
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
    """Rebuild a Dataset from a manifest.ini written by save_dataset.

    Each clean window must have its noisy window's channels, dt and length.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"manifest not found: {path}")
    base = path.parent
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    _read_ini(cfg, path, "manifest")
    for section in ("dataset", "environment", "windows"):
        if section not in cfg:
            raise ValueError(f"{path}: manifest is missing the [{section}] section")

    family = _manifest_value(path, cfg["dataset"], "family").lower()
    record = get_family(family)
    [count] = _manifest_numbers(path, cfg["dataset"], "count", int)
    if count < 1:
        raise ValueError(f"{path}: [dataset] count must be at least 1, got {count}")
    denoise = [c for c in cfg["dataset"].get("denoise", "").split(",") if c]

    env = _env_from_section(record.environment, cfg["environment"], path)
    units = dict(cfg["units"]) if "units" in cfg else {}

    def window(key: str) -> SampleWindow:
        file = base / cfg["windows"][key]
        if not file.is_file():
            raise ValueError(f"{path}: [windows] {key} names no file: {file}")
        w = load_csv(file, schema=record.channels)
        if windows and w.channels != windows[0].channels:
            # Every window is read with window 0's channel order.
            raise ValueError(f"{file}:1: columns {','.join(w.channels)} differ from "
                             f"{base / cfg['windows']['noisy_000']}'s {','.join(windows[0].channels)}")
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
            ref, w = window(clean_key), windows[-1]
            # A reference at another interval or length is no reference for recon_mse.
            if ref.n_timesteps != w.n_timesteps or not same_dt(ref.dt, w.dt):
                raise ValueError(f"{base / cfg['windows'][clean_key]}: {ref.n_timesteps} timesteps at dt "
                                 f"{ref.dt} differ from {base / cfg['windows'][key]}'s {w.n_timesteps} "
                                 f"at dt {w.dt}")
            clean.append(ref)

    if clean and len(clean) != count:
        raise ValueError(f"{path}: expected 0 or {count} clean windows, got {len(clean)}")

    split = None
    if "split" in cfg and cfg["split"].get("train"):
        split = tuple(_manifest_numbers(path, cfg["split"], key, int, size=None)
                      for key in ("train", "test"))
    return _dataset(family, env, windows, clean, split, denoise)


# ---------------------------------------------------------------------------
# One-call generation


@dataclass
class SimulateConfig:
    """Everything needed to manufacture a corrupted synthetic dataset; constants sets some of
    the family's physics.Family.constants by name, the others keep their defaults."""

    family: str = "ins"
    count: int = 8
    duration: float | None = None
    dt: float | None = None
    seed: int = 0
    noise_kind: str = "gaussian"
    noise_scale: float = 0.1
    mask_fraction: float = 0.0
    bias_frac: dict[str, float] = field(default_factory=dict)
    constants: dict[str, int | float] = field(default_factory=dict)

    def __post_init__(self):
        self.family = self.family.lower()
        family = get_family(self.family)
        if self.count < 2:
            raise ValueError(f"count must be >= 2 (split needs both halves), got {self.count}")
        if self.duration is None:
            self.duration = family.duration
        if self.dt is None:
            self.dt = family.dt
        _check_finite(self)
        if self.seed < 0:
            raise ValueError(f"SimulateConfig: seed must be >= 0, got {self.seed}")
        if not np.isfinite(list(self.bias_frac.values())).all():
            raise ValueError(f"SimulateConfig: bias_frac must be finite, got {self.bias_frac}")
        for name, value in self.constants.items():
            if name not in family.constants:
                raise ValueError(f"SimulateConfig: {name} is not a constant of the {self.family} family; "
                                 f"its constants are: {', '.join(family.constants)}")
            # The kind of the default, as the CLI parses it: an int is an integer, a float any real.
            kind, expected = ((numbers.Integral, "an integer") if type(family.constants[name]) is int
                              else (numbers.Real, "a real number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"SimulateConfig: {name} must be {expected}, got {value!r}")
            if not np.isfinite(value):
                raise ValueError(f"SimulateConfig: {name} must be finite, got {value}")


def generate_dataset(cfg: SimulateConfig) -> Dataset:
    """Simulate clean windows, corrupt them, split, and pool norm stats.

    The config's constants that are fields of the family's environment go to
    the environment, with dt; the rest go to the family's simulator, which
    simulates every window as one block, each from its own seed, co2's
    occupancy row included. Every row is noised by the same rule, so
    constant rows (co2's flow and inflow) get none.
    """
    ss = np.random.SeedSequence(cfg.seed)
    sim_seeds = ss.spawn(cfg.count)
    noise_seeds = ss.spawn(cfg.count)

    family = FAMILIES[cfg.family]
    env_names = {f.name for f in dataclasses.fields(family.environment)}
    env = family.environment(dt=cfg.dt, **{k: v for k, v in cfg.constants.items() if k in env_names})
    clean = family.simulate(cfg.duration, env, sim_seeds,
                            **{k: v for k, v in cfg.constants.items() if k not in env_names})

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
