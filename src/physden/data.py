"""Noise, splitting, and CSV/manifest plumbing around the physics families.

generate_dataset runs the simulator of a family's FAMILIES entry (physics.py),
then corrupts the clean windows and splits them by physics alignment.

File formats: one window per CSV with header ``t,<channel names>`` and a
strictly increasing, uniformly spaced time column; a dataset is an INI
manifest naming the window files, the physics family, environment constants,
units, and the train/test split; a run's records are CSVs of dataclass rows.
write_value gives every manifest entry and record cell its text, read_value
parses an INI value back, and new_ini is the one INI dialect.
"""
from __future__ import annotations

import configparser
import csv
import dataclasses
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, get_type_hints

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
    "write_records",
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
    timesteps chosen uniformly per channel, and ignores scale. A mask_fraction
    above 0 with an additive kind is an error, since it would do nothing.
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
        if self.mask_fraction > 0 and self.kind != "zero-mask":
            raise ValueError(f"NoiseSpec: mask_fraction acts only on zero-mask noise, got "
                             f"{self.mask_fraction} with kind {self.kind!r}")


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
        if not self.denoise_channels:
            self.denoise_channels = list(FAMILIES[self.spec.family].denoise)
        _check_parts(self.split, self.denoise_channels, self.spec.channels, len(self.windows))
        if self.clean is not None and len(self.clean) != len(self.windows):
            raise ValueError("Dataset: clean list must pair 1:1 with windows")

    @property
    def train_windows(self) -> list[SampleWindow]:
        return [self.windows[i] for i in self.split[0]]

    @property
    def test_windows(self) -> list[SampleWindow]:
        return [self.windows[i] for i in self.split[1]]


class _BadPart(ValueError):
    """A Dataset field that does not fit its windows: the field's name, and what is wrong with it."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"Dataset: {name} {detail}")
        self.name, self.detail = name, detail


def _check_parts(split: tuple[list[int], list[int]], denoise: Sequence[str], channels: Sequence[str],
                 n_windows: int) -> None:
    """Reject a split whose train and test lists do not partition the window indices, or a denoise
    channel the windows lack."""
    if sorted([*split[0], *split[1]]) != list(range(n_windows)):
        raise _BadPart("split", f"must partition the {n_windows} window indices, got train "
                                f"{write_value(split[0])!r} and test {write_value(split[1])!r}")
    missing = [name for name in denoise if name not in channels]
    if missing:
        raise _BadPart("denoise_channels", f"names channels the windows lack: {write_value(missing)}")


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
    # Before the train split's stats index the windows; Dataset gives the default denoise channels.
    _check_parts(split, denoise_channels, spec.channels, len(windows))
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
    try:
        fh = path.open(newline="")
    except FileNotFoundError:
        raise ValueError(f"{path}: window CSV not found") from None
    with fh:
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
# The text of a value: INI files (the config file and the dataset manifest) and record CSVs


def new_ini() -> configparser.ConfigParser:
    """An empty parser of the one INI dialect: values kept as written (a % included), keys case-sensitive."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    return cfg


def _read_ini(cfg: configparser.ConfigParser, path: Path, kind: str) -> None:
    """Read path into cfg; a file that is missing, not text or not INI syntax raises a ValueError naming it."""
    try:
        with path.open() as fh:
            cfg.read_file(fh, str(path))  # as a str: configparser's messages quote a Path's repr
    except FileNotFoundError:
        raise ValueError(f"{path}: {kind} not found") from None
    except UnicodeDecodeError as err:
        raise _not_text(path, kind, err) from None
    except configparser.Error as err:
        # The reason and its line, on one line: a ParsingError goes on to list every bad line.
        detail = " ".join(" ".join(str(err).splitlines()[:2]).split())
        raise ValueError(f"{path}: {kind} is not an INI file ({detail})") from None


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


class _BadName(ValueError):
    """A well-formed value that names a channel wrongly; its message says which name."""


def _check_names(names: list[str], raw: str) -> list[str]:
    """names, the channel names raw gives; the first empty or repeated one is an error."""
    for i, name in enumerate(names):
        if not name:
            raise _BadName(f"empty channel name in {raw!r}")
        if name in names[:i]:
            raise _BadName(f"channel names must be distinct, got {name!r} twice")
    return names


def _parse_fracs(raw: str) -> dict[str, float]:
    pairs = [(name.strip(), float(frac)) for name, frac in (part.split(":") for part in raw.split(","))]
    _check_names([name for name, _ in pairs], raw)
    return dict(pairs)


# Each annotation an INI value may carry: its parser, and what an error says it expected.
_KINDS = {
    str: (str, "a value"),
    float: (float, "a number"),
    float | None: (float, "a number"),
    int: (int, "an integer"),
    bool: (_parse_bool, "a boolean"),
    tuple[int, int, int]: (lambda raw: tuple(int(v) for v in raw.split(",")), "W1,W2,W3 integers"),
    dict[str, float]: (_parse_fracs, "name:frac pairs"),
    list[str]: (lambda raw: _check_names([name.strip() for name in raw.split(",")], raw), "channel names"),
    list[int]: (lambda raw: [int(v) for v in raw.split(",")] if raw else [], "comma-separated integers"),
    np.ndarray: (lambda raw: np.array([float(v) for v in raw.split(",")]), "comma-separated numbers"),
}

_REQUIRED = object()


def read_value(cfg: configparser.ConfigParser, section: str, key: str, kind, default=_REQUIRED,
               where: str = ""):
    """[section] key parsed as kind, an annotation _KINDS holds, or default when cfg leaves it unset.

    A key without a default must be set. An empty value is an error for every
    kind but list[int], where it is the empty list. Each error reads
    ``<where>[section] key: ...``.
    """
    raw = cfg.get(section, key, fallback=None)
    if raw is None:
        if default is _REQUIRED:
            raise ValueError(f"{where}[{section}] {key}: missing required value")
        return default
    parse, expected = _KINDS[kind]
    if raw == "" and kind != list[int]:
        raise ValueError(f"{where}[{section}] {key}: expected {expected}, got an empty value")
    try:
        return parse(raw)
    except _BadName as err:
        raise ValueError(f"{where}[{section}] {key}: {err}") from None
    except ValueError:
        raise ValueError(f"{where}[{section}] {key}: expected {expected}, got {raw!r}") from None


def write_value(value) -> str:
    """The text of a value, as read_value reads it back: a float at 17 significant digits, a list,
    tuple or array its items joined by commas, None empty (a CSV cell only), anything else its str."""
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 included
        return f"{value:.17g}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(write_value(item) for item in value)
    return str(value)


def write_records(cls, rows: Sequence, path) -> None:
    """A CSV of records of the dataclass cls: a header of its fields whose resolved annotation is a
    kind read_value parses, in declaration order, then one line per row, each cell by write_value;
    no rows, the header alone."""
    kinds = get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls) if kinds[f.name] in _KINDS]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([write_value(getattr(row, name)) for name in names] for row in rows)


# ---------------------------------------------------------------------------
# Dataset manifest (INI)


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write window CSVs and manifest.ini, every entry by write_value; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dataset.spec.environment
    cfg = new_ini()
    cfg["dataset"] = {"family": dataset.spec.family, "count": write_value(len(dataset.windows)),
                      "denoise": write_value(dataset.denoise_channels)}
    cfg["environment"] = {f.name: write_value(getattr(env, f.name)) for f in dataclasses.fields(env)}
    cfg["units"] = dict(zip(dataset.windows[0].channels, dataset.windows[0].units))
    cfg["split"] = {"train": write_value(dataset.split[0]), "test": write_value(dataset.split[1])}
    cfg["windows"] = {}
    for kind, windows in (("noisy", dataset.windows), ("clean", dataset.clean or [])):
        for i, w in enumerate(windows):
            name = f"{kind}_{i:03d}"
            save_csv(w, out_dir / f"{name}.csv")
            cfg["windows"][name] = f"{name}.csv"

    manifest = out_dir / "manifest.ini"
    with manifest.open("w") as fh:
        cfg.write(fh)
    return manifest


def load_manifest(path) -> Dataset:
    """Rebuild a Dataset from a manifest.ini written by save_dataset.

    Each clean window must have its noisy window's channels, dt and length.
    """
    path = Path(path)
    base, where = path.parent, f"{path}: "
    cfg = new_ini()
    _read_ini(cfg, path, "manifest")
    for section in ("dataset", "environment", "windows"):
        if section not in cfg:
            raise ValueError(f"{path}: manifest is missing the [{section}] section")

    family = read_value(cfg, "dataset", "family", str, where=where).lower()
    record = get_family(family)
    count = read_value(cfg, "dataset", "count", int, where=where)
    if count < 1:
        raise ValueError(f"{path}: [dataset] count must be at least 1, got {count}")
    denoise = read_value(cfg, "dataset", "denoise", list[str], [], where)

    kinds = get_type_hints(record.environment)
    values = {f.name: read_value(cfg, "environment", f.name, kinds[f.name], where=where)
              for f in dataclasses.fields(record.environment)}
    try:
        env = record.environment(**values)
    except ValueError as err:
        raise ValueError(f"{where}[environment] {err}") from None
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
    if "split" in cfg:
        split = tuple(read_value(cfg, "split", key, list[int], where=where) for key in ("train", "test"))
    try:
        return _dataset(family, env, windows, clean, split, denoise)
    except _BadPart as err:
        entry = {"split": "[split]", "denoise_channels": "[dataset] denoise"}[err.name]
        raise ValueError(f"{where}{entry} {err.detail}") from None


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
