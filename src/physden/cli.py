"""Command-line surface: simulate | train | denoise | eval | gradcheck | bias-demo.

Configuration is an INI file plus repeated ``--set section.key=value``
overrides; the command line wins. Artifacts land in a single run directory
(default ``out/<UTC timestamp>-s<seed>``) for reproducibility audits.

Exit status: 0 success, 1 validation error (bad arguments, config, or
files), 2 numerical failure (aborted training, failed gradient check).

Heavy imports happen inside the command handlers so that ``--threads``
(default 1, for determinism) can pin the BLAS thread-count environment
variables before numpy first loads.
"""
from __future__ import annotations

import argparse
import configparser
import inspect
import os
import sys
import time
from pathlib import Path

__all__ = ["main", "build_parser"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    # exit code 1 on usage errors; argparse's default of 2 would collide
    # with the numerical-failure code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI config file")
    common.add_argument(
        "--set",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override a config value (repeatable; wins over --config)",
    )
    common.add_argument("--run-dir", metavar="DIR", help="artifact directory (default out/<timestamp>-s<seed>)")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="BLAS/OpenMP thread cap, default 1 (deterministic)",
    )

    parser = _Parser(prog="physden", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.required = True
    commands.add_parser("simulate", parents=[common], help="generate a synthetic dataset + manifest")
    commands.add_parser("train", parents=[common], help="two-phase training on a dataset manifest")
    commands.add_parser("denoise", parents=[common], help="run a checkpoint on one window CSV")
    commands.add_parser("eval", parents=[common], help="metrics for original vs denoised windows")
    commands.add_parser("gradcheck", parents=[common], help="finite-difference gradient suite")
    commands.add_parser("bias-demo", parents=[common], help="rec-only vs physics bias comparison")
    return parser


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config(args) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    if args.config:
        from .data import _read_ini

        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        _read_ini(cp, path, "config")
    for item in args.overrides:
        if "=" not in item:
            raise ValueError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if "." not in key:
            raise ValueError(f"--set key must be SECTION.KEY, got {key!r}")
        section, _, option = key.partition(".")
        if section not in cp:
            cp[section] = {}
        cp[section][option] = value
    known = _known_keys()
    for section in cp.sections():
        if section not in known:
            raise ValueError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in known[section]:
                raise ValueError(f"unknown config key [{section}] {key}")
    return cp


def _get(cp, section: str, key: str, default: str | None = None) -> str | None:
    if section in cp and key in cp[section]:
        return cp[section][key]
    return default


def _require(cp, section: str, key: str) -> str:
    value = _get(cp, section, key)
    if value is None or value == "":
        raise ValueError(f"missing required config value [{section}] {key}")
    return value


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


# Each annotation a config key may carry: its parser, and what an error says it expected.
_KINDS = {
    "str": (str, "a value"),
    "float": (float, "a number"),
    "float | None": (float, "a number"),
    "int": (int, "an integer"),
    "bool": (_parse_bool, "a boolean"),
    "tuple[int, int, int]": (lambda raw: tuple(int(v) for v in raw.split(",")), "W1,W2,W3 integers"),
    "dict[str, float]": (_parse_fracs, "name:frac pairs"),
    "list[str]": (lambda raw: _check_names([name.strip() for name in raw.split(",")], raw), "channel names"),
}


def _get_typed(cp, section: str, key: str, kind: str, default=None):
    """[section] key parsed as the annotation kind, or default when the config leaves it unset.

    An empty value is an error for every kind, never a silent default.
    """
    raw = _get(cp, section, key)
    if raw is None:
        return default
    parse, expected = _KINDS[kind]
    if raw == "":
        raise ValueError(f"[{section}] {key}: expected {expected}, got an empty value")
    try:
        return parse(raw)
    except _BadName as err:
        raise ValueError(f"[{section}] {key}: {err}") from None
    except ValueError:
        raise ValueError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None


def _keys(fn) -> dict[str, str]:
    """The parameters of fn, a function or a config dataclass, whose annotation is a kind the config parses."""
    return {name: p.annotation for name, p in inspect.signature(fn).parameters.items() if p.annotation in _KINDS}


def _constant_kinds() -> dict[str, str]:
    """Every family's simulation constants, each with the kind of its default."""
    from .physics import FAMILIES

    return {name: type(default).__name__
            for family in FAMILIES.values() for name, default in family.constants.items()}


def _given(cp, section: str, kinds: dict[str, str]) -> dict:
    """Parsed values of the keys the config sets; unset keys keep the library defaults."""
    values = {key: _get_typed(cp, section, key, kind) for key, kind in kinds.items()}
    return {key: value for key, value in values.items() if value is not None}


def _run_dir(args, seed: int) -> Path:
    if args.run_dir:
        path = Path(args.run_dir)
    else:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        path = Path("out") / f"{stamp}-s{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# The noise keys of [train] are SimulateConfig's names, not NoiseSpec's.
_NOISE_KEYS = {
    "noise_kind": "str",
    "noise_scale": "float",
    "mask_fraction": "float",
}


def _known_keys() -> dict[str, set[str]]:
    """Every key some command reads, by section.

    A section accepts the keys of all commands, so one config file can drive
    simulate, train and eval alike. The [data] and [train] keys are the
    config dataclasses' own fields, [data] also every family's constants, and
    the [gradcheck] and [demo] keys the parameters of run_suite and bias_demo.
    """
    from .data import SimulateConfig
    from .gradcheck import run_suite
    from .training import TrainConfig, bias_demo

    return {
        "data": {*_keys(SimulateConfig), *_constant_kinds(), "manifest", "input", "subset"},
        "train": {*_keys(TrainConfig), *_NOISE_KEYS},
        "model": {"denoise", "checkpoint"},
        "output": {"file", "timing_repeats"},
        "gradcheck": set(_keys(run_suite)),
        "demo": set(_keys(bias_demo)),
    }


def _train_config(cp):
    from .data import NoiseSpec
    from .training import TrainConfig

    given = _given(cp, "train", _keys(TrainConfig))
    noise = _given(cp, "train", _NOISE_KEYS)
    noise = {key.removeprefix("noise_"): value for key, value in noise.items()}
    return TrainConfig(noise=NoiseSpec(**noise), **given)


# ---------------------------------------------------------------------------
# Commands


def _cmd_simulate(args, cp) -> int:
    import numpy as np

    from .data import SimulateConfig, generate_dataset, save_dataset
    from .physics import window_residuals

    given = _given(cp, "data", _keys(SimulateConfig))
    given["constants"] = _given(cp, "data", _constant_kinds())
    cfg = SimulateConfig(**given)
    dataset = generate_dataset(cfg)
    manifest = save_dataset(dataset, _run_dir(args, cfg.seed) / "data")

    worst = max(float(np.mean(r * r)) for r in window_residuals(dataset.clean, dataset.spec))
    print(f"wrote {len(dataset.windows)} {cfg.family} windows to {manifest.parent}")
    print(f"manifest: {manifest}")
    print(f"clean self-check phys_mse (worst window): {worst:.6g}")
    return 0


def _cmd_train(args, cp) -> int:
    from .data import load_manifest
    from .model import save_checkpoint
    from .metrics import write_records
    from .training import LogRow, TrainingAborted, train

    manifest = _require(cp, "data", "manifest")
    dataset = load_manifest(manifest)
    cfg = _train_config(cp)

    channels = _get_typed(cp, "model", "denoise", "list[str]", dataset.denoise_channels)

    def save(denoiser, log) -> tuple[Path, Path]:
        # The run directory is made only once training has something to write.
        run_dir = _run_dir(args, cfg.seed)
        save_checkpoint(denoiser, run_dir / "model.npz")
        write_records(LogRow, log, run_dir / "train_log.csv")
        return run_dir / "model.npz", run_dir / "train_log.csv"

    try:
        result = train(
            dataset.train_windows,
            dataset.spec,
            cfg,
            denoise_channels=channels,
            norm_stats=dataset.norm_stats,
        )
    except TrainingAborted as err:
        checkpoint, _ = save(err.denoiser, err.log)
        print(f"last good checkpoint: {checkpoint}", file=sys.stderr)
        raise
    checkpoint, log_path = save(result.denoiser, result.log)

    first, last = result.log[0], result.log[-1]
    print(f"trained {cfg.epochs_total} epochs on {len(dataset.train_windows)} windows")
    print(f"l_rec: {first.l_rec:.6g} -> {last.l_rec:.6g}")
    if last.l_phy is not None:
        print(f"l_phy: {last.l_phy:.6g} (lambda {last.lam:.6g})")
    print(f"checkpoint: {checkpoint}")
    print(f"log: {log_path}")
    return 0


def _cmd_denoise(args, cp) -> int:
    from .data import load_csv, save_csv
    from .model import denoise, load_checkpoint

    checkpoint = Path(_require(cp, "model", "checkpoint"))
    input_csv = Path(_require(cp, "data", "input"))
    repeats = _get_typed(cp, "output", "timing_repeats", "int", 0)
    if repeats < 0:
        raise ValueError(f"[output] timing_repeats must be >= 0, got {repeats}")
    if not checkpoint.exists():
        raise ValueError(f"checkpoint not found: {checkpoint}")
    if not input_csv.exists():
        raise ValueError(f"input CSV not found: {input_csv}")
    denoiser = load_checkpoint(checkpoint)
    window = load_csv(input_csv)
    try:
        restored = denoise(denoiser, window)
    except ValueError as err:
        raise ValueError(f"{input_csv}: {err}") from None
    out_path = Path(_get(cp, "output", "file", "") or _run_dir(args, 0) / "denoised.csv")
    save_csv(restored, out_path)
    print(f"wrote {out_path}")

    if repeats > 0:
        start = time.perf_counter()
        for _ in range(repeats):
            denoise(denoiser, window)
        mean_ms = (time.perf_counter() - start) / repeats * 1e3
        print(f"timing: {mean_ms:.3f} ms mean over {repeats} repeats "
              f"({window.values.shape[0]} channels x {window.n_timesteps} timesteps)")
    return 0


def _cmd_eval(args, cp) -> int:
    from .data import load_manifest
    from .metrics import EvalReport, evaluate, format_report_table, write_records
    from .model import denoise, load_checkpoint

    manifest = _require(cp, "data", "manifest")
    checkpoint = Path(_require(cp, "model", "checkpoint"))
    if not checkpoint.exists():
        raise ValueError(f"checkpoint not found: {checkpoint}")
    dataset = load_manifest(manifest)
    denoiser = load_checkpoint(checkpoint)

    subset = _get(cp, "data", "subset", "all")
    if subset == "train":
        idx = dataset.split[0]
    elif subset == "test":
        idx = dataset.split[1]
    elif subset == "all":
        idx = list(range(len(dataset.windows)))
    else:
        raise ValueError(f"[data] subset must be train|test|all, got {subset!r}")

    noisy = [dataset.windows[i] for i in idx]
    clean = [dataset.clean[i] for i in idx] if dataset.clean else None
    if clean is None:
        print("warning: manifest has no clean references; reconstruction metrics omitted", file=sys.stderr)
    restored = [denoise(denoiser, w) for w in noisy]

    reports = [
        evaluate("original", noisy, dataset.spec, clean, channels=denoiser.channels),
        evaluate("denoised", restored, dataset.spec, clean, channels=denoiser.channels),
    ]
    run_dir = _run_dir(args, 0)
    report_path = run_dir / "report.csv"
    write_records(EvalReport, reports, report_path)
    print(format_report_table(reports))
    print(f"\nreport: {report_path}")
    return 0


def _cmd_gradcheck(args, cp) -> int:
    from .gradcheck import run_suite

    # Only the keys the config sets are passed on; run_suite's signature holds the defaults.
    results = run_suite(**_given(cp, "gradcheck", _keys(run_suite)))
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<22} instances {r.instances:>3}  max rel err {r.max_rel_err:.3e}  tol {r.tol:.0e}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 2
    print(f"all {len(results)} operation families passed")
    return 0


def _cmd_bias_demo(args, cp) -> int:
    from .metrics import write_records
    from .training import BiasDemoReport, bias_demo

    given = _given(cp, "demo", _keys(bias_demo))
    report = bias_demo(**given)

    run_dir = _run_dir(args, given.get("seed", inspect.signature(bias_demo).parameters["seed"].default))
    print(
        f"inherent bias on {report.channel}: {report.eta_frac:g} of channel std "
        f"({report.eta_abs:.6g} abs, std {report.channel_std:.6g}), {report.n_windows} windows"
    )
    print(
        f"rec-only mean error: {report.rec_mean_error:+.6g} "
        f"({report.rec_error_frac:+.3f} std, stderr {report.rec_stderr:.3g})"
    )
    print(
        f"physics  mean error: {report.phys_mean_error:+.6g} "
        f"({report.phys_error_frac:+.3f} std, stderr {report.phys_stderr:.3g})"
    )
    out = run_dir / "bias_demo.csv"
    write_records(BiasDemoReport, [report], out)
    print(f"report: {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "denoise": _cmd_denoise,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "bias-demo": _cmd_bias_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    for var in _THREAD_VARS:
        os.environ[var] = str(args.threads)

    from .autodiff import NumericalError
    from .training import TrainingAborted

    try:
        cp = _load_config(args)
        return _COMMANDS[args.command](args, cp)
    except (TrainingAborted, NumericalError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
