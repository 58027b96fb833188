"""Sweep the physics-loss weight: fixed values against adaptive balancing.

Builds a synthetic inertial dataset whose observations carry gaussian noise
plus a constant per-channel bias, trains one denoiser per weighting setting
on it (`fixed 0` is the reconstruction-only model) and evaluates each on the
held-out split, next to the noisy observations. Prints the comparison table
and writes report.csv with one row per setting, so the recon/physics
trade-off can be plotted directly.

Usage: python3 scripts/lambda_sweep.py [--lambdas 0,0.1,1,10] [--out DIR]
"""
import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from physden.data import NoiseSpec, SimulateConfig, generate_dataset
from physden.metrics import evaluate, format_report_table, write_report_csv
from physden.model import denoise
from physden.physics import CHANNEL_NAMES
from physden.training import TrainConfig, train


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--lambdas", default="0,0.1,1,10",
                        help="comma-separated fixed weights to sweep")
    parser.add_argument("--count", type=int, default=64)
    parser.add_argument("--duration", type=float, default=1.27)
    parser.add_argument("--dt", type=float, default=0.01)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--batch-size", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--widths", default="16,32,16")
    parser.add_argument("--noise-scale", type=float, default=0.2)
    parser.add_argument("--bias-frac", type=float, default=0.3)
    parser.add_argument("--out", default="out/lambda_sweep")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sim = SimulateConfig(
        family="ins",
        count=args.count,
        duration=args.duration,
        dt=args.dt,
        seed=args.seed,
        noise_kind="gaussian",
        noise_scale=args.noise_scale,
        bias_frac={c: args.bias_frac for c in CHANNEL_NAMES["ins"]},
    )
    dataset = generate_dataset(sim)
    test_noisy = dataset.test_windows
    test_clean = [dataset.clean[i] for i in dataset.split[1]]
    print(f"dataset: {len(dataset.windows)} windows "
          f"({len(dataset.train_windows)} train / {len(test_noisy)} test), "
          f"T={dataset.windows[0].n_timesteps}, dt={args.dt}")

    base = TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        epochs_total=args.epochs,
        pretrain_fraction=0.2,
        lambda_mode="adaptive",
        noise=NoiseSpec(kind="gaussian", scale=0.1),
        seed=args.seed,
        widths=tuple(int(w) for w in args.widths.split(",")),
        predict_residual=True,
    )
    settings = [("adaptive", base)]
    for lam in (float(v) for v in args.lambdas.split(",")):
        cfg = dataclasses.replace(base, lambda_mode="fixed", lambda_value=lam)
        settings.append((f"fixed {lam:g}", cfg))

    reports = [evaluate("noisy", test_noisy, dataset.spec, test_clean,
                        channels=dataset.denoise_channels)]
    for label, cfg in settings:
        start = time.perf_counter()
        result = train(dataset.train_windows, dataset.spec, cfg,
                       denoise_channels=dataset.denoise_channels,
                       norm_stats=dataset.norm_stats)
        elapsed = time.perf_counter() - start
        restored = [denoise(result.denoiser, w) for w in test_noisy]
        reports.append(evaluate(label, restored, dataset.spec, test_clean,
                                channels=dataset.denoise_channels))
        print(f"trained {label} in {elapsed:.1f}s "
              f"(final l_rec {result.log[-1].l_rec:.6g})")

    print()
    print(format_report_table(reports))
    report_path = out_dir / "report.csv"
    write_report_csv(reports, report_path)
    print(f"\nreport: {report_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
