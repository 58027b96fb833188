"""Sweep the physics-loss weight: fixed values against adaptive balancing.

Runs the acceptance gate's experiment, training.lambda_sweep on the inertial
dataset GATE_DATA (gaussian noise plus a constant per-channel bias) with the
training GATE_TRAIN: one denoiser with adaptive weighting and one per fixed
weight (`fixed 0` is the reconstruction-only model), each evaluated on the
held-out split next to the noisy observations. Prints the comparison table and
how many phase-2 iterations of the adaptive run left the weight inside its
clamp, and writes report.csv with one row per setting, so the recon/physics
trade-off can be plotted directly. --seed re-seeds the data and the training.

Usage: python3 scripts/lambda_sweep.py [--lambdas 0,0.1,1,10] [--seed 7] [--out DIR]
"""
import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from physden.data import generate_dataset
from physden.metrics import EvalReport, format_report_table, write_records
from physden.training import GATE_DATA, GATE_TRAIN, LAMBDA_MAX, LAMBDA_MIN, lambda_sweep


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--lambdas", default="0,0.1,1,10",
                        help="comma-separated fixed weights to sweep")
    parser.add_argument("--count", type=int, default=GATE_DATA.count)
    parser.add_argument("--epochs", type=int, default=GATE_TRAIN.epochs_total)
    parser.add_argument("--seed", type=int, default=GATE_DATA.seed,
                        help="seed of the dataset and of every training")
    parser.add_argument("--out", default="out/lambda_sweep")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset = generate_dataset(dataclasses.replace(GATE_DATA, count=args.count, seed=args.seed))
    print(f"dataset: {len(dataset.windows)} windows "
          f"({len(dataset.train_windows)} train / {len(dataset.test_windows)} test), "
          f"T={dataset.windows[0].n_timesteps}, dt={dataset.spec.dt}")

    base = dataclasses.replace(GATE_TRAIN, epochs_total=args.epochs, seed=args.seed)
    noisy, runs = lambda_sweep(dataset, base, [float(v) for v in args.lambdas.split(",")])
    for run in runs:
        print(f"trained {run.label} in {run.seconds:.1f}s "
              f"(final l_rec {run.result.log[-1].l_rec:.6g})")
    phase2 = [r for r in runs[0].result.log if r.phase == 2]
    unclamped = sum(LAMBDA_MIN < r.lam < LAMBDA_MAX for r in phase2)
    print(f"adaptive: {unclamped}/{len(phase2)} phase-2 iterations unclamped")

    reports = [noisy] + [run.report for run in runs]
    print()
    print(format_report_table(reports))
    report_path = out_dir / "report.csv"
    write_records(EvalReport, reports, report_path)
    print(f"\nreport: {report_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
