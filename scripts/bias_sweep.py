"""Sweep the inherent-bias magnitude in the rec-only vs physics comparison.

Runs the paired bias demonstration over a grid of bias fractions and records
both models' mean output errors. A reconstruction-only denoiser inherits the
bias of its training observations; the physics term pulls the output back
toward constraint-consistent values, which this sweep makes visible.

Usage: python3 scripts/bias_sweep.py [--etas 0,0.25,0.5,1.0] [--out DIR]
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from physden.data import write_records
from physden.training import BiasDemoReport, bias_demo


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--etas", default="0,0.25,0.5,1.0",
                        help="comma-separated bias fractions of channel std")
    parser.add_argument("--windows", type=int, default=48)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="out/bias_sweep")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for eta in (float(v) for v in args.etas.split(",")):
        start = time.perf_counter()
        report = bias_demo(eta, n_windows=args.windows, seed=args.seed)
        elapsed = time.perf_counter() - start
        reports.append(report)
        print(f"eta {eta:g}: rec-only {report.rec_error_frac:+.3f} std "
              f"(se {report.rec_stderr / report.channel_std:.3f}), "
              f"physics {report.phys_error_frac:+.3f} std "
              f"(se {report.phys_stderr / report.channel_std:.3f})  "
              f"({elapsed:.0f}s)")

    sweep_path = out_dir / "bias_sweep.csv"
    write_records(BiasDemoReport, reports, sweep_path)
    print(f"\nsweep: {sweep_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
