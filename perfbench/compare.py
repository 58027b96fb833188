"""Compare the medians of two spread.py result files against the bounds.

Run from the repository root:

    python3 perfbench/compare.py perfbench/results/e2e.json perfbench/results/e2e-2.json

For every workload and end-to-end metric in both files it prints the first
and second median, how much worse the second is as a share of the first
(negative when it is better), the spread of each set and the metric's bound
from BENCHMARK.json. It exits 1 when a second median is worse than the first
by more than the bound, or when either set's spread exceeds it.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    first = json.loads(args.first.read_text())["workloads"]
    second = json.loads(args.second.read_text())["workloads"]
    ok = True
    for workload in (w for w in first if w in second):
        print(workload)
        for name, m in metrics.items():
            a = first[workload]["summary"][name]
            b = second[workload]["summary"][name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spreads = (a.get("spread") or 0.0, b.get("spread") or 0.0)
            breach = worse > m["bound"] or max(spreads) > m["bound"]
            ok = ok and not breach
            print(f"  {name:<16} median {a['median']:<10.4g} then {b['median']:<10.4g} "
                  f"worse by {worse:+.3f}  spreads {spreads[0]:.3f} / {spreads[1]:.3f}  "
                  f"bound {m['bound']}{'  OUTSIDE' if breach else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
