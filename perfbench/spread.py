"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/baseline.json

For every workload in BENCHMARK.json (or those given with --workloads) it
runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound. With --trace 1 it reports the
per-layer metrics instead and also runs the first seed a second time, to
check that every count and quality ratio repeats exactly.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180

sys.path[:0] = [str(HERE), str(ROOT / "src")]
from workloads import EXACT_METRICS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((line for line in lines if line.startswith("environment: ")), None)
    result["environment"] = json.loads(env[len("environment: "):]) if env else None
    return result


def summarize(values: list[float]) -> dict:
    if len(values) < 2:  # one seed: no quartiles
        return {"median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        if args.trace:
            again = run_once(workload, seeds[0], args.seconds, args.trace)
            for name in EXACT_METRICS:
                first = runs[0]["metrics"][name]["value"]
                if again["metrics"][name]["value"] != first:
                    ok = False
                    print(f"{workload}: {name} did not repeat: {first} then "
                          f"{again['metrics'][name]['value']}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        print(f"{workload}: {len(runs)} runs, correct {correct}, {failed} failed of {attempted}")
        summary = {}
        for name, entry in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = entry["unit"]
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                stats["bound"] = bound
                if (stats.get("spread") or 0.0) > bound / 3:
                    flag = "  above a third of the bound"
            summary[name] = stats
            quartiles = "" if "q1" not in stats else (
                f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} spread {stats['spread'] or 0:<8.3g} ")
            print(f"  {name:<36} median {stats['median']:<12.6g} {quartiles}"
                  f"{'' if bound is None else f'bound {bound}'}{flag}")
        report["workloads"][workload] = {
            "summary": summary,
            "runs": [{"seed": s, **r} for s, r in zip(seeds, runs)],
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
