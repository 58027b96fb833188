"""physden benchmark: one seeded workload, measured end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ins-train --seed 1 --seconds 20 --trace 0

Workloads are ins-train, hvac-train and denoise-serve (see workloads.py for
what each runs and why). With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it wraps the calls into each physden module and
reports the per-layer metrics instead, including the tracing overhead. The
run prints a table of metrics with units, the run environment, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics. It exits non-zero, without a result, when the physden source is
missing.

BLAS and OpenMP are pinned to one thread before numpy loads; the run uses
one process and one thread.
"""
from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ins-train", "hvac-train", "denoise-serve")


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    sources = sorted((SRC / "physden").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "physden" / "__init__.py").is_file():
        print(f"perfbench: no physden source at {SRC / 'physden'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    work = Path(__file__).resolve().parent / "work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        if args.workload == "denoise-serve":
            out = workloads.run_serve(args.seed, args.seconds, tracer, scratch)
        else:
            out = workloads.run_train(workloads.TRAIN_WORKLOADS[args.workload], args.seed,
                                      args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()  # left in place while another run uses it
    out.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.notes["peak_rss_mb"] = "ru_maxrss of the run's process"

    metrics = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(f"physden benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    result = {}
    for name, unit in metrics:
        value = float(out.values.get(name, 0.0))
        result[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {out.notes.get(name, '')}")
    print("also measured:")
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'error_rate':<36} {error_rate:>14.6g} {'ratio':<6} "
          f"{out.failed} failed of {out.attempted} attempted")
    units = dict(workloads.END_TO_END + workloads.UNGATED + workloads.PER_LAYER)
    for name, value in out.values.items():
        if name not in result:
            print(f"  {name:<36} {value:>14.6g} {units[name]:<6} {out.notes.get(name, '')}")
    for problem in out.problems:
        print(f"  problem: {problem}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    missing = [name for name, _ in workloads.END_TO_END if name not in out.values]
    correct = out.failed == 0 and not out.problems and out.attempted > 0 and (
        args.trace or not missing)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
