"""Experiment scripts under scripts/ and the benchmark, run as a user would, at a tiny size."""
import csv
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from physden.metrics import EvalReport
from physden.training import BiasDemoReport

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_lambda_sweep_writes_report(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "lambda_sweep.py"), "--count", "4", "--epochs", "1",
         "--lambdas", "0", "--seed", "3", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with (tmp_path / "report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [f.name for f in fields(EvalReport) if f.name != "per_channel"]
    assert [r["label"] for r in rows] == ["noisy", "adaptive", "fixed 0"]
    assert "fixed 0" in proc.stdout
    # 2 train windows in one batch and no phase-1 epoch make one phase-2 iteration,
    # whose l_rec/l_phy (about 1e-10) sits on the lower clamp
    assert re.search(r"^adaptive: 0/1 phase-2 iterations unclamped$", proc.stdout, re.M), proc.stdout


def test_bias_sweep_writes_report(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bias_sweep.py"), "--etas", "0", "--windows", "4",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with (tmp_path / "bias_sweep.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f.name for f in fields(BiasDemoReport)]
    assert len(rows) == 2 and rows[1][:2] == ["t_sa", "0"]
    assert "eta 0:" in proc.stdout


def test_perfbench_traced_ins_train_runs():
    # The traced run replaces names that physden.training imports; a renamed
    # or dropped name shows here as an error or an empty tape count.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "ins-train",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["metrics"]["autodiff.tape_nodes_per_step"]["value"] > 0


def test_perfbench_traced_denoise_serve_runs():
    # The traced run replaces physden.model's forward, which denoise calls.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "denoise-serve",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["metrics"]["model.forward_ms_per_window"]["value"] > 0


def test_digests_prints_each_name_once_and_the_same_lines_twice():
    runs = [
        subprocess.run([sys.executable, str(SCRIPTS / "digests.py")], capture_output=True, text=True,
                       timeout=300)
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    kernel, *lines = runs[0].stdout.splitlines()
    assert re.fullmatch(r"openblas_kernel \S+", kernel)
    assert [line.split(" ")[0] for line in lines] == [
        "gate_data_seed1", "gate_data_seed2", "gate_data_seed3", "co2_count8_seed1",
        "hvac_count16_seed5_noise0.2", "gate_train_2epochs_params", "gate_train_2epochs_log",
        "gate_train_2epochs_denoised", "bias_demo_train_2epochs_params", "bias_demo_train_2epochs_log",
        "serve_model_denoised", "cli_simulate_ins", "cli_simulate_co2", "cli_simulate_hvac",
    ]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert runs[1].stdout == runs[0].stdout
