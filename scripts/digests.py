"""Print a SHA-256 digest of each output whose bits the project keeps across changes.

The first line, `openblas_kernel <name>`, names the OpenBLAS core numpy's
bundled library runs on (`unknown` when it is not found), since float results
may differ between kernels. Then one `name sha256` line per output:
- the datasets generate_dataset makes from GATE_DATA at seeds 1-3, from
  co2 at count 8 and seed 1, and from hvac at count 16, seed 5 and noise
  scale 0.2; each digest covers the observed windows, the clean windows,
  the split and the norm stats;
- a 2-epoch GATE_TRAIN training on GATE_DATA: its trained parameters, its
  log rows, and its test split after model.denoise;
- a 2-epoch BIAS_DEMO_TRAIN training (batch 16, both epochs with the
  physics term) on the bias demo's 48 hvac windows at eta 0.5: its trained
  parameters and its log rows;
- 4 ins windows of 100 steps after model.denoise by the serve-shape model
  (7 -> 128/256/128 -> 7 channels, 271,623 parameters) initialised from seed 1;
- for each family, `physden simulate` (cli.main) with every simulation constant
  of the family set to a value other than its default: the manifest's and the
  window CSVs' bytes.
It uses only library names that have stood since each family became one
physics.FAMILIES record, and [data] keys that stood before the simulation
constants moved into the family records, so the same file, copied into an older
checkout's scripts/, digests that checkout, and the two outputs can be diffed.
BLAS and OpenMP are held to one thread unless the environment already sets
their thread counts.

Usage: python3 scripts/digests.py
"""
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(var, "1")  # before numpy loads its BLAS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from physden.cli import main as cli_main
from physden.data import SimulateConfig, generate_dataset
from physden.model import Denoiser, denoise, init_params
from physden.physics import FAMILIES
from physden.training import BIAS_DEMO_TRAIN, GATE_DATA, GATE_TRAIN, train


def openblas_kernel() -> str:
    """The core name numpy's bundled OpenBLAS reports, or "unknown"."""
    try:
        from numpy._core import _multiarray_umath

        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def sha256(parts) -> str:
    """Digest of a sequence of arrays (their float64 bytes) and plain values (their repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def dataset_digest(dataset) -> str:
    parts = []
    for w in [*dataset.windows, *(dataset.clean or [])]:
        parts += [(w.channels, w.units, w.dt), w.values]
    return sha256(parts + [dataset.split, dataset.norm_stats.mean, dataset.norm_stats.std])


# Each family's simulation constants, none at its default.
CLI_CONSTANTS = {
    "ins": ["motion_scale=1.5", "rotation_scale=0.8", "n_modes=3"],
    "co2": ["room_volume=32", "emission_rate=8", "initial_ppm=400", "flow=0.05", "inflow_ppm=410"],
    "hvac": ["mass_flow=1.5", "specific_heat=1000"],
}


def cli_simulate_digest(family: str, constants: list[str]) -> str:
    """Digest of the manifest and window CSV bytes `physden simulate` writes for 4 windows at seed 3."""
    items = [f"family={family}", "count=4", "seed=3", *constants]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        args = ["simulate", "--run-dir", tmp, *(a for item in items for a in ("--set", f"data.{item}"))]
        if cli_main(args) != 0:
            raise SystemExit(f"simulate failed for {family}")
        return sha256([(path.name, path.read_bytes()) for path in sorted(Path(tmp, "data").iterdir())])


def digests() -> list[tuple[str, str]]:
    configs = [(f"gate_data_seed{seed}", dataclasses.replace(GATE_DATA, seed=seed)) for seed in (1, 2, 3)]
    configs += [
        ("co2_count8_seed1", SimulateConfig(family="co2", count=8, seed=1)),
        ("hvac_count16_seed5_noise0.2", SimulateConfig(family="hvac", count=16, seed=5, noise_scale=0.2)),
    ]
    lines = [(name, dataset_digest(generate_dataset(cfg))) for name, cfg in configs]

    gate = generate_dataset(GATE_DATA)
    result = train(gate.train_windows, gate.spec, dataclasses.replace(GATE_TRAIN, epochs_total=2),
                   denoise_channels=gate.denoise_channels, norm_stats=gate.norm_stats)
    lines.append(("gate_train_2epochs_params", sha256([t.data for t in result.params.all_tensors()])))
    lines.append(("gate_train_2epochs_log", sha256([dataclasses.astuple(row) for row in result.log])))
    denoised = [denoise(result.denoiser, w) for w in gate.test_windows]
    lines.append(("gate_train_2epochs_denoised", sha256([w.values for w in denoised])))

    demo = generate_dataset(SimulateConfig(family="hvac", count=48, duration=47 * 60.0, dt=60.0, seed=11,
                                           noise_kind="gaussian", noise_scale=0.15, bias_frac={"t_sa": 0.5}))
    result = train(demo.windows, demo.spec, dataclasses.replace(BIAS_DEMO_TRAIN, epochs_total=2))
    lines.append(("bias_demo_train_2epochs_params", sha256([t.data for t in result.params.all_tensors()])))
    lines.append(("bias_demo_train_2epochs_log", sha256([dataclasses.astuple(row) for row in result.log])))

    serve = generate_dataset(SimulateConfig(family="ins", count=4, duration=0.99, dt=0.01, seed=1,
                                            noise_scale=0.2))
    channels = list(FAMILIES["ins"].denoise)
    model = Denoiser(init_params(len(channels), (128, 256, 128), rng=1), channels,
                     *serve.norm_stats.subset(channels))
    lines.append(("serve_model_denoised", sha256([denoise(model, w).values for w in serve.windows])))
    lines += [(f"cli_simulate_{family}", cli_simulate_digest(family, constants))
              for family, constants in CLI_CONSTANTS.items()]
    return lines


def main() -> int:
    print("openblas_kernel", openblas_kernel())
    for name, digest in digests():
        print(name, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
