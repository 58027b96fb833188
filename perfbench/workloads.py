"""The three physden workloads: ins-train, hvac-train and denoise-serve.

BENCHMARK.json runs ins-train and denoise-serve; hvac-train runs by hand (its
run-to-run spread exceeded the largest allowed bound, see README.md). All
three are closed loops with a single client in one process. Each builds
its inputs from the workload seed, sets up several times (the median is
``setup_s``), warms up untimed, then measures for the requested seconds and
checks every output. Failed checks count as failed operations.

Why these workloads:

- ins-train: the gate's inertial benchmark data (tests/conftest.py's
  ``bench_sim_config`` and ``BENCH_TRAIN``, 20 epochs). Batches of two long
  windows make the ins residual's tape graph (``narrow``/``concat``/``mul``
  nodes, row-by-row Hamilton products) the main cost.
- hvac-train: an air-handler dataset at the bias-demo shape (T=48, 48
  training windows, batch 16, 60 epochs). Many short windows per step make
  conv forward/backward and per-window Python the main cost; the hvac
  residual is a handful of nodes.
- denoise-serve: inference only, mirroring ``physden denoise``: each request
  is ``load_csv`` -> ``denoise`` -> ``save_csv`` on a pool of distinct
  13 x 100 ins window CSVs, with the gate's 271,623-parameter model loaded
  from a checkpoint at set-up. No tape, backward, Adam or physics loss.
"""
from __future__ import annotations

import contextlib
import dataclasses
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from physden.data import NoiseSpec, SampleWindow, SimulateConfig, generate_dataset, load_csv, save_csv
from physden.metrics import evaluate
from physden.model import Denoiser, denoise, init_params, load_checkpoint, save_checkpoint
from physden.physics import CHANNEL_NAMES, DENOISE_CHANNELS
from physden.training import LAMBDA_MAX, LAMBDA_MIN, TrainConfig, TrainingAborted, train

from tracing import STEP, Tracer, patched

# Set-up runs once before the measured window and then again every
# 1/SETUP_SAMPLES of it, so that setup_s, the median, samples the same phases
# of the host's speed as the other metrics; at least SETUP_MIN_REPEATS times.
SETUP_SAMPLES = 12
SETUP_MIN_REPEATS = 5
TAPE_OPS = ("add", "sub", "mul", "div", "neg", "sqrt", "relu", "reduce_sum", "reduce_mean",
            "narrow", "concat", "prefix_sum_exclusive", "conv1d")

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("denoise_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# Printed with every run but not an end-to-end metric: on the 2-vCPU VM the
# benchmark was built on, host scheduling bursts set the tail, and its spread
# between runs (0.27-0.56 of the median) exceeded the largest allowed bound.
UNGATED = (("denoise_ms_p99", "ms"),)

PER_LAYER = (
    ("physics.loss_ms_per_window", "ms"),
    ("physics.tape_nodes_per_window", "count"),
    ("autodiff.tape_nodes_per_step", "count"),
    *((f"autodiff.tape_nodes.{op}", "count") for op in (*TAPE_OPS, "other")),
    ("autodiff.backward_ms_per_step", "ms"),
    ("autodiff.adam_step_ms_per_step", "ms"),
    ("autodiff.conv1d_ms_per_call", "ms"),
    ("model.forward_ms_per_window", "ms"),
    ("model.load_checkpoint_ms", "ms"),
    ("data.generate_dataset_s", "s"),
    ("data.inject_noise_ms_per_window", "ms"),
    ("data.load_csv_ms", "ms"),
    ("data.save_csv_ms", "ms"),
    ("data.csv_bytes_per_request", "bytes"),
    ("training.step_ms", "ms"),
    ("training.self_ms_per_step", "ms"),
    ("training.lambda_clamped_frac", "ratio"),
    ("training.phase2_iterations", "count"),
    ("metrics.evaluate_ms_per_window", "ms"),
    ("metrics.test_recon_mse_ratio", "ratio"),
    ("metrics.test_phys_mse_ratio", "ratio"),
    ("tracing.overhead_frac", "ratio"),
)

# Per-layer metrics that must repeat exactly on every run with the same seed:
# counts, and the quality ratios of a bitwise-deterministic training.
EXACT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes")) + (
    "training.lambda_clamped_frac",
    "metrics.test_recon_mse_ratio",
    "metrics.test_phys_mse_ratio",
)


@dataclass
class Outcome:
    """What one run measured: metric values, operation counts and notes."""

    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count a failed operation."""
        self.failed += 1
        self.broken(message)

    def broken(self, message: str) -> None:
        """Record a failed check; the first few are printed."""
        if len(self.problems) < 20:
            self.problems.append(message)


def _bits(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _latency(out: Outcome, latencies: list[float], what: str) -> None:
    ms = 1e3 * np.asarray(latencies)
    out.values["denoise_ms_p50"] = float(np.percentile(ms, 50))
    out.values["denoise_ms_p99"] = float(np.percentile(ms, 99))
    out.notes["denoise_ms_p50"] = f"{what}, {len(ms)} samples"
    out.notes["denoise_ms_p99"] = f"{len(ms)} samples, {int(len(ms) * 0.01)} beyond p99"


def _quality(out: Outcome, denoised, noisy, what: str) -> None:
    """Denoised over noisy MSE on the evaluated windows; below 1 means closer to clean."""
    out.values["metrics.test_recon_mse_ratio"] = denoised.recon_mse / noisy.recon_mse
    out.values["metrics.test_phys_mse_ratio"] = denoised.phys_mse / noisy.phys_mse
    out.notes["metrics.test_recon_mse_ratio"] = (
        f"{denoised.recon_mse:.6g} / noisy {noisy.recon_mse:.6g}, vs clean, {what}")
    out.notes["metrics.test_phys_mse_ratio"] = (
        f"{denoised.phys_mse:.6g} / noisy {noisy.phys_mse:.6g}, {what}")


def _more(elapsed: float, seconds: float, out: Outcome, short: bool) -> bool:
    """Whether a measuring loop goes on: until ``seconds`` have passed, and
    beyond that only while it still lacks the samples it needs (``short``),
    nothing has failed, and less than twice ``seconds`` have passed."""
    return elapsed < seconds or (short and out.failed == 0 and elapsed < 2 * seconds)


# ---------------------------------------------------------------------------
# Training workloads


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    sim: dict
    cfg: TrainConfig
    denoise_passes: int  # test-split passes per training, for >= 1000 latency samples


INS_TRAIN = TrainWorkload(
    name="ins-train",
    # tests/conftest.py bench_sim_config: 64 windows of 128 samples, gaussian
    # noise at 0.2 of each channel's std plus a 0.3-std offset on every channel.
    sim=dict(family="ins", count=64, duration=1.27, dt=0.01, noise_kind="gaussian",
             noise_scale=0.2, bias_frac={c: 0.3 for c in CHANNEL_NAMES["ins"]}),
    # tests/conftest.py BENCH_TRAIN with a 20-epoch budget.
    cfg=TrainConfig(lr=1e-3, batch_size=2, epochs_total=20, pretrain_fraction=0.2,
                    lambda_mode="adaptive", lambda_value=1.0,
                    noise=NoiseSpec(kind="gaussian", scale=0.1),
                    widths=(16, 32, 16), predict_residual=True),
    denoise_passes=8,
)

HVAC_TRAIN = TrainWorkload(
    name="hvac-train",
    # The bias demo's shape: 96 windows of 48 one-minute samples (48 train,
    # 48 test), inherent noise 0.15 std, t_sa offset by 0.5 of its std.
    sim=dict(family="hvac", count=96, duration=47 * 60.0, dt=60.0, noise_kind="gaussian",
             noise_scale=0.15, bias_frac={"t_sa": 0.5}),
    # training.bias_demo's default config with a 60-epoch budget.
    cfg=TrainConfig(lr=3e-3, batch_size=16, epochs_total=60, pretrain_fraction=0.2,
                    lambda_mode="adaptive", lambda_value=1.0,
                    noise=NoiseSpec(kind="gaussian", scale=0.2),
                    widths=(16, 32, 16), predict_residual=True),
    denoise_passes=6,
)

TRAIN_WORKLOADS = {wl.name: wl for wl in (INS_TRAIN, HVAC_TRAIN)}


def run_train(wl: TrainWorkload, seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    sim = SimulateConfig(seed=seed, **wl.sim)
    setups = []

    def set_up(first=None):
        begin = perf_counter()
        dataset = generate_dataset(sim)
        setups.append(perf_counter() - begin)
        if first is not None and (
            dataset.split != first.split
            or _bits(w.values for w in dataset.windows) != _bits(w.values for w in first.windows)
        ):
            out.broken("set-up: generate_dataset is not deterministic for one seed")
        return dataset

    dataset = set_up()
    spec, channels = dataset.spec, dataset.denoise_channels
    train_windows = dataset.train_windows
    test_noisy = dataset.test_windows
    test_clean = [dataset.clean[i] for i in dataset.split[1]]
    noisy = evaluate("noisy", test_noisy, spec, test_clean, channels=channels)
    cfg = dataclasses.replace(wl.cfg, seed=seed)

    def fit(cfg_, windows):
        return train(windows, spec, cfg_, denoise_channels=channels, norm_stats=dataset.norm_stats)

    # Warm-up: one short run through both phases and the evaluation tail.
    warm = fit(dataclasses.replace(cfg, epochs_total=5), train_windows[: 2 * cfg.batch_size])
    evaluate("warm", [denoise(warm.denoiser, w) for w in test_noisy[:2]], spec, test_clean[:2],
             channels=channels)

    epochs_windows = cfg.epochs_total * len(train_windows)
    rates, latencies = [], []
    plain_s, traced_s = [], []
    reference = None  # (parameter bits, report) of the first training
    clamped = phase2 = None
    start = perf_counter()
    while _more(perf_counter() - start, seconds, out,
                len(plain_s) < 2 or (tracer is not None and not traced_s)):
        if perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            set_up(dataset)
        traced = tracer is not None and len(plain_s) > len(traced_s)
        out.attempted += 1
        try:
            begin = perf_counter()
            if traced:
                with patched(tracer):
                    result = fit(cfg, train_windows)
            else:
                result = fit(cfg, train_windows)
            took = perf_counter() - begin
        except TrainingAborted as err:
            out.fail(f"training aborted: {err}")
            continue
        except Exception:  # a failed operation is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            out.fail("training raised")
            continue
        if traced:
            traced_s.append(took)
        else:
            plain_s.append(took)
            rates.append(epochs_windows / took)
        final = result.log[-1].total
        if not np.isfinite(final):
            out.fail(f"non-finite final loss {final}")
        bits = _bits(t.data for t in result.params.all_tensors())

        restored = None
        for _ in range(wl.denoise_passes):
            batch = []
            for w in test_noisy:
                out.attempted += 1
                begin = perf_counter()
                batch.append(denoise(result.denoiser, w))
                latencies.append(perf_counter() - begin)
            if restored is None:
                restored = batch
            elif _bits(w.values for w in batch) != _bits(w.values for w in restored):
                out.fail("denoise is not repeatable on the test split")
        if traced:
            with tracer.span("metrics.evaluate"):
                report = evaluate("denoised", restored, spec, test_clean, channels=channels)
        else:
            report = evaluate("denoised", restored, spec, test_clean, channels=channels)
        for what, got, base in (("recon_mse", report.recon_mse, noisy.recon_mse),
                                ("phys_mse", report.phys_mse, noisy.phys_mse)):
            if not got < base:
                out.fail(f"test {what} {got:.6g} not below the noisy split's {base:.6g}")

        phase2_rows = [row for row in result.log if row.phase == 2]
        this_clamped = sum(row.lam <= LAMBDA_MIN or row.lam >= LAMBDA_MAX for row in phase2_rows)
        if reference is None:
            reference = (bits, report)
            clamped, phase2 = this_clamped, len(phase2_rows)
        elif bits != reference[0]:
            out.fail("two trainings with one seed gave different parameters")

    while len(setups) < SETUP_MIN_REPEATS:
        set_up(dataset)
    out.values["setup_s"] = statistics.median(setups)
    out.notes["setup_s"] = f"median of {len(setups)} generate_dataset calls across the run"
    if reference is None:
        return out
    report = reference[1]
    out.values["windows_per_s"] = statistics.median(rates)
    out.notes["windows_per_s"] = (
        f"median over {len(rates)} trainings of {cfg.epochs_total} epochs x "
        f"{len(train_windows)} windows / wall time of train"
    )
    _latency(out, latencies, f"model.denoise of one test window, {len(test_noisy)} windows")
    _quality(out, report, noisy, f"{len(test_noisy)}-window test split")
    if tracer is not None and traced_s:
        _train_layers(out, tracer, plain_s, traced_s, clamped, phase2, len(test_noisy), setups)
    return out


def _train_layers(out, tracer, plain_s, traced_s, clamped, phase2, n_eval, setups) -> None:
    steps = tracer.calls[STEP]
    v = out.values
    v["physics.loss_ms_per_window"] = tracer.ms_per("physics.loss", tracer.calls["physics.loss"])
    v["physics.tape_nodes_per_window"] = (
        tracer.counts["physics.tape_nodes"] / tracer.calls["physics.loss"]
        if tracer.calls["physics.loss"] else 0.0
    )
    nodes = {op: 0 for op in (*TAPE_OPS, "other")}
    for key, n in tracer.counts.items():
        if key.startswith("tape_nodes."):
            op = key[len("tape_nodes."):]
            nodes[op if op in nodes else "other"] += n
    v["autodiff.tape_nodes_per_step"] = sum(nodes.values()) / steps
    for op, n in nodes.items():
        v[f"autodiff.tape_nodes.{op}"] = n / steps
    v["autodiff.backward_ms_per_step"] = tracer.ms_per("autodiff.backward", steps)
    v["autodiff.adam_step_ms_per_step"] = tracer.ms_per("autodiff.adam_step", steps)
    v["autodiff.conv1d_ms_per_call"] = tracer.ms_per("autodiff.conv1d", tracer.calls["autodiff.conv1d"])
    v["model.forward_ms_per_window"] = tracer.ms_per("model.forward", tracer.calls["model.forward"])
    v["data.generate_dataset_s"] = statistics.median(setups)
    v["data.inject_noise_ms_per_window"] = tracer.ms_per(
        "data.inject_noise", tracer.calls["data.inject_noise"])
    v["training.step_ms"] = tracer.ms_per(STEP, steps)
    v["training.self_ms_per_step"] = 1e3 * tracer.self_time[STEP] / steps
    v["training.lambda_clamped_frac"] = clamped / phase2 if phase2 else 0.0
    v["training.phase2_iterations"] = float(phase2)
    v["metrics.evaluate_ms_per_window"] = tracer.ms_per(
        "metrics.evaluate", tracer.calls["metrics.evaluate"] * n_eval)
    v["tracing.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    out.notes["training.lambda_clamped_frac"] = f"{clamped} of {phase2} phase-2 iterations"
    out.notes["tracing.overhead_frac"] = (
        f"median train time, {len(traced_s)} traced vs {len(plain_s)} untraced trainings"
    )


# ---------------------------------------------------------------------------
# Serving workload

SERVE_SIM = dict(family="ins", count=64, duration=0.99, dt=0.01, noise_kind="gaussian",
                 noise_scale=0.2, bias_frac={c: 0.3 for c in CHANNEL_NAMES["ins"]})
SERVE_WIDTHS = (128, 256, 128)  # 7 channels: the gate's 271,623 parameters
TRACE_BLOCK = 32  # requests per alternating untraced/traced block
RATE_BLOCK = 64  # consecutive requests per windows_per_s sample


def run_serve(seed: int, seconds: float, tracer: Tracer | None, work: Path) -> Outcome:
    out = Outcome()
    sim = SimulateConfig(seed=seed, **SERVE_SIM)
    channels = list(DENOISE_CHANNELS["ins"])
    checkpoint = work / "model.npz"
    setups, generate_s, load_s = [], [], []
    staged_bits = None

    def set_up():
        nonlocal staged_bits
        start = perf_counter()
        dataset = generate_dataset(sim)
        generate_s.append(perf_counter() - start)
        mean, std = dataset.norm_stats.subset(channels)
        save_checkpoint(
            Denoiser(params=init_params(len(channels), SERVE_WIDTHS, rng=seed),
                     channels=channels, norm_mean=mean, norm_std=std),
            checkpoint,
        )
        begin = perf_counter()
        denoiser = load_checkpoint(checkpoint)
        load_s.append(perf_counter() - begin)
        inputs = []
        for i, w in enumerate(dataset.windows):
            inputs.append(work / f"in_{i:03d}.csv")
            save_csv(w, inputs[-1])
        setups.append(perf_counter() - start)
        bits = _bits(t.data for t in denoiser.params.all_tensors()) + b"".join(
            path.read_bytes() for path in inputs)
        if staged_bits is None:
            staged_bits = bits
        elif bits != staged_bits:
            out.broken("set-up: the staged model or window CSVs changed between set-ups")
        return dataset, denoiser, inputs

    dataset, denoiser, inputs = set_up()

    # Expected responses, from an in-memory denoise of each window.
    den_rows = [dataset.windows[0].channels.index(c) for c in channels]
    keep_rows = [i for i in range(len(dataset.windows[0].channels)) if i not in den_rows]
    references, expected, csv_bytes = [], [], []
    for i, w in enumerate(dataset.windows):
        ref = denoise(denoiser, w)
        if ref.values[keep_rows].tobytes() != w.values[keep_rows].tobytes():
            out.broken(f"set-up: pass-through rows of window {i} changed")
        staged = load_csv(inputs[i])
        if staged.values.tobytes() != w.values.tobytes():
            out.broken(f"set-up: window {i} does not round-trip through CSV")
        path = work / f"expected_{i:03d}.csv"
        save_csv(SampleWindow(ref.channels, ref.values, staged.dt, staged.units), path)
        expected.append(path.read_bytes())
        csv_bytes.append(inputs[i].stat().st_size + len(expected[-1]))
        references.append(ref)
    with tracer.span("metrics.evaluate") if tracer else contextlib.nullcontext():
        report = evaluate("served", references, dataset.spec, dataset.clean, channels=channels)
    noisy = evaluate("noisy", dataset.windows, dataset.spec, dataset.clean, channels=channels)

    # Warm-up: a few untimed requests.
    response = work / "out.csv"
    for i in range(4):
        save_csv(denoise(denoiser, load_csv(inputs[i])), response)

    if tracer is not None:
        load, save = tracer.wrap("data.load_csv", load_csv), tracer.wrap("data.save_csv", save_csv)
    order = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    latencies, plain, traced = [], [], []
    start = perf_counter()
    while _more(perf_counter() - start, seconds, out, tracer is not None and not traced):
        if perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            set_up()
        block_traced = tracer is not None and len(plain) > len(traced)
        if tracer is None:
            samples = latencies
        else:
            samples = traced if block_traced else plain
        with patched(tracer) if block_traced else contextlib.nullcontext():
            for _ in range(TRACE_BLOCK if tracer is not None else 1):
                i = int(order.integers(len(inputs)))
                out.attempted += 1
                try:
                    begin = perf_counter()
                    if block_traced:
                        save(denoise(denoiser, load(inputs[i])), response)
                    else:
                        save_csv(denoise(denoiser, load_csv(inputs[i])), response)
                    samples.append(perf_counter() - begin)
                except Exception:  # a failed request is counted; the loop goes on
                    traceback.print_exc(file=sys.stderr)
                    out.fail(f"request for window {i} raised")
                    continue
                if response.read_bytes() != expected[i]:
                    out.fail(f"response for window {i} differs from the in-memory denoise")

    while len(setups) < SETUP_MIN_REPEATS:
        set_up()
    out.values["setup_s"] = statistics.median(setups)
    out.notes["setup_s"] = (
        f"median of {len(setups)} set-ups across the run: generate {len(inputs)} windows, "
        "save and load the checkpoint, write the window CSVs"
    )
    blocks = [latencies[i:i + RATE_BLOCK]
              for i in range(0, len(latencies) - RATE_BLOCK + 1, RATE_BLOCK)] or [latencies]
    if latencies:
        out.values["windows_per_s"] = statistics.median(len(b) / sum(b) for b in blocks)
        out.notes["windows_per_s"] = (
            f"median over {len(blocks)} blocks of up to {RATE_BLOCK} requests of "
            "requests / time inside them")
        _latency(out, latencies, "one request: load_csv + denoise + save_csv")
    _quality(out, report, noisy, f"{len(references)}-window pool")
    if tracer is not None and traced:
        v = out.values
        v["autodiff.conv1d_ms_per_call"] = tracer.ms_per("autodiff.conv1d",
                                                         tracer.calls["autodiff.conv1d"])
        v["model.forward_ms_per_window"] = tracer.ms_per("model.forward", tracer.calls["model.forward"])
        v["model.load_checkpoint_ms"] = 1e3 * statistics.median(load_s)
        v["data.generate_dataset_s"] = statistics.median(generate_s)
        v["data.load_csv_ms"] = tracer.ms_per("data.load_csv", tracer.calls["data.load_csv"])
        v["data.save_csv_ms"] = tracer.ms_per("data.save_csv", tracer.calls["data.save_csv"])
        v["data.csv_bytes_per_request"] = statistics.fmean(csv_bytes)
        v["metrics.evaluate_ms_per_window"] = tracer.ms_per("metrics.evaluate", len(references))
        v["tracing.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        out.notes["data.csv_bytes_per_request"] = "input + response CSV bytes, pool mean"
        out.notes["tracing.overhead_frac"] = (
            f"median request time, {len(traced)} traced vs {len(plain)} untraced requests"
        )
    return out
