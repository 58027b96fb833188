"""Acceptance gate: one test per headline criterion.

Each test prints a single "[criterion N] label: PASS/FAIL (detail)" line and
then asserts, so `pytest tests/test_acceptance.py -v -s` doubles as a
human-readable report. Criteria 3-5 share the session-scoped weighting sweep
from conftest (training.lambda_sweep on training.GATE_DATA); the whole gate is
seeded and single-threaded.
"""
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from physden.data import split_by_alignment
from physden.gradcheck import run_suite
from physden.model import (
    Denoiser,
    denoise,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from physden.physics import (
    FAMILIES,
    Co2Environment,
    HvacEnvironment,
    InsEnvironment,
    PhysicsSpec,
    SampleWindow,
    simulate_co2,
    simulate_hvac,
    simulate_ins,
    window_residuals,
)
from physden.training import LAMBDA_MAX, LAMBDA_MIN, bias_demo


def check(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} {label}: {detail}"


def phys_mse(window, spec):
    """The physics loss of one window: its mean squared residual entry."""
    (r,) = window_residuals([window], spec)
    return float(np.mean(r * r))


def spec_for(family, window, env):
    return PhysicsSpec(
        family=family,
        environment=env,
        channels=window.channels,
    )


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    results = run_suite(seed=0, instances=20, tolerance=1e-5)
    elapsed = time.perf_counter() - start
    names = {r.name for r in results}
    required = {
        "conv1d", "relu", "mse",
        "residual_ins", "residual_co2", "residual_hvac",
        "model_forward",
    }
    worst = max(r.max_rel_err for r in results)
    ok = (
        required <= names
        and all(r.passed for r in results)
        and all(r.instances >= 20 for r in results)
        and elapsed < 60.0
    )
    check(1, "gradient correctness", ok,
          f"{len(results)} op families x >=20 instances, worst rel err "
          f"{worst:.3e} vs tol 1e-5, {elapsed:.1f}s of 60s")


def test_criterion_2_clean_simulation_residuals():
    details = []
    ok = True
    for seed in (3, 7, 11):
        env = Co2Environment(room_volume=64.0, emission_rate=10.0,
                             initial_ppm=420.0, dt=30.0)
        [w] = simulate_co2(3600.0, env, [seed], 0.03, 420.0)
        ok = ok and phys_mse(w, spec_for("co2", w, env)) == 0.0

        henv = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
        [w] = simulate_hvac(3840.0, henv, [seed])
        ok = ok and phys_mse(w, spec_for("hvac", w, henv)) == 0.0

        # the orientation-rate rows dominate the inertial residual; their
        # documented bound is dt^2 * max_t |w_dot|^2 / 16
        mse = {}
        for dt in (0.01, 0.005):
            ienv = InsEnvironment(dt=dt)
            [w] = simulate_ins(1.27, ienv, [seed])
            mse[dt] = phys_mse(w, spec_for("ins", w, ienv))
            wdot = np.gradient(w.values[7:10], dt, axis=1)
            bound = dt * dt * np.max(np.sum(wdot * wdot, axis=0)) / 16.0
            ok = ok and mse[dt] <= bound
        ratio = mse[0.01] / mse[0.005]
        ok = ok and 2.8 <= ratio <= 5.2
        details.append(f"seed {seed} ins {mse[0.01]:.2e} ratio {ratio:.2f}")
    check(2, "clean-simulation residuals", ok,
          "co2/hvac exactly 0.0 at 3 seeds; " + ", ".join(details)
          + " (halving dt, need 4x +-30%)")


def test_criterion_3_physics_alignment_improvement(bench_runs, bench_timings):
    noisy, runs = bench_runs
    adaptive = runs["adaptive"].report
    rec_only = runs["fixed 0"].report
    ratio = noisy.phys_mse / adaptive.phys_mse
    runtime = (bench_timings["dataset_build"] + bench_timings["adaptive"]
               + bench_timings["fixed 0"])
    ok = ratio >= 10.0 and adaptive.recon_mse < rec_only.recon_mse and runtime < 600.0
    check(3, "trained physics alignment", ok,
          f"phys_mse {noisy.phys_mse:.4g} -> {adaptive.phys_mse:.4g} "
          f"({ratio:.1f}x, need >=10x); recon_mse {adaptive.recon_mse:.6g} < "
          f"rec-only {rec_only.recon_mse:.6g}; {runtime:.0f}s of 600s")


def test_criterion_4_ablation_direction(bench_runs):
    _, runs = bench_runs
    adaptive = runs["adaptive"].report
    rec_only = runs["fixed 0"].report
    ok = (rec_only.phys_mse > adaptive.phys_mse
          and rec_only.recon_mse > adaptive.recon_mse)
    check(4, "physics-term ablation", ok,
          f"dropping the physics term: phys_mse {adaptive.phys_mse:.4g} -> "
          f"{rec_only.phys_mse:.4g}, recon_mse {adaptive.recon_mse:.6g} -> "
          f"{rec_only.recon_mse:.6g} (both must increase)")


def test_criterion_5_adaptive_weighting_contract(bench_runs):
    _, runs = bench_runs
    rows = [r for r in runs["adaptive"].result.log if r.phase == 2]
    unclamped = [r for r in rows if LAMBDA_MIN < r.lam < LAMBDA_MAX]
    devs = [abs(r.lam * r.l_phy / r.l_rec - 1.0) for r in unclamped]
    worst = max(devs) if devs else float("inf")

    adaptive = runs["adaptive"].report.recon_mse
    best_fixed = min(runs[k].report.recon_mse
                     for k in ("fixed 0.1", "fixed 1", "fixed 10"))
    ok = (len(unclamped) > 0 and worst <= 1e-9
          and adaptive <= best_fixed * 1.05)
    check(5, "adaptive loss weighting", ok,
          f"{len(unclamped)}/{len(rows)} phase-2 iterations unclamped, max "
          f"|lambda*l_phy/l_rec - 1| = {worst:.2e} vs 1e-9; final recon_mse "
          f"{adaptive:.6g} <= best fixed {best_fixed:.6g} +5%")


def test_criterion_6_inherent_bias_correction():
    biased = bias_demo(0.5)
    clean = bias_demo(0.0)
    in_band = 0.25 <= biased.rec_error_frac <= 0.75
    corrected = abs(biased.phys_mean_error) < abs(biased.rec_mean_error)
    centered = (abs(clean.rec_mean_error) <= 3.0 * clean.rec_stderr
                and abs(clean.phys_mean_error) <= 3.0 * clean.phys_stderr)
    ok = in_band and corrected and centered
    check(6, "inherent-bias behavior", ok,
          f"bias 0.5 std: rec-only error {biased.rec_error_frac:+.3f} std "
          f"(need [0.25, 0.75]), physics {biased.phys_error_frac:+.3f} std "
          f"(smaller magnitude); bias 0: rec-only "
          f"{abs(clean.rec_mean_error) / clean.rec_stderr:.2f} se, physics "
          f"{abs(clean.phys_mean_error) / clean.phys_stderr:.2f} se (both <= 3)")


def test_criterion_7_alignment_split_rule():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    names = list(FAMILIES["hvac"].channels)
    units = list(FAMILIES["hvac"].units)
    spec = PhysicsSpec(family="hvac", environment=env,
                       channels=names)

    @settings(max_examples=200, deadline=None, database=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           force_tie=st.booleans())
    def split_is_best_aligned_half(n, seed, force_tie):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5.0, 5.0, size=(n, 3, 6))
        if force_tie:
            values[-1] = values[0]
        windows = [SampleWindow(channels=names, values=v, dt=60.0, units=units)
                   for v in values]
        train, test = split_by_alignment(windows, spec)
        assert sorted(train + test) == list(range(n))
        assert len(train) == (n + 1) // 2
        scores = [float(np.sum(r * r)) for r in window_residuals(windows, spec)]
        if len(set(scores)) == n:
            assert max(scores[i] for i in train) <= min(scores[i] for i in test)

    try:
        split_is_best_aligned_half()
    except Exception as err:
        check(7, "alignment split rule", False, f"property falsified: {err}")
    check(7, "alignment split rule", True,
          "200 random window sets: disjoint + exhaustive, |train| = ceil(N/2), "
          "train scores <= test scores when ties absent")


def test_criterion_8_parameter_budget(tmp_path):
    params = init_params(7, widths=(128, 256, 128), rng=0)
    n = param_count(params)

    den = Denoiser(params=params, channels=[f"ch{i}" for i in range(7)],
                   norm_mean=np.zeros(7), norm_std=np.ones(7))
    path = tmp_path / "model.npz"
    save_checkpoint(den, path)
    loaded = load_checkpoint(path)
    bit_exact = (
        all(np.array_equal(a.data, b.data)
            for a, b in zip(den.params.all_tensors(), loaded.params.all_tensors()))
        and loaded.channels == den.channels
        and np.array_equal(loaded.norm_mean, den.norm_mean)
        and np.array_equal(loaded.norm_std, den.norm_std)
        and loaded.predict_residual == den.predict_residual
    )
    ok = n == 271_623 and bit_exact
    check(8, "parameter budget", ok,
          f"7 channels x widths (128, 256, 128) = {n} parameters "
          f"(need exactly 271623); checkpoint round-trip bit-exact: {bit_exact}")


def test_criterion_9_denoise_latency():
    channels = [f"ch{i}" for i in range(7)]
    den = Denoiser(params=init_params(7, rng=0), channels=channels,
                   norm_mean=np.zeros(7), norm_std=np.ones(7))
    values = np.random.default_rng(0).normal(size=(7, 100))
    window = SampleWindow(channels=channels, values=values, dt=0.01,
                          units=["u"] * 7)
    denoise(den, window)  # warm-up outside the timed region
    repeats = 1000
    start = time.perf_counter()
    for _ in range(repeats):
        denoise(den, window)
    mean_ms = (time.perf_counter() - start) / repeats * 1e3
    ok = mean_ms < 50.0
    check(9, "single-window latency", ok,
          f"{mean_ms:.2f} ms mean over {repeats} repeats on a 7-channel, "
          f"100-timestep window (limit 50 ms)")
