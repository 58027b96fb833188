"""Windows, corruption, simulators, splitting, and the on-disk dataset format."""
import configparser
import csv
import dataclasses
import io
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physden.data import (
    _alignment_scores,
    Dataset,
    NoiseSpec,
    SimulateConfig,
    compute_norm_stats,
    generate_dataset,
    inject_noise,
    load_csv,
    load_manifest,
    new_ini,
    noise_std,
    read_value,
    save_csv,
    save_dataset,
    split_by_alignment,
    write_value,
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


def make_window(values, names=None, dt=1.0):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"ch{i}" for i in range(values.shape[0])]
    return SampleWindow(channels=names, values=values, dt=dt, units=["u"] * values.shape[0])


def hvac_spec(env):
    return PhysicsSpec(
        family="hvac",
        environment=env,
        channels=FAMILIES["hvac"].channels,
    )


# ---------------------------------------------------------------------------
# Containers


def test_sample_window_validation():
    with pytest.raises(ValueError, match="unique"):
        make_window(np.zeros((2, 4)), names=["a", "a"])
    with pytest.raises(ValueError, match="T >= 3"):
        make_window(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="dt"):
        make_window(np.zeros((1, 4)), dt=0.0)
    with pytest.raises(ValueError, match="c x T"):
        SampleWindow(channels=["a"], values=np.zeros(4), dt=1.0, units=["u"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_window_rejects_non_finite_values(bad):
    values = np.zeros((2, 4))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="'b' is non-finite at timestep 2"):
        make_window(values, names=["a", "b"])


def test_compute_norm_stats_hand_values():
    w1 = make_window([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]], names=["flat", "ramp"])
    w2 = make_window([[1.0, 1.0, 1.0], [4.0, 5.0, 6.0]], names=["flat", "ramp"])
    stats = compute_norm_stats([w1, w2])
    assert stats.mean[0] == 1.0
    assert stats.std[0] == 1.0  # zero-variance fallback
    assert stats.mean[1] == 3.0
    assert np.isclose(stats.std[1], np.std([0, 1, 2, 4, 5, 6]))


def test_norm_stats_subset_reorders():
    w = make_window([[0.0, 2.0, 4.0], [10.0, 10.0, 10.0]], names=["a", "b"])
    stats = compute_norm_stats([w])
    mean, std = stats.subset(["b", "a"])
    assert mean.tolist() == [10.0, 2.0]


def test_norm_stats_requires_shared_layout():
    w1 = make_window(np.zeros((1, 3)), names=["a"])
    w2 = make_window(np.zeros((1, 3)), names=["b"])
    with pytest.raises(ValueError, match="share a channel layout"):
        compute_norm_stats([w1, w2])


# ---------------------------------------------------------------------------
# Corruption


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        NoiseSpec(kind="salt")
    with pytest.raises(ValueError, match="scale"):
        NoiseSpec(scale=-0.1)
    with pytest.raises(ValueError, match="mask_fraction"):
        NoiseSpec(kind="zero-mask", mask_fraction=1.5)
    # An additive kind has no mask, so a mask_fraction there would do nothing.
    for kind in ("gaussian", "uniform"):
        with pytest.raises(ValueError, match=f"mask_fraction acts only on zero-mask noise, got 0.2 "
                                             f"with kind '{kind}'"):
            NoiseSpec(kind=kind, mask_fraction=0.2)


def noisy_window(w, spec, rng):
    """inject_noise on a one-window block, as a C x T array."""
    block = w.values[:, None, :]
    return inject_noise(block, spec, noise_std(w.values, spec)[None], rng)[:, 0, :]


def test_gaussian_noise_scales_with_channel_std():
    rng = np.random.default_rng(0)
    quiet = np.sin(np.linspace(0, 2 * np.pi, 500))
    loud = 100.0 * quiet
    w = make_window(np.vstack([quiet, loud]), names=["quiet", "loud"])
    noisy = noisy_window(w, NoiseSpec(kind="gaussian", scale=0.1), rng)
    dev = noisy - w.values
    ratio = dev[1].std() / dev[0].std()
    assert 50.0 < ratio < 200.0


def test_noise_is_deterministic_per_generator_seed():
    w = make_window(np.random.default_rng(3).normal(size=(2, 50)))
    spec = NoiseSpec(kind="uniform", scale=0.2)
    a = noisy_window(w, spec, np.random.default_rng(11))
    b = noisy_window(w, spec, np.random.default_rng(11))
    c = noisy_window(w, spec, np.random.default_rng(12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_zero_mask_zeroes_rounded_fraction_per_channel():
    w = make_window(np.ones((3, 40)))
    masked = noisy_window(
        w, NoiseSpec(kind="zero-mask", mask_fraction=0.25), np.random.default_rng(5)
    )
    for row in masked:
        assert int((row == 0.0).sum()) == 10


def test_uniform_noise_bounded_by_half_width():
    w = make_window(np.random.default_rng(1).normal(size=(1, 200)))
    half_width = 0.3 * w.values[0].std()
    noisy = noisy_window(w, NoiseSpec(kind="uniform", scale=0.3), np.random.default_rng(2))
    assert np.max(np.abs(noisy - w.values)) <= half_width


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "zero-mask"])
def test_batch_noise_equals_one_draw_per_window(kind):
    # The reference is one C x T draw per window, in batch order, from the
    # same generator: the arithmetic of a window noised on its own.
    spec = NoiseSpec(kind=kind, scale=0.3, mask_fraction=0.2 if kind == "zero-mask" else 0.0)
    windows = np.random.default_rng(4).normal(size=(3, 4, 25)) * [[[1.0], [10.0], [0.1], [3.0]]]
    ref_rng = np.random.default_rng(9)
    expected = []
    for values in windows:
        out = values.copy()
        if kind == "zero-mask":
            for row in out:
                row[ref_rng.choice(25, size=5, replace=False)] = 0.0
        else:
            noise = (ref_rng.standard_normal((4, 25)) if kind == "gaussian"
                     else ref_rng.uniform(-1.0, 1.0, size=(4, 25)))
            noise *= (spec.scale * values.std(axis=-1))[:, None]
            out += noise
        expected.append(out)
    block = np.stack(list(windows), axis=1)  # C x B x T
    rng = np.random.default_rng(9)
    got = inject_noise(block, spec, noise_std(windows, spec), rng)
    assert got.tobytes() == np.stack(expected, axis=1).tobytes()
    assert np.array_equal(block, np.stack(list(windows), axis=1))  # the input is not touched
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# Simulators


def test_ins_same_seed_same_motion_at_shared_timestamps():
    [coarse] = simulate_ins(1.0, InsEnvironment(dt=0.02), [21])
    [fine] = simulate_ins(1.0, InsEnvironment(dt=0.01), [21])
    # Mode coefficients are drawn before time sampling, and position is
    # analytic, so coarse samples are a strict subset of the fine ones.
    assert np.array_equal(fine.values[0:3, ::2], coarse.values[0:3, :])


def test_ins_channels_and_units():
    env = InsEnvironment(dt=0.01)
    [window] = simulate_ins(0.3, env, [0])
    assert window.channels[:3] == ["px", "py", "pz"]
    assert window.channels[3:7] == ["qw", "qx", "qy", "qz"]
    assert len(window.channels) == 13
    assert window.dt == env.dt == 0.01
    norms = np.linalg.norm(window.values[3:7], axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("cfg, env, simulate, constants", [
    (SimulateConfig(family="ins", count=5, duration=0.5, dt=0.02, seed=9,
                    constants={"motion_scale": 1.5, "rotation_scale": 0.8, "n_modes": 3}),
     InsEnvironment(dt=0.02), simulate_ins, {"motion_scale": 1.5, "rotation_scale": 0.8, "n_modes": 3}),
    (SimulateConfig(family="co2", count=8, seed=1), Co2Environment(30.0, 64.0, 10.0, 420.0),
     simulate_co2, {"flow": 0.03, "inflow_ppm": 420.0}),
    (SimulateConfig(family="hvac", count=6, seed=5), HvacEnvironment(dt=60.0), simulate_hvac, {}),
], ids=["ins", "co2", "hvac"])
def test_dataset_windows_are_each_seeds_simulation_bitwise(cfg, env, simulate, constants):
    # Each clean window is its seed's window, simulated alone or inside a block of seeds.
    ds = generate_dataset(cfg)
    assert repr(ds.spec.environment) == repr(env)
    assert len({w.values.tobytes() for w in ds.clean}) == cfg.count
    sim_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.count)
    block = simulate(cfg.duration, env, sim_seeds[::-1], **constants)[::-1]
    for window, seed, in_block in zip(ds.clean, sim_seeds, block, strict=True):
        [alone] = simulate(cfg.duration, env, [seed], **constants)
        for sim in (alone, in_block):
            assert window.values.tobytes() == sim.values.tobytes()
            assert (window.channels, window.units, window.dt) == (sim.channels, sim.units, sim.dt)
    for name in set(constants) & set(ds.clean[0].channels):  # co2's flow and inflow rows
        assert all(np.all(w.row(name) == constants[name]) for w in ds.clean)
    exact = [np.all(r == 0.0) for r in window_residuals(ds.clean, ds.spec)]
    assert all(exact) == (cfg.family != "ins")  # co2 and hvac cancel exactly, ins to O(dt^2)


def test_co2_occupancy_drives_concentration_up():
    # With no ventilation the room only gains CO2, and gains it whenever someone is in.
    env = Co2Environment(room_volume=64.0, emission_rate=10.0, initial_ppm=420.0, dt=30.0)
    [window] = simulate_co2(1800.0, env, [0], 0.0, 420.0)
    c = window.row("c_room")
    assert c[0] == 420.0
    assert np.any(window.row("occupants") > 0)
    assert np.array_equal(np.diff(c) > 0, window.row("occupants")[:-1] > 0)
    assert np.all(np.diff(c) >= 0)


def test_hvac_window_satisfies_power_balance():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [window] = simulate_hvac(1200.0, env, [13])
    mc = 1.0 * 1006.0
    assert np.array_equal(
        window.row("dq"), mc * (window.row("t_sa") - window.row("t_mix"))
    )


# ---------------------------------------------------------------------------
# Alignment split


def test_split_ranks_by_residual_magnitude():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1000.0)
    spec = hvac_spec(env)
    [clean] = simulate_hvac(300.0, env, [1])
    windows = []
    for k in range(4):
        values = clean.values.copy()
        values[0] += float(k)  # monotonically worse balance violation
        windows.append(dataclasses.replace(clean, values=values))
    scores = [float(np.sum(r * r)) for r in window_residuals(windows, spec)]
    assert scores == sorted(scores)
    train, test = split_by_alignment(windows, spec)
    assert train == [0, 1]
    assert test == [2, 3]


def test_split_scores_equal_each_windows_alignment_score():
    ds = generate_dataset(SimulateConfig(family="ins", count=20, duration=0.47, dt=0.01, seed=3,
                                         noise_kind="gaussian", noise_scale=0.2))
    scores = [float(np.sum(r * r)) for w in ds.windows for r in window_residuals([w], ds.spec)]
    assert _alignment_scores(ds.windows, ds.spec) == scores
    order = [int(i) for i in np.argsort(scores, kind="stable")]
    assert ds.split == (sorted(order[:10]), sorted(order[10:]))


def test_alignment_score_rejects_dt_mismatch():
    [w] = simulate_hvac(300.0, HvacEnvironment(dt=60.0), [1])
    with pytest.raises(ValueError, match="dt"):
        split_by_alignment([w, w], hvac_spec(HvacEnvironment(dt=30.0)))


def test_split_needs_two_windows():
    env = HvacEnvironment(dt=60.0)
    [w] = simulate_hvac(300.0, env, [1])
    with pytest.raises(ValueError, match="at least 2"):
        split_by_alignment([w], hvac_spec(env))


def test_split_tie_break_is_stable():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1000.0)
    spec = hvac_spec(env)
    [w] = simulate_hvac(300.0, env, [2])
    windows = [dataclasses.replace(w, values=w.values.copy()) for _ in range(3)]  # identical scores
    train, test = split_by_alignment(windows, spec)
    assert train == [0, 1]
    assert test == [2]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_split_partitions_exhaustively(n, seed):
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1000.0)
    spec = hvac_spec(env)
    rng = np.random.default_rng(seed)
    [base] = simulate_hvac(240.0, env, [int(seed % 1000)])
    windows = []
    for _ in range(n):
        noise = rng.normal(scale=rng.uniform(0.0, 2.0), size=base.values.shape)
        windows.append(dataclasses.replace(base, values=base.values + noise))
    train, test = split_by_alignment(windows, spec)
    assert sorted(train + test) == list(range(n))
    assert len(train) == (n + 1) // 2


# ---------------------------------------------------------------------------
# Window CSV files


def test_csv_round_trip(tmp_path):
    w = make_window(np.random.default_rng(0).normal(size=(2, 7)), names=["a", "b"], dt=0.25)
    path = tmp_path / "w.csv"
    save_csv(w, path)
    back = load_csv(path)
    assert back.channels == ["a", "b"]
    assert back.units == ["1", "1"]  # a CSV stores no units
    assert back.dt == 0.25
    assert np.array_equal(back.values, w.values)


def row_by_row_csv(window, path):
    """The reference writer: csv.writer, one row at a time, fields at 17 digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(window.channels))
        for k in range(window.n_timesteps):
            writer.writerow([f"{k * window.dt:.17g}"] + [f"{v:.17g}" for v in window.values[:, k]])


@pytest.mark.parametrize("seed", range(6))
def test_csv_bytes_match_the_row_by_row_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    c, t_len = int(rng.integers(1, 6)), int(rng.integers(3, 40))
    sign = rng.choice([-1.0, 1.0], size=(c, t_len))
    values = sign * 10.0 ** rng.uniform(-320.0, 300.0, size=(c, t_len))
    values.flat[:3] = (0.0, -0.0, 5e-324)
    names = ['a,b"c', "x y", "line\r\nbreak", "plain", "q'"][:c]
    w = make_window(values, names=names, dt=float(10.0 ** rng.uniform(-6.0, 4.0)))
    save_csv(w, tmp_path / "fast.csv")
    row_by_row_csv(w, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = load_csv(tmp_path / "fast.csv")
    assert back.channels == names
    assert np.array_equal(back.values, values)
    assert np.array_equal(np.signbit(back.values), np.signbit(values))


@pytest.mark.parametrize(
    "text, message",
    [
        ("t,a\n0,1\n1,2,3\n2,3\n", r"bad\.csv:3: expected 2 columns, got 3"),
        ("t,a\n0,1\n\n2,3\n", r"bad\.csv:3: expected 2 columns, got 0"),
        ("t,a\r\n0,1\r\n1,2\r\n2,3\r\n\r\n", r"bad\.csv:5: expected 2 columns, got 0"),
        ("t,a\n0,1\n1,2\n", r"bad\.csv: need at least 3 data rows, got 2"),
        ("t,a\r\n", r"bad\.csv: need at least 3 data rows, got 0"),
        ("", r"bad\.csv:1: empty file"),
    ],
)
def test_csv_row_errors_name_their_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=message):
        load_csv(path)


@pytest.mark.parametrize(
    "text",
    ["t,a\n0,1\n1,2\n2,3\n", 't,a\r\n"0","1"\r\n1,"2"\r\n2,3', "t,a\r0,1\r1,2\r2,3\r"],
)
def test_csv_loads_lf_cr_and_quoted_numbers(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    back = load_csv(path)
    assert back.channels == ["a"]
    assert back.dt == 1.0
    assert back.values.tolist() == [[1.0, 2.0, 3.0]]


def test_csv_errors_carry_path_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,a\n0.0,1.0\n1.0,2.0\n0.5,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:4: time column not strictly increasing"):
        load_csv(path)

    path.write_text("t,a\n0.0,1.0\n1.0,oops\n2.0,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-numeric"):
        load_csv(path)

    path.write_text("t,a\n0.0,1.0\n1.0,2.0\n3.0,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:4: non-uniform"):
        load_csv(path)

    path.write_text("x,a\n0.0,1.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:1: header"):
        load_csv(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("t,a\n0.0,1.0\n1.0,nan\n2.0,3.0\n", 3),
        ("t,a\n0.0,1.0\n1.0,2.0\n2.0,-inf\n", 4),
        ("t,a\n0.0,1.0\nnan,2.0\n2.0,3.0\n", 3),
        ("t,a\n0.0,1.0\n1.0,2.0\ninf,3.0\n", 4),
    ],
)
def test_csv_rejects_non_finite_values(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.csv:{line}: non-finite"):
        load_csv(path)


def test_csv_schema_reports_missing_channels(tmp_path):
    path = tmp_path / "w.csv"
    save_csv(make_window(np.zeros((1, 3)), names=["a"]), path)
    with pytest.raises(ValueError, match="missing channels: b, c"):
        load_csv(path, schema=["a", "b", "c"])


# ---------------------------------------------------------------------------
# Dataset manifest


def test_dataset_split_must_partition():
    env = HvacEnvironment(dt=60.0)
    spec = hvac_spec(env)
    [w] = simulate_hvac(240.0, env, [0])
    windows = [w, dataclasses.replace(w, values=w.values.copy())]
    stats = compute_norm_stats(windows)
    with pytest.raises(ValueError, match="partition"):
        Dataset(windows=windows, spec=spec, split=([0], [0]), norm_stats=stats)
    with pytest.raises(ValueError) as err:
        Dataset(windows=windows, spec=spec, split=([0], [1]), norm_stats=stats, denoise_channels=["t_sa", "x"])
    assert str(err.value) == "Dataset: denoise_channels names channels the windows lack: x"


def test_manifest_round_trip(tmp_path):
    cfg = SimulateConfig(family="hvac", count=4, duration=600.0, dt=60.0, seed=5,
                         noise_scale=0.1)
    ds = generate_dataset(cfg)
    manifest = save_dataset(ds, tmp_path / "run")
    assert manifest.name == "manifest.ini"
    back = load_manifest(manifest)

    assert back.spec.family == "hvac"
    assert back.split == ds.split
    assert back.denoise_channels == ds.denoise_channels
    assert len(back.windows) == 4 and len(back.clean) == 4
    for a, b in zip(ds.windows, back.windows):
        assert np.array_equal(a.values, b.values)
        assert a.units == b.units
    for a, b in zip(ds.clean, back.clean):
        assert np.array_equal(a.values, b.values)
        assert a.units == b.units == ["K", "K", "W"]
    assert np.array_equal(back.norm_stats.mean, ds.norm_stats.mean)
    assert np.array_equal(back.norm_stats.std, ds.norm_stats.std)


def test_co2_manifest_keeps_driver_rows_and_only_constants(tmp_path):
    ds = generate_dataset(SimulateConfig(family="co2", count=3, duration=900.0, dt=30.0, seed=2))
    manifest = save_dataset(ds, tmp_path / "run")
    cfg = configparser.ConfigParser()
    cfg.read(manifest)
    assert dict(cfg["environment"]) == {"dt": "30", "room_volume": "64", "emission_rate": "10",
                                        "initial_ppm": "420"}
    assert sorted(p.name for p in manifest.parent.iterdir()) == sorted(
        ["manifest.ini"] + [f"{kind}_{i:03d}.csv" for kind in ("noisy", "clean") for i in range(3)])
    back = load_manifest(manifest)
    assert back.spec.environment == ds.spec.environment
    for a, b in zip(ds.clean, back.clean):
        assert a.values.tobytes() == b.values.tobytes()
        assert b.units == ["ppm", "ppm", "m^3/s", "ppm", "1"]
    # the occupancy rows survive, so clean residuals stay exactly zero
    for r in window_residuals(back.clean, back.spec):
        assert np.all(r == 0.0)


def rewritten_manifest(path, family: str, section: str, **entries: str):
    """The manifest of a saved 4-window dataset of the family at path, with [section] set to entries."""
    manifest = save_dataset(generate_dataset(SimulateConfig(family=family, count=4, seed=1)), path)
    cfg = new_ini()
    cfg.read(manifest)
    cfg[section].update(entries)
    with manifest.open("w") as fh:
        cfg.write(fh)
    return manifest


@pytest.mark.parametrize(
    "family, key",
    [("co2", "room_volume"), ("co2", "initial_ppm"), ("co2", "dt"), ("ins", "gravity")],
)
def test_manifest_rejects_series_mark_on_fixed_field(tmp_path, family, key):
    manifest = rewritten_manifest(tmp_path / "run", family, "environment", **{key: "@series"})
    # An environment holds constants only; a series mark is not a number.
    with pytest.raises(ValueError, match=rf"manifest\.ini: \[environment\] {key}: expected "
                                         "(a number|comma-separated numbers), got '@series'"):
        load_manifest(manifest)


def test_manifest_environment_error_names_the_file_and_section(tmp_path):
    manifest = rewritten_manifest(tmp_path / "run", "ins", "environment", gravity="1,2")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}: [environment] gravity must be a 3-vector, got shape (2,)"


def test_manifest_denoise_names_are_read_as_the_model_key_reads_them(tmp_path):
    manifest = rewritten_manifest(tmp_path / "run", "hvac", "dataset", denoise="t_sa, t_mix")
    assert load_manifest(manifest).denoise_channels == ["t_sa", "t_mix"]


@pytest.mark.parametrize("value, shown", [
    ("t_sa,,", "empty channel name in 't_sa,,'"),
    ("", "expected channel names, got an empty value"),
    ("t_sa,t_sa", "channel names must be distinct, got 't_sa' twice"),
], ids=["empty-name", "empty-value", "repeated-name"])
def test_manifest_denoise_rejects_what_the_model_key_rejects(tmp_path, value, shown):
    manifest = rewritten_manifest(tmp_path / "run", "hvac", "dataset", denoise=value)
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}: [dataset] denoise: {shown}"


def test_manifest_split_with_an_empty_half_is_read_as_written(tmp_path):
    manifest = rewritten_manifest(tmp_path / "run", "hvac", "split", train="", test="0,1,2,3")
    assert load_manifest(manifest).split == ([], [0, 1, 2, 3])


def test_manifest_denoise_must_name_channels_of_the_windows(tmp_path):
    manifest = rewritten_manifest(tmp_path / "run", "hvac", "dataset", denoise="t_sa,bogus")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    assert str(err.value) == f"{manifest}: [dataset] denoise names channels the windows lack: bogus"


def test_manifest_split_must_partition_the_windows(tmp_path):
    manifest = rewritten_manifest(tmp_path / "run", "hvac", "split", train="0,1", test="3,9")
    with pytest.raises(ValueError) as err:
        load_manifest(manifest)
    assert str(err.value) == (f"{manifest}: [split] must partition the 4 window indices, "
                              "got train '0,1' and test '3,9'")


# Values of each kind save_dataset writes. A text or a name is one line without surrounding
# whitespace, and a name holds no comma, as the manifest's are; ±0.0 and floats that take all 17
# digits are drawn on purpose, as arbitrary floats seldom are.
_TEXT = st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"))
_FLOATS = st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1 / 3, 5e-324]) | st.floats(allow_nan=False)
_WRITTEN = {
    str: st.text(_TEXT, min_size=1),
    int: st.integers(),
    float: _FLOATS,
    list[str]: st.lists(st.text(_TEXT.filter(lambda c: c != ","), min_size=1), min_size=1, unique=True),
    list[int]: st.just([]) | st.lists(st.integers()),
    np.ndarray: st.lists(_FLOATS, min_size=1).map(np.array),
}


@pytest.mark.parametrize("kind", list(_WRITTEN), ids=["str", "int", "float", "list[str]", "list[int]", "ndarray"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_read_value_reads_what_write_value_wrote_to_the_bit(kind, data):
    value = data.draw(_WRITTEN[kind])
    written, back = new_ini(), new_ini()
    written["s"] = {"k": write_value(value)}
    text = io.StringIO()
    written.write(text)
    back.read_string(text.getvalue())
    read = read_value(back, "s", "k", kind)
    # A float's repr tells every double apart, -0.0 from 0.0 included.
    exact = lambda v: (type(v), repr(v.tolist() if isinstance(v, np.ndarray) else v))
    assert exact(read) == exact(value)


@pytest.mark.parametrize("name, message", [
    ("clean_001.csv", r"clean_001\.csv:1: columns dq,t_sa,t_mix differ from \S*noisy_000\.csv's t_sa,t_mix,dq$"),
    ("noisy_002.csv", r"noisy_002\.csv:1: columns dq,t_sa,t_mix differ from \S*noisy_000\.csv's t_sa,t_mix,dq$"),
    # The first window's own order is the one every other window is held to.
    ("noisy_000.csv", r"clean_000\.csv:1: columns t_sa,t_mix,dq differ from \S*noisy_000\.csv's dq,t_sa,t_mix$"),
], ids=["clean_001.csv", "noisy_002.csv", "noisy_000.csv"])
def test_load_manifest_rejects_columns_in_another_order(tmp_path, name, message):
    ds = generate_dataset(SimulateConfig(family="hvac", count=4, seed=1))
    manifest = save_dataset(ds, tmp_path / "run")
    w = load_csv(tmp_path / "run" / name)
    order = [w.channels.index(c) for c in ("dq", "t_sa", "t_mix")]
    save_csv(SampleWindow([w.channels[i] for i in order], w.values[order], w.dt, w.units),
             tmp_path / "run" / name)
    # Read with window 0's channel order, that clean window would score phys_mse ~4.6e11, not 0.0.
    with pytest.raises(ValueError, match=message):
        load_manifest(manifest)


@pytest.mark.parametrize("change, message", [
    ("dt", r"clean_001\.csv: 10 timesteps at dt 120\.0 differ from \S*noisy_001\.csv's 10 at dt 60\.0$"),
    ("length", r"clean_001\.csv: 7 timesteps at dt 60\.0 differ from \S*noisy_001\.csv's 10 at dt 60\.0$"),
], ids=["dt", "length"])
def test_load_manifest_rejects_a_clean_window_at_another_dt_or_length(tmp_path, change, message):
    ds = generate_dataset(SimulateConfig(family="hvac", count=4, duration=540.0, dt=60.0, seed=1))
    manifest = save_dataset(ds, tmp_path / "run")
    w = load_csv(tmp_path / "run" / "clean_001.csv")
    if change == "dt":
        w = SampleWindow(w.channels, w.values, 2 * w.dt, w.units)
    else:
        w = SampleWindow(w.channels, w.values[:, :7], w.dt, w.units)
    save_csv(w, tmp_path / "run" / "clean_001.csv")
    # Evaluated against this reference, the noisy window's recon_mse would compare other instants.
    with pytest.raises(ValueError, match=message):
        load_manifest(manifest)


def test_load_manifest_missing_file():
    with pytest.raises(ValueError, match="manifest not found"):
        load_manifest("/nonexistent/manifest.ini")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(ValueError) as err:
        load_csv(tmp_path / "absent.csv")
    assert str(err.value) == f"{tmp_path / 'absent.csv'}: window CSV not found"


@pytest.fixture(scope="module")
def saved_datasets(tmp_path_factory):
    """A saved 4-window dataset of each scalar family, by family: its directory."""
    root = tmp_path_factory.mktemp("saved")
    return {family: save_dataset(generate_dataset(SimulateConfig(family=family, count=4,
                                                                 duration=10 * dt, dt=dt, seed=2)),
                                 root / family).parent
            for family, dt in (("co2", 30.0), ("hvac", 60.0))}


MUTATIONS = ("drop section", "drop key", "set value", "count", "truncate csv", "swap csv columns")
# Non-finite, empty and non-numeric entries, "%" and "," among them.
BAD_VALUES = st.one_of(st.sampled_from(["nan", "inf", "-inf", ""]),
                       st.text(alphabet="abe%,.-+ 1", min_size=1, max_size=6))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family=st.sampled_from(["co2", "hvac"]), mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_manifest_loads_or_raises_value_error(saved_datasets, tmp_path_factory, family,
                                                      mutation, data):
    root = tmp_path_factory.mktemp("mutated")
    shutil.copytree(saved_datasets[family], root, dirs_exist_ok=True)
    manifest = root / "manifest.ini"
    cfg = new_ini()
    cfg.read(manifest)
    if mutation == "drop section":
        cfg.remove_section(data.draw(st.sampled_from(cfg.sections())))
    elif mutation in ("drop key", "set value"):
        section = data.draw(st.sampled_from(cfg.sections()))
        key = data.draw(st.sampled_from(list(cfg[section])))
        if mutation == "drop key":
            cfg.remove_option(section, key)
        else:
            cfg[section][key] = data.draw(BAD_VALUES)
    elif mutation == "count":
        cfg["dataset"]["count"] = str(4 + data.draw(st.sampled_from([-1, 1])))
    else:
        path = root / data.draw(st.sampled_from(sorted(cfg["windows"].values())))
        raw = path.read_bytes()
        if mutation == "truncate csv":
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        else:
            rows = [line.split(b",") for line in raw.splitlines()]
            i, j = data.draw(st.lists(st.integers(0, len(rows[0]) - 1), min_size=2, max_size=2,
                                      unique=True))
            for row in rows:
                row[i], row[j] = row[j], row[i]
            path.write_bytes(b"\r\n".join(b",".join(row) for row in rows) + b"\r\n")
    with manifest.open("w") as fh:
        cfg.write(fh)
    try:
        assert isinstance(load_manifest(manifest), Dataset)
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# Dataset generation


def test_generate_dataset_reproducible():
    cfg = SimulateConfig(family="hvac", count=4, duration=600.0, dt=60.0, seed=9)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    for wa, wb in zip(a.windows, b.windows):
        assert np.array_equal(wa.values, wb.values)
    assert a.split == b.split


def test_generate_dataset_applies_bias_fraction():
    cfg = SimulateConfig(
        family="hvac", count=6, duration=600.0, dt=60.0, seed=3,
        noise_scale=0.0, noise_kind="gaussian", bias_frac={"t_sa": 0.5},
    )
    ds = generate_dataset(cfg)
    pooled = compute_norm_stats(ds.clean)
    i = ds.clean[0].channel_index("t_sa")
    expected = 0.5 * pooled.std[i]
    for noisy, clean in zip(ds.windows, ds.clean):
        delta = noisy.values - clean.values
        assert np.allclose(delta[i], expected)
        assert np.all(delta[[j for j in range(3) if j != i]] == 0.0)


@pytest.mark.parametrize("family, kind", [("ins", "gaussian"), ("hvac", "uniform"),
                                          ("co2", "zero-mask")])
def test_generate_dataset_corrupts_each_window_as_corrupt_does(family, kind):
    cfg = SimulateConfig(family=family, count=5, seed=12, noise_kind=kind, noise_scale=0.3,
                         mask_fraction=0.2 if kind == "zero-mask" else 0.0,
                         bias_frac={FAMILIES[family].channels[0]: 0.4})
    ds = generate_dataset(cfg)
    noise = NoiseSpec(kind=kind, scale=0.3, mask_fraction=cfg.mask_fraction)
    bias = np.zeros(len(FAMILIES[family].channels))
    bias[0] = 0.4 * compute_norm_stats(ds.clean).std[0]
    noise_seeds = np.random.SeedSequence(12).spawn(2 * cfg.count)[cfg.count:]
    for window, clean, seed in zip(ds.windows, ds.clean, noise_seeds):
        # the window corrupted alone: its own noise draw, then the bias
        alone = noisy_window(clean, noise, np.random.default_rng(seed)) + bias[:, None]
        assert window.values.tobytes() == alone.tobytes()


def test_generate_dataset_rejects_unknown_bias_channel():
    cfg = SimulateConfig(family="hvac", count=2, bias_frac={"bogus": 0.1})
    with pytest.raises(ValueError, match="bogus"):
        generate_dataset(cfg)


def test_generate_dataset_norm_stats_come_from_train_split():
    cfg = SimulateConfig(family="hvac", count=5, duration=600.0, dt=60.0, seed=4)
    ds = generate_dataset(cfg)
    expected = compute_norm_stats([ds.windows[i] for i in ds.split[0]])
    assert np.array_equal(ds.norm_stats.mean, expected.mean)
    assert np.array_equal(ds.norm_stats.std, expected.std)


def test_simulate_config_validation():
    with pytest.raises(ValueError, match="unknown physics family 'sonar'"):
        SimulateConfig(family="sonar")
    with pytest.raises(ValueError, match="count"):
        SimulateConfig(family="ins", count=1)
    with pytest.raises(ValueError, match="^SimulateConfig: room_volume is not a constant of the ins family; "
                                         "its constants are: motion_scale, rotation_scale, n_modes$"):
        SimulateConfig(family="ins", constants={"room_volume": 50.0})
    with pytest.raises(ValueError, match="^SimulateConfig: flow must be finite, got nan$"):
        SimulateConfig(family="co2", constants={"flow": np.nan})


def test_simulate_config_checks_each_constants_kind():
    # Each constant takes the kind of its default in Family.constants, which the CLI parses it as.
    for family, constants, message in [
        ("ins", {"n_modes": 2.5}, "n_modes must be an integer, got 2.5"),
        ("co2", {"flow": "x"}, "flow must be a real number, got 'x'"),
        ("co2", {"room_volume": True}, "room_volume must be a real number, got True"),
    ]:
        with pytest.raises(ValueError, match=f"^SimulateConfig: {message}$"):
            SimulateConfig(family=family, constants=constants)
    assert SimulateConfig(family="ins", constants={"n_modes": np.int64(3), "motion_scale": 2}).constants


def test_family_defaults_fill_duration_and_dt():
    cfg = SimulateConfig(family="co2", count=2)
    assert cfg.duration == 3600.0
    assert cfg.dt == 30.0
