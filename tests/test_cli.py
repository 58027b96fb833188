"""CLI surface: config plumbing, subcommand artifacts, exit codes."""
import configparser
import contextlib
import csv
import inspect
import io
import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import physden
from physden import gradcheck, training
from physden.cli import _known_keys, _load_config, build_parser, main
from physden.data import SampleWindow, load_csv, load_manifest, save_csv
from physden.metrics import EvalReport
from physden.model import load_checkpoint


def simulate_args(run_dir, count=4, seed=5):
    return [
        "simulate",
        "--run-dir", str(run_dir),
        "--set", "data.family=hvac",
        "--set", f"data.count={count}",
        "--set", "data.duration=1800",
        "--set", "data.dt=60",
        "--set", f"data.seed={seed}",
        "--set", "data.noise_scale=0.1",
    ]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulate + train pipeline shared by the artifact-inspection tests."""
    root = tmp_path_factory.mktemp("cli")
    sim_dir = root / "sim"
    assert main(simulate_args(sim_dir)) == 0
    manifest = sim_dir / "data" / "manifest.ini"
    assert manifest.exists()

    train_ini = root / "train.ini"
    train_ini.write_text(
        "[data]\n"
        f"manifest = {manifest}\n"
        "[train]\n"
        "lr = 1e-3\n"
        "batch_size = 2\n"
        "epochs_total = 4\n"
        "pretrain_fraction = 0.5\n"
        "widths = 2,3,2\n"
        "seed = 3\n"
    )
    run_dir = root / "run"
    assert main(["train", "--config", str(train_ini), "--run-dir", str(run_dir)]) == 0
    return {
        "root": root,
        "manifest": manifest,
        "sim_data": sim_dir / "data",
        "checkpoint": run_dir / "model.npz",
        "log": run_dir / "train_log.csv",
    }


# ---------------------------------------------------------------------------
# Argument and config errors


def test_no_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--threads", threads])
    assert exc.value.code == 1
    assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err


def test_malformed_set_item(capsys):
    assert main(["simulate", "--set", "oops"]) == 1
    assert "SECTION.KEY=VALUE" in capsys.readouterr().err


def test_set_key_without_section(capsys):
    assert main(["simulate", "--set", "count=4"]) == 1
    assert "SECTION.KEY" in capsys.readouterr().err


def test_missing_config_file(capsys, tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 1
    assert f"error: {tmp_path / 'absent.ini'}: config not found" in capsys.readouterr().err
    # A directory is no config either; configparser's own read skipped it without a word.
    assert main(["simulate", "--config", str(tmp_path), "--run-dir", str(tmp_path / "run")]) == 1
    assert "Is a directory" in capsys.readouterr().err and not (tmp_path / "run").exists()


def _config_reader(path):
    return _load_config(build_parser().parse_args(["simulate", "--config", str(path)]))


@pytest.mark.parametrize("reader, kind", [(_config_reader, "config"), (load_manifest, "manifest")])
def test_repeated_key_is_an_error_naming_the_file(tmp_path, reader, kind):
    ini = tmp_path / "twice.ini"
    ini.write_text("[data]\nfamily = hvac\nfamily = co2\n")
    with pytest.raises(ValueError) as err:
        reader(ini)
    assert str(err.value) == (f"{ini}: {kind} is not an INI file (While reading from '{ini}' [line 3]: "
                              "option 'family' in section 'data' already exists)")


@pytest.mark.parametrize("reader, kind", [(_config_reader, "config"), (load_manifest, "manifest"),
                                          (load_csv, "window CSV")])
def test_not_text_error_gives_the_bad_bytes_offset_in_the_file(tmp_path, reader, kind):
    # Past the text reader's first 8 KiB chunk, whose offsets restart at each chunk.
    text = b"[data]\n# " + b"x" * 20000 + b"\n"
    path = tmp_path / "late.bin"
    path.write_bytes(text + b"\xff\n")
    with pytest.raises(ValueError) as err:
        reader(path)
    assert str(err.value) == f"{path}: {kind} is not text (invalid start byte at offset {len(text)})"


def test_train_requires_manifest(capsys):
    assert main(["train"]) == 1
    assert "[data] manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key", [("environment", "mass_flow"), ("dataset", "family"), ("dataset", "count")]
)
def test_manifest_missing_key_names_it(capsys, tmp_path, workspace, section, key):
    data = tmp_path / "data"
    shutil.copytree(workspace["sim_data"], data)
    manifest = data / "manifest.ini"
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read(manifest)
    cfg.remove_option(section, key)
    with manifest.open("w") as fh:
        cfg.write(fh)
    rc = main(["train", "--run-dir", str(tmp_path / "run"), "--set", f"data.manifest={manifest}"])
    assert rc == 1
    assert f"error: {manifest}: [{section}] {key}: missing required value" in capsys.readouterr().err


def rewritten_manifest(data_dir, tmp_path, section, key, value):
    """A copy of a dataset directory whose manifest sets [section] key to value."""
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    manifest = data / "manifest.ini"
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read(manifest)
    cfg[section][key] = value
    with manifest.open("w") as fh:
        cfg.write(fh)
    return manifest


def test_manifest_count_below_one_is_an_error(capsys, tmp_path, workspace):
    manifest = rewritten_manifest(workspace["sim_data"], tmp_path, "dataset", "count", "0")
    rc = main(["train", "--run-dir", str(tmp_path / "run"), "--set", f"data.manifest={manifest}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[dataset] count must be at least 1, got 0" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, key, value, shown", [
    ("dataset", "count", "two", "expected an integer, got 'two'"),
    ("split", "train", "0,a", "expected comma-separated integers, got '0,a'"),
    ("environment", "mass_flow", "abc", "expected a number, got 'abc'"),
], ids=["dataset-count", "split-train", "environment-mass_flow"])
def test_manifest_number_error_names_file_section_and_key(capsys, tmp_path, workspace, section,
                                                         key, value, shown):
    manifest = rewritten_manifest(workspace["sim_data"], tmp_path, section, key, value)
    rc = main(["train", "--run-dir", str(tmp_path / "run"), "--set", f"data.manifest={manifest}"])
    assert rc == 1
    assert f"error: {manifest}: [{section}] {key}: {shown}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_manifest_dt_disagreeing_with_its_windows_is_an_error(capsys, tmp_path, workspace):
    # The saved [split] skips the alignment split, which used to be the only dt check.
    manifest = rewritten_manifest(workspace["sim_data"], tmp_path, "environment", "dt", "1")
    with pytest.raises(ValueError, match="window dt 60.0 does not match environment dt 1.0"):
        load_manifest(manifest)
    rc = main(["train", "--run-dir", str(tmp_path / "run"), "--set", f"data.manifest={manifest}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "window dt 60.0 does not match environment dt 1.0" in err
    assert not (tmp_path / "run").exists()


def test_non_finite_environment_constant_is_rejected_before_training(capsys, monkeypatch, tmp_path):
    assert main(["simulate", "--run-dir", str(tmp_path / "sim"), "--set", "data.family=co2",
                 "--set", "data.count=2", "--set", "data.duration=300"]) == 0
    manifest = rewritten_manifest(tmp_path / "sim" / "data", tmp_path, "environment", "emission_rate", "nan")
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)  # where a default run directory would go
    rc = main(["train", "--set", f"data.manifest={manifest}", "--set", "train.widths=2,3,2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "emission_rate must be finite" in err
    assert not (tmp_path / "out").exists()


def test_bad_integer_names_the_key(capsys, workspace):
    rc = main([
        "train",
        "--set", f"data.manifest={workspace['manifest']}",
        "--set", "train.epochs_total=abc",
    ])
    assert rc == 1
    assert "[train] epochs_total" in capsys.readouterr().err


@pytest.mark.parametrize(
    "item, key",
    [
        ("train.lr=", "[train] lr"),
        ("train.epochs_total=", "[train] epochs_total"),
        ("train.predict_residual=", "[train] predict_residual"),
        ("model.denoise=", "[model] denoise"),
    ],
)
def test_empty_value_is_an_error_for_every_kind(capsys, workspace, item, key):
    rc = main(["train", "--set", f"data.manifest={workspace['manifest']}", "--set", item])
    assert rc == 1
    err = capsys.readouterr().err
    assert key in err and "empty value" in err


@pytest.mark.parametrize(
    "config, override, message",
    [
        ("", "train.epoch_total=5", "unknown config key [train] epoch_total"),
        ("[train]\ndeterministic = true\n", "train.lr=0.1", "unknown config key [train] deterministic"),
        ("", "trian.lr=0.1", "unknown config section [trian]"),
    ],
)
def test_unknown_config_key_is_an_error(capsys, tmp_path, config, override, message):
    ini = tmp_path / "run.ini"
    ini.write_text(config)
    assert main(["train", "--config", str(ini), "--set", "data.manifest=absent.ini",
                 "--set", override]) == 1
    assert message in capsys.readouterr().err


# Every key the README documents, one value each; a config may mix the
# keys of all commands.
DOCUMENTED_KEYS = {
    "data": "family count duration dt seed noise_kind noise_scale mask_fraction bias_frac "
            "motion_scale rotation_scale n_modes room_volume emission_rate initial_ppm flow "
            "inflow_ppm mass_flow specific_heat manifest input subset",
    "train": "lr batch_size epochs_total pretrain_fraction lambda_mode lambda_value noise_kind "
             "noise_scale mask_fraction seed widths predict_residual",
    "model": "denoise checkpoint",
    "output": "file timing_repeats",
    "gradcheck": "seed instances tolerance",
    "demo": "eta_frac n_windows seed",
}


def test_every_documented_key_passes_the_check(tmp_path):
    ini = tmp_path / "all.ini"
    ini.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = 1\n" for key in keys.split())
        for section, keys in DOCUMENTED_KEYS.items()
    ))
    cp = _load_config(build_parser().parse_args(["train", "--config", str(ini)]))
    assert {section: " ".join(cp[section]) for section in cp.sections()} == DOCUMENTED_KEYS


def test_accepted_keys_are_exactly_the_documented_keys():
    assert _known_keys() == {section: set(keys.split()) for section, keys in DOCUMENTED_KEYS.items()}


def test_denoise_missing_checkpoint(capsys, tmp_path):
    rc = main([
        "denoise",
        "--run-dir", str(tmp_path),
        "--set", f"model.checkpoint={tmp_path / 'nope.npz'}",
        "--set", f"data.input={tmp_path / 'nope.csv'}",
    ])
    assert rc == 1
    assert "checkpoint not found" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, kind", [
    ("train", "data.manifest", "manifest"),
    ("eval", "model.checkpoint", "checkpoint"),
    ("denoise", "data.input", "window CSV"),
])
def test_a_missing_file_is_named_by_the_reader_that_opens_it(capsys, tmp_path, workspace, command, key, kind):
    files = {"data.manifest": workspace["manifest"], "model.checkpoint": workspace["checkpoint"],
             "data.input": workspace["sim_data"] / "noisy_000.csv", key: tmp_path / "absent"}
    rc = main([command, "--run-dir", str(tmp_path / "run"),
               *(arg for item in files.items() for arg in ("--set", "=".join(map(str, item))))])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'absent'}: {kind} not found\n"
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_manifest_and_reports_zero_residual(capsys, workspace):
    # the fixture already ran simulate; re-run here to inspect stdout
    out_dir = workspace["root"] / "sim-echo"
    assert main(simulate_args(out_dir)) == 0
    out = capsys.readouterr().out
    assert "wrote 4 hvac windows" in out
    assert "manifest:" in out
    assert "clean self-check phys_mse (worst window): 0" in out


def test_simulate_rejecting_its_config_makes_no_run_directory(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # where a default run directory would go
    args = [a for a in simulate_args(tmp_path) if a not in ("--run-dir", str(tmp_path))]
    assert main(args + ["--set", "data.bias_frac=nope:0.5"]) == 1
    assert "bias_frac names unknown channels: nope" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_is_byte_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(simulate_args(d1)) == 0
    assert main(simulate_args(d2)) == 0
    files1 = sorted(p.name for p in (d1 / "data").iterdir())
    files2 = sorted(p.name for p in (d2 / "data").iterdir())
    assert files1 == files2
    for name in files1:
        assert (d1 / "data" / name).read_bytes() == (d2 / "data" / name).read_bytes()


def test_set_overrides_win_over_config_file(tmp_path):
    ini = tmp_path / "sim.ini"
    ini.write_text("[data]\nfamily = hvac\ncount = 4\nduration = 1800\ndt = 60\nseed = 5\n")
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--config", str(ini), "--set", "data.count=6",
               "--run-dir", str(out_dir)])
    assert rc == 0
    dataset = load_manifest(out_dir / "data" / "manifest.ini")
    assert len(dataset.windows) == 6


def test_percent_signs_in_config_values_are_plain_text(tmp_path, workspace):
    # A run directory named w%1 holds the manifest; configparser's default
    # interpolation would read each % as the start of a reference.
    data = tmp_path / "w%1" / "sim" / "data"
    shutil.copytree(workspace["sim_data"], data)
    ini = tmp_path / "train%.ini"
    ini.write_text("[train]\nepochs_total = 1\nwidths = 2,3,2\n[output]\nfile = den%1.csv\n")
    run_dir = tmp_path / "w%1" / "run"
    rc = main(["train", "--config", str(ini), "--set", f"data.manifest={data / 'manifest.ini'}",
               "--run-dir", str(run_dir)])
    assert rc == 0
    assert (run_dir / "model.npz").exists()


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(workspace):
    assert workspace["checkpoint"].exists()
    denoiser = load_checkpoint(workspace["checkpoint"])
    assert denoiser.channels == ["t_sa", "t_mix"]

    lines = workspace["log"].read_text().splitlines()
    assert lines[0] == ",".join(f.name for f in fields(training.LogRow))
    # 4 windows -> 2 train windows -> 1 batch per epoch, 4 epochs
    assert len(lines) == 5


def test_train_respects_model_denoise_override(tmp_path, workspace):
    run_dir = tmp_path / "run"
    rc = main([
        "train",
        "--run-dir", str(run_dir),
        "--set", f"data.manifest={workspace['manifest']}",
        "--set", "train.epochs_total=1",
        "--set", "train.widths=2,3,2",
        "--set", "model.denoise=t_sa",
    ])
    assert rc == 0
    assert load_checkpoint(run_dir / "model.npz").channels == ["t_sa"]


def test_train_rejecting_its_inputs_makes_no_run_directory(capsys, monkeypatch, tmp_path, workspace):
    monkeypatch.chdir(tmp_path)  # where a default run directory would go
    rc = main([
        "train",
        "--set", f"data.manifest={workspace['manifest']}",
        "--set", "train.epochs_total=1",
        "--set", "train.widths=2,3,2",
        "--set", "model.denoise=t_sa,nope",
    ])
    assert rc == 1
    assert "nope" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_aborted_train_writes_its_last_good_checkpoint(capsys, monkeypatch, tmp_path, workspace):
    monkeypatch.chdir(tmp_path)
    with np.errstate(all="ignore"):
        rc = main([
            "train",
            "--set", f"data.manifest={workspace['manifest']}",
            "--set", "train.epochs_total=6",
            "--set", "train.widths=2,3,2",
            "--set", "train.lr=1e308",
        ])
    assert rc == 2
    assert "last good checkpoint" in capsys.readouterr().err
    (run_dir,) = (tmp_path / "out").iterdir()
    assert sorted(p.name for p in run_dir.iterdir()) == ["model.npz", "train_log.csv"]


# ---------------------------------------------------------------------------
# denoise


def noisy_csvs(workspace):
    return sorted(workspace["sim_data"].glob("noisy_*.csv"))


def test_denoise_writes_output_and_timing(capsys, tmp_path, workspace):
    input_csv = noisy_csvs(workspace)[0]
    out_dir = tmp_path / "den"
    rc = main([
        "denoise",
        "--run-dir", str(out_dir),
        "--set", f"model.checkpoint={workspace['checkpoint']}",
        "--set", f"data.input={input_csv}",
        "--set", "output.timing_repeats=3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert "timing:" in out and "3 repeats" in out

    before = load_csv(input_csv)
    after = load_csv(out_dir / "denoised.csv")
    assert after.channels == before.channels
    for name in ("t_sa", "t_mix"):
        row = before.channels.index(name)
        assert not np.array_equal(after.values[row], before.values[row])
    # dq is not reconstructed, so it passes through bitwise
    row = before.channels.index("dq")
    assert np.array_equal(after.values[row], before.values[row])


@pytest.mark.parametrize("repeats, message", [
    ("abc", "[output] timing_repeats: expected an integer, got 'abc'"),
    ("-3", "[output] timing_repeats must be >= 0, got -3"),
], ids=["not-an-integer", "negative"])
def test_denoise_rejects_bad_timing_repeats_before_writing(capsys, tmp_path, workspace, repeats, message):
    target = tmp_path / "custom.csv"
    for where in (["--run-dir", str(tmp_path / "den")], ["--set", f"output.file={target}"]):
        rc = main(["denoise", *where,
                   "--set", f"model.checkpoint={workspace['checkpoint']}",
                   "--set", f"data.input={noisy_csvs(workspace)[0]}",
                   "--set", f"output.timing_repeats={repeats}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "den").exists() and not target.exists()


def test_denoise_honors_output_file(monkeypatch, tmp_path, workspace):
    monkeypatch.chdir(tmp_path)  # where a default run directory would go
    target = tmp_path / "custom.csv"
    rc = main([
        "denoise",
        "--set", f"model.checkpoint={workspace['checkpoint']}",
        "--set", f"data.input={noisy_csvs(workspace)[0]}",
        "--set", f"output.file={target}",
    ])
    assert rc == 0
    assert target.exists()
    assert not (tmp_path / "out").exists()


def test_denoise_keeps_the_input_column_order(tmp_path, workspace):
    plain = noisy_csvs(workspace)[0]
    w = load_csv(plain)
    order = [w.channels.index(c) for c in ("dq", "t_sa", "t_mix")]
    swapped = tmp_path / "swapped.csv"
    save_csv(SampleWindow([w.channels[i] for i in order], w.values[order], w.dt, w.units), swapped)
    outputs = []
    for name, input_csv in (("plain", plain), ("swapped", swapped)):
        rc = main([
            "denoise",
            "--run-dir", str(tmp_path / name),
            "--set", f"model.checkpoint={workspace['checkpoint']}",
            "--set", f"data.input={input_csv}",
        ])
        assert rc == 0
        outputs.append(load_csv(tmp_path / name / "denoised.csv"))
    restored, restored_swapped = outputs
    assert restored_swapped.channels == ["dq", "t_sa", "t_mix"]
    assert restored_swapped.values.tobytes() == restored.values[order].tobytes()
    assert not np.array_equal(restored.values, w.values)


def test_denoise_rejects_missing_channels(capsys, tmp_path, workspace):
    # an ins-shaped CSV lacks the hvac channels the checkpoint reconstructs
    bad = tmp_path / "bad.csv"
    bad.write_text("t,alpha\n0,1\n60,2\n120,3\n")
    rc = main([
        "denoise",
        "--run-dir", str(tmp_path),
        "--set", f"model.checkpoint={workspace['checkpoint']}",
        "--set", f"data.input={bad}",
    ])
    assert rc == 1
    assert "input lacks channels" in capsys.readouterr().err



def test_checkpoint_missing_a_layer_array_is_an_error(capsys, tmp_path, workspace):
    with np.load(workspace["checkpoint"]) as bundle:
        arrays = dict(bundle)
    n_layers = int(arrays["n_layers"])
    arrays["n_layers"] = np.array(n_layers + 1)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    rc = main([
        "denoise",
        "--run-dir", str(tmp_path / "den"),
        "--set", f"model.checkpoint={bad}",
        "--set", f"data.input={noisy_csvs(workspace)[0]}",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"lacks the array weight_{n_layers}" in err
    assert not (tmp_path / "den").exists()


def test_denoise_rejects_a_window_at_another_dt(capsys, tmp_path, workspace):
    # the checkpoint was trained on dt 60 s windows; the same values labelled dt 1 s
    assert load_checkpoint(workspace["checkpoint"]).dt == 60.0
    w = load_csv(noisy_csvs(workspace)[0])
    fast = tmp_path / "fast.csv"
    save_csv(SampleWindow(w.channels, w.values, 1.0, w.units), fast)
    rc = main([
        "denoise",
        "--run-dir", str(tmp_path / "den"),
        "--set", f"model.checkpoint={workspace['checkpoint']}",
        "--set", f"data.input={fast}",
    ])
    assert rc == 1
    assert "window dt 1.0 does not match the denoiser's training dt 60.0" in capsys.readouterr().err
    assert not (tmp_path / "den").exists()


# ---------------------------------------------------------------------------
# Boundary sweep: one mutated checkpoint, window CSV (denoise's input or a
# manifest's, through eval) or --set value per run


def _checkpoint_mutations(arrays):
    """One change to a valid checkpoint's arrays: ("checkpoint", action, key, argument)."""
    keys = sorted(arrays)
    reals = [k for k in keys if arrays[k].dtype.kind == "f"]
    return st.one_of(
        st.tuples(st.just("checkpoint"), st.just("drop"), st.sampled_from(keys), st.none()),
        st.tuples(st.just("checkpoint"), st.just("non-finite"), st.sampled_from(reals),
                  st.sampled_from([np.nan, np.inf, -np.inf])),
        st.tuples(st.just("checkpoint"), st.just("reshape"), st.sampled_from(keys),
                  st.sampled_from(["flat", "wrapped", "shortened"])),
        st.tuples(st.just("checkpoint"), st.just("n_layers"), st.none(), st.integers(-2, 6)),
        st.tuples(st.just("checkpoint"), st.just("truncate"), st.none(), st.integers(0, 10**6)),
    )


def _mutated_checkpoint(arrays, path, action, key, arg):
    arrays = dict(arrays)
    if action == "drop":
        del arrays[key]
    elif action == "non-finite":
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = arg
    elif action == "reshape":
        value = arrays[key]
        arrays[key] = {"flat": value.ravel(), "wrapped": value[None],
                       "shortened": value.ravel()[:-1]}[arg]
    elif action == "n_layers":
        arrays["n_layers"] = np.array(arg)
    elif action == "set":
        arrays[key] = arg
    if action == "pickle":
        path.write_bytes(pickle.dumps(arrays))
        return
    np.savez(path, **arrays)
    if action == "truncate":
        raw = path.read_bytes()
        path.write_bytes(raw[:arg % len(raw)])


def _window_changes(header):
    """One change to a valid window CSV: ("truncate", None, byte), ("drop", column, None) or
    ("swap", (column, column), None)."""
    return st.one_of(
        st.tuples(st.just("truncate"), st.none(), st.integers(0, 10**5)),
        st.tuples(st.just("drop"), st.sampled_from(header), st.none()),
        st.tuples(st.just("swap"), st.lists(st.sampled_from(header), min_size=2, max_size=2,
                                            unique=True).map(tuple), st.none()),
    )


def _input_mutations(header):
    """One change to denoise's input window CSV: ("input", action, key, argument)."""
    return _window_changes(header).map(lambda change: ("input", *change))


def _manifest_mutations(header, names):
    """One change to one of a manifest's noisy window CSVs: ("manifest", file, action, key, argument)."""
    return st.tuples(st.sampled_from(names), _window_changes(header)).map(
        lambda m: ("manifest", m[0], *m[1]))


def _mutated_input(raw, path, action, key, arg):
    """Write the window CSV raw to path with one change; stretch scales the time column by arg, and
    head keeps the header and the first arg data rows."""
    if action == "truncate":
        path.write_bytes(raw[:arg % (len(raw) + 1)])
        return
    rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
    if action == "drop":
        j = rows[0].index(key)
        rows = [row[:j] + row[j + 1:] for row in rows]
    elif action == "swap":
        i, j = (rows[0].index(name) for name in key)
        for row in rows:
            row[i], row[j] = row[j], row[i]
    elif action == "stretch":
        rows[1:] = [["%.17g" % (float(row[0]) * arg), *row[1:]] for row in rows[1:]]
    elif action == "head":
        rows = rows[:arg + 1]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# Each command the sweep runs, with the --set items of a valid run and the
# keys a drawn item overrides; later --set items win. bias-demo and denoise run
# only as explicit examples: a valid demo trains for seconds, and the checkpoint
# mutations already run denoise.
_SWEEP_COMMANDS = {
    "simulate": (["data.family=hvac", "data.count=4", "data.duration=300", "data.dt=60"],
                 ["data." + k for k in sorted(_known_keys()["data"])]),
    "train": (["train.epochs_total=1", "train.widths=2,3,2"],
              ["train." + k for k in sorted(_known_keys()["train"])] + ["model.denoise"]),
    "gradcheck": (["gradcheck.instances=1"], ["gradcheck." + k for k in sorted(_known_keys()["gradcheck"])]),
    "bias-demo": ([], []),
    "denoise": (["model.checkpoint={checkpoint}", "data.input={sim_data}/noisy_000.csv"], []),
}


@st.composite
def _set_mutations(draw):
    """One --set item of one command made non-finite, empty or non-numeric: ("set", command, items)."""
    command = draw(st.sampled_from(sorted(c for c, (_, keys) in _SWEEP_COMMANDS.items() if keys)))
    key = draw(st.sampled_from(_SWEEP_COMMANDS[command][1]))
    value = draw(st.sampled_from(["nan", "inf", "-inf", "", "x", "1,2"]))
    return "set", command, (f"{key}={value}",)


@pytest.fixture(scope="module")
def sweep_checkpoint(workspace):
    with np.load(workspace["checkpoint"]) as bundle:
        return dict(bundle)


@pytest.fixture(scope="module")
def sweep_input(workspace):
    return noisy_csvs(workspace)[0].read_bytes()


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(mutation=st.data(), names=st.none())
@example(mutation=("checkpoint", "drop", "format_version", None), names="format_version")
@example(mutation=("checkpoint", "drop", "n_layers", None), names="n_layers")
@example(mutation=("checkpoint", "drop", "channels", None), names="channels")
@example(mutation=("checkpoint", "drop", "norm_mean", None), names="norm_mean")
@example(mutation=("checkpoint", "drop", "norm_std", None), names="norm_std")
@example(mutation=("checkpoint", "drop", "predict_residual", None), names="predict_residual")
@example(mutation=("checkpoint", "n_layers", None, 0), names="n_layers")
@example(mutation=("checkpoint", "n_layers", None, -1), names="n_layers")
@example(mutation=("checkpoint", "n_layers", None, 2), names="last layer")
@example(mutation=("checkpoint", "set", "dt", np.array([60.0, 60.0])), names="dt")
@example(mutation=("checkpoint", "set", "channels", np.array(["t_sa", "t_sa"])), names="distinct")
@example(mutation=("checkpoint", "set", "weight_0", np.ones((2, 2, 7), dtype=complex)), names="weight_0")
@example(mutation=("checkpoint", "truncate", None, 100), names="not a readable checkpoint")
@example(mutation=("checkpoint", "pickle", None, None), names="model.npz: not a checkpoint archive")
@example(mutation=("checkpoint", "set", "channels", np.array(["t_sa"], dtype=object)),
         names="not a checkpoint archive: channels")
@example(mutation=("checkpoint", "set", "weight_1", np.ones((3, 5, 5))), names="layer 1 takes 5 channels")
@example(mutation=("checkpoint", "set", "weight_1", np.ones((3, 2, 4))), names="layer 1 has kernel size 4")
@example(mutation=("checkpoint", "set", "bias_1", np.zeros(4)), names="layer 1 has 4 biases")
@example(mutation=("set", "train", ("model.denoise=t_sa,t_sa",)),
         names="[model] denoise: channel names must be distinct, got 't_sa' twice")
@example(mutation=("set", "train", ("model.denoise=,",)), names="[model] denoise: empty channel name in ','")
@example(mutation=("set", "train", ("train.lr=nan",)), names="lr")
@example(mutation=("set", "train", ("train.lr=inf",)), names="lr")
@example(mutation=("set", "train", ("train.lambda_mode=fixed", "train.lambda_value=nan")), names="lambda_value")
@example(mutation=("set", "train", ("train.noise_scale=inf",)), names="scale")
@example(mutation=("set", "train", ("train.lambda_value=5",)),
         names="[train] lambda_value does nothing when lambda_mode = adaptive")
@example(mutation=("set", "train", ("train.noise_kind=zero-mask", "train.noise_scale=0.2")),
         names="[train] noise_scale does nothing when noise_kind = zero-mask")
@example(mutation=("set", "simulate", ("data.noise_kind=zero-mask", "data.noise_scale=0.2")),
         names="[data] noise_scale does nothing when noise_kind = zero-mask")
@example(mutation=("set", "simulate", ("data.family=ins", "data.duration=0.2", "data.dt=0.01",
                                       "data.motion_scale=nan")), names="motion_scale")
@example(mutation=("set", "simulate", ("data.family=ins", "data.duration=0.2", "data.dt=0.01",
                                       "data.rotation_scale=inf")), names="rotation_scale")
@example(mutation=("set", "simulate", ("data.duration=inf",)), names="duration")
@example(mutation=("set", "simulate", ("data.duration=nan",)), names="duration")
@example(mutation=("set", "simulate", ("data.family=ins", "data.duration=0.2", "data.dt=0.01",
                                       "data.n_modes=0")), names="n_modes")
@example(mutation=("set", "simulate", ("data.family=ins", "data.duration=0.2", "data.dt=0.01",
                                       "data.motion_scale=-1")), names="motion_scale must be >= 0")
@example(mutation=("set", "simulate", ("data.family=ins", "data.duration=0.2", "data.dt=0.01",
                                       "data.room_volume=50")),
         names="room_volume is not a constant of the ins family")
@example(mutation=("set", "simulate", ("data.noise_scale=nan",)), names="noise_scale")
@example(mutation=("set", "simulate", ("data.bias_frac=t_sa:nan",)), names="bias_frac")
@example(mutation=("set", "simulate", ("data.bias_frac=",)),
         names="[data] bias_frac: expected name:frac pairs, got an empty value")
@example(mutation=("set", "simulate", ("data.bias_frac=t_sa",)),
         names="[data] bias_frac: expected name:frac pairs, got 't_sa'")
@example(mutation=("set", "simulate", ("data.bias_frac=t_sa:0.5,t_sa:0",)),
         names="[data] bias_frac: channel names must be distinct, got 't_sa' twice")
@example(mutation=("set", "simulate", ("data.bias_frac=:0.5",)),
         names="[data] bias_frac: empty channel name in ':0.5'")
@example(mutation=("set", "simulate", ("data.family=co2", "data.duration=300", "data.dt=30",
                                       "data.flow=nan")), names="flow")
@example(mutation=("set", "gradcheck", ("gradcheck.instances=0",)), names="instances")
@example(mutation=("set", "gradcheck", ("gradcheck.tolerance=nan",)), names="tolerance")
@example(mutation=("set", "train", ("data.manifest={checkpoint}",)), names="model.npz: manifest is not text")
@example(mutation=("set", "denoise", ("data.input={checkpoint}",)), names="model.npz: window CSV is not text")
@example(mutation=("set", "simulate", ("--config={checkpoint}",)), names="model.npz: config is not text")
@example(mutation=("set", "simulate", ("--config={sim_data}/noisy_000.csv",)),
         names="noisy_000.csv: config is not an INI file")
@example(mutation=("set", "train", ("data.manifest={sim_data}/noisy_000.csv",)),
         names="noisy_000.csv: manifest is not an INI file")
@example(mutation=("input", "drop", "t_sa", None), names="input.csv: input lacks channels: t_sa")
@example(mutation=("input", "drop", "t", None), names="input.csv:1: header must start with 't'")
@example(mutation=("input", "truncate", None, 0), names="input.csv:1: empty file")
@example(mutation=("set", "simulate", ("data.seed=-1",)), names="seed must be >= 0")
@example(mutation=("set", "train", ("train.seed=-1",)), names="seed must be >= 0")
@example(mutation=("set", "gradcheck", ("gradcheck.seed=-1",)), names="gradcheck: seed must be >= 0")
@example(mutation=("set", "bias-demo", ("demo.seed=-1",)), names="SimulateConfig: seed must be >= 0")
@example(mutation=("set", "bias-demo", ("demo.n_windows=1",)), names="n_windows")
@example(mutation=("set", "bias-demo", ("demo.eta_frac=nan", "demo.n_windows=2")), names="eta_frac")
@example(mutation=("manifest", "noisy_001.csv", "truncate", None, 0), names="noisy_001.csv:1: empty file")
@example(mutation=("manifest", "noisy_001.csv", "drop", "t_mix", None),
         names="noisy_001.csv:1: missing channels: t_mix")
@example(mutation=("manifest", "noisy_001.csv", "swap", ("t_sa", "dq"), None),
         names=("noisy_001.csv:1: columns dq,t_mix,t_sa differ from ", "noisy_000.csv's t_sa,t_mix,dq"))
@example(mutation=("manifest", "clean_001.csv", "stretch", None, 2.0),
         names=("clean_001.csv: 31 timesteps at dt 120.0 differ from ", "noisy_001.csv's 31 at dt 60.0"))
@example(mutation=("manifest", "clean_001.csv", "head", None, 25),
         names=("clean_001.csv: 25 timesteps at dt 60.0 differ from ", "noisy_001.csv's 31 at dt 60.0"))
def test_cli_exits_0_or_1_with_its_own_error(workspace, sweep_checkpoint, sweep_input, tmp_path_factory,
                                            mutation, names):
    """A mutated input exits 0, or 1 with one error: line, no traceback and no run directory.

    An explicit example also names what its error line must mention (one text, or a tuple of
    texts), and must exit 1.
    """
    if isinstance(mutation, st.DataObject):
        header = sweep_input.decode().splitlines()[0].split(",")
        noisy = [p.name for p in noisy_csvs(workspace)]
        mutation = mutation.draw(st.one_of(_checkpoint_mutations(sweep_checkpoint), _set_mutations(),
                                           _input_mutations(header), _manifest_mutations(header, noisy)))
    root = tmp_path_factory.mktemp("sweep")
    run_dir = root / "run"
    if mutation[0] == "checkpoint":
        checkpoint = root / "model.npz"
        _mutated_checkpoint(sweep_checkpoint, checkpoint, *mutation[1:])
        args = ["denoise", "--set", f"model.checkpoint={checkpoint}",
                "--set", f"data.input={noisy_csvs(workspace)[0]}"]
    elif mutation[0] == "input":
        input_csv = root / "input.csv"
        _mutated_input(sweep_input, input_csv, *mutation[1:])
        args = ["denoise", "--set", f"model.checkpoint={workspace['checkpoint']}",
                "--set", f"data.input={input_csv}"]
    elif mutation[0] == "manifest":
        data = root / "data"
        shutil.copytree(workspace["sim_data"], data)
        file = mutation[1]
        _mutated_input((workspace["sim_data"] / file).read_bytes(), data / file, *mutation[2:])
        args = ["eval", "--set", f"data.manifest={data / 'manifest.ini'}",
                "--set", f"model.checkpoint={workspace['checkpoint']}"]
    else:
        _, command, items = mutation
        valid, _ = _SWEEP_COMMANDS[command]
        if command == "train":
            valid = [f"data.manifest={workspace['manifest']}", *valid]
        # An item may name a workspace file, as {checkpoint} does; one that starts
        # with "--" is an option of its own, not a --set item.
        args = [command] + [a.format(**workspace) for item in (*valid, *items)
                            for a in ((item,) if item.startswith("--") else ("--set", item))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(args + ["--run-dir", str(run_dir)])
    lines = err.getvalue().splitlines()
    if names is None and rc == 0:
        return
    assert rc == 1, lines
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert all(name in lines[0] for name in ((names,) if isinstance(names, str) else names or ())), lines
    assert not run_dir.exists()

# ---------------------------------------------------------------------------
# eval


def test_eval_report_schema(capsys, tmp_path, workspace):
    out_dir = tmp_path / "eval"
    rc = main([
        "eval",
        "--run-dir", str(out_dir),
        "--set", f"data.manifest={workspace['manifest']}",
        "--set", f"model.checkpoint={workspace['checkpoint']}",
        "--set", "data.subset=test",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-channel reconstruction" in out

    with (out_dir / "report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [f.name for f in fields(EvalReport) if f.name != "per_channel"]
    assert [r["label"] for r in rows] == ["original", "denoised"]
    assert all(r["n_windows"] == "2" for r in rows)


def test_eval_rejects_bad_subset(capsys, tmp_path, workspace):
    rc = main([
        "eval",
        "--run-dir", str(tmp_path),
        "--set", f"data.manifest={workspace['manifest']}",
        "--set", f"model.checkpoint={workspace['checkpoint']}",
        "--set", "data.subset=validation",
    ])
    assert rc == 1
    assert "subset" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck and bias-demo


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--set", "gradcheck.instances=2", "--set", "gradcheck.seed=1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "operation families passed" in out


def _recording_stub(fn, calls: list, result, *extra: inspect.Parameter):
    """A stand-in for fn, with fn's parameters (their annotations resolved, as a set __signature__
    is taken as it stands) and then extra, that records each call's keywords."""
    def stub(**kwargs):
        calls.append(kwargs)
        return result

    signature = inspect.signature(fn, eval_str=True)
    stub.__signature__ = signature.replace(parameters=[*signature.parameters.values(), *extra])
    return stub


# What a bias_demo stand-in returns, so that the command can print and write it.
_DEMO_REPORT = training.BiasDemoReport("t_sa", 0.5, 0.5, 1.0, 48, 0.0, 0.0, 0.0, 0.0)


def test_gradcheck_passes_on_only_the_keys_the_config_sets(monkeypatch):
    # run_suite's signature is the one copy of the defaults.
    calls = []
    monkeypatch.setattr(gradcheck, "run_suite", _recording_stub(gradcheck.run_suite, calls, []))
    assert main(["gradcheck"]) == 0
    assert main(["gradcheck", "--set", "gradcheck.tolerance=1e-3", "--set", "gradcheck.seed=2"]) == 0
    assert calls == [{}, {"tolerance": 1e-3, "seed": 2}]


@pytest.mark.parametrize("command, section, module, name, result", [
    ("gradcheck", "gradcheck", gradcheck, "run_suite", []),
    ("bias-demo", "demo", training, "bias_demo", _DEMO_REPORT),
], ids=["gradcheck", "bias-demo"])
def test_a_keyword_the_library_adds_is_a_config_key(monkeypatch, tmp_path, command, section, module, name, result):
    # The section's keys are the function's parameters, so a new one needs no CLI edit.
    calls = []
    extra = inspect.Parameter("extra", inspect.Parameter.KEYWORD_ONLY, default=0, annotation=int)
    monkeypatch.setattr(module, name, _recording_stub(getattr(module, name), calls, result, extra))
    assert main([command, "--run-dir", str(tmp_path), "--set", f"{section}.extra=3"]) == 0
    assert calls == [{"extra": 3}]


def test_bias_demo_run_directory_names_the_seed_it_ran(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # where the default run directories go
    monkeypatch.setattr(training, "bias_demo", _recording_stub(training.bias_demo, [], _DEMO_REPORT))
    assert main(["bias-demo"]) == 0
    assert main(["bias-demo", "--set", "demo.seed=5"]) == 0
    assert sorted(p.name.rpartition("-")[2] for p in (tmp_path / "out").iterdir()) == ["s11", "s5"]


def test_bias_demo_writes_report(capsys, tmp_path):
    out_dir = tmp_path / "demo"
    rc = main([
        "bias-demo",
        "--run-dir", str(out_dir),
        "--set", "demo.n_windows=4",
        "--set", "demo.eta_frac=0.5",
        "--set", "demo.seed=11",
    ])
    assert rc == 0
    assert "rec-only mean error" in capsys.readouterr().out
    with (out_dir / "bias_demo.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f.name for f in fields(training.BiasDemoReport)]
    assert len(rows) == 2 and rows[1][:2] == ["t_sa", "0.5"] and rows[1][4] == "4"


# ---------------------------------------------------------------------------
# console script


def test_importing_the_cli_loads_no_numpy():
    # main pins the BLAS thread counts that --threads sets before numpy first loads, so no
    # module the CLI imports at its top may load numpy.
    src = Path(physden.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", "import sys, physden.cli; print('numpy' in sys.modules)"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_console_script_runs():
    proc = subprocess.run(
        ["physden", "gradcheck", "--set", "gradcheck.instances=1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "operation families passed" in proc.stdout
