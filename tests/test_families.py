"""The family table: every record's consistency, and a family added as one entry (conftest's tank)."""
import configparser
import dataclasses
import inspect

import numpy as np
import pytest

from physden.autodiff import Tape, Tensor
from physden.cli import main
from physden.data import (
    SimulateConfig,
    generate_dataset,
    load_manifest,
    save_dataset,
    split_by_alignment,
)
from physden.gradcheck import _residual_case, check_gradient, run_suite
from physden.metrics import evaluate
from physden.model import denoise
from physden.physics import (
    FAMILIES,
    PhysicsSpec,
    residual_hvac,
    stacked_residual,
    window_residuals,
)
from physden.training import TrainConfig, train


def test_every_family_record_is_consistent(tank):
    assert "tank" in FAMILIES
    # A simulator's windows take their channels from the family of their environment's type.
    assert len({family.environment for family in FAMILIES.values()}) == len(FAMILIES)
    for name, family in FAMILIES.items():
        channels = family.channels
        assert len(set(channels)) == len(channels), name
        assert len(family.units) == len(channels), name
        assert set(family.denoise) <= set(channels), name
        env_fields = dataclasses.fields(family.environment)
        assert "dt" in {f.name for f in env_fields}, name
        # Every simulation constant has a default, so a config names only those it changes,
        # and generate_dataset sends each to the environment or to the simulator, not both.
        assert all(f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                   for f in env_fields if f.name != "dt"), name
        params = list(inspect.signature(family.simulate).parameters.values())[3:]
        assert all(p.default is not inspect.Parameter.empty for p in params), name
        assert not {p.name for p in params} & {f.name for f in env_fields}, name


def test_a_family_added_as_one_entry_runs_end_to_end(tank, tmp_path):
    ds = generate_dataset(SimulateConfig(family="tank", count=6, seed=2, noise_scale=0.1))
    assert (ds.spec.family, ds.spec.environment, ds.denoise_channels) == ("tank", tank.environment(1.0), ["h"])
    assert all(w.channels == ["h", "q_in", "q_out"] and w.n_timesteps == 41 for w in ds.windows)
    assert all(np.all(r == 0.0) for r in window_residuals(ds.clean, ds.spec))
    assert ds.split == split_by_alignment(ds.windows, ds.spec)
    assert not all(np.all(r == 0.0) for r in window_residuals(ds.windows, ds.spec))

    loaded = load_manifest(save_dataset(ds, tmp_path / "tank"))
    assert (loaded.spec, loaded.split, loaded.denoise_channels) == (ds.spec, ds.split, ds.denoise_channels)
    for a, b in zip(loaded.windows + loaded.clean, ds.windows + ds.clean, strict=True):
        assert (a.channels, a.units, a.dt) == (b.channels, b.units, b.dt)
        assert a.values.tobytes() == b.values.tobytes()

    cfg = TrainConfig(lr=1e-3, batch_size=2, epochs_total=2, pretrain_fraction=0.5, widths=(2, 3, 2))
    result = train(loaded.train_windows, loaded.spec, cfg, norm_stats=loaded.norm_stats)
    assert {row.phase for row in result.log} == {1, 2}
    assert all(np.isfinite(row.total) for row in result.log)
    restored = [denoise(result.denoiser, w) for w in loaded.test_windows]
    report = evaluate("denoised", restored, loaded.spec, [loaded.clean[i] for i in loaded.split[1]],
                      channels=["h"])
    assert np.isfinite(report.recon_mse) and np.isfinite(report.phys_mse)


def test_an_added_family_constant_is_set_through_the_config_and_the_cli(tank, tmp_path, capsys):
    assert tank.constants == {"area": 4.0, "initial_level": 1.0}
    ds = generate_dataset(SimulateConfig(family="tank", count=2, constants={"area": 2.0}))
    assert ds.spec.environment == tank.environment(1.0, area=2.0)
    manifests = [save_dataset(ds, tmp_path / "library")]
    assert main(["simulate", "--run-dir", str(tmp_path / "cli"), "--set", "data.family=tank",
                 "--set", "data.count=2", "--set", "data.area=2"]) == 0, capsys.readouterr().err
    manifests.append(tmp_path / "cli" / "data" / "manifest.ini")
    for manifest in manifests:
        cfg = configparser.ConfigParser(interpolation=None)
        cfg.read(manifest)
        assert dict(cfg["environment"]) == {"dt": "1", "area": "2", "initial_level": "1"}
    assert manifests[0].read_bytes() == manifests[1].read_bytes()


@pytest.mark.parametrize("shape", [(7,), (2, 7)], ids=["window", "batch"])
def test_added_family_residual_node_passes_gradcheck(tank, shape):
    spec = PhysicsSpec("tank", tank.environment(dt=0.5, area=2.0, initial_level=0.3), tank.channels)
    values = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, *shape))
    with Tape() as tape:
        stacked_residual(Tensor(values, requires_grad=True), spec)
    assert [node.op for node in tape.nodes] == ["residual_tank"]
    # The suite draws the tank's case from its record, as every family's; one suite seed per shape.
    results = run_suite(seed=len(shape), instances=10)
    assert [r.name for r in results][-2:] == ["residual_tank", "model_forward"]
    assert results[-2].max_rel_err <= 1e-5


def residual_hvac_t_mix_sign_flipped(t_sa, t_mix, dq, env):
    """residual_hvac with its t_mix gradient negated."""
    out, vjp = residual_hvac(t_sa, t_mix, dq, env)

    def wrong(g):
        g_sa, g_mix, g_dq = vjp(g)
        return g_sa, -g_mix, g_dq

    return out, wrong


def test_gradcheck_probe_catches_a_flipped_vjp_term(monkeypatch):
    cases = [_residual_case(np.random.default_rng(seed), "hvac") for seed in range(5)]
    assert max(check_gradient(fn, inputs) for fn, inputs in cases) <= 1e-5
    monkeypatch.setitem(FAMILIES, "hvac", dataclasses.replace(
        FAMILIES["hvac"], residual=residual_hvac_t_mix_sign_flipped))
    # The t_mix entries' analytic and numeric gradients have opposite signs.
    assert min(check_gradient(fn, inputs) for fn, inputs in cases) > 0.5
