"""Evaluation metrics: hand oracles, pooling rules, report formats, the record CSV writer."""
import csv
import dataclasses
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physden.autodiff import Tensor
from physden.data import SimulateConfig, generate_dataset, write_records
from physden.metrics import EvalReport, evaluate, format_report_table
from physden.physics import (
    FAMILIES,
    HvacEnvironment,
    PhysicsSpec,
    SampleWindow,
    physics_loss_tensor,
    simulate_hvac,
    stacked_residual,
    window_residuals,
)
from physden.training import BiasDemoReport, LogRow


def hvac_spec(env):
    return PhysicsSpec(
        family="hvac",
        environment=env,
        channels=FAMILIES["hvac"].channels,
    )


def test_recon_metrics_hand_values():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [clean] = simulate_hvac(180.0, env, [1])  # T = 4
    off = dataclasses.replace(clean, values=clean.values + np.array([3.0, 4.0, 3.0, 4.0]))
    report = evaluate("x", [off], hvac_spec(env), clean=[clean])
    assert report.recon_mse == 12.5
    assert report.recon_mae == 3.5
    assert report.per_channel["t_sa"] == (12.5, 3.5)


def test_evaluate_rejects_length_mismatch():
    env = HvacEnvironment(dt=60.0)
    [short] = simulate_hvac(120.0, env, [1])
    [long] = simulate_hvac(180.0, env, [1])
    with pytest.raises(ValueError, match="window 0 has 3 timesteps but its clean reference has 4"):
        evaluate("x", [short], hvac_spec(env), clean=[long])


def test_physics_metrics_agree_with_training_loss():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [window] = simulate_hvac(600.0, env, [1])
    window.values[0] += 0.25  # break the balance
    spec = hvac_spec(env)
    report = evaluate("x", [window], spec)
    (r,) = window_residuals([window], spec)
    assert report.phys_mse == float(np.mean(r * r))
    assert report.phys_mse == float(physics_loss_tensor(Tensor(window.values), spec).data)
    assert report.phys_mae == pytest.approx(0.25 * 1006.0)


def test_evaluate_pools_each_windows_own_residual():
    # 17 windows of T=10 fill more than one residual block; 2 of T=4 sit among them.
    cfg = SimulateConfig(family="hvac", count=17, duration=540.0, dt=60.0, seed=4,
                         noise_kind="gaussian", noise_scale=0.2)
    ds = generate_dataset(cfg)
    short = generate_dataset(dataclasses.replace(cfg, count=2, duration=180.0))
    windows = ds.windows[:5] + short.windows + ds.windows[5:]
    report = evaluate("mixed", windows, ds.spec)
    r = np.concatenate([stacked_residual(Tensor(w.values), ds.spec).data.ravel() for w in windows])
    sq, ab = r * r, np.abs(r)
    assert (report.phys_mse, report.phys_mae) == (float(np.mean(sq)), float(np.mean(ab)))
    assert (report.phys_mse_sum, report.phys_mae_sum) == (float(np.sum(sq)), float(np.sum(ab)))


def test_evaluate_rejects_dt_mismatch():
    env = HvacEnvironment(dt=60.0)
    [window] = simulate_hvac(600.0, env, [1])
    with pytest.raises(ValueError, match="dt"):
        evaluate("x", [window], hvac_spec(HvacEnvironment(dt=30.0)))


def test_evaluate_rejects_a_window_whose_rows_are_in_another_order():
    env = HvacEnvironment(dt=60.0)
    [window] = simulate_hvac(600.0, env, [1])
    order = [2, 0, 1]
    permuted = SampleWindow([window.channels[i] for i in order], window.values[order],
                            window.dt, [window.units[i] for i in order])
    with pytest.raises(ValueError, match="^window channels dq, t_sa, t_mix differ from "
                                         "the spec's t_sa, t_mix, dq$"):
        evaluate("x", [permuted], hvac_spec(env), clean=[permuted])


def test_evaluate_pools_entries_across_windows():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [base] = simulate_hvac(240.0, env, [2])
    spec = hvac_spec(env)
    w1, w2 = (dataclasses.replace(base, values=base.values + d) for d in (1.0, 3.0))
    report = evaluate("pair", [w1, w2], spec, clean=[base, base])
    # errors are 1 and 3 on every entry: pooled mse (1+9)/2, pooled mae 2
    assert report.recon_mse == pytest.approx(5.0)
    assert report.recon_mae == pytest.approx(2.0)
    assert report.n_windows == 2
    n_entries = 2 * base.values.size
    assert report.recon_mse_sum == pytest.approx(5.0 * n_entries)


def test_evaluate_weighs_windows_by_length():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [short] = simulate_hvac(120.0, env, [2])  # T = 3
    [long] = simulate_hvac(540.0, env, [2])  # T = 10
    spec = hvac_spec(env)
    w1 = dataclasses.replace(short, values=short.values + 1.0)
    w2 = dataclasses.replace(long, values=long.values + 3.0)
    report = evaluate("pair", [w1, w2], spec, clean=[short, long])
    r1, r2 = window_residuals([w1, w2], spec)
    assert report.recon_mse == pytest.approx((3 * 1.0 + 10 * 9.0) / 13)
    assert report.per_channel["dq"] == pytest.approx(((3 * 1.0 + 10 * 9.0) / 13, (3 * 1.0 + 10 * 3.0) / 13))
    assert report.phys_mse == pytest.approx((3 * float(np.mean(r1 * r1)) + 10 * float(np.mean(r2 * r2))) / 13)


def test_evaluate_channel_subset():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [base] = simulate_hvac(240.0, env, [3])
    spec = hvac_spec(env)
    values = base.values.copy()
    values[0] += 2.0  # only t_sa is wrong
    noisy = dataclasses.replace(base, values=values)
    full = evaluate("full", [noisy], spec, clean=[base])
    subset = evaluate("subset", [noisy], spec, clean=[base], channels=["t_sa", "t_mix"])
    assert subset.recon_mse == pytest.approx(2.0)  # 4 spread over two channels
    assert full.recon_mse == pytest.approx(4.0 / 3.0)
    assert set(subset.per_channel) == {"t_sa", "t_mix"}
    assert subset.per_channel["t_sa"][0] == pytest.approx(4.0)
    assert subset.per_channel["t_mix"][0] == 0.0


def test_evaluate_without_clean_reports_physics_only(capsys):
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [w] = simulate_hvac(240.0, env, [4])
    report = evaluate("blind", [w], hvac_spec(env))
    assert report.recon_mse is None and report.recon_mae is None
    assert report.phys_mse == 0.0
    table = format_report_table([report])
    assert "-" in table.split("\n")[2]


def test_evaluate_requires_windows_and_matched_clean():
    env = HvacEnvironment(dt=60.0)
    with pytest.raises(ValueError, match="at least one window"):
        evaluate("x", [], hvac_spec(env))
    [w] = simulate_hvac(240.0, env, [5])
    with pytest.raises(ValueError, match="clean references"):
        evaluate("x", [w], hvac_spec(env), clean=[w, w])


def test_report_csv_schema_and_blank_fields(tmp_path):
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [w] = simulate_hvac(240.0, env, [6])
    spec = hvac_spec(env)
    reports = [
        evaluate("with_clean", [w], spec, clean=[w]),
        evaluate("no_clean", [w], spec),
    ]
    path = tmp_path / "report.csv"
    write_records(EvalReport, reports, path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [f.name for f in fields(EvalReport) if f.name != "per_channel"]
    assert rows[0]["label"] == "with_clean"
    assert float(rows[0]["recon_mse"]) == 0.0
    assert rows[1]["recon_mse"] == ""  # None serializes as an empty field
    assert float(rows[1]["phys_mse"]) == 0.0


# A cell read back by its field's annotation; ±0.0 drawn on purpose, as arbitrary floats seldom are.
_FLOATS = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
_CELLS = {
    "str": (st.text(), str),
    "int": (st.integers(), int),
    "float": (_FLOATS, float),
    "float | None": (st.none() | _FLOATS, lambda cell: float(cell) if cell else None),
}


def _read_records(cls, path):
    """The header and the records of a CSV that write_records wrote of cls."""
    kinds = {f.name: f.type for f in fields(cls)}
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [cls(**{name: _CELLS[kinds[name]][1](cell) for name, cell in zip(header, row)})
                    for row in rows]


@pytest.mark.parametrize("cls", [LogRow, EvalReport, BiasDemoReport], ids=lambda cls: cls.__name__)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_record_csv_round_trips_to_the_bit(tmp_path_factory, cls, data):
    cells = {f.name: _CELLS[f.type][0] for f in fields(cls) if f.type in _CELLS}
    rows = data.draw(st.lists(st.builds(cls, **cells), max_size=4))
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records(cls, rows, path)
    header, back = _read_records(cls, path)
    # Every field but EvalReport's per_channel mapping is a column, in declaration order.
    assert header == [f.name for f in fields(cls) if f.name != "per_channel"]
    # A float's repr tells every double apart, -0.0 from 0.0 included.
    assert repr(back) == repr(rows)


def test_an_empty_log_writes_its_header_alone(tmp_path):
    # As a training aborted at its first step leaves it.
    write_records(LogRow, [], tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_text().splitlines() == ["epoch,iteration,phase,l_rec,l_phy,lam,total"]


def test_a_field_a_record_adds_is_a_column(tmp_path):
    extended = dataclasses.make_dataclass("Extended", [("extra", "float")], bases=(LogRow,))
    write_records(extended, [extended(0, 1, 2, 0.5, None, None, 0.5, 0.1)], tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_text().splitlines() == [
        "epoch,iteration,phase,l_rec,l_phy,lam,total,extra",
        "0,1,2,0.5,,,0.5,0.10000000000000001",
    ]


def test_a_record_without_postponed_annotations_writes_its_columns(tmp_path):
    # Its fields' annotations are the classes float and int, not the strings "float" and "int".
    record = dataclasses.make_dataclass("R", [("a", float), ("b", int)])
    write_records(record, [record(1.0, 2)], tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == "a,b\n1,2\n"


def test_report_table_lists_channels():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [w] = simulate_hvac(240.0, env, [7])
    report = evaluate("r", [w], hvac_spec(env), clean=[w], channels=["t_sa"])
    table = format_report_table([report])
    assert "per-channel reconstruction (r):" in table
    assert "t_sa" in table
