"""Residual definitions: quaternion algebra, balance equations, exact-zero floors."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from physden.autodiff import Tape, Tensor, backward
from physden.data import (
    SimulateConfig,
    generate_dataset,
    load_csv,
    save_csv,
)
from physden.gradcheck import _half_sse, _residual_case, check_gradient
from physden.physics import (
    RESIDUAL_BLOCK,
    FAMILIES,
    Co2Environment,
    HvacEnvironment,
    InsEnvironment,
    PhysicsSpec,
    SampleWindow,
    exclusive_prefix_sum_values,
    hamilton_rows,
    hvac_heat_capacity_rate,
    physics_loss_tensor,
    quat_exp,
    residual_co2,
    residual_hvac,
    residual_ins,
    simulate_co2,
    simulate_hvac,
    simulate_ins,
    stacked_residual,
    time_derivative,
    window_residuals,
)

GRAVITY_Z = -9.80665


def phys_mse(window, spec):
    """The physics loss of one window: its mean squared residual entry."""
    (r,) = window_residuals([window], spec)
    return float(np.mean(r * r))


# ---------------------------------------------------------------------------
# Quaternion algebra


def product(a, b):
    return np.array(hamilton_rows(a, b))


def test_quaternion_basis_products():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    k = np.array([0.0, 0.0, 0.0, 1.0])
    assert product(i, j).tolist() == [0.0, 0.0, 0.0, 1.0]
    assert product(j, k).tolist() == [0.0, 1.0, 0.0, 0.0]
    assert product(i, i).tolist() == [-1.0, 0.0, 0.0, 0.0]


def test_hamilton_product_is_not_commutative():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    assert product(j, i).tolist() == [0.0, 0.0, 0.0, -1.0]


def test_hamilton_product_on_timestep_rows_matches_each_column():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    rows = product(a, b)
    assert rows.shape == (4, 5)
    for t in range(5):
        assert np.array_equal(rows[:, t], product(a[:, t], b[:, t]))


def unit(q):
    """q scaled to unit norm, with residual_ins's association order."""
    w, x, y, z = q
    return q / np.sqrt(((w * w + x * x) + y * y) + z * z)


def rotmat(q):
    """Rotation matrix of the orientation q (body frame to world frame), a reference."""
    w, x, y, z = unit(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotate(q, v):
    """R_q v as the conjugation Im(q (0, v) conj(q)) for a unit q."""
    conj = q * np.array([1.0, -1.0, -1.0, -1.0])
    return product(product(q, np.concatenate([[0.0], v])), conj)[1:]


def test_rotation_quarter_turn_about_z():
    half = np.pi / 4.0
    q = np.array([np.cos(half), 0.0, 0.0, np.sin(half)])
    x = np.array([1.0, 0.0, 0.0])
    assert np.allclose(rotate(q, x), [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(rotmat(q) @ x, [0.0, 1.0, 0.0], atol=1e-12)


def test_identity_quaternion_rotates_nothing():
    v = np.array([0.3, -1.7, 9.80665])
    assert np.array_equal(rotate(np.array([1.0, 0.0, 0.0, 0.0]), v), v)


def test_quat_exp_zero_is_identity():
    q = quat_exp(np.zeros(3))
    assert q.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_quat_exp_axis_angle():
    theta = 0.3
    q = quat_exp(np.array([theta, 0.0, 0.0]))
    assert np.allclose(q, [np.cos(theta), np.sin(theta), 0.0, 0.0], atol=1e-15)


def test_quat_exp_of_a_block_is_each_columns_exponential():
    v = np.random.default_rng(0).normal(size=(3, 50))
    v[:, 7] = 0.0
    block = quat_exp(v)
    assert block.shape == (4, 50)
    for t in range(50):
        assert np.array_equal(block[:, t], quat_exp(v[:, t]))
    with pytest.raises(ValueError, match="3-vector or a 3 x N block"):
        quat_exp(np.zeros((4, 2)))


def test_zero_norm_quaternion_rejected_in_any_window():
    values = np.stack([stationary_ins_values(), stationary_ins_values()], axis=1)
    values[3:7, 1, 0] = 0.0  # the second window's first orientation sample
    spec = PhysicsSpec("ins", InsEnvironment(dt=0.01), FAMILIES["ins"].channels)
    with pytest.raises(ValueError, match="zero-norm"):
        stacked_residual(Tensor(values), spec)


@given(st.integers(0, 2**32 - 1))
def test_rotation_preserves_vector_norm(seed):
    rng = np.random.default_rng(seed)
    q = unit(rng.normal(size=4))
    v = rng.normal(size=3)
    assert np.isclose(np.linalg.norm(rotate(q, v)), np.linalg.norm(v), rtol=1e-12)
    assert np.allclose(rotate(q, v), rotmat(q) @ v, rtol=1e-12, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
def test_hamilton_product_preserves_norm_product(seed):
    rng = np.random.default_rng(seed)
    q1 = rng.normal(size=4)
    q2 = rng.normal(size=4)
    norm = np.linalg.norm
    assert np.isclose(norm(product(q1, q2)), norm(q1) * norm(q2), rtol=1e-12)


# ---------------------------------------------------------------------------
# Finite differences


def test_time_derivative_exact_on_quadratic():
    t = np.arange(6, dtype=np.float64)
    series = (t * t)[None, :]
    first = time_derivative(series, 1.0, 1)
    second = time_derivative(series, 1.0, 2)
    # Central stencils are exact on polynomials up to degree 2.
    assert np.array_equal(first, (2.0 * t[1:-1])[None, :])
    assert np.array_equal(second, np.full((1, 4), 2.0))


def test_time_derivative_validation():
    with pytest.raises(ValueError, match="too short"):
        time_derivative(np.zeros((1, 2)), 1.0, 1)
    with pytest.raises(ValueError, match="order"):
        time_derivative(np.zeros((1, 5)), 1.0, 3)
    with pytest.raises(ValueError, match="dt"):
        time_derivative(np.zeros((1, 5)), 0.0, 1)
    with pytest.raises(ValueError, match="too short"):
        residual_ins(*(np.zeros((rows, 2)) for rows in (3, 4, 3, 3)), InsEnvironment(dt=0.01))


# ---------------------------------------------------------------------------
# Inertial residuals


def stationary_ins_values(t_len=8):
    """Level, motionless platform: accelerometer reads pure reaction to gravity."""
    values = np.zeros((13, t_len))
    values[3, :] = 1.0  # identity orientation
    values[12, :] = -GRAVITY_Z  # az
    return values


def test_stationary_platform_residual_is_exactly_zero():
    env = InsEnvironment(dt=0.01)
    spec = PhysicsSpec(
        family="ins",
        environment=env,
        channels=FAMILIES["ins"].channels,
    )
    r = stacked_residual(Tensor(stationary_ins_values()), spec)
    assert r.data.shape == (7, 6)
    assert np.all(r.data == 0.0)


def test_accel_residual_detects_wrong_gravity_sign():
    values = stationary_ins_values()
    values[12, :] = GRAVITY_Z  # accelerometer reporting the wrong sign
    env = InsEnvironment(dt=0.01)
    r, _ = residual_ins(values[0:3], values[3:7], values[7:10], values[10:13], env)
    assert np.allclose(r[2], 2.0 * GRAVITY_Z)


def test_orientation_rate_residual_shapes_and_zero_case():
    t_len = 10
    env = InsEnvironment(dt=0.05)
    values = stationary_ins_values(t_len)
    r, _ = residual_ins(values[0:3], values[3:7], values[7:10], values[10:13], env)
    assert r.shape == (7, t_len - 2)
    assert np.all(r[3:] == 0.0)


def test_quat_rows_are_renormalized_before_derivative():
    # A constant-direction quaternion with varying magnitude has zero
    # derivative after renormalization.
    t_len = 6
    env = InsEnvironment(dt=0.1)
    scale = np.linspace(1.0, 3.0, t_len)
    q = np.vstack([scale, np.zeros((3, t_len))])
    zeros = np.zeros((3, t_len))
    r, _ = residual_ins(zeros, q, zeros, zeros, env)
    assert np.allclose(r[3:], 0.0, atol=1e-15)


def test_zero_norm_quaternion_sample_rejected():
    values = stationary_ins_values()
    values[3, 4] = 0.0  # orientation sample collapses to the zero quaternion
    env = InsEnvironment(dt=0.01)
    with pytest.raises(ValueError, match="zero-norm quaternion sample"):
        residual_ins(values[0:3], values[3:7], values[7:10], values[10:13], env)


def test_ins_residual_matches_per_timestep_reference():
    env = InsEnvironment(dt=0.01)
    [window] = simulate_ins(0.5, env, [6])
    v = window.values + np.random.default_rng(0).normal(scale=1e-3, size=window.values.shape)
    p, q, w, a = v[0:3], v[3:7], v[7:10], v[10:13]
    assert np.min(np.linalg.norm(w, axis=0)) > 0.1  # the platform rotates throughout
    r, _ = residual_ins(p, q, w, a, env)
    dt = env.dt
    for t in range(1, v.shape[1] - 1):
        pdd = ((p[:, t + 1] - 2.0 * p[:, t]) + p[:, t - 1]) / (dt * dt)
        accel = a[:, t] - rotmat(q[:, t]).T @ (pdd - env.gravity)
        assert np.allclose(r[:3, t - 1], accel, rtol=1e-12, atol=1e-9)
        qd = (unit(q[:, t + 1]) - unit(q[:, t - 1])) / (2.0 * dt)
        rate = qd - 0.5 * product(unit(q[:, t]), np.concatenate([[0.0], w[:, t]]))
        assert np.allclose(r[3:, t - 1], rate, rtol=1e-12, atol=1e-9)


def test_simulated_orientation_follows_per_step_recurrence():
    env = InsEnvironment(dt=0.01)
    [window] = simulate_ins(0.5, env, [6])
    q, w = window.values[3:7], window.values[7:10]
    ref = np.empty_like(q)
    ref[:, 0] = (1.0, 0.0, 0.0, 0.0)
    for t in range(q.shape[1] - 1):
        ref[:, t + 1] = unit(product(ref[:, t], quat_exp(0.5 * env.dt * w[:, t])))
    assert np.array_equal(q, ref)
    # The accelerometer reads R_q^T (p_ddot - g0): rotated back to the world
    # frame it matches the position stencil up to its O(dt^2) truncation.
    a = window.values[10:13]
    world = np.stack([rotmat(q[:, t]) @ a[:, t] for t in range(1, q.shape[1] - 1)], axis=1)
    pdd = time_derivative(window.values[0:3], env.dt, 2)
    assert np.allclose(world + env.gravity[:, None], pdd, rtol=0.0, atol=1e-3)


@pytest.mark.parametrize("family", FAMILIES)
def test_residual_tape_is_block_sized(family):
    ds = generate_dataset(SimulateConfig(family=family, count=2, seed=3))
    block = np.stack([w.values for w in ds.windows], axis=1)  # c x 2 x T
    with Tape() as tape:
        physics_loss_tensor(Tensor(block, requires_grad=True), ds.spec)
    # One residual node reads every channel group from the block; then its mean square.
    assert [node.op for node in tape.nodes] == [f"residual_{family}", "mse"]


def test_residual_ins_gradcheck_family_batched_and_unbatched():
    worst = {}
    rng = np.random.default_rng(0)
    while len(worst) < 2:
        fn, inputs = _residual_case(rng, "ins")
        ndim = inputs[0].ndim
        worst[ndim] = max(worst.get(ndim, 0.0), check_gradient(fn, inputs))
    assert sorted(worst) == [2, 3]
    assert max(worst.values()) <= 1e-5


def test_clean_ins_simulation_residual_is_small():
    env = InsEnvironment(dt=0.005)
    [window] = simulate_ins(1.0, env, [5])
    spec = PhysicsSpec(
        family="ins",
        environment=env,
        channels=window.channels,
    )
    # Discretization floor only: orders of magnitude below signal power.
    assert phys_mse(window, spec) < 1e-4


# ---------------------------------------------------------------------------
# Room CO2 balance


def drivers(t_len, flow=0.0, inflow=0.0, occupants=0.0):
    """co2's flow, inflow and headcount rows, each a constant 1 x T row."""
    return [np.full((1, t_len), v) for v in (flow, inflow, occupants)]


def test_exclusive_prefix_sum_values():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(exclusive_prefix_sum_values(x), [0.0, 1.0, 3.0])
    two_d = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    assert np.array_equal(
        exclusive_prefix_sum_values(two_d), [[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]]
    )


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=20))
def test_prefix_sum_differences_recover_input(values):
    # Exact for integer-valued floats: consecutive outputs differ by x[t].
    x = np.array(values, dtype=np.float64)
    out = exclusive_prefix_sum_values(x)
    assert out[0] == 0.0
    assert np.array_equal(np.diff(out), x[:-1])


def test_sealed_room_closed_form():
    # No airflow: concentration grows linearly, c[t] = c0 + n q t dt / V.
    # Power-of-two volume keeps every term exactly representable.
    env = Co2Environment(room_volume=64.0, emission_rate=10.0, initial_ppm=420.0, dt=30.0)
    t = np.arange(12)
    c_room = 420.0 + 2.0 * 10.0 * 30.0 * t / 64.0
    r, _ = residual_co2(c_room[None, :], np.zeros((1, 12)), *drivers(12, occupants=2.0), env)
    assert np.all(r == 0.0)


def test_balanced_flow_steady_state_is_exact():
    # Ventilation in equals ventilation out at identical concentration:
    # the room holds steady and every term is integer-valued.
    env = Co2Environment(room_volume=50.0, emission_rate=0.0, initial_ppm=420.0, dt=2.0)
    c = np.full((1, 9), 420.0)
    r, _ = residual_co2(c, c, *drivers(9, flow=0.5, inflow=420.0), env)
    assert np.all(r == 0.0)


def test_co2_residual_first_timestep_checks_initial_condition():
    env = Co2Environment(room_volume=64.0, emission_rate=10.0, initial_ppm=400.0, dt=30.0)
    c_room = np.full((1, 5), 410.0)
    r, _ = residual_co2(c_room, np.zeros((1, 5)), *drivers(5, flow=0.03, occupants=3.0), env)
    # residual[0] = (c_room[0] - c0) * V regardless of any flow history.
    assert r[0, 0] == (410.0 - 400.0) * 64.0


def test_clean_co2_simulation_residual_is_exactly_zero():
    env = Co2Environment(room_volume=64.0, emission_rate=10.0, initial_ppm=420.0, dt=30.0)
    [window] = simulate_co2(1800.0, env, [3], 0.03, 420.0)
    spec = PhysicsSpec(
        family="co2",
        environment=env,
        channels=window.channels,
    )
    assert np.any(window.row("occupants") > 0)
    assert phys_mse(window, spec) == 0.0


def test_co2_c_out_gradient_hand_values():
    # residual[t] adds sum_{s<t} (c_out[s] - c_in[s]) v[s] dt - n[s] q dt; with
    # dt = 2, dL/dx[s] for each of those terms is its coefficient times 2 times
    # the sum of the upstream weights after s, and dL/dc_room[t] = V w[t].
    env = Co2Environment(room_volume=64.0, emission_rate=3.0, initial_ppm=400.0, dt=2.0)
    spec = PhysicsSpec("co2", env, FAMILIES["co2"].channels)
    rows = [[400.0] * 3, [401.0] * 3, [0.5] * 3, [420.0] * 3, [2.0] * 3]
    x = Tensor(np.array(rows), requires_grad=True)
    # residual[t] = (401 - 420) v dt t - n q dt t = -31 t, so the probe's target
    # residual - w makes its upstream weights w = [10, 20, 40] exactly.
    with Tape() as tape:
        loss = _half_sse(stacked_residual(x, spec), np.array([[0.0, -31.0, -62.0]]) - [10.0, 20.0, 40.0])
    later = np.array([60.0, 40.0, 0.0]) * 2.0
    assert np.array_equal(backward(loss, tape)[x],
                          [[640.0, 1280.0, 2560.0], later * 0.5, later * (401.0 - 420.0),
                           later * -0.5, later * -3.0])


# ---------------------------------------------------------------------------
# Air-handler heat balance


def test_hvac_residual_hand_values():
    env = HvacEnvironment(dt=60.0, mass_flow=2.0, specific_heat=1000.0)
    t_sa = np.full((1, 4), 295.0)
    t_mix = np.full((1, 4), 293.0)
    dq = np.full((1, 4), 4000.0)  # exactly m c (t_sa - t_mix)
    assert np.all(residual_hvac(t_sa, t_mix, dq, env)[0] == 0.0)
    short, _ = residual_hvac(t_sa, t_mix, np.full((1, 4), 1000.0), env)
    assert np.all(short == -3000.0)


def test_clean_hvac_simulation_residual_is_exactly_zero():
    env = HvacEnvironment(dt=60.0, mass_flow=1.0, specific_heat=1006.0)
    [window] = simulate_hvac(1800.0, env, [4])
    spec = PhysicsSpec(
        family="hvac",
        environment=env,
        channels=window.channels,
    )
    assert phys_mse(window, spec) == 0.0


def test_degenerate_heat_capacity_rate_rejected():
    env = HvacEnvironment(dt=60.0, mass_flow=0.0, specific_heat=1006.0)
    assert hvac_heat_capacity_rate(env) == 0.0
    with pytest.raises(ValueError, match="m\\*c is zero"):
        simulate_hvac(600.0, env, [0])


# ---------------------------------------------------------------------------
# Environments

_CO2_CONSTANTS = {"room_volume": 64.0, "emission_rate": 10.0, "initial_ppm": 420.0, "dt": 30.0}


@pytest.mark.parametrize("env_type, fields, name", [
    (InsEnvironment, {"dt": np.nan}, "dt"),
    (InsEnvironment, {"dt": np.inf}, "dt"),
    (InsEnvironment, {"dt": 0.01, "gravity": [0.0, 0.0, np.inf]}, "gravity"),
    (Co2Environment, {**_CO2_CONSTANTS, "room_volume": np.nan}, "room_volume"),
    (Co2Environment, {**_CO2_CONSTANTS, "emission_rate": np.inf}, "emission_rate"),
    (HvacEnvironment, {"dt": 60.0, "mass_flow": np.nan}, "mass_flow"),
    (HvacEnvironment, {"dt": 60.0, "specific_heat": np.inf}, "specific_heat"),
], ids=["ins-dt-nan", "ins-dt-inf", "ins-gravity-inf", "co2-room_volume-nan",
        "co2-emission_rate-inf", "hvac-mass_flow-nan", "hvac-specific_heat-inf"])
def test_environment_rejects_a_non_finite_field(env_type, fields, name):
    with pytest.raises(ValueError, match=f"{env_type.__name__}: {name} must be finite"):
        env_type(**fields)


def test_co2_window_rejects_a_non_finite_flow_row(tmp_path):
    [window] = simulate_co2(300.0, Co2Environment(**_CO2_CONSTANTS), [1], 0.03, 420.0)
    window.values[2, 4] = np.nan
    with pytest.raises(ValueError, match="'flow' is non-finite at timestep 4"):
        SampleWindow(window.channels, window.values, window.dt, window.units)
    path = tmp_path / "w.csv"
    save_csv(window, path)
    with pytest.raises(ValueError, match=r"w\.csv:6: non-finite"):
        load_csv(path)


# ---------------------------------------------------------------------------
# Family dispatch and loss


def test_channel_names_are_the_residual_groups_in_order():
    assert {name: family.channels for name, family in FAMILIES.items()} == {
        "ins": ("px", "py", "pz", "qw", "qx", "qy", "qz", "wx", "wy", "wz", "ax", "ay", "az"),
        "co2": ("c_room", "c_out", "flow", "inflow_ppm", "occupants"),
        "hvac": ("t_sa", "t_mix", "dq"),
    }
    assert [len(group) for group in FAMILIES["ins"].groups] == [3, 4, 3, 3]  # p, q, w, a
    for name, family in FAMILIES.items():
        assert family.channels == tuple(n for group in family.groups for n in group)
        window = generate_dataset(SimulateConfig(family=name, count=2)).windows[0]
        assert window.channels == list(family.channels) and window.units == list(family.units)


def test_physics_spec_normalizes_family_case():
    env = InsEnvironment(dt=0.01)
    spec = PhysicsSpec(family="INS", environment=env, channels=list(FAMILIES["ins"].channels))
    assert spec.family == "ins"
    assert spec.dt == 0.01
    assert spec.channels == FAMILIES["ins"].channels


def test_unknown_family_rejected():
    message = r"^unknown physics family 'acoustics'; expected one of \('ins', 'co2', 'hvac'\)$"
    with pytest.raises(ValueError, match=message):
        PhysicsSpec("acoustics", HvacEnvironment(dt=60.0), ("a", "b"))


def test_channel_map_must_cover_family():
    env = HvacEnvironment(dt=60.0)
    with pytest.raises(ValueError, match="^hvac residual needs missing channels: t_mix$"):
        PhysicsSpec(family="hvac", environment=env, channels=("t_sa", "dq"))


def test_default_channel_map_reports_missing_channels():
    # the family's channels less two: the error names both, in the family's order
    with pytest.raises(ValueError, match="^ins residual needs missing channels: qw, wz$"):
        PhysicsSpec("ins", InsEnvironment(dt=0.01), [c for c in FAMILIES["ins"].channels
                                                     if c not in ("qw", "wz")])


@pytest.mark.parametrize("rows", [2, 4])
def test_stacked_residual_rejects_a_block_of_another_row_count(rows):
    spec = PhysicsSpec("hvac", HvacEnvironment(dt=60.0), FAMILIES["hvac"].channels)
    with pytest.raises(ValueError, match=f"the spec names 3 channels, but the block has {rows} rows"):
        stacked_residual(Tensor(np.zeros((rows, 4))), spec)


def test_stacked_residual_gradient_routing():
    # Each family's channels in a permuted layout with one spare channel.
    rng = np.random.default_rng(2)
    for family, record in FAMILIES.items():
        ds = generate_dataset(SimulateConfig(family=family, count=2, seed=1, noise_scale=0.2))
        values = np.stack([w.values for w in ds.windows], axis=1)
        c = values.shape[0]
        rows = rng.permutation(c + 1)  # channel i on row rows[i]; row rows[c] is the spare
        block = np.full((c + 1, *values.shape[1:]), 5.0)
        block[rows[:c]] = values
        layout = [None] * (c + 1)
        for name, row in zip((*record.channels, "spare"), rows):
            layout[row] = name
        spec = PhysicsSpec(family, ds.spec.environment, layout)
        out, vjp = record.residual(*(values[[record.channels.index(n) for n in names]]
                                     for names in record.groups), ds.spec.environment)
        # gradcheck's probe against out - w hands the node the cotangent g = out - (out - w),
        # which is +0.0 in the first column.
        target = out - rng.uniform(-1.0, 1.0, size=out.shape)
        target[..., 0] = out[..., 0]
        g = out - target
        x = Tensor(block, requires_grad=True)
        with Tape() as tape:
            loss = _half_sse(stacked_residual(x, spec), target)
        grad = backward(loss, tape)[x]
        assert np.all(grad[rows[c]] == 0.0) and not np.any(np.signbit(grad[rows[c]]))
        negative_zeros = 0
        for names, g_group in zip(record.groups, vjp(g)):
            mapped = grad[[layout.index(n) for n in names]]
            assert mapped.tobytes() == (0.0 + g_group).tobytes()
            negative_zeros += np.count_nonzero((g_group == 0.0) & np.signbit(g_group))
            assert not np.any(np.signbit(mapped[g_group == 0.0]))
        # A scalar family's VJP negates a zero into some group's -0.0: hvac g's
        # +0.0 column, co2 the empty sum after the last step.
        assert family == "ins" or negative_zeros > 0


def test_stacked_residual_orders_rate_then_orientation():
    env = InsEnvironment(dt=0.01)
    [window] = simulate_ins(0.5, env, [2])
    spec = PhysicsSpec(
        family="ins",
        environment=env,
        channels=window.channels,
    )
    v = window.values
    stacked = stacked_residual(Tensor(v), spec)
    assert stacked.data.shape == (7, window.n_timesteps - 2)
    assert np.array_equal(stacked.data, residual_ins(v[0:3], v[3:7], v[7:10], v[10:13], env)[0])
    # the specific-force rows are the accelerometer's, the orientation rows are not
    v[10:13] += 1.0
    shifted = stacked_residual(Tensor(v), spec).data
    assert np.allclose(shifted[:3] - stacked.data[:3], 1.0, rtol=0.0, atol=1e-12)
    assert np.array_equal(shifted[3:], stacked.data[3:])


@pytest.mark.parametrize("family, dt", [("ins", 0.01), ("co2", 30.0), ("hvac", 60.0)])
def test_stacked_residual_of_a_batch_equals_each_window(family, dt):
    ds = generate_dataset(SimulateConfig(family=family, count=3, duration=47 * dt, dt=dt,
                                         seed=4, noise_kind="gaussian", noise_scale=0.2))
    block = np.stack([w.values for w in ds.windows], axis=1)
    batched = stacked_residual(Tensor(block), ds.spec).data
    for i, window in enumerate(ds.windows):
        alone = stacked_residual(Tensor(window.values), ds.spec).data
        assert np.any(alone != 0.0)
        assert np.array_equal(batched[:, i], alone)


def test_window_residuals_equal_each_window_alone():
    # 18 windows of T=48 fill more than one block; 3 of T=30 sit among them.
    cfg = SimulateConfig(family="ins", count=18, duration=0.47, dt=0.01, seed=5,
                         noise_kind="gaussian", noise_scale=0.2)
    long = generate_dataset(cfg)
    short = generate_dataset(dataclasses.replace(cfg, count=3, duration=0.29, seed=6))
    windows = long.windows[:9] + short.windows + long.windows[9:]
    assert len(long.windows) > RESIDUAL_BLOCK
    residuals = window_residuals(windows, long.spec)
    assert len(residuals) == len(windows)
    for window, r in zip(windows, residuals):
        alone = stacked_residual(Tensor(window.values), long.spec).data
        assert r.shape == alone.shape == (7, window.n_timesteps - 2)
        assert r.tobytes() == alone.tobytes()


def test_physics_loss_matches_stacked_mean_square():
    env = InsEnvironment(dt=0.01)
    [window] = simulate_ins(0.5, env, [8])
    spec = PhysicsSpec(
        family="ins",
        environment=env,
        channels=window.channels,
    )
    r = stacked_residual(Tensor(window.values), spec).data
    assert phys_mse(window, spec) == float(np.mean(r * r))
    assert float(physics_loss_tensor(Tensor(window.values), spec).data) == float(np.mean(r * r))


def test_physics_loss_rejects_dt_mismatch():
    env = InsEnvironment(dt=0.01)
    [window] = simulate_ins(0.5, env, [8])
    spec = PhysicsSpec(
        family="ins",
        environment=InsEnvironment(dt=0.02),
        channels=window.channels,
    )
    with pytest.raises(ValueError, match="dt"):
        phys_mse(window, spec)
