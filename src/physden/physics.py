"""Differentiable physics residuals for three sensor families.

Families:
  ins  - inertial kinematics: accelerometer vs. position/orientation, and
         orientation rate vs. gyroscope.
  co2  - room CO2 mass balance with ventilation and occupant emission.
  hvac - air-handler coil power balance in rate form (watts).

One code path, stacked_residual, serves plain evaluation (metrics,
splitting) and gradient-based training. It works on whole channel blocks,
C x T for one window or C x B x T for a batch of equal-length windows
(channels on axis 0, time on the last axis), and records each family's
residual as one tape node per block, whose forward and hand-written VJP run
on plain arrays (hamilton_rows, time_derivative, the prefix sums).
All quaternions are scalar-first Hamilton convention. Accelerometers measure
specific force: a = R_q^T (p_ddot - g0) with g0 = (0, 0, -9.80665) in the
world frame, so a stationary level device reads (0, 0, +9.80665).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence, TYPE_CHECKING

import numpy as np

from .autodiff import Tensor, _as_tensor, _record, mse

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .data import SampleWindow

__all__ = [
    "hamilton_rows",
    "quat_exp",
    "InsEnvironment",
    "Co2Environment",
    "HvacEnvironment",
    "PhysicsSpec",
    "FAMILIES",
    "CHANNEL_NAMES",
    "CHANNEL_UNITS",
    "DENOISE_CHANNELS",
    "default_channel_map",
    "time_derivative",
    "exclusive_prefix_sum_values",
    "residual_ins",
    "residual_co2",
    "residual_hvac",
    "stacked_residual",
    "window_residuals",
    "same_dt",
    "check_window",
    "physics_loss_tensor",
    "STANDARD_GRAVITY",
]

STANDARD_GRAVITY = 9.80665  # m/s^2


# ---------------------------------------------------------------------------
# Quaternion math (scalar-first; the Hamilton product also serves the residuals)


def hamilton_rows(a, b):
    """Hamilton product a * b of two scalar-first quaternions given as (w, x, y, z).

    Components may be floats or arrays of per-timestep values; the simulator,
    and residual_ins's forward and VJP, share this one product.
    """
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


# Scalar-first conjugation as a per-row sign.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_exp(v) -> np.ndarray:
    """Exponential of the pure quaternion (0, v): (cos|v|, sin|v| * v_hat).

    v is a 3-vector or a 3 x N block of them; a block gives a 4 x N block,
    one exponential per column.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != 3:
        raise ValueError(f"quat_exp: expected a 3-vector or a 3 x N block, got shape {v.shape}")
    theta = np.sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2])
    # sin(theta)/theta, continuous at zero.
    return np.concatenate([np.cos(theta)[None], np.sinc(theta / np.pi) * v])


# ---------------------------------------------------------------------------
# Environments


def _check_finite(obj) -> None:
    """Reject a dataclass (an environment or a config) with a non-finite number, naming its field.

    Fields that hold no number or array (text, a nested config, a mapping) are not checked here.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (numbers.Real, np.ndarray)) and not np.all(np.isfinite(value)):
            raise ValueError(f"{type(obj).__name__}: {f.name} must be finite, got {value}")


def _as_gravity(g) -> np.ndarray:
    arr = np.asarray(g, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError(f"gravity must be a 3-vector, got shape {arr.shape}")
    return arr


@dataclass
class InsEnvironment:
    """Sampling interval and world-frame gravity for the inertial family."""

    dt: float
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -STANDARD_GRAVITY]))

    def __post_init__(self):
        self.gravity = _as_gravity(self.gravity)
        _check_finite(self)
        if self.dt <= 0:
            raise ValueError(f"InsEnvironment: dt must be positive, got {self.dt}")


@dataclass
class Co2Environment:
    """Room constants for the CO2 balance; per-person emission is in ppm*m^3/s.

    The known drivers (ventilation flow, inflow concentration, headcount) are
    channels of each window, not constants of the room.
    """

    room_volume: float
    emission_rate: float
    initial_ppm: float
    dt: float

    def __post_init__(self):
        _check_finite(self)
        if self.room_volume <= 0:
            raise ValueError(f"Co2Environment: room_volume must be positive, got {self.room_volume}")
        if self.dt <= 0:
            raise ValueError(f"Co2Environment: dt must be positive, got {self.dt}")


@dataclass
class HvacEnvironment:
    """Air mass flow (kg/s) and specific heat (J/(kg K)) for the coil balance."""

    dt: float
    mass_flow: float = 1.0
    specific_heat: float = 1006.0

    def __post_init__(self):
        _check_finite(self)
        if self.dt <= 0:
            raise ValueError(f"HvacEnvironment: dt must be positive, got {self.dt}")
        if self.mass_flow < 0:
            raise ValueError("HvacEnvironment: mass_flow must be non-negative")
        if self.specific_heat <= 0:
            raise ValueError("HvacEnvironment: specific_heat must be positive")


# Each family's residual arguments in channel order, one tuple of channel
# names per block argument (residual_ins's p, q, w, a, and so on).
_CHANNEL_GROUPS: dict[str, tuple[tuple[str, ...], ...]] = {
    "ins": (("px", "py", "pz"), ("qw", "qx", "qy", "qz"), ("wx", "wy", "wz"), ("ax", "ay", "az")),
    "co2": (("c_room",), ("c_out",), ("flow",), ("inflow_ppm",), ("occupants",)),
    "hvac": (("t_sa",), ("t_mix",), ("dq",)),
}

FAMILIES = tuple(_CHANNEL_GROUPS)

CHANNEL_NAMES: dict[str, list[str]] = {
    family: [name for group in groups for name in group]
    for family, groups in _CHANNEL_GROUPS.items()
}

CHANNEL_UNITS: dict[str, list[str]] = {
    "ins": ["m", "m", "m", "1", "1", "1", "1", "rad/s", "rad/s", "rad/s", "m/s^2", "m/s^2", "m/s^2"],
    "co2": ["ppm", "ppm", "m^3/s", "ppm", "1"],
    "hvac": ["K", "K", "W"],
}

# Channels the denoiser reconstructs by default; the rest of the window
# (gyro/accel for ins, the known drivers for co2, coil power for hvac) is
# kept as observed and feeds the residual unchanged.
DENOISE_CHANNELS: dict[str, list[str]] = {
    "ins": ["px", "py", "pz", "qw", "qx", "qy", "qz"],
    "co2": ["c_room", "c_out"],
    "hvac": ["t_sa", "t_mix"],
}


def default_channel_map(family: str, channels: Sequence[str]) -> dict[str, int]:
    """Map the family's residual symbols onto rows of a channel list by name."""
    if family not in FAMILIES:
        raise ValueError(f"unknown physics family {family!r}; expected one of {FAMILIES}")
    missing = [name for name in CHANNEL_NAMES[family] if name not in channels]
    if missing:
        raise ValueError(f"{family} residual needs missing channels: {', '.join(missing)}")
    return {name: list(channels).index(name) for name in CHANNEL_NAMES[family]}


@dataclass
class PhysicsSpec:
    """Which residual family applies, with its environment and channel wiring."""

    family: str
    environment: InsEnvironment | Co2Environment | HvacEnvironment
    channel_map: dict[str, int]

    def __post_init__(self):
        self.family = str(self.family).lower()
        if self.family not in FAMILIES:
            raise ValueError(f"unknown physics family {self.family!r}; expected one of {FAMILIES}")
        missing = [n for n in CHANNEL_NAMES[self.family] if n not in self.channel_map]
        if missing:
            raise ValueError(
                f"channel_map for {self.family} is missing symbols: {', '.join(missing)}"
            )
        rows = [self.channel_map[n] for n in CHANNEL_NAMES[self.family]]
        if len(set(rows)) < len(rows):
            raise ValueError(f"channel_map for {self.family} points two symbols at one row: {rows}")

    @property
    def dt(self) -> float:
        return self.environment.dt


# ---------------------------------------------------------------------------
# Building blocks


def time_derivative(series: np.ndarray, dt: float, order: int) -> np.ndarray:
    """Central-difference derivative of a C x [B x] T series, boundaries trimmed.

    order 1: (x[t+1] - x[t-1]) / (2 dt); order 2: (x[t+1] - 2 x[t] + x[t-1]) / dt^2.
    Returns a C x [B x] (T-2) array on interior timesteps.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim not in (2, 3):
        raise ValueError(f"time_derivative: expected a 2-d or 3-d series, got {series.ndim}-d")
    if dt <= 0:
        raise ValueError(f"time_derivative: dt must be positive, got {dt}")
    t_len = series.shape[-1]
    if t_len < 3:
        raise ValueError(f"time_derivative: series too short (T={t_len}, need >= 3)")
    ahead, behind = series[..., 2:], series[..., :-2]
    if order == 1:
        return (ahead - behind) * (1.0 / (2.0 * dt))
    if order == 2:
        return ((ahead - series[..., 1:-1] * 2.0) + behind) * (1.0 / (dt * dt))
    raise ValueError(f"time_derivative: order must be 1 or 2, got {order}")


def _time_derivative_vjp(g: np.ndarray, dt: float, order: int) -> np.ndarray:
    """The transpose of time_derivative applied to g, over the full T timesteps.

    Its terms are added in place into one zero block in the order a tape of
    slices accumulated them; a sum that starts as 0.0 + x is never -0.0, so
    this gives the bits of adding zero-padded blocks.
    """
    out = np.zeros(g.shape[:-1] + (g.shape[-1] + 2,))
    if order == 1:
        gs = g * (1.0 / (2.0 * dt))
        out[..., :-2] -= gs
    else:
        gs = g * (1.0 / (dt * dt))
        out[..., 1:-1] += -gs * 2.0
        out[..., :-2] += gs
    out[..., 2:] += gs
    return out


# ---------------------------------------------------------------------------
# Residual families
#
# Each takes its family's channel groups as arrays, in _CHANNEL_GROUPS order,
# plus the environment, and returns the residual and a VJP that maps the
# residual's gradient to one gradient per group; stacked_residual records the
# pair as one tape node.


def residual_ins(p, q, w, a, env: InsEnvironment):
    """Inertial residual on interior timesteps, 7 x [B x] (T-2), and its VJP.

    Rows 0-2 are the specific-force residual a - R_q^T (p_ddot - g0); rows
    3-6 are the orientation-rate residual dq/dt - 0.5 q (0, w), with the
    derivative taken of the renormalized series. p: 3 x [B x] T positions,
    q: 4 x [B x] T orientations (renormalized per timestep, once for both
    parts), w: 3 x [B x] T angular rates (rad/s), a: 3 x [B x] T
    accelerometer readings.

    The VJP is written by hand (Sola, arXiv:1711.02508): the transpose of
    left (right) multiplication by a quaternion is left (right) multiplication
    by its conjugate, and d(q/|q|) = (I - u u^T) / |q| per column. Gradient
    terms add up in the order a tape of the separate block ops added them.
    """
    dt = env.dt
    pdd = time_derivative(p, dt, 2)  # 3 x [B x] (T-2)
    qw, qx, qy, qz = q
    n2 = ((qw * qw + qx * qx) + qy * qy) + qz * qz
    if float(np.min(n2)) <= 1e-24:
        raise ValueError("zero-norm quaternion sample in channel data")
    n = np.sqrt(n2)
    u = q / n  # 4 x [B x] T, unit per timestep
    qi = u[..., 1:-1]
    sign = _CONJ.reshape((4,) + (1,) * (qi.ndim - 1))
    conj = qi * sign
    v = pdd - env.gravity.reshape((3,) + (1,) * (pdd.ndim - 1))
    # R_q^T v via the conjugation q^-1 (0, v) q with unit q, q^-1 = conj(q).
    left = np.array(hamilton_rows(conj, (0.0, *v)))
    rot = np.array(hamilton_rows(left, qi))
    wi = w[..., 1:-1]
    rate = np.array(hamilton_rows(qi, (0.0, *wi)))
    out = np.concatenate([a[..., 1:-1] - rot[1:], time_derivative(u, dt, 1) - rate * 0.5])

    def vjp(g):
        g_accel, g_orient = g[:3], g[3:]
        g_rate = -g_orient * 0.5
        g_rot = np.zeros(rot.shape)
        g_rot[1:] -= g_accel
        g_left = np.array(hamilton_rows(g_rot, conj))
        g_conj = np.array(hamilton_rows(g_left, (0.0, *-v)))
        g_qi = (np.array(hamilton_rows(g_rate, (0.0, *-wi)))
                + np.array(hamilton_rows(left * sign, g_rot))) + g_conj * sign
        g_u = _time_derivative_vjp(g_orient, dt, 1)
        g_u[..., 1:-1] += g_qi
        g_q = (g_u - u * np.sum(u * g_u, axis=0)) / n
        g_v = np.array(hamilton_rows(qi, g_left)[1:])  # conj(conj(q)) = q, bitwise
        g_w, g_a = np.zeros(w.shape), np.zeros(a.shape)
        g_w[..., 1:-1] += np.array(hamilton_rows(conj, g_rate)[1:])
        g_a[..., 1:-1] += g_accel
        return _time_derivative_vjp(g_v, dt, 2), g_q, g_w, g_a

    return out, vjp


def exclusive_prefix_sum_values(x: np.ndarray) -> np.ndarray:
    """out[..., t] = sum of x[..., s] for s < t, accumulated left to right.

    Shared by the CO2 residual and its simulator, so that data constructed
    to satisfy the balance equation cancels it bitwise.
    """
    out = np.zeros_like(x)
    out[..., 1:] = np.cumsum(x[..., :-1], axis=-1)
    return out


def co2_known_terms(flow, inflow, occupants, env: Co2Environment) -> np.ndarray:
    """Accumulated known-supply side of the CO2 balance, from the driver rows.

    base[t] = c0*V + sum_{s<t} c_in[s]*v[s]*dt + sum_{s<t} n[s]*q*dt.
    The simulator consumes the same arrays and association order, which is
    what lets clean data cancel the residual exactly.
    """
    s_in = exclusive_prefix_sum_values((inflow * flow) * env.dt)
    s_occ = exclusive_prefix_sum_values((occupants * env.emission_rate) * env.dt)
    return (env.initial_ppm * env.room_volume + s_in) + s_occ


def residual_co2(c_room, c_out, flow, inflow, occupants, env: Co2Environment):
    """Mass-balance residual of room CO2 in ppm*m^3, 1 x [B x] T, and its VJP.

    residual[t] = c_room[t]*V - (c0*V + sum_{s<t} c_in v dt + sum_{s<t} n q dt
                  - sum_{s<t} c_out v dt),
    with the ventilation flow v (m^3/s), inflow concentration c_in (ppm) and
    headcount n read from the window's rows. Prefix sums exclude the current
    timestep, so residual[0] compares c_room[0] against the initial condition
    alone. Every gradient but c_room's at s sums the upstream gradient over
    t > s: the reversed cumulative sum less g itself.
    """
    dt, volume = float(env.dt), float(env.room_volume)
    base = co2_known_terms(flow, inflow, occupants, env)
    out = c_room * volume - (base - exclusive_prefix_sum_values((c_out * flow) * dt))

    def vjp(g):
        later = (np.cumsum(g[..., ::-1], axis=-1)[..., ::-1] - g) * dt
        return (g * volume, later * flow, later * (c_out - inflow), -later * flow,
                later * -env.emission_rate)

    return out, vjp


def hvac_heat_capacity_rate(env: HvacEnvironment) -> float:
    """m*c in W/K; shared between residual and simulator."""
    return env.mass_flow * env.specific_heat


def residual_hvac(t_sa, t_mix, dq, env: HvacEnvironment):
    """Coil power-balance residual dq - m*c*(t_sa - t_mix) in watts, 1 x [B x] T, and its VJP."""
    mc = hvac_heat_capacity_rate(env)

    def vjp(g):
        g_sa = (-g) * mc
        return g_sa, -g_sa, g

    return dq - mc * (t_sa - t_mix), vjp


# ---------------------------------------------------------------------------
# Family dispatch

_RESIDUALS = {"ins": residual_ins, "co2": residual_co2, "hvac": residual_hvac}


def stacked_residual(values, spec: PhysicsSpec) -> Tensor:
    """All residual rows of the given physics family over a c x [B x] T value block, as one tape node.

    The inertial family stacks the specific-force rows (3) on top of the
    orientation-rate rows (4); the scalar families return their single row.
    Each of the family's channel groups is read from its rows of the block as
    one array argument of its residual. The node's VJP adds each group's
    gradient into its rows of one zero block; PhysicsSpec keeps the rows
    distinct, so a mapped entry is 0.0 + g and an unmapped one 0.0. Each
    window of a c x B x T block gets the residual it gets on its own.
    """
    values = _as_tensor(values)
    if values.data.ndim not in (2, 3):
        raise ValueError(f"stacked_residual: expected c x [B x] T values, got {values.data.shape}")
    n_rows = values.data.shape[0]
    for name in CHANNEL_NAMES[spec.family]:
        row = spec.channel_map[name]
        if not 0 <= row < n_rows:
            raise ValueError(f"channel_map points {name!r} at row {row}, but the window has {n_rows} rows")
    groups = [[spec.channel_map[name] for name in names] for names in _CHANNEL_GROUPS[spec.family]]
    out, group_vjp = _RESIDUALS[spec.family](*(values.data[rows] for rows in groups), spec.environment)

    def vjp(g):
        grad = np.zeros(values.data.shape)
        for rows, g_rows in zip(groups, group_vjp(g)):
            grad[rows] += g_rows
        return (grad,)

    return _record(f"residual_{spec.family}", (values,), out, vjp)


def physics_loss_tensor(values: Tensor, spec: PhysicsSpec) -> Tensor:
    """Mean squared residual as a differentiable scalar."""
    return mse(stacked_residual(values, spec), 0.0)


# Most windows stacked into one C x B x T residual evaluation. One block of the
# gate's 64 inertial windows raised a training run's peak RSS by 1.8 MB; blocks
# of 16 by 0.5 MB, at nearly the same speed.
RESIDUAL_BLOCK = 16


def window_residuals(windows: Sequence["SampleWindow"], spec: PhysicsSpec) -> list[np.ndarray]:
    """All residual rows of the given physics family on each window, as plain values.

    The one evaluation behind the physics loss, the alignment split, the
    evaluation metrics and the CLI's self-check; every window must pass
    check_window. Windows of one shape and channel layout are stacked,
    RESIDUAL_BLOCK at a time, into C x B x T blocks, each one stacked_residual
    call; every window gets the residual it gets on its own, as its own
    contiguous array.
    """
    for window in windows:
        check_window(window, spec)
    groups: dict[tuple, list[int]] = {}
    for i, window in enumerate(windows):
        groups.setdefault((window.values.shape, tuple(window.channels)), []).append(i)
    out: list[np.ndarray] = [None] * len(windows)
    for members in groups.values():
        for lo in range(0, len(members), RESIDUAL_BLOCK):
            chunk = members[lo : lo + RESIDUAL_BLOCK]
            block = np.stack([windows[i].values for i in chunk], axis=1)
            r = np.ascontiguousarray(np.moveaxis(stacked_residual(Tensor(block), spec).data, 1, 0))
            for i, ri in zip(chunk, r):
                out[i] = ri
    return out


def same_dt(a: float, b: float) -> bool:
    """Whether two sampling intervals agree to within a relative 1e-9."""
    return abs(a - b) <= 1e-9 * max(a, b)


def check_window(window: "SampleWindow", spec: PhysicsSpec) -> None:
    """Reject a window sampled at another rate than the environment's (residuals
    scale with dt), or one whose mapped rows do not carry their symbols' names."""
    if not same_dt(window.dt, spec.dt):
        raise ValueError(f"window dt {window.dt} does not match environment dt {spec.dt}")
    for name in CHANNEL_NAMES[spec.family]:
        row = spec.channel_map[name]
        if not 0 <= row < len(window.channels) or window.channels[row] != name:
            raise ValueError(f"channel_map points {name!r} at row {row}, but the window's "
                             f"channels are {', '.join(window.channels)}")

