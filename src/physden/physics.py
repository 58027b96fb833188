"""Physics families: residuals, simulators and the table that names them.

Families:
  ins  - inertial kinematics: accelerometer vs. position/orientation, and
         orientation rate vs. gyroscope.
  co2  - room CO2 mass balance with ventilation and occupant emission.
  hvac - air-handler coil power balance in rate form (watts).

Each family is one Family record in FAMILIES, the table every family lookup
in the package reads.

One code path, stacked_residual, serves plain evaluation (metrics,
splitting) and gradient-based training. It works on whole channel blocks,
C x T for one window or C x B x T for a batch of equal-length windows
(channels on axis 0, time on the last axis), and records each family's
residual as one tape node per block, whose forward and hand-written VJP run
on plain arrays (hamilton_rows, time_derivative, the prefix sums).
The simulators sit beside the residuals: the CO2 and HVAC ones reuse the
residual's arithmetic (same helpers, same association order), so their clean
output cancels to exactly 0.0; the inertial one leaves only the stencil's
documented O(dt^2) mean-square residual.
All quaternions are scalar-first Hamilton convention. Accelerometers measure
specific force: a = R_q^T (p_ddot - g0) with g0 = (0, 0, -9.80665) in the
world frame, so a stationary level device reads (0, 0, +9.80665).
"""
from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, _as_tensor, _record, mse

__all__ = [
    "hamilton_rows",
    "quat_exp",
    "SampleWindow",
    "InsEnvironment",
    "Co2Environment",
    "HvacEnvironment",
    "simulate_ins",
    "simulate_co2",
    "simulate_hvac",
    "Family",
    "FAMILIES",
    "get_family",
    "PhysicsSpec",
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
# Windows


@dataclass
class SampleWindow:
    """One c x T block of named, uniformly sampled sensor channels."""

    channels: list[str]
    values: np.ndarray
    dt: float
    units: list[str]

    def __post_init__(self):
        self.channels = [str(c) for c in self.channels]
        self.values = np.asarray(self.values, dtype=np.float64)
        self.units = [str(u) for u in self.units]
        if self.values.ndim != 2:
            raise ValueError(f"SampleWindow: values must be c x T, got shape {self.values.shape}")
        c, t_len = self.values.shape
        if c < 1 or t_len < 3:
            raise ValueError(f"SampleWindow: need c >= 1 and T >= 3, got shape {self.values.shape}")
        if len(self.channels) != c:
            raise ValueError(f"SampleWindow: {len(self.channels)} names for {c} rows")
        if not np.isfinite(self.values).all():
            row, t = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(f"SampleWindow: {self.channels[row]!r} is non-finite at timestep {t}")
        if len(set(self.channels)) != c:
            raise ValueError("SampleWindow: channel names must be unique")
        if len(self.units) != c:
            raise ValueError(f"SampleWindow: {len(self.units)} units for {c} rows")
        if not self.dt > 0:
            raise ValueError(f"SampleWindow: dt must be positive, got {self.dt}")

    @property
    def n_timesteps(self) -> int:
        return self.values.shape[1]

    def channel_index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise ValueError(f"window has no channel {name!r}") from None

    def row(self, name: str) -> np.ndarray:
        return self.values[self.channel_index(name), :]


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


@dataclass
class InsEnvironment:
    """Sampling interval and world-frame gravity for the inertial family."""

    dt: float
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -STANDARD_GRAVITY]))

    def __post_init__(self):
        self.gravity = np.asarray(self.gravity, dtype=np.float64)
        if self.gravity.shape != (3,):
            raise ValueError(f"gravity must be a 3-vector, got shape {self.gravity.shape}")
        _check_finite(self)
        if self.dt <= 0:
            raise ValueError(f"InsEnvironment: dt must be positive, got {self.dt}")


@dataclass
class Co2Environment:
    """Room constants for the CO2 balance; per-person emission is in ppm*m^3/s.

    The known drivers (ventilation flow, inflow concentration, headcount) are
    channels of each window, not constants of the room.
    """

    dt: float
    room_volume: float = 64.0  # a power of two: the clean residual cancels bitwise (simulate_co2)
    emission_rate: float = 10.0
    initial_ppm: float = 420.0

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
# Each takes its family's channel groups as arrays, in Family.groups order, plus the
# environment, and returns the residual and a VJP that maps the residual's gradient to one
# gradient per group; stacked_residual records the pair as one tape node.


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
# Simulators


def _sum_of_modes(amp: np.ndarray, freq: np.ndarray, phase: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k amp[...,k] sin(2 pi freq[...,k] t + phase[...,k]), shape amp.shape[:-1] + (len(t),).

    amp may have leading axes that freq and phase lack, one amplitude set
    each over the same sines, so each mode's sine is evaluated once. Modes
    are added one at a time in order, in place, as np.sum over a mode axis
    adds them, so no (..., modes, T) block is held.
    """
    def mode(k):
        return amp[..., k, None] * np.sin(2.0 * np.pi * freq[..., k, None] * t + phase[..., k, None])

    total = mode(0)
    for k in range(1, amp.shape[-1]):
        total += mode(k)
    return total


def _timesteps(duration: float, dt: float) -> int:
    t_len = int(round(duration / dt)) + 1
    if t_len < 3:
        raise ValueError(f"duration {duration} with dt {dt} gives T={t_len}, need >= 3")
    return t_len


def _windows(env, values: np.ndarray) -> list[SampleWindow]:
    """One SampleWindow per row of a B x C x T block, named as env's family names its channels."""
    [family] = [f for f in FAMILIES.values() if type(env) is f.environment]
    return [SampleWindow(list(family.channels), block, env.dt, list(family.units)) for block in values]


def simulate_ins(duration: float, env: InsEnvironment, seeds: Sequence, motion_scale: float = 1.0,
                 rotation_scale: float = 0.5, n_modes: int = 4) -> list[SampleWindow]:
    """Smooth inertial trajectories with self-consistent sensor channels, one per seed.

    Positions and angular rates are superpositions of random sinusoids whose
    coefficients are drawn before any time sampling, so regenerating with a
    halved dt (same seed) samples the same continuous motion. Orientation is
    integrated with the left-endpoint incremental rotation
    q[t+1] = q[t] * exp(0.5 w[t] dt), which leaves the orientation-rate
    residual at O(dt) per entry: its mean square is bounded by
    dt^2 * max_t |w_dot(t)|^2 / 16 and shrinks by ~4x when dt is halved.
    Accelerometer rows use the analytic second derivative of position, rotated
    by the residual's own conjugation Im(conj(q) (0, p_ddot - g0) q), so the
    specific-force residual carries only the O(dt^2) stencil truncation.

    Each window draws its mode coefficients in one call of its own generator
    (amplitude, frequency, phase of position, then of angular rate), and every
    window runs in the same block operations: each step's exponential is one
    block (Solà, arXiv:1711.02508, section 4), the q recurrence is one
    Hamilton product per step on length-B arrays, renormalised with
    residual_ins's norm, and the accelerometer rows are one block conjugation. Every operation is
    elementwise and none goes through BLAS, so each window is bitwise the
    window simulated alone.
    """
    for name, value, low in (("n_modes", n_modes, 1), ("motion_scale", motion_scale, 0),
                             ("rotation_scale", rotation_scale, 0)):
        if value < low:
            raise ValueError(f"simulate_ins: {name} must be >= {low}, got {value}")
    dt = env.dt
    t_len = _timesteps(duration, dt)
    lo, hi = np.array([bounds for scale in (motion_scale, rotation_scale)
                       for bounds in ((-scale, scale), (0.05, 0.4), (0.0, 2.0 * np.pi))]).T[..., None, None]
    draws = np.array([np.random.default_rng(seed).uniform(lo, hi, size=(6, 3, n_modes)) for seed in seeds])
    # 3 x B x n_modes each: a channel x window block, as the residual takes.
    amp_p, freq_p, phase_p, amp_w, freq_w, phase_w = draws.transpose(1, 2, 0, 3)

    n_win = len(draws)
    values = np.empty((n_win, 13, t_len))  # the windows' p, q, w, a rows, B x C x T
    p, q, w, a = np.split(values.transpose(1, 0, 2), [3, 7, 10])  # C x B x T views
    t = np.arange(t_len) * dt
    # Position and its analytic second derivative over the same sines; a holds p_ddot until the
    # accelerometer rows replace it.
    amp_pdd = -amp_p * (2.0 * np.pi * freq_p) ** 2
    p[...], a[...] = _sum_of_modes(np.stack([amp_p, amp_pdd]), freq_p, phase_p, t)
    w[...] = _sum_of_modes(amp_w, freq_w, phase_w, t)

    steps = quat_exp(0.5 * dt * w[:, :, :-1].reshape(3, -1)).reshape(4, n_win, t_len - 1)
    steps = steps.transpose(2, 0, 1).copy()  # (T-1) x 4 x B
    q[:, :, 0] = np.array([1.0, 0.0, 0.0, 0.0])[:, None]
    qk = q[:, :, 0]
    for k in range(t_len - 1):
        qw, qx, qy, qz = hamilton_rows(qk, steps[k])
        n = np.sqrt(((qw * qw + qx * qx) + qy * qy) + qz * qz)
        qk = (qw / n, qx / n, qy / n, qz / n)
        q[:, :, k + 1] = qk
    v = a - env.gravity[:, None, None]
    conj = (q[0], -q[1], -q[2], -q[3])
    a[...] = hamilton_rows(hamilton_rows(conj, (0.0, *v)), q)[1:]
    return _windows(env, values)


def _random_occupancy(t_len: int, rng: np.random.Generator) -> np.ndarray:
    """Piecewise-constant headcount of 0 to 4, in segments of 5 to 19 steps."""
    occ = np.zeros(t_len)
    i = 0
    while i < t_len:
        seg = int(rng.integers(5, 20))
        occ[i : i + seg] = float(rng.integers(0, 5))
        i += seg
    return occ


def simulate_co2(duration: float, env: Co2Environment, seeds: Sequence, flow: float = 0.03,
                 inflow_ppm: float = 420.0) -> list[SampleWindow]:
    """Room CO2 by the exact discrete mass balance, next to its driver rows, one window per seed.

    Each window's flow and inflow_ppm rows hold the given constants and its
    occupancy row a random piecewise-constant headcount drawn from its seed.
    The update runs once over the B windows and uses the residual's own
    accumulated-supply helper and association order, so the residual of the
    clean output is exactly 0.0 bitwise when room_volume is a power of two
    (Co2Environment's default); for other volumes it is zero up to the final
    rounding step.

    c_out is modeled as the well-mixed room value.
    """
    t_len = _timesteps(duration, env.dt)
    occupants = np.array([_random_occupancy(t_len, np.random.default_rng(seed)) for seed in seeds])
    flow_rows = np.full(occupants.shape, float(flow))
    inflow_rows = np.full(occupants.shape, float(inflow_ppm))

    base = co2_known_terms(flow_rows, inflow_rows, occupants, env)
    c_room = np.empty(occupants.shape)
    removed = 0.0
    for k in range(t_len):
        c_room[:, k] = (base[:, k] - removed) / env.room_volume
        removed = removed + (c_room[:, k] * flow_rows[:, k]) * env.dt
    values = np.stack([c_room, c_room, flow_rows, inflow_rows, occupants], axis=1)
    return _windows(env, values)


def simulate_hvac(duration: float, env: HvacEnvironment, seeds: Sequence) -> list[SampleWindow]:
    """Air-handler temperatures consistent with the coil power balance, one window per seed.

    Each window draws a smooth mixed-air temperature (295 K plus three
    sinusoids of up to 2 K) and a smooth coil power schedule (three sinusoids
    of up to 2 kW) from its own seed, then sets t_sa = t_mix + dq/(m c). The
    stored power row is recomputed as m*c*(t_sa - t_mix), the residual's exact
    expression, so the clean residual is 0.0 bitwise.
    """
    mc = hvac_heat_capacity_rate(env)
    if mc == 0.0:
        raise ValueError("simulate_hvac: degenerate environment, m*c is zero")
    dt = env.dt
    t_len = _timesteps(duration, dt)
    lo, hi = np.array([bounds for amp in (2.0, 2000.0)
                       for bounds in ((-amp, amp), (0.2, 2.0), (0.0, 2.0 * np.pi))]).T[..., None]
    draws = np.array([np.random.default_rng(seed).uniform(lo, hi, size=(6, 3)) for seed in seeds])
    # B x 3 each: mixed-air temperature modes, then coil power modes.
    amp_m, freq_m, phase_m, amp_q, freq_q, phase_q = draws.transpose(1, 0, 2)
    freq_m, freq_q = freq_m / (t_len * dt), freq_q / (t_len * dt)
    t = np.arange(t_len) * dt
    t_mix = 295.0 + _sum_of_modes(amp_m, freq_m, phase_m, t)
    dq = _sum_of_modes(amp_q, freq_q, phase_q, t)
    t_sa = t_mix + dq / mc
    values = np.stack([t_sa, t_mix, mc * (t_sa - t_mix)], axis=1)
    return _windows(env, values)


# ---------------------------------------------------------------------------
# Families


@dataclass(frozen=True)
class Family:
    """Everything the package knows of one physics family; a new family is one FAMILIES entry.

    groups holds the residual's array arguments in channel order, one tuple of channel names
    each; simulate(duration, env, seeds, **constants) returns one window per seed, its constants
    (see constants) being its keyword parameters and the environment's number fields but dt, each
    declared there with its default and check; denoise names the channels the denoiser
    reconstructs by default; duration and dt are SimulateConfig's defaults.
    """

    groups: tuple[tuple[str, ...], ...]
    units: tuple[str, ...]
    denoise: tuple[str, ...]
    environment: type
    residual: Callable
    simulate: Callable
    duration: float
    dt: float

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(name for group in self.groups for name in group)

    @property
    def constants(self) -> dict[str, float]:
        """{name: default}: the environment's number fields but dt, then the simulator's keywords."""
        env = {f.name: f.default for f in fields(self.environment)
               if f.name != "dt" and isinstance(f.default, numbers.Real)}
        params = list(inspect.signature(self.simulate).parameters.values())[3:]
        return {**env, **{p.name: p.default for p in params}}


FAMILIES: dict[str, Family] = {
    "ins": Family(
        groups=(("px", "py", "pz"), ("qw", "qx", "qy", "qz"), ("wx", "wy", "wz"), ("ax", "ay", "az")),
        units=("m",) * 3 + ("1",) * 4 + ("rad/s",) * 3 + ("m/s^2",) * 3,
        denoise=("px", "py", "pz", "qw", "qx", "qy", "qz"), environment=InsEnvironment,
        residual=residual_ins, simulate=simulate_ins, duration=2.0, dt=0.01),
    "co2": Family(
        groups=(("c_room",), ("c_out",), ("flow",), ("inflow_ppm",), ("occupants",)),
        units=("ppm", "ppm", "m^3/s", "ppm", "1"), denoise=("c_room", "c_out"), environment=Co2Environment,
        residual=residual_co2, simulate=simulate_co2, duration=3600.0, dt=30.0),
    "hvac": Family(
        groups=(("t_sa",), ("t_mix",), ("dq",)), units=("K", "K", "W"), denoise=("t_sa", "t_mix"),
        environment=HvacEnvironment, residual=residual_hvac, simulate=simulate_hvac,
        duration=3840.0, dt=60.0),
}

# Views of FAMILIES that no library code reads; perfbench/workloads.py imports them.
CHANNEL_NAMES = {name: list(family.channels) for name, family in FAMILIES.items()}
DENOISE_CHANNELS = {name: list(family.denoise) for name, family in FAMILIES.items()}


def get_family(name: str) -> Family:
    """The FAMILIES entry of a family name; the one check that rejects an unknown name."""
    if name not in FAMILIES:
        raise ValueError(f"unknown physics family {name!r}; expected one of {tuple(FAMILIES)}")
    return FAMILIES[name]


@dataclass
class PhysicsSpec:
    """Which residual family applies, with its environment and the channels of the blocks it reads.

    channels names a block's rows in order; each residual symbol is read from the row of its name.
    """

    family: str
    environment: object  # an instance of the family's environment type
    channels: tuple[str, ...]

    def __post_init__(self):
        self.family = str(self.family).lower()
        self.channels = tuple(str(c) for c in self.channels)
        missing = [name for name in get_family(self.family).channels if name not in self.channels]
        if missing:
            raise ValueError(f"{self.family} residual needs missing channels: {', '.join(missing)}")

    @property
    def dt(self) -> float:
        return self.environment.dt


# ---------------------------------------------------------------------------
# Family dispatch


def stacked_residual(values, spec: PhysicsSpec) -> Tensor:
    """All residual rows of the given physics family over a c x [B x] T value block, as one tape node.

    The inertial family stacks the specific-force rows (3) on top of the
    orientation-rate rows (4); the scalar families return their single row.
    Each of the family's channel groups is read from its rows of the block as
    one array argument of its residual. The node's VJP adds each group's
    gradient into its rows of one zero block; distinct symbols have distinct
    names and so distinct rows, so a symbol's entry is 0.0 + g and any other
    row's 0.0. Each
    window of a c x B x T block gets the residual it gets on its own.
    """
    values = _as_tensor(values)
    if values.data.ndim not in (2, 3):
        raise ValueError(f"stacked_residual: expected c x [B x] T values, got {values.data.shape}")
    family = FAMILIES[spec.family]
    if values.data.shape[0] != len(spec.channels):
        raise ValueError(f"stacked_residual: the spec names {len(spec.channels)} channels, "
                         f"but the block has {values.data.shape[0]} rows")
    groups = [[spec.channels.index(name) for name in names] for names in family.groups]
    out, group_vjp = family.residual(*(values.data[rows] for rows in groups), spec.environment)

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


def window_residuals(windows: Sequence[SampleWindow], spec: PhysicsSpec) -> list[np.ndarray]:
    """All residual rows of the given physics family on each window, as plain values.

    The one evaluation behind the physics loss, the alignment split, the
    evaluation metrics and the CLI's self-check; every window must pass
    check_window, so all carry the spec's channels. Windows of one shape are
    stacked, RESIDUAL_BLOCK at a time, into C x B x T blocks, each one
    stacked_residual call; every window gets the residual it gets on its own,
    as its own contiguous array.
    """
    for window in windows:
        check_window(window, spec)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, window in enumerate(windows):
        groups.setdefault(window.values.shape, []).append(i)
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


def check_window(window: SampleWindow, spec: PhysicsSpec) -> None:
    """Reject a window sampled at another rate than the environment's (residuals
    scale with dt), or one whose channels are not the spec's, in its order."""
    if not same_dt(window.dt, spec.dt):
        raise ValueError(f"window dt {window.dt} does not match environment dt {spec.dt}")
    if tuple(window.channels) != spec.channels:
        raise ValueError(f"window channels {', '.join(window.channels)} differ from "
                         f"the spec's {', '.join(spec.channels)}")
