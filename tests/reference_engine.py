"""Scalar reference engines for both platoon models (test oracles).

The program writes the ACC / CACC / CACC+ law once, as the closed loop's
affine split in the link weights (``platoon_lab.sim.link_decomposition``),
and drives the map-model platoon from it with an array-valued actuator that
clamps each command to its branch's authority.  This module keeps the law
written out term by term, the map lookups in plain Python, and the
per-vehicle invert-then-interp actuator (:func:`actuate`) and loop that the
array engine replaced, so that the array engine can be checked against an
independent formulation.

It also keeps the per-seed point-mass loop that the batched ensemble engine
replaced: one state vector, one realization at a time, with the scalar form
of the propagator's two steps, the exponential taken once and the Taylor
action.  Its exponential can be scipy's in place of the program's own, an
oracle that shares no code with the program's series.  The Taylor action
(:func:`taylor_action`) takes one term at a time and tests the stop rule
after each, where the program takes a block of terms for all rows and reads
each row's stop off it afterwards; it also reports the term it stopped at.
Each seed's propagator chooses its step from the seed's own table by the
batch's rule, so a seed that ran as one row of a batch takes the step that
batch took (unless its table alone is constant), and the batched engine must
reproduce it bit for bit.

Finally it keeps the Gilbert chain stepped one packet at a time
(:class:`ChannelState`, :func:`channel_step`), the oracle for the program's
one sampler ``platoon_lab.channel.sample_links``.  The stepper branches on
the current mode where the sampler scans flags over time, but it reads the
same stream layout: one uniform for a stationary start, then a transition
and a reception uniform per step.  Fed the same streams, the two must agree
on every packet.

And it keeps the expectation oracle one assignment at a time
(:func:`assignments`, :func:`exact_expected_power`): every one of the 2^m
corner points of a platoon's m links realized as a whole matrix and raised
to one power.  It uses none of the vehicle blocks that the program's
recursion conditions on, and the recursion must agree with it within
1e-12 relative.

It also keeps the map engine as the linear recursion it is while no
command is clamped (:func:`run_map_recursion`): the actuator then returns
each command unchanged and the lag holds it exactly, so one step is
x_{k+1} = M x_k + f + b u_lead with M = Phi + Gamma K and f = Gamma tau c(w).
K is tau times the acceleration rows of A(w), plus I on each a_i, with the
lead's row zeroed.  Phi and Gamma are one vehicle's hold, taken from scipy's
exponential of the augmented lag (:func:`lag_hold`), and the recursion uses
none of the program's actuator, lag step, command evaluation or map stepper.

Last, it keeps the stability module's numerics on scipy: the response
C e^{A k dt} stepped one sample at a time with scipy's exponential
(:func:`stepped_response`), the oracle for the blocked sampler behind the
time-domain constants, and the Gramian from scipy's Bartels-Stewart solver
(:func:`lyapunov_gramian`), the oracle for the program's Kronecker solve.
With this module's ``expm`` and :func:`lyapunov_gramian` in place of the
stability module's own, the analysis runs as it did on scipy, and its
report must agree within 1e-12 relative.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from platoon_lab.channel import ChannelMode, GilbertParams, gamma_of
from platoon_lab.control import Gains, Scheme, SpacingPolicy
from platoon_lab.dynamics import VehicleState, step_lag
from platoon_lab.maps import COAST_HYSTERESIS, PedalMap
from platoon_lab.sim import (SimulationDivergedError, _Propagator, _weight_table,
                             equilibrium_state, link_decomposition)


@dataclass(frozen=True)
class LinkSample:
    """Outcome of one packet transmission attempt."""

    received: bool

    def weight(self) -> float:
        return 1.0 if self.received else 0.0


class ChannelState:
    """Mutable per-link channel: current mode plus a private random stream."""

    def __init__(self, mode: ChannelMode, rng: np.random.Generator):
        self.mode = mode
        self.rng = rng

    @classmethod
    def stationary(cls, params: GilbertParams, rng: np.random.Generator) -> "ChannelState":
        """Draw the initial mode from the chain's stationary distribution.

        Consumes one uniform so the stream stays aligned with the per-step
        draws regardless of the outcome.
        """
        bad = rng.random() < params.p_gb / (params.p_gb + params.q_bg)
        return cls(ChannelMode.BAD if bad else ChannelMode.GOOD, rng)

    @classmethod
    def in_mode(cls, mode: ChannelMode, rng: np.random.Generator) -> "ChannelState":
        return cls(mode, rng)


def channel_step(state: ChannelState, params: GilbertParams) -> tuple[ChannelState, LinkSample]:
    """Advance the chain one step, then sample the reception outcome.

    Always consumes exactly two uniforms (transition, reception); the
    reception draw is ignored while in Good.
    """
    u_trans = state.rng.random()
    if state.mode is ChannelMode.GOOD:
        if u_trans < params.p_gb:
            state.mode = ChannelMode.BAD
    else:
        if u_trans < params.q_bg:
            state.mode = ChannelMode.GOOD
    u_recv = state.rng.random()
    if state.mode is ChannelMode.GOOD:
        received = True
    else:
        received = u_recv < params.r_recv_bad
    return state, LinkSample(received)


def _bracket(axis: tuple[float, ...], q: float) -> tuple[int, float]:
    """Clamped cell index and interpolation weight along one axis."""
    if q <= axis[0]:
        return 0, 0.0
    if q >= axis[-1]:
        return len(axis) - 2, 1.0
    idx = min(bisect_right(axis, q) - 1, len(axis) - 2)
    return idx, (q - axis[idx]) / (axis[idx + 1] - axis[idx])


def interp(pmap: PedalMap, pedal: float, velocity: float) -> float:
    """Bilinear interpolation with edge clamping on both axes."""
    i, tp = _bracket(pmap.pedal, pedal)
    j, tv = _bracket(pmap.velocity, velocity)
    g = pmap.accel
    low = g[i][j] + tv * (g[i][j + 1] - g[i][j])
    high = g[i + 1][j] + tv * (g[i + 1][j + 1] - g[i + 1][j])
    return low + tp * (high - low)


def invert(pmap: PedalMap, accel: float, velocity: float) -> float:
    """Pedal value achieving ``accel`` at ``velocity``; clamps outside range."""
    j, tv = _bracket(pmap.velocity, velocity)
    s = [row[j] + tv * (row[j + 1] - row[j]) for row in pmap.accel]
    d = [b - a for a, b in zip(s, s[1:])]
    if all(x < 0 for x in d):
        s = [-x for x in s]
        accel = -accel
    elif not all(x > 0 for x in d):
        raise ValueError(f"pedal slice at v={velocity} is not monotone")
    p = pmap.pedal
    if accel <= s[0]:
        return p[0]
    if accel >= s[-1]:
        return p[-1]
    k = min(bisect_right(s, accel) - 1, len(s) - 2)
    return p[k] + (accel - s[k]) / (s[k + 1] - s[k]) * (p[k + 1] - p[k])


def _w(value) -> float:
    if isinstance(value, LinkSample):
        return value.weight()
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"link weight {v} outside [0, 1]")
    return v


def spacing_error(ego: VehicleState, pred: VehicleState, policy: SpacingPolicy) -> float:
    """e = x_ego - x_pred + d + h_w * v_ego; zero at the desired gap."""
    return ego.x - pred.x + policy.d + policy.h_w * ego.v


def cacc_input(ego: VehicleState, pred: VehicleState, w_pred, gains: Gains,
               policy: SpacingPolicy) -> float:
    """One-predecessor law; the radioed acceleration term is gated by w_pred.

    With w_pred = 0 this reduces exactly to the ACC law.  Passing a float in
    [0, 1] instead of a LinkSample yields the deterministic gamma-weighted law.
    """
    w = _w(w_pred)
    return (w * gains.k_a * pred.a
            - gains.k_v * (ego.v - pred.v)
            - gains.k_p * spacing_error(ego, pred, policy))


def cacc_plus_input(ego: VehicleState, pred1: VehicleState, pred2: VehicleState,
                    w1, w2, gains: Gains, policy: SpacingPolicy) -> float:
    """Two-predecessor law.

    The first-predecessor bracket is the CACC law (only the acceleration
    arrives by radio).  The whole second-predecessor bracket is gated by w2:
    position, velocity and acceleration of the vehicle two ahead are all
    transmitted wirelessly, since radar cannot see past the car in between.
    """
    u = cacc_input(ego, pred1, w1, gains, policy)
    w = _w(w2)
    if w != 0.0:
        second = (gains.k_a * pred2.a
                  - gains.k_v * (ego.v - pred2.v)
                  - gains.k_p * (ego.x - pred2.x + 2.0 * policy.d + 2.0 * policy.h_w * ego.v))
        u += w * second
    return u


def first_follower_input(ego: VehicleState, pred: VehicleState, w_pred, gains: Gains,
                         policy: SpacingPolicy) -> float:
    """The first follower has a single predecessor, so it runs the CACC law."""
    return cacc_input(ego, pred, w_pred, gains, policy)


def acc_input(ego: VehicleState, pred: VehicleState, gains: Gains,
              policy: SpacingPolicy) -> float:
    """On-board-sensing-only law: CACC with the radio term dropped."""
    return cacc_input(ego, pred, 0.0, gains, policy)


@dataclass(frozen=True)
class EmpiricalVehicle:
    """Map-driven vehicle: throttle/brake surfaces plus the actuation lag."""

    throttle: PedalMap
    brake: PedalMap
    tau: float
    state: VehicleState
    braking: bool = False


def coast_accel(veh: EmpiricalVehicle, velocity: float) -> float:
    """Zero-throttle acceleration at the given speed: the branch threshold."""
    return interp(veh.throttle, veh.throttle.pedal[0], velocity)


def actuate(veh: EmpiricalVehicle, u_desired: float) -> tuple[float, bool]:
    """Achieved command and branch flag: invert the branch's map, then evaluate it."""
    v = veh.state.v
    thr = coast_accel(veh, v)
    if u_desired >= thr + COAST_HYSTERESIS:
        braking = False
    elif u_desired < thr - COAST_HYSTERESIS:
        braking = True
    else:
        braking = veh.braking
    pmap = veh.brake if braking else veh.throttle
    pedal = invert(pmap, u_desired, v)
    return interp(pmap, pedal, v), braking


def step_empirical(veh: EmpiricalVehicle, u_desired: float, dt: float) -> EmpiricalVehicle:
    """Advance one map vehicle by dt under a desired-acceleration command."""
    achieved, braking = actuate(veh, u_desired)
    return replace(veh, state=step_lag(veh.state, achieved, veh.tau, dt), braking=braking)


def run_reference(config, maneuver, weight_table: np.ndarray):
    """Per-vehicle loop over a map-model platoon; returns (x, v, a, errors)."""
    grid = config.grid
    steps = grid.n_steps
    n_f = config.n_followers
    policy, gains = config.policy, config.gains
    v0 = maneuver.initial_velocity
    gap = policy.d + policy.h_w * v0
    vehicles = [EmpiricalVehicle(config.throttle_map, config.brake_map, config.tau,
                                 VehicleState(-i * gap, v0, 0.0))
                for i in range(n_f + 1)]
    xs = np.empty((n_f + 1, steps + 1))
    vs = np.empty_like(xs)
    accs = np.empty_like(xs)
    errs = np.empty((n_f, steps + 1))

    def record(k):
        for i, veh in enumerate(vehicles):
            xs[i, k], vs[i, k], accs[i, k] = veh.state.x, veh.state.v, veh.state.a
        for i in range(1, n_f + 1):
            errs[i - 1, k] = spacing_error(vehicles[i].state, vehicles[i - 1].state, policy)

    record(0)
    t = 0.0
    for k in range(steps):
        states = [veh.state for veh in vehicles]
        cmds = [maneuver.accel_at(t)]
        w = weight_table[:, k]
        for i in range(1, n_f + 1):
            w1 = 0.0 if config.scheme is Scheme.ACC else w[i - 1]
            if config.scheme is Scheme.CACC_PLUS and i >= 2:
                u = cacc_plus_input(states[i], states[i - 1], states[i - 2],
                                    w1, w[n_f + i - 2], gains, policy)
            else:
                u = cacc_input(states[i], states[i - 1], w1, gains, policy)
            if config.u_clamp is not None:
                u = min(max(u, config.u_clamp[0]), config.u_clamp[1])
            cmds.append(u)
        vehicles = [step_empirical(veh, u, grid.dt) for veh, u in zip(vehicles, cmds)]
        if config.velocity_clamp:
            vehicles = [replace(veh, state=replace(veh.state, v=0.0)) if veh.state.v < 0 else veh
                        for veh in vehicles]
        record(k + 1)
        top = float(np.abs([xs[:, k + 1], vs[:, k + 1], accs[:, k + 1]]).max())
        if not top <= 1e6:  # NaN fails too
            raise SimulationDivergedError(k, top)
        t += grid.dt
    return xs, vs, accs, errs


def lag_hold(tau: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Gamma) of one vehicle's (x, v, a) over dt with its command held:
    e^{[[A, B], [0, 0]] dt} for x' = v, v' = a, a' = (u - a) / tau."""
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 2] = 1.0
    m[2, 2], m[2, 3] = -1.0 / tau, 1.0 / tau
    e = expm(m * dt)
    return e[:3, :3], e[:3, 3]


def run_map_recursion(config, maneuver, weight_table: np.ndarray):
    """The map-model platoon as x_{k+1} = M_k x_k + f_k + b u_lead, one M_k
    per step under the (n_links, n_steps) ``weight_table``; returns
    (x, v, a, errors).  Exact only while no command reaches the maps' edges."""
    grid, tau = config.grid, config.tau
    n_veh = config.n_followers + 1
    phi, gam = lag_hold(tau, grid.dt)
    phi, gam = np.kron(np.eye(n_veh), phi), np.kron(np.eye(n_veh), gam[:, None])
    a0, da, c0, dc = link_decomposition(config)
    x = equilibrium_state(config, maneuver.initial_velocity)
    states = [x]
    t = 0.0
    for k, w in enumerate(weight_table.T.astype(float)):
        if k == 0 or (w != weight_table[:, k - 1]).any():
            gain = tau * (a0 + np.tensordot(w, da, axes=1))[2::3]
            gain[np.arange(n_veh), np.arange(2, 3 * n_veh, 3)] += 1.0
            gain[0] = 0.0
            m, f = phi + gam @ gain, gam @ (tau * (c0 + w @ dc)[2::3])
        x = m @ x + f + gam[:, 0] * maneuver.accel_at(t)
        states.append(x)
        t += grid.dt
    states = np.array(states).T
    xs, vs = states[0::3], states[1::3]
    errs = xs[1:] - xs[:-1] + config.policy.d + config.policy.h_w * vs[1:]
    return xs, vs, states[2::3], errs


def taylor_action(prop: _Propagator, x: np.ndarray, u_lead: float,
                  link_values: np.ndarray) -> tuple[np.ndarray, int]:
    """The Taylor action of one row's augmented exponential on [x; u; 1],
    one term at a time, and the term it stopped at.

    ``prop`` is a one-row propagator, ``link_values`` that row's weights.
    """
    n = prop.n
    m = prop._law.at(link_values[None])[0]
    vec = np.concatenate([x, [u_lead, 1.0]])
    acc = vec.copy()
    term = vec.copy()
    for k in range(1, 40):
        term = m @ term / k
        acc += term
        if np.max(np.abs(term)) <= 1e-16 * max(1.0, np.max(np.abs(acc))):
            break
    return acc[:n], k


def advance(prop: _Propagator, x: np.ndarray, u_lead: float,
            link_values: np.ndarray) -> np.ndarray:
    """One state one step on: the scalar form of ``_Propagator.advance``.

    A row whose step-matrix norm calls for scaling (``_Propagator._wide``)
    takes the program's exponential every step; this loop does not cover it.
    """
    n = prop.n
    if prop.steps is not None:
        e = prop.steps[0]
        return e[:n, :n] @ x + e[:n, n] * u_lead + e[:n, n + 1]
    return taylor_action(prop, x, u_lead, link_values)[0]


def run_linear(config, maneuver, weight_table: np.ndarray, scipy_expm: bool = False):
    """Per-seed point-mass loop over one state vector; returns (x, v, a, errors).

    The step is the one the (n_links, n_steps) ``weight_table`` chooses.
    With ``scipy_expm``, a step taken from the exponential takes
    ``scipy.linalg.expm`` (Pade approximation) in place of the program's own
    Taylor series.
    """
    grid = config.grid
    steps = grid.n_steps
    n_f = config.n_followers
    x = equilibrium_state(config, maneuver.initial_velocity)
    prop = _Propagator([config], weight_table.T[:, None, :])
    if scipy_expm and prop.steps is not None:
        prop.steps = np.array([expm(m) for m in prop._law.at(weight_table[:, :1].T)])
    xs = np.empty((n_f + 1, steps + 1))
    vs = np.empty_like(xs)
    accs = np.empty_like(xs)
    errs = np.empty((n_f, steps + 1))

    def record(k, vec):
        xs[:, k] = vec[0::3]
        vs[:, k] = vec[1::3]
        accs[:, k] = vec[2::3]
        errs[:, k] = (vec[3::3] - vec[0:-3:3] + config.policy.d
                      + config.policy.h_w * vec[4::3])

    record(0, x)
    t = 0.0
    at_equilibrium = True
    v0 = maneuver.initial_velocity
    for k in range(steps):
        u_lead = maneuver.accel_at(t)
        if at_equilibrium and u_lead == 0.0:
            x = x.copy()
            x[0::3] += v0 * grid.dt
        else:
            at_equilibrium = False
            x = advance(prop, x, u_lead, weight_table[:, k])
            if config.velocity_clamp:
                x[1::3] = np.maximum(x[1::3], 0.0)
        top = float(np.max(np.abs(x)))
        if not top <= 1e6:  # NaN fails too
            raise SimulationDivergedError(k, top)
        record(k + 1, x)
        t += grid.dt
    return xs, vs, accs, errs


def monte_carlo(config, maneuver, n_realizations: int):
    """Point-mass ensemble one seed at a time, reduced in seed order.

    Each seed takes the step its own table chooses.  Returns (mean_errors,
    peaks, mean_trajectory_peaks) as ``platoon_lab.sim.monte_carlo`` defines
    them, then the peaks of the gamma system, a lone run at each link type's
    reception rate.
    """
    mean_err = np.zeros((config.n_followers, config.grid.n_steps + 1))
    peaks = np.empty((n_realizations, config.n_followers))
    for i in range(n_realizations):
        cfg = replace(config, master_seed=config.master_seed + i)
        errs = run_linear(cfg, maneuver, _weight_table(cfg))[3]
        mean_err += errs
        peaks[i] = np.abs(errs).max(axis=1)
    mean_err /= n_realizations
    det_cfg = replace(config, rates=(gamma_of(config.channel),
                                     gamma_of(config.second_params())))
    det = run_linear(det_cfg, maneuver, _weight_table(det_cfg))[3]
    return mean_err, peaks, np.abs(mean_err).max(axis=1), np.abs(det).max(axis=1)


def assignments(spec):
    """Yield (probability, assignment) over all 2^m corner points of ``spec``."""
    names = list(spec.probs)
    for bits in product((0.0, 1.0), repeat=len(names)):
        pr = 1.0
        for name, b in zip(names, bits):
            p = spec.probs[name]
            pr *= p if b == 1.0 else (1.0 - p)
        if pr == 0.0:
            continue
        yield pr, dict(zip(names, bits))


def exact_expected_power(spec, k: int) -> np.ndarray:
    """E[A^k] as the probability-weighted sum, one realization at a time."""
    total = np.zeros_like(spec.base)
    for pr, assignment in assignments(spec):
        total += pr * np.linalg.matrix_power(spec.realize(assignment), k)
    return total


def stepped_response(a: np.ndarray, c: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Rows C e^{A k dt} for k = 0 .. n-1, each the one before times e^{A dt}."""
    step = expm(a * dt)
    rows = [np.asarray(c, dtype=float).reshape(-1)]
    for _ in range(n - 1):
        rows.append(rows[-1] @ step)
    return np.array(rows)


def lyapunov_gramian(a: np.ndarray, b_cat: np.ndarray) -> np.ndarray:
    """P of A P + P A^T + B B^T = 0 from scipy's Bartels-Stewart solver,
    symmetrized."""
    p = solve_continuous_lyapunov(a, -b_cat @ b_cat.T)
    return 0.5 * (p + p.T)
