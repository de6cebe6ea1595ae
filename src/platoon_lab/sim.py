"""Full-platoon simulation: stochastic packet losses, deterministic-gamma
equivalents, and Monte Carlo ensembles.

The platoon state is X = (x_0, v_0, a_0, ..., x_N, v_N, a_N).  The ACC / CACC /
CACC+ law is written once, as the closed-loop matrix A(w) of
:func:`build_system_matrix` plus the standstill offset c(w); both are affine
in the link weights w (:func:`link_decomposition`).  Two engines use them:

* point mass: the closed loop is linear, so each controller step is
  propagated by the exact zero-order-hold solution of the per-step constant
  system (matrix exponential of an augmented matrix carrying the lead input
  and the offset).  Propagators are memoized per link pattern; when the
  pattern space is too large to cache, the same update is computed as a
  machine-precision Taylor action on the state.
* pedal maps: every vehicle's command is read off the acceleration rows of
  A(w) and c(w) (:func:`cacc_input`), and all vehicles advance together
  through the pedal maps and the exact lag update
  (:func:`platoon_lab.maps.step_empirical`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from . import maps as maps_mod
from .channel import ChannelMode, GilbertParams, gamma_of, link_streams
from .control import Gains, Scheme, SpacingPolicy
from .dynamics import Maneuver, TimeGrid, VehicleState


class SimulationDivergedError(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"state magnitude {value:.3e} exceeded 1e6 at step {step}")
        self.step = step


# Abort threshold on any state component.
_DIVERGENCE_LIMIT = 1e6
# Largest link count whose propagators are memoized (2^bits patterns).
_CACHE_LINK_LIMIT = 12


@dataclass(frozen=True)
class PlatoonConfig:
    """Everything needed to reproduce one platoon run except the maneuver."""

    n_followers: int
    tau: float
    gains: Gains
    policy: SpacingPolicy
    scheme: Scheme
    grid: TimeGrid
    channel: GilbertParams
    channel_second: GilbertParams | None = None  # (i, i-2) links, defaults to `channel`
    master_seed: int = 0
    deterministic_gamma: float | None = None
    mu: float | None = None
    init_mode: ChannelMode | None = None  # None = stationary draw
    velocity_clamp: bool = False
    u_clamp: tuple[float, float] | None = None
    model: str = "point_mass"  # or "empirical"
    throttle_map: maps_mod.PedalMap | None = None
    brake_map: maps_mod.PedalMap | None = None
    scenario_id: str = ""

    def __post_init__(self):
        if self.n_followers < 1:
            raise ValueError("need at least one follower")
        if self.scheme is Scheme.CACC_PLUS and self.n_followers < 2:
            raise ValueError("CACC+ requires n_followers >= 2 so the "
                             "two-predecessor law engages")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.deterministic_gamma is not None and not 0.0 <= self.deterministic_gamma <= 1.0:
            raise ValueError("deterministic_gamma must lie in [0, 1]")
        if self.mu is not None and not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.model not in ("point_mass", "empirical"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "empirical" and (self.throttle_map is None or self.brake_map is None):
            raise ValueError("empirical model needs throttle and brake maps")

    @property
    def n_first_links(self) -> int:
        return self.n_followers if self.scheme is not Scheme.ACC else 0

    @property
    def n_second_links(self) -> int:
        return self.n_followers - 1 if self.scheme is Scheme.CACC_PLUS else 0

    @property
    def n_links(self) -> int:
        # ACC still carries first-predecessor link slots so that switching the
        # scheme does not re-seed anything; their samples are simply unused.
        return self.n_followers + self.n_second_links

    def second_params(self) -> GilbertParams:
        return self.channel_second if self.channel_second is not None else self.channel

    def config_hash(self) -> str:
        h = hashlib.sha256(repr(self).encode()).hexdigest()
        return h[:16]


@dataclass
class SimOutput:
    """Per-vehicle time series plus spacing errors for the followers."""

    time: np.ndarray              # (T+1,)
    x: np.ndarray                 # (n_vehicles, T+1)
    v: np.ndarray
    a: np.ndarray
    errors: np.ndarray            # (n_followers, T+1)
    seed: int
    config_hash: str
    scenario_id: str = ""

    def peak_errors(self) -> np.ndarray:
        return np.abs(self.errors).max(axis=1)


@dataclass
class EnsembleStats:
    """Monte Carlo summary across seeded realizations."""

    n_realizations: int
    mean_errors: np.ndarray       # (n_followers, T+1) pointwise mean
    peaks: np.ndarray             # (n_realizations, n_followers)
    mean_trajectory_peaks: np.ndarray   # (n_followers,) peak of the mean
    deterministic_peaks: np.ndarray     # (n_followers,) gamma-system peaks
    deterministic_output: SimOutput | None = None


def build_system_matrix(config: PlatoonConfig, link_values) -> np.ndarray:
    """Closed-loop system matrix A(w) in (x, v, a)-per-vehicle ordering.

    ``link_values`` holds one weight per link, first-predecessor links
    (i = 1..N) first, then second-predecessor links (i = 2..N) for CACC+.
    Binary weights give a stochastic realization; fractional weights give the
    gamma/mu-deterministic system.  ACC zeroes the radio terms regardless.
    """
    w = np.asarray(link_values, dtype=float)
    if w.shape != (config.n_links,):
        raise ValueError(f"expected {config.n_links} link values, got {w.shape}")
    n_f = config.n_followers
    tau, g = config.tau, config.gains
    ka, kv, kp = g.k_a, g.k_v, g.k_p
    hw = config.policy.h_w
    n = 3 * (n_f + 1)
    a = np.zeros((n, n))
    for i in range(n_f + 1):
        b = 3 * i
        a[b, b + 1] = 1.0
        a[b + 1, b + 2] = 1.0
        a[b + 2, b + 2] = -1.0 / tau
    radio = 0.0 if config.scheme is Scheme.ACC else 1.0
    for i in range(1, n_f + 1):
        b = 3 * i
        p = 3 * (i - 1)
        a[b + 2, p] += kp / tau
        a[b + 2, p + 1] += kv / tau
        a[b + 2, p + 2] += radio * w[i - 1] * ka / tau
        a[b + 2, b] += -kp / tau
        a[b + 2, b + 1] += -(kv + kp * hw) / tau
        if config.scheme is Scheme.CACC_PLUS and i >= 2:
            q = 3 * (i - 2)
            w2 = w[n_f + i - 2]
            a[b + 2, q] += w2 * kp / tau
            a[b + 2, q + 1] += w2 * kv / tau
            a[b + 2, q + 2] += w2 * ka / tau
            a[b + 2, b] += -w2 * kp / tau
            a[b + 2, b + 1] += -w2 * (kv + 2.0 * kp * hw) / tau
    return a


def _offset_vector(config: PlatoonConfig, link_values) -> np.ndarray:
    """Constant forcing from the standstill distance d in the control law."""
    n_f = config.n_followers
    kp = config.gains.k_p
    d = config.policy.d
    tau = config.tau
    c = np.zeros(3 * (n_f + 1))
    w = np.asarray(link_values, dtype=float)
    for i in range(1, n_f + 1):
        c[3 * i + 2] += -kp * d / tau
        if config.scheme is Scheme.CACC_PLUS and i >= 2:
            c[3 * i + 2] += -w[n_f + i - 2] * kp * 2.0 * d / tau
    return c


def link_decomposition(config: PlatoonConfig):
    """Affine split of the closed loop in the link weights.

    Returns (a0, da, c0, dc) with A(w) = a0 + sum_l w_l da[l] and
    c(w) = c0 + sum_l w_l dc[l], exact because both are affine in w;
    da has shape (n_links, n, n) and dc (n_links, n).
    """
    zeros = np.zeros(config.n_links)
    a0 = build_system_matrix(config, zeros)
    c0 = _offset_vector(config, zeros)
    units = np.eye(config.n_links)
    da = np.array([build_system_matrix(config, u) - a0 for u in units])
    dc = np.array([_offset_vector(config, u) - c0 for u in units])
    return a0, da, c0, dc


def _augmented_matrix(config: PlatoonConfig, link_values) -> np.ndarray:
    """[[A, B_lead, c], [0, 0, 0], [0, 0, 0]]: exact ZOH carrier for one step."""
    a = build_system_matrix(config, link_values)
    c = _offset_vector(config, link_values)
    n = a.shape[0]
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = a
    m[2, n] = 1.0 / config.tau  # lead input enters the lead's lag equation
    m[:n, n + 1] = c
    return m


class _Propagator:
    """Per-step exact ZOH update, memoized per link pattern when feasible.

    The augmented matrix is affine in the link weights, so it is assembled by
    patching the weight-dependent entries of a cached base matrix.  When the
    pattern space is small (<= 2^_CACHE_LINK_LIMIT) the matrix exponentials
    are memoized; otherwise each step applies the exponential to the state as
    a Taylor action, which is exact to machine precision because the per-step
    matrix norm is far below one.
    """

    def __init__(self, config: PlatoonConfig):
        self.config = config
        self.dt = config.grid.dt
        self.cacheable = config.n_links <= _CACHE_LINK_LIMIT
        self.cache: dict[bytes, np.ndarray] = {}
        n = self.n = 3 * (config.n_followers + 1)
        self._base = _augmented_matrix(config, np.zeros(config.n_links)) * self.dt
        _, da, _, dc = link_decomposition(config)
        delta = np.zeros((config.n_links, n + 2, n + 2))
        delta[:, :n, :n] = da
        delta[:, :n, n + 1] = dc
        delta = (delta * self.dt).reshape(config.n_links, -1)
        self._link_of, self._idx = np.nonzero(delta)
        self._coef = delta[self._link_of, self._idx]

    def _matrix_dt(self, link_values: np.ndarray) -> np.ndarray:
        m = self._base.copy()
        if self._idx.size:
            m.ravel()[self._idx] += self._coef * link_values[self._link_of]
        return m

    def step_matrix(self, link_values: np.ndarray) -> np.ndarray:
        key = link_values.tobytes()
        e = self.cache.get(key)
        if e is None:
            e = expm(self._matrix_dt(link_values))
            self.cache[key] = e
        return e

    def advance(self, x: np.ndarray, u_lead: float, link_values: np.ndarray) -> np.ndarray:
        n = self.n
        if self.cacheable:
            e = self.step_matrix(link_values)
            return e[:n, :n] @ x + e[:n, n] * u_lead + e[:n, n + 1]
        # Taylor action of the augmented exponential on [x; u; 1]
        m = self._matrix_dt(link_values)
        vec = np.concatenate([x, [u_lead, 1.0]])
        acc = vec.copy()
        term = vec.copy()
        for k in range(1, 40):
            term = m @ term / k
            acc += term
            if np.max(np.abs(term)) <= 1e-16 * max(1.0, np.max(np.abs(acc))):
                break
        return acc[:n]


def equilibrium_state(config: PlatoonConfig, v0: float) -> np.ndarray:
    """Steady platoon: common speed, zero accelerations, zero spacing errors."""
    gap = config.policy.d + config.policy.h_w * v0
    x = np.zeros(3 * (config.n_followers + 1))
    for i in range(config.n_followers + 1):
        x[3 * i] = -i * gap
        x[3 * i + 1] = v0
    return x


def _link_tables(config: PlatoonConfig, n_steps: int) -> np.ndarray:
    """Pre-draw every link's reception sequence; rows follow link ordering.

    Vectorized across links but drawing exactly the uniforms that
    :func:`platoon_lab.channel.sample_table` (and hence ``channel_step``)
    would consume per stream, so the two paths produce identical sequences.
    """
    streams = link_streams(config.master_seed, config.n_links)
    second = config.second_params()
    params = [config.channel if li < config.n_followers else second
              for li in range(config.n_links)]
    p = np.array([c.p_gb for c in params])
    q = np.array([c.q_bg for c in params])
    r = np.array([c.r_recv_bad for c in params])
    if np.any(p + q == 0.0):
        raise ValueError("p_gb + q_bg must be positive to simulate the channel")
    if config.init_mode is None:
        init = np.array([rng.random() for rng in streams])
        bad = init < p / (p + q)
    else:
        bad = np.full(config.n_links, config.init_mode is ChannelMode.BAD)
    us = np.stack([rng.random((n_steps, 2)) for rng in streams])  # (L, T, 2)
    out = np.empty((config.n_links, n_steps))
    for k in range(n_steps):
        u0 = us[:, k, 0]
        bad = np.where(bad, u0 >= q, u0 < p)
        out[:, k] = np.where(~bad, 1.0, (us[:, k, 1] < r).astype(float))
    return out


def _weights_for(config: PlatoonConfig, gamma: float, mu: float) -> np.ndarray:
    w = np.full(config.n_links, gamma)
    if config.scheme is Scheme.CACC_PLUS:
        w[config.n_followers:] = mu
    return w


def _run_linear(config: PlatoonConfig, maneuver: Maneuver,
                weight_table: np.ndarray, seed: int) -> SimOutput:
    grid = config.grid
    steps = grid.n_steps
    n_f = config.n_followers
    n = 3 * (n_f + 1)
    x = equilibrium_state(config, maneuver.initial_velocity)
    prop = _Propagator(config)
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
        # in steady state every control input is zero for any link pattern, so
        # idle lead-in segments reduce to uniform translation at v0
        if at_equilibrium and u_lead == 0.0:
            x = x.copy()
            x[0::3] += v0 * grid.dt
            record(k + 1, x)
            t += grid.dt
            continue
        at_equilibrium = False
        x = prop.advance(x, u_lead, weight_table[:, k])
        if config.velocity_clamp:
            x[1::3] = np.maximum(x[1::3], 0.0)
        top = float(np.max(np.abs(x)))
        if not np.isfinite(top) or top > _DIVERGENCE_LIMIT:
            raise SimulationDivergedError(k, top)
        record(k + 1, x)
        t += grid.dt
    return SimOutput(time=grid.times(), x=xs, v=vs, a=accs, errors=errs,
                     seed=seed, config_hash=config.config_hash(),
                     scenario_id=config.scenario_id)


def cacc_input(gain: np.ndarray, offset: np.ndarray, state: VehicleState) -> np.ndarray:
    """Every vehicle's command from the closed-loop law, u = gain X + a + offset.

    ``gain`` and ``offset`` are tau times the acceleration rows of A(w) and
    c(w), so one evaluation serves ACC, CACC and CACC+ alike.
    """
    x_vec = np.stack((state.x, state.v, state.a), axis=1).ravel()
    return gain @ x_vec + state.a + offset


# one law for every scheme; the CACC+ name stays a lookup site of the
# benchmark's span tracer (perfbench/tracing.py)
cacc_plus_input = cacc_input


def _run_empirical(config: PlatoonConfig, maneuver: Maneuver,
                   weight_table: np.ndarray, seed: int) -> SimOutput:
    """Map-model platoon, all vehicles at once (commands held over each step).

    Each step reads every command off the closed loop's acceleration rows,
    u = tau * A(w)[3i+2, :] X + a_i + tau * c(w)[3i+2], replaces the lead's
    with the maneuver, and drives all vehicles through the pedal maps.
    """
    grid = config.grid
    steps = grid.n_steps
    n_veh = config.n_followers + 1
    policy, tau = config.policy, config.tau
    a0, da, c0, dc = link_decomposition(config)
    rows = slice(2, None, 3)
    k0 = tau * a0[rows]
    dk = tau * da[:, rows].reshape(config.n_links, -1)
    v0 = maneuver.initial_velocity
    x = equilibrium_state(config, v0).reshape(n_veh, 3)
    state = VehicleState(x[:, 0], x[:, 1], x[:, 2])
    braking = np.zeros(n_veh, dtype=bool)
    xs = np.empty((n_veh, steps + 1))
    vs = np.empty_like(xs)
    accs = np.empty_like(xs)
    xs[:, 0], vs[:, 0], accs[:, 0] = state.x, state.v, state.a
    t = 0.0
    for k in range(steps):
        w = weight_table[:, k]
        u = cacc_input(k0 + (w @ dk).reshape(k0.shape), tau * (c0 + w @ dc)[rows], state)
        u[0] = maneuver.accel_at(t)
        if config.u_clamp is not None:
            u[1:] = np.minimum(np.maximum(u[1:], config.u_clamp[0]), config.u_clamp[1])
        state, braking = maps_mod.step_empirical(config.throttle_map, config.brake_map,
                                                 state, u, braking, tau, grid.dt)
        if config.velocity_clamp:
            state = VehicleState(state.x, np.where(state.v < 0, 0.0, state.v), state.a)
        xs[:, k + 1], vs[:, k + 1], accs[:, k + 1] = state.x, state.v, state.a
        top = max(abs(state.x).max(), abs(state.v).max())
        if not np.isfinite(top) or top > _DIVERGENCE_LIMIT:
            raise SimulationDivergedError(k, top)
        t += grid.dt
    errs = xs[1:] - xs[:-1] + policy.d + policy.h_w * vs[1:]
    return SimOutput(time=grid.times(), x=xs, v=vs, a=accs, errors=errs,
                     seed=seed, config_hash=config.config_hash(),
                     scenario_id=config.scenario_id)


def _dispatch(config: PlatoonConfig, maneuver: Maneuver,
              weight_table: np.ndarray, seed: int) -> SimOutput:
    if config.model == "empirical":
        return _run_empirical(config, maneuver, weight_table, seed)
    if config.u_clamp is not None:
        raise ValueError("u_clamp requires the empirical (pedal-map) engine")
    return _run_linear(config, maneuver, weight_table, seed)


def simulate(config: PlatoonConfig, maneuver: Maneuver) -> SimOutput:
    """One platoon run; samples the channels unless deterministic_gamma is set."""
    steps = config.grid.n_steps
    if config.deterministic_gamma is not None:
        mu = config.mu if config.mu is not None else config.deterministic_gamma
        w = _weights_for(config, config.deterministic_gamma, mu)
        table = np.broadcast_to(w.reshape(-1, 1), (config.n_links, steps))
        return _dispatch(config, maneuver, table, config.master_seed)
    table = _link_tables(config, steps)
    return _dispatch(config, maneuver, table, config.master_seed)


def simulate_deterministic(config: PlatoonConfig, maneuver: Maneuver,
                           gamma: float, mu: float | None = None) -> SimOutput:
    """Run the gamma-equivalent system (mu for the second-predecessor links)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    mu = gamma if mu is None else mu
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    cfg = replace(config, deterministic_gamma=gamma, mu=mu)
    return simulate(cfg, maneuver)


def monte_carlo(config: PlatoonConfig, maneuver: Maneuver, n_realizations: int,
                jobs: int = 1) -> EnsembleStats:
    """Seeded ensemble: realization i runs with master_seed + i.

    The pointwise mean trajectory and per-realization peaks are accumulated in
    index order, so results are independent of worker scheduling; the
    gamma-deterministic companion run uses gamma from the channel parameters
    (and mu from the second-link parameters when they differ).
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    seeds = [config.master_seed + i for i in range(n_realizations)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            outs = list(ex.map(_mc_worker, [(config, maneuver, s) for s in seeds],
                               chunksize=max(1, n_realizations // (4 * jobs))))
    else:
        outs = [_mc_worker((config, maneuver, s)) for s in seeds]
    mean_err = np.zeros_like(outs[0].errors)
    peaks = np.empty((n_realizations, config.n_followers))
    for i, out in enumerate(outs):
        mean_err += out.errors
        peaks[i] = out.peak_errors()
    mean_err /= n_realizations
    gamma = gamma_of(config.channel)
    mu = gamma_of(config.second_params())
    det = simulate_deterministic(config, maneuver, gamma, mu)
    return EnsembleStats(
        n_realizations=n_realizations,
        mean_errors=mean_err,
        peaks=peaks,
        mean_trajectory_peaks=np.abs(mean_err).max(axis=1),
        deterministic_peaks=det.peak_errors(),
        deterministic_output=det,
    )


def _mc_worker(args) -> SimOutput:
    config, maneuver, seed = args
    return simulate(replace(config, master_seed=seed), maneuver)


def empirical_string_stability(out: SimOutput, tol: float = 1e-6) -> tuple[bool, np.ndarray]:
    """Non-increasing per-follower peak check over the full horizon."""
    if out.errors.shape[0] < 2:
        raise ValueError("need at least two followers to judge propagation")
    peaks = out.peak_errors()
    ok = bool(np.all(np.diff(peaks) <= tol))
    return ok, peaks
