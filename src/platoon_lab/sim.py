"""Full-platoon simulation: stochastic packet losses, deterministic-gamma
equivalents, and Monte Carlo ensembles.

The platoon state is X = (x_0, v_0, a_0, ..., x_N, v_N, a_N).  The ACC / CACC /
CACC+ law is written once, as the closed-loop matrix A(w) of
:func:`build_system_matrix` plus the standstill offset c(w); both are affine
in the link weights w (:func:`link_decomposition`).  Two engines use them:

* point mass: the closed loop is linear, so each controller step is the
  exact zero-order-hold solution of the per-step constant system, the
  exponential of an augmented matrix carrying the lead input and the offset.
  One batched loop (:func:`_point_mass_states`) steps R rows at once, one
  link pattern per row, and chooses its step once from the weights: if no
  row's weights on the links that reach its matrix change over the run (a
  gamma run, a lossless channel, ACC), each row takes its exponential once;
  otherwise every row takes a machine-precision Taylor action on the states.
* pedal maps: every vehicle's command is read off the acceleration rows of
  A(w) and c(w) (:func:`cacc_input`), and all vehicles of all rows advance
  together through the pedal maps and the exact lag update
  (:func:`platoon_lab.maps.step_empirical`) in one loop
  (:func:`_empirical_states`).

Both loops take one config per row (rows differ at most in seed, headway
and gamma/mu) and (n_steps, R, n_links) weights, read each row's law off
:func:`_row_laws`, and yield (R, n) states, so :func:`simulate` is R = 1 on
either engine, :func:`monte_carlo` and :func:`seed_peaks` stack seeds as
rows, and :func:`simulate_panels` stacks the gamma-deterministic panels of
a suite.  A row goes through the same operations as its lone run and is
bitwise that run, with one exception: a point-mass row whose table is
constant, inside a batch whose tables are not, takes the Taylor action
where its lone run takes the exponential, within 1e-9 m.

Link tables come from :func:`_link_tables`, which gives each link its
Gilbert parameters and its stream and draws them all with
:func:`platoon_lab.channel.sample_links`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from . import maps as maps_mod
from .channel import ChannelMode, GilbertParams, gamma_of, link_streams, sample_links
from .control import Gains, Scheme, SpacingPolicy
from .dynamics import Maneuver, TimeGrid, VehicleState


class SimulationDivergedError(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"state magnitude {value:.3e} exceeded 1e6 at step {step}")
        self.step = step


# Abort threshold on any state component.
_DIVERGENCE_LIMIT = 1e6
# Peak growth (m) from one follower to the next that still counts as stable.
_PEAK_TOL = 1e-6


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
        if self.master_seed < 0:
            raise ValueError(f"master_seed {self.master_seed} must be non-negative")
        if not 0.0 < self.tau < math.inf:  # NaN fails too
            raise ValueError("tau must be positive and finite")
        if self.deterministic_gamma is not None and not 0.0 <= self.deterministic_gamma <= 1.0:
            raise ValueError("deterministic_gamma must lie in [0, 1]")
        if self.mu is not None and not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.model not in ("point_mass", "empirical"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "empirical" and (self.throttle_map is None or self.brake_map is None):
            raise ValueError("empirical model needs throttle and brake maps")
        if self.u_clamp is not None:
            if self.model != "empirical":
                raise ValueError("u_clamp_min / u_clamp_max need the empirical "
                                 "(pedal-map) model")
            if not self.u_clamp[0] <= self.u_clamp[1]:
                raise ValueError(f"u_clamp_min {self.u_clamp[0]} exceeds "
                                 f"u_clamp_max {self.u_clamp[1]}")

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
    reception_rates: np.ndarray         # (n_links,) mean of each link's weights
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


def _row_laws(configs: list[PlatoonConfig]):
    """Each row's affine law: the stacked distinct (a0, da, c0, dc) and a row index.

    Rows differ in headway at most, so :func:`link_decomposition` runs once
    per distinct spacing policy; row r's law is entry ``row_of[r]`` of each
    stacked part.
    """
    first: dict = {}
    row_of = np.array([first.setdefault(cfg.policy, (len(first), cfg))[0] for cfg in configs])
    laws = (link_decomposition(cfg) for _, cfg in first.values())
    return tuple(np.stack(part) for part in zip(*laws)), row_of


class _Propagator:
    """Exact ZOH update of R platoon states at once, one link pattern per row.

    Row r's augmented matrix [[A, B_lead, c], [0, 0, 0], [0, 0, 0]] is affine
    in its link weights, so it is its base matrix with the weight-dependent
    entries patched.  If no row's weights on the links that reach its matrix
    change over the run's (n_steps, R, n_links) weights, :attr:`steps` holds
    each row's exponential; otherwise it is None and every step takes the
    Taylor action, exact to machine precision because the per-step matrix
    norm is far below one.
    """

    def __init__(self, configs: list[PlatoonConfig], weights: np.ndarray):
        config = configs[0]
        dt = config.grid.dt
        n = self.n = 3 * (config.n_followers + 1)
        (a0, da, c0, dc), row_of = _row_laws(configs)
        base = np.zeros((len(a0), n + 2, n + 2))
        base[:, :n, :n] = a0
        base[:, 2, n] = 1.0 / config.tau  # lead input enters the lead's lag equation
        base[:, :n, n + 1] = c0
        self._base = (base * dt)[row_of]
        delta = np.zeros(da.shape[:2] + (n + 2, n + 2))
        delta[:, :, :n, :n] = da
        delta[:, :, :n, n + 1] = dc
        delta = (delta * dt).reshape(len(a0), config.n_links, -1)
        self._link_of, self._idx = np.nonzero(delta.any(axis=0))
        self._coef = delta[:, self._link_of, self._idx][row_of]
        # min and max over time reduce the table without copying it
        fixed = (weights.min(axis=0) == weights.max(axis=0)) | ~delta.any(axis=2)[row_of]
        self.steps = self.step_matrix(weights[0]) if fixed.all() else None

    def _matrices_dt(self, link_values: np.ndarray) -> np.ndarray:
        """(R, n+2, n+2) augmented matrices times dt for (R, n_links) weights."""
        m = self._base.copy()
        if self._idx.size:
            flat = m.reshape(m.shape[0], -1)
            flat[:, self._idx] += self._coef * link_values[:, self._link_of].astype(float, copy=False)
        return m

    def step_matrix(self, link_values: np.ndarray) -> np.ndarray:
        """(R, n+2, n+2) exponentials of one step under (R, n_links) weights."""
        return np.array([expm(m) for m in self._matrices_dt(link_values)])

    def advance(self, x: np.ndarray, u_lead: float, link_values: np.ndarray) -> np.ndarray:
        """States (R, n) one step on, row r under the weights link_values[r]."""
        n = self.n
        if self.steps is not None:
            e = self.steps
            return (np.matmul(e[:, :n, :n], x[:, :, None])[:, :, 0]
                    + e[:, :n, n] * u_lead + e[:, :n, n + 1])
        # Taylor action of the augmented exponentials on [x; u; 1]; a row
        # stops taking terms at the first one below its tolerance
        m = self._matrices_dt(link_values)
        acc = np.empty((x.shape[0], n + 2))
        acc[:, :n] = x
        acc[:, n] = u_lead
        acc[:, n + 1] = 1.0
        term = acc.copy()
        active = np.ones(x.shape[0], dtype=bool)
        for k in range(1, 40):
            term = np.matmul(m, term[:, :, None])[:, :, 0] / k
            np.add(acc, term, out=acc, where=active[:, None])
            done = (np.abs(term).max(axis=1)
                    <= 1e-16 * np.maximum(1.0, np.abs(acc).max(axis=1)))
            active &= ~done
            if not active.any():
                break
        return acc[:, :n]


def equilibrium_state(config: PlatoonConfig, v0: float) -> np.ndarray:
    """Steady platoon: common speed, zero accelerations, zero spacing errors."""
    gap = config.policy.d + config.policy.h_w * v0
    x = np.zeros(3 * (config.n_followers + 1))
    for i in range(config.n_followers + 1):
        x[3 * i] = -i * gap
        x[3 * i + 1] = v0
    return x


def _link_tables(config: PlatoonConfig, n_steps: int) -> np.ndarray:
    """Pre-draw every link's reception sequence; rows follow link ordering."""
    second = config.second_params()
    params = [config.channel if li < config.n_followers else second
              for li in range(config.n_links)]
    return sample_links(params, link_streams(config.master_seed, config.n_links),
                        n_steps, config.init_mode)


def _weights_for(config: PlatoonConfig, gamma: float, mu: float) -> np.ndarray:
    w = np.full(config.n_links, gamma)
    if config.scheme is Scheme.CACC_PLUS:
        w[config.n_followers:] = mu
    return w


def _weight_table(config: PlatoonConfig) -> np.ndarray:
    """(n_links, n_steps) link weights of one run: sampled flags, or gamma/mu."""
    steps = config.grid.n_steps
    if config.deterministic_gamma is None:
        return _link_tables(config, steps)
    mu = config.mu if config.mu is not None else config.deterministic_gamma
    w = _weights_for(config, config.deterministic_gamma, mu)
    return np.broadcast_to(w.reshape(-1, 1), (config.n_links, steps))


def _seed_configs(config: PlatoonConfig, n_seeds: int) -> list[PlatoonConfig]:
    """The rows of a seed batch: the config with seeds master_seed + i."""
    return [replace(config, master_seed=config.master_seed + i) for i in range(n_seeds)]


def _row_weights(configs: list[PlatoonConfig]) -> np.ndarray:
    """(n_steps, R, n_links) weights, row r the weight table of ``configs[r]``.

    Sampled tables stay boolean, an eighth of the float64 footprint; the
    loops cast one step's rows to float where they use them.
    """
    sampled = all(cfg.deterministic_gamma is None for cfg in configs)
    weights = np.empty((configs[0].grid.n_steps, len(configs), configs[0].n_links),
                       dtype=bool if sampled else float)
    for r, cfg in enumerate(configs):
        weights[:, r] = _weight_table(cfg).T
    return weights


def _point_mass_states(configs: list[PlatoonConfig], maneuver: Maneuver, weights: np.ndarray):
    """Step R point-mass rows together, row r under ``configs[r]``; yield (R, n) states.

    ``weights`` has shape (n_steps, R, n_links).  States are yielded for
    steps 0..n_steps; the array is reused, so copy out what is kept.  Raises
    :class:`SimulationDivergedError` at the first step where any row leaves
    the divergence limit.
    """
    config = configs[0]
    grid = config.grid
    v0 = maneuver.initial_velocity
    x = np.stack([equilibrium_state(cfg, v0) for cfg in configs])
    prop = _Propagator(configs, weights)
    yield x
    t = 0.0
    at_equilibrium = True
    for k in range(grid.n_steps):
        u_lead = maneuver.accel_at(t)
        # in steady state every control input is zero for any link pattern, so
        # idle lead-in segments reduce to uniform translation at v0
        if at_equilibrium and u_lead == 0.0:
            x[:, 0::3] += v0 * grid.dt
        else:
            at_equilibrium = False
            x = prop.advance(x, u_lead, weights[k])
            if config.velocity_clamp:
                x[:, 1::3] = np.maximum(x[:, 1::3], 0.0)
            top = np.abs(x).max(axis=1)
            over = ~np.isfinite(top) | (top > _DIVERGENCE_LIMIT)
            if over.any():
                raise SimulationDivergedError(k, float(top[over.argmax()]))
        yield x
        t += grid.dt


def _spacing_errors(config: PlatoonConfig, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """e_i = x_i - x_{i-1} + d + h_w v_i along the vehicle axis (first)."""
    return x[1:] - x[:-1] + config.policy.d + config.policy.h_w * v[1:]


def _row_errors(config: PlatoonConfig, x: np.ndarray) -> np.ndarray:
    """(R, n_followers) spacing errors of (R, n) states that share the headway."""
    return _spacing_errors(config, x[:, 0::3].T, x[:, 1::3].T).T


def _collect(configs: list[PlatoonConfig], states) -> list[SimOutput]:
    """One output per row, row r run under ``configs[r]``, from the yielded states.

    The outputs' x, v and a are views into one (3, R, n_vehicles, T+1) block.
    """
    grid = configs[0].grid
    n_veh = configs[0].n_followers + 1
    block = np.empty((3, len(configs), n_veh, grid.n_steps + 1))
    for k, x in enumerate(states):
        block[:, :, :, k] = x.reshape(len(configs), n_veh, 3).transpose(2, 0, 1)
    return [SimOutput(time=grid.times(), x=xs, v=vs, a=accs,
                      errors=_spacing_errors(cfg, xs, vs), seed=cfg.master_seed,
                      config_hash=cfg.config_hash(), scenario_id=cfg.scenario_id)
            for cfg, xs, vs, accs in zip(configs, *block)]


def cacc_input(gain: np.ndarray, offset: np.ndarray, state: VehicleState) -> np.ndarray:
    """Every vehicle's command from the closed-loop law, u = gain X + a + offset.

    The state arrays are (R, n_veh), one realization per row, and each row
    has its own ``gain`` (R, n_veh, 3 n_veh) and ``offset`` (R, n_veh): tau
    times the acceleration rows of its A(w) and c(w), so one evaluation
    serves ACC, CACC and CACC+ alike.
    """
    x_vec = np.stack((state.x, state.v, state.a), axis=-1).reshape(state.x.shape[0], -1)
    return np.matmul(gain, x_vec[:, :, None])[:, :, 0] + state.a + offset


# one law for every scheme; the CACC+ name stays a lookup site of the
# benchmark's span tracer (perfbench/tracing.py)
cacc_plus_input = cacc_input


def _empirical_states(configs: list[PlatoonConfig], maneuver: Maneuver, weights: np.ndarray):
    """Step R map-model rows together, row r under ``configs[r]``; yield (R, n) states.

    The contract of :func:`_point_mass_states`.  Each step reads every row's
    commands off its own closed loop, u = tau * A(w)[3i+2, :] X + a_i +
    tau * c(w)[3i+2], replaces the lead's with the maneuver, and drives the
    vehicles of all rows through the pedal maps as one flat array (commands
    held over each step).
    """
    config = configs[0]
    grid = config.grid
    n_rows = len(configs)
    n_veh = config.n_followers + 1
    tau = config.tau
    v0 = maneuver.initial_velocity
    (a0, da, c0, dc), row_of = _row_laws(configs)
    acc_rows = slice(2, None, 3)
    k0 = (tau * a0[:, acc_rows])[row_of]
    dk = (tau * da[:, :, acc_rows]).reshape(len(a0), config.n_links, -1)[row_of]
    c0, dc = c0[row_of], dc[row_of]
    x = np.stack([equilibrium_state(cfg, v0) for cfg in configs])
    state = VehicleState(*(np.ascontiguousarray(x[:, j::3]).ravel() for j in range(3)))
    braking = np.zeros(n_rows * n_veh, dtype=bool)
    yield x
    t = 0.0
    for k in range(grid.n_steps):
        w = weights[k][:, None, :].astype(float, copy=False)
        gain = k0 + np.matmul(w, dk).reshape(k0.shape)
        offset = tau * (c0 + np.matmul(w, dc)[:, 0])[:, acc_rows]
        u = cacc_input(gain, offset, VehicleState(*(f.reshape(n_rows, n_veh) for f in
                                                    (state.x, state.v, state.a))))
        u[:, 0] = maneuver.accel_at(t)
        if config.u_clamp is not None:
            u[:, 1:] = np.minimum(np.maximum(u[:, 1:], config.u_clamp[0]), config.u_clamp[1])
        state, braking = maps_mod.step_empirical(config.throttle_map, config.brake_map,
                                                 state, u.ravel(), braking, tau, grid.dt)
        if config.velocity_clamp:
            state = VehicleState(state.x, np.where(state.v < 0, 0.0, state.v), state.a)
        top = max(abs(state.x).max(), abs(state.v).max())
        if not np.isfinite(top) or top > _DIVERGENCE_LIMIT:
            raise SimulationDivergedError(k, top)
        yield np.stack((state.x, state.v, state.a), axis=-1).reshape(n_rows, -1)
        t += grid.dt


def _row_states(configs: list[PlatoonConfig], maneuver: Maneuver, weights: np.ndarray):
    """The rows' engine loop over (n_steps, R, n_links) weights."""
    run = _empirical_states if configs[0].model == "empirical" else _point_mass_states
    return run(configs, maneuver, weights)


def simulate(config: PlatoonConfig, maneuver: Maneuver) -> SimOutput:
    """One platoon run; samples the channels unless deterministic_gamma is set."""
    weights = _weight_table(config).T[:, None, :]
    return _collect([config], _row_states([config], maneuver, weights))[0]


def simulate_deterministic(config: PlatoonConfig, maneuver: Maneuver,
                           gamma: float, mu: float | None = None) -> SimOutput:
    """Run the gamma-equivalent system (mu for the second-predecessor links)."""
    cfg = replace(config, deterministic_gamma=gamma, mu=gamma if mu is None else mu)
    return simulate(cfg, maneuver)


def simulate_panels(config: PlatoonConfig, maneuver: Maneuver, panels) -> list[SimOutput]:
    """Gamma-deterministic runs of one platoon, one per (h_w, gamma, mu) panel.

    The panels step together as the rows of one run on either engine.  Their
    tables are constant, so on the point-mass engine each row takes its
    exponential once, and each output is bitwise the
    :func:`simulate_deterministic` run of its panel.
    """
    cfgs = [replace(config, policy=replace(config.policy, h_w=hw),
                    deterministic_gamma=gamma, mu=mu) for hw, gamma, mu in panels]
    return _collect(cfgs, _row_states(cfgs, maneuver, _row_weights(cfgs)))


def seed_peaks(config: PlatoonConfig, maneuver: Maneuver, n_seeds: int) -> np.ndarray:
    """(n_seeds, n_followers) peak |e| of the runs with seeds master_seed + i.

    The seeds step together as the rows of one run, and each row keeps only
    a running maximum.  A row is bitwise the lone :func:`simulate` of its
    seed, except a point-mass seed whose table alone is constant (within
    1e-9 m, see the module docstring).
    """
    configs = _seed_configs(config, n_seeds)
    peaks = np.zeros((n_seeds, config.n_followers))
    for x in _row_states(configs, maneuver, _row_weights(configs)):
        np.maximum(peaks, np.abs(_row_errors(config, x)), out=peaks)
    return peaks


def monte_carlo(config: PlatoonConfig, maneuver: Maneuver,
                n_realizations: int) -> EnsembleStats:
    """Seeded ensemble: realization i runs with master_seed + i.

    All realizations are stepped together as the rows of one run (see
    :func:`seed_peaks` for how a row compares with a lone run), and the
    pointwise mean is accumulated in realization order.  The
    gamma-deterministic companion is a lone run on a constant table, so it
    takes its one exponential; it uses gamma from the channel parameters
    (and mu from the second-link parameters when they differ).
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    configs = _seed_configs(config, n_realizations)
    weights = _row_weights(configs)
    errors = np.empty((n_realizations, config.n_followers, config.grid.n_steps + 1))
    for k, x in enumerate(_row_states(configs, maneuver, weights)):
        errors[:, :, k] = _row_errors(config, x)
    mean_err = np.zeros(errors.shape[1:])
    for e in errors:
        mean_err += e
    mean_err /= n_realizations
    gamma = gamma_of(config.channel)
    mu = gamma_of(config.second_params())
    det = simulate_deterministic(config, maneuver, gamma, mu)
    return EnsembleStats(
        n_realizations=n_realizations,
        mean_errors=mean_err,
        peaks=np.abs(errors).max(axis=2),
        mean_trajectory_peaks=np.abs(mean_err).max(axis=1),
        deterministic_peaks=det.peak_errors(),
        reception_rates=weights.mean(axis=(0, 1)),
        deterministic_output=det,
    )


def empirical_string_stability(out: SimOutput) -> tuple[bool, np.ndarray]:
    """Non-increasing per-follower peak check over the full horizon, to 1e-6 m."""
    if out.errors.shape[0] < 2:
        raise ValueError("need at least two followers to judge propagation")
    peaks = out.peak_errors()
    ok = bool(np.all(np.diff(peaks) <= _PEAK_TOL))
    return ok, peaks
