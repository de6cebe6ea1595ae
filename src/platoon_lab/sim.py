"""Full-platoon simulation: stochastic packet losses, fixed-rate (gamma/mu)
equivalents, and Monte Carlo ensembles.

The platoon state is X = (x_0, v_0, a_0, ..., x_N, v_N, a_N).  The ACC / CACC /
CACC+ law is written once, affine in the link weights w: the closed-loop
matrix A(w) = a0 + sum_l w_l da[l] and the standstill offset
c(w) = c0 + sum_l w_l dc[l] (:func:`link_decomposition`).  Two engines use them,
each a stepper that takes R states (R, n) one step on, row r under its own
link weights.  Each stepper reads its rows' laws, in its own layout, off
one buffer that :class:`_LinkLaw` patches in place at each step's weights;
the law is fixed, and taken once, when no row's weights on the links that
reach it change over the run (a gamma run, a lossless channel, ACC).

* point mass (:class:`_Propagator`): the feedback acts continuously, and the
  closed loop is linear, so each controller step is the exact zero-order-hold
  solution of the per-step constant system, the exponential of an augmented
  matrix carrying the lead input and the offset.  A fixed law gives each row
  its exponential once; otherwise every row takes a machine-precision Taylor
  action on the states, each row stopping at its own term whatever its
  batch-mates need.  One Taylor series serves both steps: the exponential
  (:func:`expm`) and the action sum its terms under one stop rule
  (:func:`_converged`), and a step matrix whose norm calls for it is scaled
  and squared.  :func:`expm` is the package's one exponential: the stability
  analysis steps its sampled responses with it too, so no part of the package
  needs scipy.
* pedal maps (:class:`_MapStepper`): every vehicle's command is read off the
  acceleration rows of tau A(w) and c(w) (:func:`cacc_input`) at the start
  of the step, held over it (sampled-data control) and clamped to the maps'
  authority: all vehicles of all rows advance together through the pedal
  maps and the exact lag update (:func:`platoon_lab.maps.step_empirical`).

A run's link weights come from one field, :attr:`PlatoonConfig.rates`: None
samples every link's Gilbert channel (:func:`_link_tables`, which gives each
link its parameters and its stream and draws them all with
:func:`platoon_lab.channel.sample_links`), and (gamma, mu) holds the (i, i-1)
links at gamma and the (i, i-2) links at mu for the whole run.

One driver, :func:`_row_states`, takes one config per row (rows differ at
most in seed, headway and rates) and (n_steps, R, n_links) weights,
builds the stepper of the configs' model and owns the rest of the time
loop: the equilibrium start, the time base, the lead's input, the
point-mass idle lead-in, the velocity clamp and the divergence rule.  Three
entry points use it: :func:`simulate` is R = 1 on either engine,
:func:`monte_carlo` stacks seeds as rows, and :func:`simulate_panels` stacks
the fixed-rate panels of a suite.
A row goes through the same operations as its lone run and is bitwise that
run, with one exception: a point-mass row whose table is constant, inside a
batch whose tables are not, takes the Taylor action where its lone run
takes the exponential, within 1e-9 m.  The same 1e-9 m bound holds between
a constant-rate run and that run stepped with ``scipy.linalg.expm`` (the
oracle in ``tests/reference_engine.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import maps as maps_mod
from .channel import ChannelMode, GilbertParams, gamma_of, link_streams, sample_links
from .control import Gains, Scheme, SpacingPolicy
from .dynamics import Maneuver, TimeGrid, VehicleState


# Abort threshold on any state component.
_DIVERGENCE_LIMIT = 1e6


class SimulationDivergedError(RuntimeError):
    def __init__(self, step: int, value: float):
        what = (f"state magnitude {value:.3e} exceeded {_DIVERGENCE_LIMIT:g}"
                if math.isfinite(value) else "state became non-finite")
        super().__init__(f"{what} at step {step}")
        self.step = step
        self.value = value
# Peak growth (m) from one follower to the next that still counts as stable.
_PEAK_TOL = 1e-6
# Last Taylor term a row of the point-mass step takes.
_MAX_TERMS = 39
# Largest infinity norm of a step matrix whose Taylor series is taken
# unscaled: within it every series meets the stop rule by term 25.
_THETA = 2.0
# Steps of spacing errors monte_carlo holds at once.
_ERROR_BLOCK = 256


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
    rates: tuple[float, float] | None = None  # fixed (gamma, mu) weights; None samples
    init_mode: ChannelMode | None = None  # None = stationary draw
    velocity_clamp: bool = False
    u_clamp: tuple[float, float] | None = None
    model: str = "point_mass"  # or "empirical"
    throttle_map: maps_mod.PedalMap | None = None
    brake_map: maps_mod.PedalMap | None = None

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
        # every coefficient of the law (link_decomposition) is one of these
        # over tau, all non-negative, so the largest decides
        g, hw = self.gains, self.policy.h_w
        law = (g.k_a, g.k_v, g.k_p, g.k_v + 2.0 * g.k_p * hw, 2.0 * g.k_p * self.policy.d)
        if not math.isfinite(max(law) / self.tau):
            raise ValueError("the gains overflow the control law: k_a/tau, k_v/tau, "
                             "k_p/tau, (k_v + 2 k_p h_w)/tau and 2 k_p d/tau must be finite")
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

    def link_rates(self) -> tuple[float, float]:
        """Long-run reception rates (gamma_of) of the (i, i-1) and (i, i-2) links."""
        return gamma_of(self.channel), gamma_of(self.second_params())


@dataclass
class SimOutput:
    """Per-vehicle time series plus spacing errors for the followers."""

    time: np.ndarray              # (T+1,)
    x: np.ndarray                 # (n_vehicles, T+1)
    v: np.ndarray
    a: np.ndarray
    errors: np.ndarray            # (n_followers, T+1)
    seed: int

    def peak_errors(self) -> np.ndarray:
        return np.abs(self.errors).max(axis=1)


@dataclass
class EnsembleStats:
    """Monte Carlo summary across seeded realizations."""

    n_realizations: int
    mean_errors: np.ndarray       # (n_followers, T+1) pointwise mean
    peaks: np.ndarray             # (n_realizations, n_followers)
    mean_trajectory_peaks: np.ndarray   # (n_followers,) peak of the mean
    reception_rates: np.ndarray         # (n_links,) mean of each link's weights


def link_decomposition(config: PlatoonConfig):
    """The closed loop, affine in the link weights w, in (x, v, a)-per-vehicle
    ordering: A(w) = a0 + sum_l w_l da[l] and the standstill offset
    c(w) = c0 + sum_l w_l dc[l].

    Link l = i - 1 carries (i, i-1) for i = 1..N, then for CACC+ link
    l = N + i - 2 carries (i, i-2) for i = 2..N.  Binary weights give a
    stochastic realization; fractional weights give the fixed-rate
    (gamma, mu) system.  ACC radios nothing, so its da is zero.  Returns
    (a0, da, c0, dc); da has shape (n_links, n, n) and dc (n_links, n).
    """
    n_f, tau, g = config.n_followers, config.tau, config.gains
    hw, d = config.policy.h_w, config.policy.d
    n = 3 * (n_f + 1)
    a0, c0 = np.zeros((n, n)), np.zeros(n)
    da, dc = np.zeros((config.n_links, n, n)), np.zeros((config.n_links, n))
    lag = np.arange(0, n, 3)
    a0[lag, lag + 1] = a0[lag + 1, lag + 2] = 1.0
    a0[lag + 2, lag + 2] = -1.0 / tau
    for i in range(1, n_f + 1):
        row, p = 3 * i + 2, 3 * (i - 1)  # follower i's acceleration, its predecessor
        # radar: the predecessor's position and speed against i's own
        a0[row, p:p + 2] = g.k_p / tau, g.k_v / tau
        a0[row, row - 2:row] = -g.k_p / tau, -(g.k_v + g.k_p * hw) / tau
        c0[row] = -g.k_p * d / tau
        if config.scheme is not Scheme.ACC:
            da[i - 1, row, p + 2] = g.k_a / tau
        if config.scheme is Scheme.CACC_PLUS and i >= 2:
            link, q = n_f + i - 2, 3 * (i - 2)
            da[link, row, q:q + 3] = g.k_p / tau, g.k_v / tau, g.k_a / tau
            da[link, row, row - 2:row] = -g.k_p / tau, -(g.k_v + 2.0 * g.k_p * hw) / tau
            dc[link, row] = -g.k_p * 2.0 * d / tau
    return a0, da, c0, dc


class _LinkLaw:
    """Every row's law under its link weights, in one buffer patched in place.

    ``layout`` maps a law's :func:`link_decomposition` (a0, da, c0, dc) to
    the (base, delta) of the stepper's layout, delta holding one slice per
    link; it runs once per distinct spacing policy (rows differ in headway
    at most), and row r's law is distinct law :attr:`row_of` [r].  Each
    entry of a law depends on one link at most, so :meth:`at` writes
    base + delta_l * w_l into the entries link l reaches.  The law is
    :attr:`fixed`, and a stepper takes it once, when no row's weights on the
    links that reach it change over the run's (n_steps, R, n_links) weights.
    """

    def __init__(self, configs: list[PlatoonConfig], weights: np.ndarray, layout):
        first: dict = {}
        self.row_of = np.array([first.setdefault(cfg.policy, (len(first), cfg))[0]
                                for cfg in configs])
        laws = (layout(*link_decomposition(cfg)) for _, cfg in first.values())
        base, delta = (np.stack(part) for part in zip(*laws))
        self._laws = base[self.row_of]
        delta = delta.reshape(delta.shape[:2] + (-1,))
        self._link_of, self._idx = np.nonzero(delta.any(axis=0))
        self._coef = delta[:, self._link_of, self._idx][self.row_of]
        self._base_at = self._laws.reshape(len(configs), -1)[:, self._idx]
        reach = delta.any(axis=2)[self.row_of]
        # min and max over time reduce the table without copying it
        self.fixed = bool(((weights.min(axis=0) == weights.max(axis=0)) | ~reach).all())

    def at(self, link_values: np.ndarray) -> np.ndarray:
        """(R, ...) laws under (R, n_links) weights, in the buffer the next call patches."""
        if self._idx.size:
            flat = self._laws.reshape(self._laws.shape[0], -1)
            w = link_values[:, self._link_of].astype(float, copy=False)
            flat[:, self._idx] = self._base_at + self._coef * w
        return self._laws


def _converged(term_top, sum_top):
    """The Taylor stop rule: a term's largest entry is at most 1e-16 of
    max(1, the partial sum's largest entry)."""
    return term_top <= 1e-16 * np.maximum(1.0, sum_top)


def _halvings(m: np.ndarray) -> int:
    """Halvings that bring the infinity norm of ``m`` within _THETA; none for
    a non-finite norm, whose series is non-finite anyway."""
    norm = float(np.abs(m).sum(axis=-1).max())
    return math.ceil(math.log2(norm / _THETA)) if _THETA < norm < math.inf else 0


def expm(m: np.ndarray) -> np.ndarray:
    """e^m from its Taylor series: the point-mass step's exponential, and
    the step e^{A dt} of the stability module's response sampler.

    The terms t_k = m t_{k-1} / k from t_0 = I are summed up to the first
    that meets the stop rule of the Taylor action (:func:`_converged`),
    term :data:`_MAX_TERMS` at the latest.  A matrix of infinity norm above
    :data:`_THETA` is first halved s times to within it and the sum squared
    s times (scaling and squaring; Moler & Van Loan 2003), so the result
    holds at any dt / tau.  Overflow is quiet: a non-finite exponential
    gives a non-finite state, which the driver reports as a divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = _halvings(m)
        scaled = np.ldexp(m, -s)
        term = total = np.eye(len(m))
        for k in range(1, _MAX_TERMS + 1):
            term = scaled @ term / k
            total = total + term
            if _converged(np.abs(term).max(), np.abs(total).max()):
                break
        for _ in range(s):
            total = total @ total
    return total


def _zoh(e: np.ndarray, x: np.ndarray, u_lead: float) -> np.ndarray:
    """States (R, n) one step on under the (R, n+2, n+2) augmented exponentials."""
    n = x.shape[1]
    return np.matmul(e[:, :n, :n], x[:, :, None])[:, :, 0] + e[:, :n, n] * u_lead + e[:, :n, n + 1]


class _Propagator:
    """Exact ZOH update of R platoon states at once, one link pattern per row.

    Row r reads its augmented matrix [[A, B_lead, c], [0, 0, 0], [0, 0, 0]]
    times dt off the run's :class:`_LinkLaw`.  If that law is fixed,
    :attr:`steps` holds each row's exponential (:func:`expm`); otherwise it
    is None and every step takes the Taylor action, exact to machine
    precision because the per-step matrix norm is at most :data:`_THETA`.
    A row whose matrix can exceed that norm under weights in [0, 1] (a large
    dt / tau) takes its scaled and squared exponential every step instead.

    The Taylor action computes terms t_k = M t_{k-1} / k and partial sums
    s_k = s_{k-1} + t_k of every row into preallocated (terms, sums)
    buffers, a block at a time: each step first takes as many terms as the
    previous step's slowest row needed, then one more at a time while some
    row has not stopped.  Row r stops at its first k that meets the stop
    rule of :func:`expm` (:func:`_converged`) and returns its own s_k.  A
    row's terms and its stop do not depend on the other rows, so a batched
    row is bitwise its lone run.
    """

    def __init__(self, configs: list[PlatoonConfig], weights: np.ndarray):
        config = configs[0]
        dt = config.grid.dt
        n = self.n = 3 * (config.n_followers + 1)
        tops = []  # each law's entrywise bound over weights in [0, 1]

        def augmented(a0, da, c0, dc):
            base = np.zeros((n + 2, n + 2))
            base[:n, :n] = a0
            base[2, n] = 1.0 / config.tau  # lead input enters the lead's lag equation
            base[:n, n + 1] = c0
            delta = np.zeros((len(da), n + 2, n + 2))
            delta[:, :n, :n] = da
            delta[:, :n, n + 1] = dc
            base, delta = base * dt, delta * dt
            tops.append(np.abs(base) + np.abs(delta).sum(axis=0))
            return base, delta

        self._law = _LinkLaw(configs, weights, augmented)
        self.steps = self.step_matrix(weights[0]) if self._law.fixed else None
        if self.steps is None:
            wide = np.array([_halvings(t) > 0 for t in tops])[self._law.row_of]
            self._wide, self._narrow = np.flatnonzero(wide), np.flatnonzero(~wide)
            # terms buf[k, 0] and partial sums buf[k, 1], k = 0.._MAX_TERMS
            self._buf = np.empty((_MAX_TERMS + 1, 2, len(self._narrow), n + 2))
            self._buf[0, 0, :, n + 1] = 1.0
            self._rows = np.arange(len(self._narrow))
            self._block = 1

    def step_matrix(self, link_values: np.ndarray) -> np.ndarray:
        """(R, n+2, n+2) exponentials of one step under (R, n_links) weights."""
        return np.array([expm(m) for m in self._law.at(link_values)])

    def advance(self, x: np.ndarray, u_lead: float, link_values: np.ndarray) -> np.ndarray:
        """States (R, n) one step on, row r under the weights link_values[r]."""
        if self.steps is not None:
            return _zoh(self.steps, x, u_lead)
        m = self._law.at(link_values)
        if not self._wide.size:
            return self._taylor_action(m, x, u_lead)
        out = np.empty_like(x)
        narrow, wide = self._narrow, self._wide
        if narrow.size:
            out[narrow] = self._taylor_action(m[narrow], x[narrow], u_lead)
        out[wide] = _zoh(np.array([expm(e) for e in m[wide]]), x[wide], u_lead)
        return out

    def _taylor_action(self, m: np.ndarray, x: np.ndarray, u_lead: float) -> np.ndarray:
        """The augmented exponentials of ``m`` acting on [x; u; 1], row by row."""
        n = self.n
        buf = self._buf
        buf[0, 0, :, :n] = x
        buf[0, 0, :, n] = u_lead
        buf[0, 1] = buf[0, 0]
        k, hi = 0, self._block
        while True:
            for k in range(k + 1, hi + 1):
                term = buf[k, 0]
                np.matmul(m, buf[k - 1, 0, :, :, None], out=term[:, :, None])
                term /= k
                np.add(buf[k - 1, 1], term, out=buf[k, 1])
            # max |.| of every term and partial sum of terms 1..hi, reduced
            # over a transposed copy: numpy reduces along one long axis much
            # faster than along many short ones
            top = np.abs(buf[1:hi + 1]).reshape(-1, n + 2).T.copy().max(axis=0)
            top = top.reshape(hi, 2, -1)
            small = _converged(top[:, 0], top[:, 1])
            done = small.any(axis=0)
            if done.all() or hi == _MAX_TERMS:
                break
            hi += 1
        stop = np.where(done, small.argmax(axis=0) + 1, _MAX_TERMS)
        self._block = int(stop.max())
        return buf[stop, 1, self._rows, :n]


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


def _weight_table(config: PlatoonConfig) -> np.ndarray:
    """(n_links, n_steps) link weights of one run: sampled flags, or its rates."""
    steps = config.grid.n_steps
    if config.rates is None:
        return _link_tables(config, steps)
    gamma, mu = config.rates
    w = np.full((config.n_links, 1), gamma, dtype=float)
    w[config.n_followers:] = mu  # only CACC+ has second-predecessor links
    return np.broadcast_to(w, (config.n_links, steps))


def _seed_configs(config: PlatoonConfig, n_seeds: int) -> list[PlatoonConfig]:
    """The rows of a seed batch: the config with seeds master_seed + i."""
    return [replace(config, master_seed=config.master_seed + i) for i in range(n_seeds)]


def _row_weights(configs: list[PlatoonConfig]) -> np.ndarray:
    """(n_steps, R, n_links) weights, row r the weight table of ``configs[r]``.

    Sampled tables stay boolean, an eighth of the float64 footprint; the
    loops cast one step's rows to float where they use them.
    """
    sampled = all(cfg.rates is None for cfg in configs)
    weights = np.empty((configs[0].grid.n_steps, len(configs), configs[0].n_links),
                       dtype=bool if sampled else float)
    for r, cfg in enumerate(configs):
        weights[:, r] = _weight_table(cfg).T
    return weights


def _spacing_errors(x: np.ndarray, v: np.ndarray, d: float, h_w) -> np.ndarray:
    """e_i = x_i - x_{i-1} + d + h_w v_i of positions x and speeds v, vehicles
    along the first axis."""
    return x[1:] - x[:-1] + d + h_w * v[1:]


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
                      errors=_spacing_errors(xs, vs, cfg.policy.d, cfg.policy.h_w),
                      seed=cfg.master_seed)
            for cfg, xs, vs, accs in zip(configs, *block)]


def cacc_input(gain: np.ndarray, offset: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every vehicle's command from the closed-loop law, u = gain X + a + offset.

    ``x`` holds R platoon states (R, n), one realization per row, and each
    row has its own ``gain`` (R, n_veh, n) and ``offset`` (R, n_veh): tau
    times the acceleration rows of its A(w) and c(w), so one evaluation
    serves ACC, CACC and CACC+ alike.
    """
    return np.matmul(gain, x[:, :, None])[:, :, 0] + x[:, 2::3] + offset


# one law for every scheme; the CACC+ name stays a lookup site of the
# benchmark's span tracer (perfbench/tracing.py)
cacc_plus_input = cacc_input


class _MapStepper:
    """Pedal-map update of R platoon states at once, one link pattern per row.

    The contract of :meth:`_Propagator.advance`.  Each step reads every
    row's commands off its own closed loop, u = tau * A(w)[3i+2, :] X + a_i +
    tau * c(w)[3i+2], replaces the lead's with the maneuver, and drives the
    (R, n_vehicles) vehicles of all rows through the pedal maps at once
    (commands held over the step).  Each vehicle keeps its branch flag across
    steps.  A row's acceleration rows tau * A(w) beside c(w) come off the
    run's :class:`_LinkLaw`, taken once if it is fixed.
    """

    def __init__(self, configs: list[PlatoonConfig], weights: np.ndarray):
        config = self._config = configs[0]
        tau = config.tau

        def accel_rows(a0, da, c0, dc):
            return (np.column_stack([tau * a0[2::3], c0[2::3]]),
                    np.concatenate([tau * da[:, 2::3], dc[:, 2::3, None]], axis=2))

        self._law = _LinkLaw(configs, weights, accel_rows)
        self._fixed = self._gain_offset(weights[0]) if self._law.fixed else None
        self._braking = np.zeros((len(configs), config.n_followers + 1), dtype=bool)

    def _gain_offset(self, link_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every row's (gain, offset) of :func:`cacc_input`; offset = tau * (c0 + w dc)."""
        law = self._law.at(link_values)
        return law[:, :, :-1], self._config.tau * law[:, :, -1]

    def advance(self, x: np.ndarray, u_lead: float, link_values: np.ndarray) -> np.ndarray:
        """States (R, n) one step on, row r under the weights link_values[r]."""
        cfg = self._config
        u = cacc_input(*(self._fixed or self._gain_offset(link_values)), x)
        u[:, 0] = u_lead
        if cfg.u_clamp is not None:
            u[:, 1:] = np.minimum(np.maximum(u[:, 1:], cfg.u_clamp[0]), cfg.u_clamp[1])
        state = VehicleState(x[:, 0::3], x[:, 1::3], x[:, 2::3])
        state, self._braking = maps_mod.step_empirical(cfg.throttle_map, cfg.brake_map, state,
                                                       u, self._braking, cfg.tau, cfg.grid.dt)
        out = np.empty_like(x)
        out[:, 0::3], out[:, 1::3], out[:, 2::3] = state.x, state.v, state.a
        return out


def _row_states(configs: list[PlatoonConfig], maneuver: Maneuver, weights: np.ndarray):
    """Step R rows together, row r under ``configs[r]``; yield (R, n) states.

    ``weights`` has shape (n_steps, R, n_links).  States are yielded for
    steps 0..n_steps; the array is reused, so copy out what is kept.  Raises
    :class:`SimulationDivergedError` at the first step where any row leaves
    the divergence limit.
    """
    config = configs[0]
    grid = config.grid
    v0 = maneuver.initial_velocity
    point_mass = config.model == "point_mass"
    stepper = (_Propagator if point_mass else _MapStepper)(configs, weights)
    x = np.stack([equilibrium_state(cfg, v0) for cfg in configs])
    yield x
    t = 0.0
    # in point-mass steady state every control input is zero for any link
    # pattern, so idle lead-in segments reduce to uniform translation at v0;
    # the map engine's coast-line clamp and rounding do not hold it that still
    idle = point_mass
    for k in range(grid.n_steps):
        u_lead = maneuver.accel_at(t)
        if idle and u_lead == 0.0:
            x[:, 0::3] += v0 * grid.dt
        else:
            idle = False
            # an overflowing state is reported by the divergence rule below
            with np.errstate(over="ignore", invalid="ignore"):
                x = stepper.advance(x, u_lead, weights[k])
            if config.velocity_clamp:
                x[:, 1::3] = np.maximum(x[:, 1::3], 0.0)
        if not np.abs(x).max() <= _DIVERGENCE_LIMIT:  # NaN fails too
            top = np.abs(x).max(axis=1)
            raise SimulationDivergedError(k, float(top[(top <= _DIVERGENCE_LIMIT).argmin()]))
        yield x
        t += grid.dt


def simulate(config: PlatoonConfig, maneuver: Maneuver) -> SimOutput:
    """One platoon run; samples the channels unless ``config.rates`` is set."""
    weights = _weight_table(config).T[:, None, :]
    return _collect([config], _row_states([config], maneuver, weights))[0]


def simulate_panels(config: PlatoonConfig, maneuver: Maneuver, panels) -> list[SimOutput]:
    """Fixed-rate runs of one platoon, one per (h_w, gamma, mu) panel.

    The panels step together as the rows of one run on either engine.  Their
    tables are constant, so on the point-mass engine each row takes its
    exponential once, and each output is bitwise the :func:`simulate` run of
    its panel.
    """
    cfgs = [replace(config, policy=replace(config.policy, h_w=hw), rates=(gamma, mu))
            for hw, gamma, mu in panels]
    return _collect(cfgs, _row_states(cfgs, maneuver, _row_weights(cfgs)))


def monte_carlo(config: PlatoonConfig, maneuver: Maneuver, n_realizations: int,
                headways: list[float] | None = None) -> EnsembleStats | list[EnsembleStats]:
    """Seeded ensemble: realization i runs with master_seed + i.

    All realizations are stepped together as the rows of one run, each
    keeping a running maximum of its |e|, and the pointwise mean is
    accumulated in realization order.  A row is bitwise the lone
    :func:`simulate` of its seed, except a point-mass seed whose table alone
    is constant (within 1e-9 m, see the module docstring).  The gamma system
    to compare the mean with is a separate run,
    ``simulate(replace(config, rates=config.link_rates()), maneuver)``.

    Given ``headways``, one such ensemble runs at each headway, the seeds of
    all of them stepped as the rows of one run, and the result is the list
    of their stats in headway order, each bitwise its own call.
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    groups = [config] if headways is None else [
        replace(config, policy=replace(config.policy, h_w=hw)) for hw in headways]
    configs = [row for cfg in groups for row in _seed_configs(cfg, n_realizations)]
    weights = _row_weights(configs)
    h_w = np.array([cfg.policy.h_w for cfg in configs])
    peaks = np.zeros((len(configs), config.n_followers))
    mean_err = np.zeros((len(groups), config.grid.n_steps + 1, config.n_followers))
    states = _row_states(configs, maneuver, weights)
    # the (steps, R, n_followers) errors of a block of steps at a time, each
    # ensemble's rows summed in realization order
    for k in range(0, mean_err.shape[1], _ERROR_BLOCK):
        errors = np.array([_spacing_errors(x[:, 0::3].T, x[:, 1::3].T, config.policy.d, h_w).T
                           for x in islice(states, _ERROR_BLOCK)])
        np.maximum(peaks, np.abs(errors).max(axis=0), out=peaks)
        for r in range(len(configs)):
            mean_err[r // n_realizations, k:k + _ERROR_BLOCK] += errors[:, r]
    mean_err /= n_realizations
    stats = []
    for g, mean in enumerate(mean_err):
        rows = slice(g * n_realizations, (g + 1) * n_realizations)
        stats.append(EnsembleStats(
            n_realizations=n_realizations,
            mean_errors=mean.T,
            peaks=peaks[rows],
            mean_trajectory_peaks=np.abs(mean.T).max(axis=1),
            reception_rates=weights[:, rows].mean(axis=(0, 1)),
        ))
    return stats[0] if headways is None else stats


def empirical_string_stability(out: SimOutput) -> tuple[bool, np.ndarray]:
    """Non-increasing per-follower peak check over the full horizon, to 1e-6 m."""
    if out.errors.shape[0] < 2:
        raise ValueError("need at least two followers to judge propagation")
    peaks = out.peak_errors()
    ok = bool(np.all(np.diff(peaks) <= _PEAK_TOL))
    return ok, peaks
