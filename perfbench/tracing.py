"""Span tracing for the traced benchmark pass.

The tracer wraps program functions at the module attribute where callers
look them up (``platoon_lab.cli.simulate`` and ``platoon_lab.sim.simulate``
are separate bindings of one function, so both are wrapped).  Each call adds
one span (name, start, end, parent) to flat in-memory arrays; the spans are
written out once at the end and every per-layer metric is derived from them.
A span's self time is its duration minus the durations of its direct
children.  A lookup site that no longer exists is skipped, and the metrics
that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> the "module:attribute.path" sites where callers look it up
SITES = {
    "cli.main": ("platoon_lab.cli:main",),
    "scenario.load": ("platoon_lab.cli:load_scenario", "platoon_lab.scenario:load_scenario"),
    "channel.sample": ("platoon_lab.sim:_link_tables",),
    "sim.run": ("platoon_lab.cli:simulate", "platoon_lab.sim:simulate"),
    "sim.monte_carlo": ("platoon_lab.cli:monte_carlo",),
    "sim.advance": ("platoon_lab.sim:_Propagator.advance",),
    "sim.step_matrix": ("platoon_lab.sim:_Propagator.step_matrix",),
    "sim.expm": ("platoon_lab.sim:expm",),
    "control.law": ("platoon_lab.sim:cacc_input", "platoon_lab.sim:cacc_plus_input"),
    "maps.step": ("platoon_lab.maps:step_empirical",),
    "maps.interp": ("platoon_lab.maps:interp",),
    "maps.invert": ("platoon_lab.maps:invert",),
    "dynamics.step_lag": ("platoon_lab.maps:step_lag", "platoon_lab.dynamics:step_lag"),
    "dynamics.accel_at": ("platoon_lab.dynamics:Maneuver.accel_at",),
    "stability.hinf": ("platoon_lab.stability:hinf_norm",),
    "stability.bound": ("platoon_lab.stability:peak_output_bound",),
    "stability.gramian": ("platoon_lab.stability:lyapunov_gramian",),
    "expectation.check": ("platoon_lab.expectation:check_multilinearity",),
    "expectation.power": ("platoon_lab.expectation:exact_expected_power",),
    "output.csv": ("platoon_lab.output:write_timeseries_csv",
                   "platoon_lab.output:write_peaks_csv"),
    "output.svg": ("platoon_lab.output:write_svg",),
    "output.report": ("platoon_lab.output:RunReport.write",),
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_links(counters, args, kwargs, table):
    """Link steps sampled, receptions drawn, and receptions gamma_of predicts."""
    from platoon_lab.channel import gamma_of

    config = _first_arg(args, kwargs, "config")
    n_links, n_steps = table.shape
    n_first = min(config.n_followers, n_links)
    rates = ([gamma_of(config.channel)] * n_first
             + [gamma_of(config.second_params())] * (n_links - n_first))
    counters["channel.link_steps"] += table.size
    counters["channel.received"] += float(table.sum())
    counters["channel.expected"] += sum(rates) * n_steps


def _count_linear_steps(counters, args, kwargs, out):
    config = _first_arg(args, kwargs, "config")
    if config.model == "point_mass":
        counters["sim.linear_steps"] += config.grid.n_steps


def _count_assignments(counters, args, kwargs, result):
    """Indicator assignments with nonzero probability: the enumeration size."""
    spec = _first_arg(args, kwargs, "spec")
    counters["expectation.assignments"] += math.prod(
        2 if 0.0 < p < 1.0 else 1 for p in spec.probs.values())


def _count_bytes(counters, args, kwargs, path):
    counters["output.bytes"] += os.path.getsize(path)


HOOKS = {
    "channel.sample": _count_links,
    "sim.run": _count_linear_steps,
    "expectation.power": _count_assignments,
    "output.csv": _count_bytes,
    "output.svg": _count_bytes,
    "output.report": _count_bytes,
}


def _resolve(site: str):
    """(owner, attribute) for a lookup site, or None when it does not exist."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.span_names = list(SITES)
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._restore = []

    def _wrap(self, nid: int, fn, hook):
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self.stack)
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for nid, (span, sites) in enumerate(SITES.items()):
            for site in sites:
                found = _resolve(site)
                if found is None:
                    self.missing.append(site)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(nid, original, HOOKS.get(span)))
                self._restore.append((owner, attr, original))
                self.installed.add(span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.span_names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric whose spans were installed."""
        spans = SpanTable(self.arrays(), self.span_names)
        out = {}
        for name, (_, needs, fn) in LAYER_METRICS.items():
            if all(n in self.installed for n in needs):
                out[name] = float(fn(spans, self.counters))
        return out


class SpanTable:
    """Durations and self times of recorded spans, selectable by span name."""

    def __init__(self, arrays: dict[str, np.ndarray], span_names: list[str]):
        self.ids = {n: i for i, n in enumerate(span_names)}
        self.name_id = arrays["name_id"]
        self.parent = arrays["parent"]
        self.dur = arrays["end"] - arrays["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        return self.name_id == self.ids[name]

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def percentile(self, name: str, q: float) -> float:
        d = self.dur[self.mask(name)]
        return float(np.percentile(d, q)) if d.size else 0.0

    def count_under(self, name: str, parent_name: str) -> int:
        """Spans of ``name`` whose direct parent is a ``parent_name`` span."""
        m = self.mask(name) & (self.parent >= 0)
        return int((self.name_id[self.parent[m]] == self.ids[parent_name]).sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _reception_err(s, c):
    n = c["channel.link_steps"]
    return abs(c["channel.received"] - c["channel.expected"]) / n if n else 0.0


def _skipped(s, c):
    linear = c["sim.linear_steps"]
    return _ratio(linear - s.count("sim.advance"), linear)


def _cache_hits(s, c):
    lookups = s.count("sim.step_matrix")
    return _ratio(lookups - s.count_under("sim.expm", "sim.step_matrix"), lookups)


# metric -> (unit, span names it needs, value from (spans, counters)).
# trace.overhead_s is added by the orchestrator from the untraced passes.
LAYER_METRICS = {
    "scenario.load_s": ("s", ("scenario.load",), lambda s, c: s.total("scenario.load")),
    "channel.sample_s": ("s", ("channel.sample",), lambda s, c: s.total("channel.sample")),
    "channel.link_steps": ("count", ("channel.sample",), lambda s, c: c["channel.link_steps"]),
    "channel.reception_rate_err": ("ratio", ("channel.sample",), _reception_err),
    "sim.runs": ("count", ("sim.run",), lambda s, c: s.count("sim.run")),
    "sim.run_self_s": ("s", ("sim.run",), lambda s, c: s.self_total("sim.run")),
    "sim.run_p50_s": ("s", ("sim.run",), lambda s, c: s.percentile("sim.run", 50)),
    "sim.run_p90_s": ("s", ("sim.run",), lambda s, c: s.percentile("sim.run", 90)),
    "sim.advance_calls": ("count", ("sim.advance",), lambda s, c: s.count("sim.advance")),
    "sim.skipped_step_ratio": ("ratio", ("sim.run", "sim.advance"), _skipped),
    "sim.expm_calls": ("count", ("sim.expm",), lambda s, c: s.count("sim.expm")),
    "sim.expm_s": ("s", ("sim.expm",), lambda s, c: s.total("sim.expm")),
    "sim.expm_cache_hit_ratio": ("ratio", ("sim.step_matrix", "sim.expm"), _cache_hits),
    "sim.mc_reduce_s": ("s", ("sim.monte_carlo",), lambda s, c: s.self_total("sim.monte_carlo")),
    "control.law_calls": ("count", ("control.law",), lambda s, c: s.count("control.law")),
    "control.law_s": ("s", ("control.law",), lambda s, c: s.total("control.law")),
    "maps.step_calls": ("count", ("maps.step",), lambda s, c: s.count("maps.step")),
    "maps.step_self_s": ("s", ("maps.step",), lambda s, c: s.self_total("maps.step")),
    "maps.interp_calls": ("count", ("maps.interp",), lambda s, c: s.count("maps.interp")),
    "maps.invert_calls": ("count", ("maps.invert",), lambda s, c: s.count("maps.invert")),
    "dynamics.step_lag_calls": ("count", ("dynamics.step_lag",),
                                lambda s, c: s.count("dynamics.step_lag")),
    "dynamics.accel_at_calls": ("count", ("dynamics.accel_at",),
                                lambda s, c: s.count("dynamics.accel_at")),
    "stability.hinf_calls": ("count", ("stability.hinf",), lambda s, c: s.count("stability.hinf")),
    "stability.hinf_s": ("s", ("stability.hinf",), lambda s, c: s.total("stability.hinf")),
    "stability.bound_self_s": ("s", ("stability.bound",),
                               lambda s, c: s.self_total("stability.bound")),
    "stability.gramian_s": ("s", ("stability.gramian",), lambda s, c: s.total("stability.gramian")),
    "expectation.assignments": ("count", ("expectation.power",),
                                lambda s, c: c["expectation.assignments"]),
    "expectation.check_s": ("s", ("expectation.check",), lambda s, c: s.total("expectation.check")),
    "output.csv_s": ("s", ("output.csv",), lambda s, c: s.total("output.csv")),
    "output.svg_s": ("s", ("output.svg",), lambda s, c: s.total("output.svg")),
    "output.bytes": ("bytes", ("output.csv", "output.svg", "output.report"),
                     lambda s, c: c["output.bytes"]),
    "cli.self_s": ("s", ("cli.main",), lambda s, c: s.self_total("cli.main")),
}
