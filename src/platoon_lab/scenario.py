"""Scenario files: INI documents describing a platoon run or analysis.

Sections are [platoon], [channel], [maneuver], [analysis], [output] and the
optional [suite] used by the bundled paper presets to describe three-panel
communication scenarios.  Unknown keys are rejected; units are SI throughout
(s, m, m/s, m/s^2).  A scenario can be referenced by file path or by preset
name (``paper-fig4``, ``paper-fig8``, ``paper-fig9``, ``paper-fig10``).
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import maps as maps_mod
from .channel import ChannelMode, GilbertParams, gamma_of
from .control import Gains, Scheme, SpacingPolicy
from .dynamics import Maneuver, TimeGrid
from .sim import PlatoonConfig


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


_ALLOWED = {
    "platoon": {"n_followers", "tau", "k_a", "k_v", "k_p", "headway", "standstill",
                "scheme", "model", "throttle_map", "brake_map", "velocity_clamp",
                "u_clamp_min", "u_clamp_max"},
    "channel": {"p_gb", "q_bg", "r_recv_bad", "p_gb_2", "q_bg_2", "r_recv_bad_2",
                "init_mode"},
    "maneuver": {"initial_velocity", "segments"},
    "analysis": {"dt", "horizon", "deterministic_gamma", "mu", "n_realizations",
                 "stochastic_seeds", "alpha_star", "w0_l2"},
    "output": {"prefix", "csv", "svg"},
    "suite": {"panels"},
}

PRESETS = ("paper-fig4", "paper-fig8", "paper-fig9", "paper-fig10")


@dataclass(frozen=True)
class Panel:
    """One communication scenario of a suite: ideal or lossy link, one headway."""

    label: str
    mode: str       # "ideal" | "lossy"
    headway: float


@dataclass
class AnalysisOptions:
    deterministic_gamma: float | None = None   # None = stochastic run
    gamma_auto: bool = False                   # 'auto': use gamma_of(channel)
    mu: float | None = None
    n_realizations: int = 100
    stochastic_seeds: int = 0
    alpha_star: float = 0.0
    w0_l2: float = 9.0


@dataclass
class OutputOptions:
    prefix: str = "run"
    csv: bool = True
    svg: bool = True


@dataclass
class Scenario:
    name: str
    config: PlatoonConfig
    maneuver: Maneuver
    analysis: AnalysisOptions
    output: OutputOptions
    suite: list[Panel] = field(default_factory=list)
    config_hash: str = ""

    def gamma_for_analysis(self) -> float:
        if self.analysis.gamma_auto or self.analysis.deterministic_gamma is None:
            return gamma_of(self.config.channel)
        return self.analysis.deterministic_gamma

    def mu_for_analysis(self) -> float:
        if self.analysis.mu is not None:
            return self.analysis.mu
        if self.analysis.gamma_auto or self.analysis.deterministic_gamma is None:
            return gamma_of(self.config.second_params())
        return self.analysis.deterministic_gamma


def _parse_segments(text: str) -> tuple[tuple[float, float], ...]:
    segs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ScenarioError(f"segment {chunk!r} must look like 'start:accel'")
        t, a = chunk.split(":", 1)
        try:
            segs.append((float(t), float(a)))
        except ValueError as exc:
            raise ScenarioError(f"non-numeric segment {chunk!r}") from exc
    if not segs:
        raise ScenarioError("maneuver needs at least one segment")
    return tuple(segs)


def _parse_panels(text: str) -> list[Panel]:
    panels = []
    for i, chunk in enumerate(text.split(",")):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            mode, hw = chunk.split(":", 1)
            mode = mode.strip().lower()
            hw_f = float(hw)
        except ValueError as exc:
            raise ScenarioError(f"panel {chunk!r} must look like 'ideal:0.45'") from exc
        if mode not in ("ideal", "lossy"):
            raise ScenarioError(f"panel mode {mode!r} must be 'ideal' or 'lossy'")
        panels.append(Panel(label=f"panel{i + 1}-{mode}-h{hw_f:g}", mode=mode, headway=hw_f))
    return panels


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None):
    if cp.has_option(section, key):
        raw = cp.get(section, key).strip()
        if raw != "":
            return raw
    return default


def _getfloat(cp, section, key, default=None):
    raw = _get(cp, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _getint(cp, section, key, default=None):
    raw = _get(cp, section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _getbool(cp, section, key, default=False):
    raw = _get(cp, section, key)
    if raw is None:
        return default
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ScenarioError(f"[{section}] {key} = {raw!r} is not a boolean")


def _channel(p_gb, q_bg, r_recv_bad, suffix: str) -> GilbertParams:
    """Gilbert parameters of one link type, validated for simulation."""
    try:
        params = GilbertParams(p_gb, q_bg, r_recv_bad)
    except ValueError as exc:
        raise ScenarioError(f"[channel] {exc}") from exc
    if p_gb + q_bg == 0.0:
        raise ScenarioError(f"[channel] p_gb{suffix} + q_bg{suffix} must be positive: "
                            "a chain with no transitions has no reception rate")
    return params


def _load_map(cp, key: str, default, digests: list) -> maps_mod.PedalMap:
    """Pedal map from the CSV file named by ``key``, else the synthetic one."""
    path = _get(cp, "platoon", key)
    if path is None:
        return default()
    try:
        data = Path(path).read_bytes()
        pmap = maps_mod.PedalMap.from_csv_text(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError, maps_mod.MapFormatError) as exc:
        raise ScenarioError(f"cannot load pedal map: {exc}") from exc
    digests.append(f"file.{key}={hashlib.sha256(data).hexdigest()}")
    return pmap


def preset_text(name: str) -> str:
    base = name[:-4] if name.endswith(".ini") else name
    if base not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; bundled presets: {', '.join(PRESETS)}")
    return resources.files("platoon_lab").joinpath(f"presets/{base}.ini").read_text()


def load_scenario(source: str, master_seed: int | None = None) -> Scenario:
    """Load from a file path, or from a bundled preset when the name matches."""
    path = Path(source)
    if path.exists():
        text = path.read_text(encoding="utf-8")
        name = path.stem
    else:
        text = preset_text(source)
        name = source[:-4] if source.endswith(".ini") else source
    return parse_scenario_text(text, name=name, master_seed=master_seed)


def parse_scenario_text(text: str, name: str = "scenario",
                        master_seed: int | None = None) -> Scenario:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc

    for section in cp.sections():
        if section not in _ALLOWED:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _ALLOWED[section]:
                raise ScenarioError(f"unknown key {key!r} in [{section}]")
    for required in ("platoon", "maneuver", "analysis"):
        if not cp.has_section(required):
            raise ScenarioError(f"missing required section [{required}]")

    # --- platoon ---
    scheme_raw = _get(cp, "platoon", "scheme", "cacc")
    try:
        scheme = Scheme(scheme_raw.lower())
    except ValueError as exc:
        raise ScenarioError(f"unknown scheme {scheme_raw!r}") from exc
    model = _get(cp, "platoon", "model", "point_mass").lower()
    throttle = brake = None
    map_digests = []  # the map files' contents enter the config hash
    if model == "empirical":
        throttle = _load_map(cp, "throttle_map", maps_mod.synthetic_throttle_map, map_digests)
        brake = _load_map(cp, "brake_map", maps_mod.synthetic_brake_map, map_digests)
    u_lo = _getfloat(cp, "platoon", "u_clamp_min")
    u_hi = _getfloat(cp, "platoon", "u_clamp_max")
    if (u_lo is None) != (u_hi is None):
        raise ScenarioError("u_clamp_min and u_clamp_max must be given together")

    # --- channel ---
    if cp.has_section("channel"):
        channel = _channel(_getfloat(cp, "channel", "p_gb", 0.0),
                           _getfloat(cp, "channel", "q_bg", 1.0),
                           _getfloat(cp, "channel", "r_recv_bad", 1.0), "")
        p2 = _getfloat(cp, "channel", "p_gb_2")
        q2 = _getfloat(cp, "channel", "q_bg_2")
        r2 = _getfloat(cp, "channel", "r_recv_bad_2")
        second = None
        if any(v is not None for v in (p2, q2, r2)):
            if any(v is None for v in (p2, q2, r2)):
                raise ScenarioError("second-link channel needs all of p_gb_2, q_bg_2, r_recv_bad_2")
            second = _channel(p2, q2, r2, "_2")
        init_raw = _get(cp, "channel", "init_mode", "stationary").lower()
        if init_raw == "stationary":
            init_mode = None
        elif init_raw == "good":
            init_mode = ChannelMode.GOOD
        else:
            raise ScenarioError(f"init_mode {init_raw!r} must be 'stationary' or 'good'")
    else:
        channel, second, init_mode = GilbertParams(0.0, 1.0, 1.0), None, None

    # --- analysis ---
    dt = _getfloat(cp, "analysis", "dt", 0.01)
    horizon = _getfloat(cp, "analysis", "horizon", 40.0)
    det_raw = _get(cp, "analysis", "deterministic_gamma")
    gamma_auto = False
    det_gamma = None
    if det_raw is not None:
        if det_raw.lower() == "auto":
            gamma_auto = True
            det_gamma = gamma_of(channel)
        else:
            try:
                det_gamma = float(det_raw)
            except ValueError as exc:
                raise ScenarioError(f"deterministic_gamma {det_raw!r} must be a number or 'auto'") from exc
    analysis = AnalysisOptions(
        deterministic_gamma=det_gamma,
        gamma_auto=gamma_auto,
        mu=_getfloat(cp, "analysis", "mu"),
        n_realizations=_getint(cp, "analysis", "n_realizations", 100),
        stochastic_seeds=_getint(cp, "analysis", "stochastic_seeds", 0),
        alpha_star=_getfloat(cp, "analysis", "alpha_star", 0.0),
        w0_l2=_getfloat(cp, "analysis", "w0_l2", 9.0),
    )

    # --- maneuver ---
    v0 = _getfloat(cp, "maneuver", "initial_velocity")
    if v0 is None:
        raise ScenarioError("[maneuver] initial_velocity is required")
    seg_raw = _get(cp, "maneuver", "segments")
    if seg_raw is None:
        raise ScenarioError("[maneuver] segments is required")
    try:
        maneuver = Maneuver(segments=_parse_segments(seg_raw), initial_velocity=v0)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    # --- assemble the platoon config ---
    required = {"n_followers": _getint(cp, "platoon", "n_followers"),
                "tau": _getfloat(cp, "platoon", "tau"),
                "k_a": _getfloat(cp, "platoon", "k_a"),
                "k_v": _getfloat(cp, "platoon", "k_v"),
                "k_p": _getfloat(cp, "platoon", "k_p"),
                "headway": _getfloat(cp, "platoon", "headway")}
    missing = [k for k, v in required.items() if v is None]
    if missing:
        raise ScenarioError(f"[platoon] missing required keys: {', '.join(missing)}")
    try:
        config = PlatoonConfig(
            n_followers=required["n_followers"],
            tau=required["tau"],
            gains=Gains(required["k_a"], required["k_v"], required["k_p"]),
            policy=SpacingPolicy(h_w=required["headway"],
                                 d=_getfloat(cp, "platoon", "standstill", 5.0)),
            scheme=scheme,
            grid=TimeGrid(dt=dt, horizon=horizon),
            channel=channel,
            channel_second=second,
            master_seed=master_seed if master_seed is not None else 0,
            deterministic_gamma=det_gamma,
            mu=analysis.mu,
            init_mode=init_mode,
            velocity_clamp=_getbool(cp, "platoon", "velocity_clamp", False),
            u_clamp=(u_lo, u_hi) if u_lo is not None else None,
            model=model,
            throttle_map=throttle,
            brake_map=brake,
            scenario_id=name,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    out = OutputOptions(prefix=_get(cp, "output", "prefix", name) if cp.has_section("output") else name,
                        csv=_getbool(cp, "output", "csv", True) if cp.has_section("output") else True,
                        svg=_getbool(cp, "output", "svg", True) if cp.has_section("output") else True)
    suite = _parse_panels(_get(cp, "suite", "panels", "")) if cp.has_section("suite") else []

    canonical = []
    for section in sorted(cp.sections()):
        for key in sorted(cp.options(section)):
            canonical.append(f"{section}.{key}={cp.get(section, key).strip()}")
    canonical += map_digests
    digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()[:16]

    return Scenario(name=name, config=config, maneuver=maneuver, analysis=analysis,
                    output=out, suite=suite, config_hash=digest)
