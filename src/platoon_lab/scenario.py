"""Scenario files: INI documents describing a platoon run or analysis.

Sections are [platoon], [channel], [maneuver], [analysis], [output] and the
optional [suite] used by the bundled paper presets to describe three-panel
communication scenarios.  The key table ``_KEYS`` lists every key with its
parser and default; unknown sections and keys are rejected, and an empty
value counts as absent; a [DEFAULT] section is refused like any other
unknown section.  Units are SI throughout (s, m, m/s, m/s^2).  A
scenario can be referenced by file path or by preset name (``paper-fig4``,
``paper-fig8``, ``paper-fig9``, ``paper-fig10``).
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import maps as maps_mod
from .channel import ChannelMode, GilbertParams, gamma_of
from .control import Gains, Scheme, SpacingPolicy
from .dynamics import Maneuver, TimeGrid
from .sim import PlatoonConfig


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


PRESETS = ("paper-fig4", "paper-fig8", "paper-fig9", "paper-fig10")


@dataclass(frozen=True)
class Panel:
    """One communication scenario of a suite: ideal or lossy link, one headway."""

    label: str
    mode: str       # "ideal" | "lossy"
    headway: float


@dataclass
class AnalysisOptions:
    n_realizations: int
    stochastic_seeds: int
    alpha_star: float
    w0_l2: float


@dataclass
class OutputOptions:
    prefix: str
    csv: bool
    svg: bool


@dataclass
class Scenario:
    name: str
    config: PlatoonConfig
    maneuver: Maneuver
    analysis: AnalysisOptions
    output: OutputOptions
    suite: list[Panel]
    config_hash: str
    analysis_rates: tuple[float, float]  # the (gamma, mu) headway and stability read


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _scheme(raw: str) -> Scheme:
    try:
        return Scheme(raw.lower())
    except ValueError as exc:
        raise ScenarioError(f"unknown scheme {raw!r}") from exc


def _init_mode(raw: str) -> ChannelMode | None:
    """None starts each link from its stationary law, 'good' in the good state."""
    low = raw.lower()
    if low not in ("stationary", "good"):
        raise ScenarioError(f"init_mode {low!r} must be 'stationary' or 'good'")
    return ChannelMode.GOOD if low == "good" else None


def _deterministic_gamma(raw: str) -> float | str:
    """A fixed reception rate, or 'auto' for each link type's own rate."""
    if raw.lower() == "auto":
        return "auto"
    try:
        return float(raw)
    except ValueError as exc:
        raise ScenarioError(f"deterministic_gamma {raw!r} must be a number or 'auto'") from exc


def _parse_segments(text: str) -> tuple[tuple[float, float], ...]:
    segs = []
    for chunk in filter(None, map(str.strip, text.split(","))):
        if ":" not in chunk:
            raise ScenarioError(f"segment {chunk!r} must look like 'start:accel'")
        t, a = chunk.split(":", 1)
        try:
            segs.append((float(t), float(a)))
        except ValueError as exc:
            raise ScenarioError(f"non-numeric segment {chunk!r}") from exc
    return tuple(segs)  # Maneuver refuses an empty list


def _parse_panels(text: str) -> list[Panel]:
    panels = []
    for i, chunk in enumerate(filter(None, map(str.strip, text.split(","))), start=1):
        try:
            mode, hw = chunk.split(":", 1)
            mode = mode.strip().lower()
            hw_f = float(hw)
        except ValueError as exc:
            raise ScenarioError(f"panel {chunk!r} must look like 'ideal:0.45'") from exc
        if mode not in ("ideal", "lossy"):
            raise ScenarioError(f"panel mode {mode!r} must be 'ideal' or 'lossy'")
        if not 0.0 < hw_f < math.inf:  # NaN fails too
            raise ScenarioError(f"panel headway {hw_f} must be positive and finite")
        panels.append(Panel(label=f"panel{i}-{mode}-h{hw_f:g}", mode=mode, headway=hw_f))
    return panels


_REQUIRED = object()  # the default of a key that must be given

# section -> key -> (parser, default): every key a scenario may set.  A
# parser either raises ValueError (the reader names the key and its kind from
# _KIND) or raises ScenarioError with its own message.
_KEYS = {
    "platoon": {
        "n_followers": (int, _REQUIRED), "tau": (float, _REQUIRED),
        "k_a": (float, _REQUIRED), "k_v": (float, _REQUIRED), "k_p": (float, _REQUIRED),
        "headway": (float, _REQUIRED), "standstill": (float, 5.0),
        "scheme": (_scheme, Scheme.CACC), "model": (str.lower, "point_mass"),
        # CSV files of the empirical model; None: the synthetic maps
        "throttle_map": (str, None), "brake_map": (str, None),
        "velocity_clamp": (_boolean, False),
        # the map engine's command clamp, both or neither
        "u_clamp_min": (float, None), "u_clamp_max": (float, None),
    },
    "channel": {
        "p_gb": (float, 0.0), "q_bg": (float, 1.0), "r_recv_bad": (float, 1.0),
        # the (i, i-2) links' own parameters, all three or none
        "p_gb_2": (float, None), "q_bg_2": (float, None), "r_recv_bad_2": (float, None),
        "init_mode": (_init_mode, None),
    },
    "maneuver": {"initial_velocity": (float, _REQUIRED), "segments": (_parse_segments, _REQUIRED)},
    "analysis": {
        "dt": (float, 0.01), "horizon": (float, 40.0),
        "deterministic_gamma": (_deterministic_gamma, None), "mu": (float, None),
        "n_realizations": (int, 100), "stochastic_seeds": (int, 0),
        "alpha_star": (float, 0.0), "w0_l2": (float, 9.0),
    },
    # prefix None: the scenario's name
    "output": {"prefix": (str, None), "csv": (_boolean, True), "svg": (_boolean, True)},
    "suite": {"panels": (_parse_panels, ())},
}
_KIND = {float: "a number", int: "an integer", _boolean: "a boolean"}
_REQUIRED_SECTIONS = ("platoon", "maneuver", "analysis")


def _read(text: str) -> dict[str, dict[str, str]]:
    """The document's stripped values, section -> key -> text, all in ``_KEYS``."""
    # no header names the default section "", so a [DEFAULT] section is read
    # as a section of its own and refused, not merged into every section
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="")
    try:
        cp.read_string(text)
        raw = {s: {k: cp.get(s, k).strip() for k in cp.options(s)} for s in cp.sections()}
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc
    for section, keys in raw.items():
        if section not in _KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in keys:
            if key not in _KEYS[section]:
                raise ScenarioError(f"unknown key {key!r} in [{section}]")
    for required in _REQUIRED_SECTIONS:
        if required not in raw:
            raise ScenarioError(f"missing required section [{required}]")
    return raw


def _value(section: str, key: str, text: str, parse, default):
    """One key's value: its default when absent or empty, else ``parse(text)``."""
    if not text:
        return default
    try:
        return parse(text)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key} = {text!r} is not {_KIND[parse]}") from exc


def _values(raw: dict[str, dict[str, str]]) -> dict[str, dict]:
    """Every key of ``_KEYS`` by section; names every required key not given."""
    values = {section: {key: _value(section, key, raw.get(section, {}).get(key, ""), *spec)
                        for key, spec in keys.items()}
              for section, keys in _KEYS.items()}
    missing = []
    for section, keys in values.items():
        absent = [key for key, value in keys.items() if value is _REQUIRED]
        if absent:
            missing.append(f"[{section}] missing required keys: {', '.join(absent)}")
    if missing:
        raise ScenarioError("; ".join(missing))
    return values


def _together(values: dict, keys: tuple[str, ...], message: str) -> tuple | None:
    """The values of ``keys`` if all are given, None if none is."""
    given = tuple(values[key] for key in keys)
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ScenarioError(message)
    return given


def _channel(params: tuple, suffix: str) -> GilbertParams:
    """Gilbert parameters of one link type; errors name the link's own keys."""
    try:
        return GilbertParams(*params)
    except ValueError as exc:
        message = re.sub(r"\b(p_gb|q_bg|r_recv_bad)\b", rf"\1{suffix}", str(exc))
        raise ScenarioError(f"[channel] {message}") from exc


def _load_map(platoon: dict, key: str, default, digests: list,
              directory: Path | None) -> maps_mod.PedalMap:
    """Pedal map from the CSV file named by ``key``, a relative name taken
    from ``directory`` (None: the working directory), else the synthetic one."""
    if platoon[key] is None:
        return default()
    try:
        data = Path(directory or "", platoon[key]).read_bytes()
        pmap = maps_mod.PedalMap.from_csv_text(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError, maps_mod.MapFormatError) as exc:
        raise ScenarioError(f"cannot load pedal map: {exc}") from exc
    digests.append(f"file.{key}={hashlib.sha256(data).hexdigest()}")
    return pmap


def preset_text(name: str) -> str:
    base = name.removesuffix(".ini")
    if base not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; bundled presets: {', '.join(PRESETS)}")
    return resources.files("platoon_lab").joinpath(f"presets/{base}.ini").read_text()


def load_scenario(source: str, master_seed: int | None = None) -> Scenario:
    """Load from a file path, or from a bundled preset when the name matches."""
    path = Path(source)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario {source!r}: {exc}") from exc
        name, directory = path.stem, path.parent
    else:
        text = preset_text(source)
        name, directory = source.removesuffix(".ini"), None
    return parse_scenario_text(text, name=name, master_seed=master_seed, directory=directory)


def parse_scenario_text(text: str, name: str = "scenario", master_seed: int | None = None,
                        directory: Path | None = None) -> Scenario:
    """A scenario from INI ``text``; relative pedal-map file names are taken
    from ``directory``, the scenario file's own (None: the working directory)."""
    raw = _read(text)
    values = _values(raw)
    plat, chan, ana = values["platoon"], values["channel"], values["analysis"]

    throttle = brake = None
    map_digests = []  # the map files' contents enter the config hash
    if plat["model"] == "empirical":
        throttle = _load_map(plat, "throttle_map", maps_mod.synthetic_throttle_map,
                             map_digests, directory)
        brake = _load_map(plat, "brake_map", maps_mod.synthetic_brake_map, map_digests,
                          directory)
    elif plat["throttle_map"] is not None or plat["brake_map"] is not None:
        raise ScenarioError("throttle_map / brake_map need the empirical (pedal-map) model")
    u_clamp = _together(plat, ("u_clamp_min", "u_clamp_max"),
                        "u_clamp_min and u_clamp_max must be given together")

    channel = _channel((chan["p_gb"], chan["q_bg"], chan["r_recv_bad"]), "")
    second = _together(chan, ("p_gb_2", "q_bg_2", "r_recv_bad_2"),
                       "second-link channel needs all of p_gb_2, q_bg_2, r_recv_bad_2")
    if second is not None:
        second = _channel(second, "_2")

    # the one reading of the rates.  deterministic_gamma fixes both link
    # weights of the run: 'auto' takes each link type's reception rate, a
    # number serves as mu too unless mu is set.  Without it the run samples
    # its channels, and the analyses take the link rates, with mu where set.
    det, mu = ana["deterministic_gamma"], ana["mu"]
    for key in ("deterministic_gamma", "mu"):
        if isinstance(ana[key], float) and not 0.0 <= ana[key] <= 1.0:  # NaN fails too
            raise ScenarioError(f"[analysis] {key} = {ana[key]} must lie in [0, 1]")
    gamma, mu_default = ((gamma_of(channel), gamma_of(second or channel))
                         if det in (None, "auto") else (det, det))
    analysis_rates = (gamma, mu_default if mu is None else mu)
    lows = {"n_realizations": 1, "stochastic_seeds": 0, "alpha_star": 0.0, "w0_l2": 0.0}
    for key, low in lows.items():
        if not low <= ana[key] < math.inf:  # NaN fails too
            raise ScenarioError(f"[analysis] {key} = {ana[key]} must be finite "
                                f"and at least {low}")
    analysis = AnalysisOptions(**{key: ana[key] for key in lows})

    try:
        maneuver = Maneuver(**values["maneuver"])
        config = PlatoonConfig(
            n_followers=plat["n_followers"],
            tau=plat["tau"],
            gains=Gains(plat["k_a"], plat["k_v"], plat["k_p"]),
            policy=SpacingPolicy(h_w=plat["headway"], d=plat["standstill"]),
            scheme=plat["scheme"],
            grid=TimeGrid(dt=ana["dt"], horizon=ana["horizon"]),
            channel=channel,
            channel_second=second,
            master_seed=master_seed if master_seed is not None else 0,
            rates=None if det is None else analysis_rates,
            init_mode=chan["init_mode"],
            velocity_clamp=plat["velocity_clamp"],
            u_clamp=u_clamp,
            model=plat["model"],
            throttle_map=throttle,
            brake_map=brake,
        )
        # a suite runs the config at each panel's headway: check the law there too
        for panel in values["suite"]["panels"]:
            replace(config, policy=replace(config.policy, h_w=panel.headway))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    out = values["output"]
    if out["prefix"] and ("/" in out["prefix"] or os.sep in out["prefix"]):
        raise ScenarioError(f"[output] prefix = {out['prefix']!r} must be a name, not a path")
    out = OutputOptions(prefix=out["prefix"] or name, csv=out["csv"], svg=out["svg"])

    canonical = [f"{section}.{key}={raw[section][key]}"
                 for section in sorted(raw) for key in sorted(raw[section])]
    canonical += map_digests
    digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()[:16]

    return Scenario(name=name, config=config, maneuver=maneuver, analysis=analysis,
                    output=out, suite=list(values["suite"]["panels"]), config_hash=digest,
                    analysis_rates=analysis_rates)
