"""Scenario parsing, driven by the key table ``scenario._KEYS``.

Every key the table declares is checked for its default (absent, empty and
written out), its conversion error and, where it has none, its required-key
message.  A key added to the table without a written-out default here fails
``test_written_default_covers_the_table``.
"""

import re
from dataclasses import replace

import pytest

from platoon_lab.channel import ChannelMode, GilbertParams, gamma_of
from platoon_lab.scenario import (_KEYS, _KIND, _REQUIRED, ScenarioError,
                                  parse_scenario_text)

MINIMAL = {
    "platoon": {"n_followers": "3", "tau": "0.4", "k_a": "0.2", "k_v": "2.5",
                "k_p": "1.0", "headway": "0.6"},
    "maneuver": {"initial_velocity": "25.0", "segments": "0:0, 5:-9, 6:0"},
    "analysis": {},
}

# the INI text of every default that has one
WRITTEN_DEFAULT = {
    ("platoon", "standstill"): "5.0", ("platoon", "scheme"): "cacc",
    ("platoon", "model"): "point_mass", ("platoon", "velocity_clamp"): "false",
    ("channel", "p_gb"): "0.0", ("channel", "q_bg"): "1.0", ("channel", "r_recv_bad"): "1.0",
    ("channel", "init_mode"): "stationary",
    ("analysis", "dt"): "0.01", ("analysis", "horizon"): "40.0",
    ("analysis", "n_realizations"): "100", ("analysis", "stochastic_seeds"): "0",
    ("analysis", "alpha_star"): "0.0", ("analysis", "w0_l2"): "9.0",
    ("output", "csv"): "true", ("output", "svg"): "true",
}

OPTIONAL = [(s, k) for s, keys in _KEYS.items() for k, (_, d) in keys.items() if d is not _REQUIRED]
REQUIRED = [(s, k) for s, keys in _KEYS.items() for k, (_, d) in keys.items() if d is _REQUIRED]
TYPED = [(s, k, parse) for s, keys in _KEYS.items() for k, (parse, _) in keys.items()
         if parse in _KIND]


def render(sections: dict) -> str:
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for name, keys in sections.items())


def with_keys(updates: dict, base=MINIMAL) -> str:
    """``base`` with each (section, key) set to its value, or removed for None."""
    sections = {name: dict(keys) for name, keys in base.items()}
    for (section, key), value in updates.items():
        keys = sections.setdefault(section, {})
        if value is None:
            keys.pop(key, None)
        else:
            keys[key] = value
    return render(sections)


def load(text: str):
    return parse_scenario_text(text, name="scen")


def same_scenario(a, b) -> bool:
    # the config hash covers the INI text, so it differs by design
    return repr(replace(a, config_hash="")) == repr(replace(b, config_hash=""))


def test_written_default_covers_the_table():
    # every default but an absent value (None, no panels) has a written form;
    # the stationary start (init_mode None) has one too
    with_value = {(s, k) for s, k in OPTIONAL if _KEYS[s][k][1] not in (None, ())}
    assert with_value <= set(WRITTEN_DEFAULT) <= set(OPTIONAL)


@pytest.mark.parametrize("section,key", OPTIONAL)
def test_absent_or_empty_optional_key_gives_its_default(section, key):
    absent = load(with_keys({}))
    assert same_scenario(load(with_keys({(section, key): ""})), absent)
    written = WRITTEN_DEFAULT.get((section, key))
    if written is not None:
        assert same_scenario(load(with_keys({(section, key): written})), absent)


def test_defaults_without_a_written_form():
    scen = load(with_keys({}))
    assert scen.output.prefix == "scen"
    assert scen.suite == []
    cfg = scen.config
    assert cfg.u_clamp is None and cfg.channel_second is None
    assert cfg.rates is None and scen.analysis_rates == (1.0, 1.0)
    assert cfg.throttle_map is None and cfg.brake_map is None


@pytest.mark.parametrize("section,key,parse", TYPED)
def test_bad_typed_value_names_the_key(section, key, parse):
    bad = {float: "junk", int: "1.5"}.get(parse, "maybe")
    with pytest.raises(ScenarioError,
                       match=re.escape(f"[{section}] {key} = '{bad}' is not {_KIND[parse]}")):
        load(with_keys({(section, key): bad}))


@pytest.mark.parametrize("section,key,message", [
    ("platoon", "scheme", "unknown scheme 'junk'"),
    ("platoon", "model", "unknown model 'junk'"),
    ("channel", "init_mode", "init_mode 'junk' must be 'stationary' or 'good'"),
    ("analysis", "deterministic_gamma", "deterministic_gamma 'junk' must be a number or 'auto'"),
    ("maneuver", "segments", "segment 'junk' must look like 'start:accel'"),
    ("suite", "panels", "panel 'junk' must look like 'ideal:0.45'"),
])
def test_bad_keyword_value_names_the_key(section, key, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load(with_keys({(section, key): "junk"}))


@pytest.mark.parametrize("section,key", REQUIRED)
@pytest.mark.parametrize("value", [None, ""])
def test_each_missing_required_key_is_named(section, key, value):
    with pytest.raises(ScenarioError,
                       match=re.escape(f"[{section}] missing required keys: {key}") + "$"):
        load(with_keys({(section, key): value}))


def test_every_missing_required_key_is_named_at_once():
    text = render({"platoon": {}, "maneuver": {}, "analysis": {}})
    with pytest.raises(ScenarioError) as err:
        load(text)
    assert str(err.value) == (
        "[platoon] missing required keys: n_followers, tau, k_a, k_v, k_p, headway; "
        "[maneuver] missing required keys: initial_velocity, segments")


@pytest.mark.parametrize("section", ["platoon", "maneuver", "analysis"])
def test_missing_required_section(section):
    text = render({k: v for k, v in MINIMAL.items() if k != section})
    with pytest.raises(ScenarioError, match=re.escape(f"missing required section [{section}]")):
        load(text)


@pytest.mark.parametrize("extra", [{}, {("analysis", "deterministic_gamma"): "auto"}])
def test_file_without_channel_equals_defaults_written_out(extra):
    written = {key: text for key, text in WRITTEN_DEFAULT.items() if key[0] == "channel"}
    without = load(with_keys(extra))
    assert same_scenario(without, load(with_keys({**extra, **written})))
    assert without.config.channel == GilbertParams(0.0, 1.0, 1.0)
    assert without.config.channel_second is None and without.config.init_mode is None


def test_u_clamp_pair_given_whole():
    empirical = {("platoon", "model"): "empirical"}
    for key in ("u_clamp_min", "u_clamp_max"):
        with pytest.raises(ScenarioError, match="must be given together"):
            load(with_keys({**empirical, ("platoon", key): "-2"}))
    scen = load(with_keys({**empirical, ("platoon", "u_clamp_min"): "-2",
                           ("platoon", "u_clamp_max"): "1"}))
    assert scen.config.u_clamp == (-2.0, 1.0)


@pytest.mark.parametrize("given", [("p_gb_2",), ("q_bg_2",), ("r_recv_bad_2",),
                                   ("p_gb_2", "q_bg_2"), ("q_bg_2", "r_recv_bad_2")])
def test_second_link_triple_given_whole(given):
    values = {"p_gb_2": "0.5", "q_bg_2": "0.1", "r_recv_bad_2": "0.0"}
    with pytest.raises(ScenarioError, match="second-link channel needs all of"):
        load(with_keys({("channel", key): values[key] for key in given}))
    scen = load(with_keys({("channel", key): value for key, value in values.items()}))
    assert scen.config.channel_second == GilbertParams(0.5, 0.1, 0.0)


def test_second_link_errors_name_its_own_keys():
    with pytest.raises(ScenarioError, match=r"\[channel\] .*p_gb_2"):
        load(with_keys({("channel", "p_gb_2"): "1.5", ("channel", "q_bg_2"): "0.1",
                        ("channel", "r_recv_bad_2"): "0.0"}))


def test_deterministic_gamma_auto_number_or_refused():
    channel = {("channel", "p_gb"): "0.2", ("channel", "q_bg"): "0.1",
               ("channel", "r_recv_bad"): "0.2"}
    second = {("channel", "p_gb_2"): "0.5", ("channel", "q_bg_2"): "0.1",
              ("channel", "r_recv_bad_2"): "0"}
    gamma, mu = gamma_of(GilbertParams(0.2, 0.1, 0.2)), gamma_of(GilbertParams(0.5, 0.1, 0.0))

    def rates(keys):
        scen = load(with_keys(keys))
        return scen.config.rates, scen.analysis_rates

    for auto in ("auto", "AUTO"):
        assert rates({**channel, ("analysis", "deterministic_gamma"): auto}) == ((gamma,) * 2,) * 2
    assert rates({**channel, **second, ("analysis", "deterministic_gamma"): "auto"}) == (
        (gamma, mu), (gamma, mu))
    assert rates({("analysis", "deterministic_gamma"): "0.4"}) == ((0.4, 0.4),) * 2
    assert rates({("analysis", "deterministic_gamma"): "0.4",
                  ("analysis", "mu"): "0.3"}) == ((0.4, 0.3),) * 2
    # without deterministic_gamma the run samples its channels; mu reaches
    # the analyses only
    assert rates({**channel, **second}) == (None, (gamma, mu))
    assert rates({**channel, **second, ("analysis", "mu"): "0.3"}) == (None, (gamma, 0.3))
    with pytest.raises(ScenarioError, match="must be a number or 'auto'"):
        load(with_keys({("analysis", "deterministic_gamma"): "junk"}))


@pytest.mark.parametrize("token,value", [("1", True), ("yes", True), ("True", True),
                                         ("ON", True), ("0", False), ("no", False),
                                         ("false", False), ("Off", False)])
def test_boolean_tokens(token, value):
    scen = load(with_keys({("output", "csv"): token, ("platoon", "velocity_clamp"): token}))
    assert scen.output.csv is value and scen.config.velocity_clamp is value


def test_init_mode_good():
    assert load(with_keys({("channel", "init_mode"): "Good"})).config.init_mode is ChannelMode.GOOD


def test_bad_interpolation_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="cannot parse scenario"):
        load(with_keys({("output", "prefix"): "run%1"}))


@pytest.mark.parametrize("keys", [{"foo": "1"}, {"tau": "0.4"}, {}])
def test_default_section_is_refused_by_name(keys):
    # configparser would copy its keys into every section
    text = render({"DEFAULT": keys, **MINIMAL})
    with pytest.raises(ScenarioError, match=re.escape("unknown section [DEFAULT]")):
        load(text)


@pytest.mark.parametrize("key", ["throttle_map", "brake_map"])
def test_pedal_map_file_needs_the_map_model(key):
    with pytest.raises(ScenarioError, match=re.escape(f"throttle_map / brake_map need the "
                                                      "empirical (pedal-map) model")):
        load(with_keys({("platoon", key): "/no/such/map.csv"}))


@pytest.mark.parametrize("prefix", ["sub/run", "../escaped", "/abs"])
def test_output_prefix_is_a_file_name(prefix):
    # the prefix starts each output's name inside --out: a separator once
    # sent a run into a missing subdirectory (a traceback) or out of --out
    with pytest.raises(ScenarioError,
                       match=re.escape(f"[output] prefix = {prefix!r} must be a name, not a path")):
        load(with_keys({("output", "prefix"): prefix}))
    assert load(with_keys({("output", "prefix"): "run..1"})).output.prefix == "run..1"


@pytest.mark.parametrize("panels", ["ideal:0.45,,lossy:0.6", " ,ideal:0.45, lossy:0.6",
                                    "ideal:0.45, lossy:0.6,"])
def test_panels_are_numbered_among_panels(panels):
    # the labels name the suite's output files; an empty chunk once took a
    # number, giving panel1 and panel3, or panel2 for the first panel
    labels = [p.label for p in load(with_keys({("suite", "panels"): panels})).suite]
    assert labels == ["panel1-ideal-h0.45", "panel2-lossy-h0.6"]
