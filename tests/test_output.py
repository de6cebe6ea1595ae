"""Every artifact's bytes against scalar formatters written out here: the
SVG point formatter the plot writer replaced, and each CSV table formatted
one cell at a time (CRLF for simulate's two tables, LF for the others)."""

from dataclasses import replace
from xml.sax.saxutils import escape

import numpy as np
import pytest

from platoon_lab import cli, output
from platoon_lab.expectation import check_multilinearity, from_platoon
from platoon_lab.scenario import load_scenario
from platoon_lab.sim import SimOutput, monte_carlo, simulate


def scalar_svg(time, series, title) -> str:
    """The SVG text with every polyline point mapped and formatted one at a time."""
    width, height = 840, 480
    ml, mr, mt, mb = 64, 160, 40, 48
    pw, ph = width - ml - mr, height - mt - mb
    t0, t1 = float(time[0]), float(time[-1])
    ys = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(t):
        return ml + (t - t0) / (t1 - t0) * pw

    def sy(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="24" font-family="sans-serif" font-size="15">{escape(title)}</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
    ]
    if y0 < 0.0 < y1:
        parts.append(f'<line x1="{ml}" y1="{sy(0):.2f}" x2="{ml + pw}" y2="{sy(0):.2f}" '
                     f'stroke="#cccccc" stroke-dasharray="4 4"/>')
    palette = output._PALETTE
    for j, (label, vals) in enumerate(series.items()):
        stride = max(1, len(time) // 2000)
        pts = " ".join(f"{sx(float(t)):.2f},{sy(float(y)):.2f}"
                       for t, y in zip(time[::stride], np.asarray(vals)[::stride]))
        color = palette[j % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.4" points="{pts}"/>')
        ly = mt + 16 + 18 * j
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{escape(label)}</text>')
    for frac in (0.0, 0.5, 1.0):
        tv = t0 + frac * (t1 - t0)
        parts.append(f'<text x="{sx(tv):.1f}" y="{mt + ph + 18}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="middle">{tv:g}</text>')
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{ml - 8}" y="{sy(yv):.1f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{yv:.3g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 10}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle">time (s)</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2:.0f}" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {mt + ph / 2:.0f})" '
                 'text-anchor="middle">spacing error (m)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _walk(n, seed, scale=0.01):
    return np.cumsum(np.random.default_rng(seed).normal(size=n)) * scale


CASES = {
    # a 40 s panel at dt = 0.01: stride 2, six followers
    "panel": (np.arange(4001) * 0.01, {f"e{i}": _walk(4001, i) for i in range(1, 7)}),
    # short series, stride 1, values crossing zero
    "short": (np.linspace(0.0, 3.0, 301), {"e1": np.sin(np.linspace(0.0, 9.0, 301))}),
    # flat series take the +-1 range; -0.0 and 0.0 mix
    "flat": (np.linspace(0.0, 1.0, 11), {"e1": np.zeros(11), "e2": -np.zeros(11)}),
    # integer values, a stride that does not divide the length, more series
    # than palette colors
    "ints": (np.linspace(5.0, 17.5, 6007),
             {f"s{i}": np.arange(6007) % (i + 3) - i for i in range(12)}),
    # XML markup in the series names (and the title, in every case)
    "markup": (np.linspace(0.0, 1.0, 11), {"e<1> & e2": np.arange(11.0), "a>b": -np.ones(11)}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_svg_bytes_match_scalar_formatter(tmp_path, case):
    time, series = CASES[case]
    path = tmp_path / "plot.svg"
    output.write_svg(path, time, series, title="t & <u>")
    assert path.read_bytes() == scalar_svg(time, series, title="t & <u>").encode()


def scalar_table(header, rows, newline) -> bytes:
    """The table with each cell converted by ``repr`` of its float, one at a time."""
    lines = [",".join(header)] + [",".join(c if isinstance(c, str) else repr(float(c))
                                           for c in row) for row in rows]
    return "".join(line + newline for line in lines).encode()


def _sim_output(rng) -> SimOutput:
    n_veh, steps = 4, 37
    x, v, a = (rng.normal(scale=s, size=(n_veh, steps)) for s in (1e3, 30.0, 1e-3))
    x[0, :3] = (-0.0, 5e-324, 1e300)  # signed zero, subnormal, huge
    return SimOutput(time=np.arange(steps) * 0.01, x=x, v=v, a=a,
                     errors=rng.normal(size=(n_veh - 1, steps)), seed=0)


def test_timeseries_csv_bytes(tmp_path):
    out = _sim_output(np.random.default_rng(11))
    header, rows = ["t"], []
    for i in range(out.x.shape[0]):
        header += [f"x{i}", f"v{i}", f"a{i}"] + ([f"e{i}"] if i else [])
    for k, t in enumerate(out.time):
        row = [t]
        for i in range(out.x.shape[0]):
            row += [out.x[i, k], out.v[i, k], out.a[i, k]] + ([out.errors[i - 1, k]] if i else [])
        rows.append(row)
    path = tmp_path / "ts.csv"
    assert output.write_timeseries_csv(out, path) == str(path)
    assert path.read_bytes() == scalar_table(header, rows, "\r\n")


def test_peaks_csv_bytes(tmp_path):
    peaks = np.abs(_sim_output(np.random.default_rng(12)).errors).max(axis=1)
    path = tmp_path / "peaks.csv"
    output.write_peaks_csv(peaks, path)
    assert path.read_bytes() == scalar_table(
        ["vehicle", "peak_abs_error"], [(str(i), p) for i, p in enumerate(peaks, 1)], "\r\n")


SCENARIO = """
[platoon]
n_followers = 3
tau = 0.4
k_a = 0.2
k_v = 2.5
k_p = 1.0
headway = 0.6
scheme = cacc_plus

[channel]
p_gb = 0.2
q_bg = 0.1
r_recv_bad = 0.2

[maneuver]
initial_velocity = 25.0
segments = 0:0, 0.5:-3, 1.5:0

[analysis]
horizon = 3.0
n_realizations = 3

[output]
prefix = run
svg = false
"""


def _run(tmp_path, command):
    path = tmp_path / "run.ini"
    path.write_text(SCENARIO)
    assert cli.main(["run", command, "--scenario", str(path), "--out", str(tmp_path)]) == 0
    return load_scenario(str(path), master_seed=cli.DEFAULT_SEED)


def test_ensemble_csv_bytes(tmp_path):
    scen = _run(tmp_path, "montecarlo")
    cfg, n_f = scen.config, scen.config.n_followers
    stats = monte_carlo(cfg, scen.maneuver, scen.analysis.n_realizations)
    det = simulate(replace(cfg, rates=cfg.link_rates()), scen.maneuver)
    header = (["t"] + [f"mean_e{i}" for i in range(1, n_f + 1)]
              + [f"det_e{i}" for i in range(1, n_f + 1)])
    rows = [[t, *stats.mean_errors[:, k], *det.errors[:, k]] for k, t in enumerate(det.time)]
    assert (tmp_path / "run-ensemble.csv").read_bytes() == scalar_table(header, rows, "\n")


def test_oracle_csv_bytes(tmp_path):
    scen = _run(tmp_path, "oracle")
    checks = check_multilinearity(from_platoon(scen.config), range(1, 7))
    rows = [(str(k), str(int(holds)), gap) for k, (holds, gap) in enumerate(checks, 1)]
    assert (tmp_path / "run-oracle.csv").read_bytes() == scalar_table(
        ["k", "holds", "frobenius_gap"], rows, "\n")
