"""SVG output against the scalar point formatter it replaced."""

from xml.sax.saxutils import escape

import numpy as np
import pytest

from platoon_lab import output


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
