"""Result serialization: every artifact a command writes leaves through :func:`_write`.

Simulate's ``*-timeseries.csv`` and ``*-peaks.csv`` end their lines in CRLF;
``*-ensemble.csv``, ``*-oracle.csv``, every ``*.svg`` and every ``*report.json``
in LF.  Files are UTF-8 with no newline translation, so their bytes are the
same on every platform.  Table cells are written with ``repr``, so a CSV
parses back to bit-identical values.  The SVG plotter is hand-rolled.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .sim import SimOutput


def _write(path, parts) -> str:
    """Write the text ``parts`` to ``path``, one at a time and exactly as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(parts)
    return str(path)


def write_table(path, header, rows, newline) -> str:
    """CSV of the ``header`` names, then the ``rows`` (streamed sequences of ints
    and floats, each cell written with ``repr``); ``newline`` ends every line."""
    lines = (",".join(map(repr, row)) + newline for row in rows)
    return _write(path, itertools.chain((",".join(header) + newline,), lines))


def _jsonable(obj):
    """Coerce numpy scalars/arrays that leak into verdict dictionaries."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass
class RunReport:
    """What a CLI command concluded, what produced it (``provenance``:
    package, numpy and python versions, master seed) and where it put the
    artifacts."""

    command: str
    config_hash: str
    verdicts: dict
    provenance: dict
    artifacts: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=_jsonable)

    def write(self, path) -> str:
        self.artifacts.append(_write(path, (self.to_json(), "\n")))
        return self.artifacts[-1]


def write_timeseries_csv(out: SimOutput, path) -> str:
    """Columns: t, then x/v/a per vehicle with e appended for each follower."""
    header = ["t"]
    columns = [out.time]
    for i in range(out.x.shape[0]):
        header += [f"x{i}", f"v{i}", f"a{i}"]
        columns += [out.x[i], out.v[i], out.a[i]]
        if i >= 1:
            header.append(f"e{i}")
            columns.append(out.errors[i - 1])
    return write_table(path, header, map(np.ndarray.tolist, np.column_stack(columns)), "\r\n")


def write_peaks_csv(peaks: np.ndarray, path) -> str:
    """Per-follower peak |e_i| table."""
    return write_table(path, ["vehicle", "peak_abs_error"], enumerate(peaks.tolist(), 1), "\r\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def write_svg(path, time: np.ndarray, series: dict[str, np.ndarray], title: str) -> str:
    """Minimal line plot of spacing errors: one polyline per named series."""
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
        f'<text x="{ml}" y="24" font-family="sans-serif" font-size="15">'
        f'{title.translate(_XML_ESCAPES)}</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
    ]
    # zero line when it is inside the range
    if y0 < 0.0 < y1:
        parts.append(f'<line x1="{ml}" y1="{sy(0):.2f}" x2="{ml + pw}" y2="{sy(0):.2f}" '
                     f'stroke="#cccccc" stroke-dasharray="4 4"/>')
    # polyline coordinates as arrays, through the same sx/sy arithmetic; the
    # shared x's are formatted once, into a template each series fills with its y's
    stride = max(1, len(time) // 2000)
    xs = sx(np.asarray(time, dtype=float)[::stride]).tolist()
    points = " ".join(f"{x:.2f},%.2f" for x in xs)
    for j, (label, vals) in enumerate(series.items()):
        pts = points % tuple(sy(np.asarray(vals, dtype=float)[::stride]).tolist())
        color = _PALETTE[j % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.4" points="{pts}"/>')
        ly = mt + 16 + 18 * j
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label.translate(_XML_ESCAPES)}</text>')
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
    return _write(path, ("\n".join(parts), "\n"))
