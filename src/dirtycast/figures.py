"""Deterministic figure sweeps and their CSV/SVG serialization.

fig2: two-user binary rates vs interference strength q.
fig4: three-user binary bounds vs q.
fig5: Gaussian bounds vs INR at SNR = 33 dB.
fig6: Gaussian bounds vs SNR at INR = 15 dB.

CSV is the canonical artifact: one header line, comma-separated, every
number rendered with 9 significant digits, no locale dependence.  The SVG
writer is self-contained (plain polylines) so plotting needs no external
dependency.
"""

from __future__ import annotations

import numpy as np

from . import binary, gaussian
from .core import db_to_linear

__all__ = ["FIGURES", "figure_table", "format_number", "render_csv", "write_csv", "write_svg"]


_NUMBER = ".9g"  # every CSV number: 9 significant digits


def format_number(x: float) -> str:
    return format(float(x), _NUMBER)


def _binary_two_user(qs):
    """The two-user binary columns at a list of q, one call per column."""
    spec = binary.BinaryChannelSpec.iid(np.array(qs))
    return {
        "capacity": binary.capacity_two_user(spec).tolist(),
        "timeshare": [binary.rate_timeshare(2)] * len(qs),
        "ignore_si": binary.rate_ignore_side_info(spec).tolist(),
    }


def _binary_three_user(qs):
    """The three-user binary columns at a list of q, one call per column."""
    spec = binary.BinaryChannelSpec.iid(np.array(qs), k=3)
    return {
        "upper_k3": binary.upper_bound_k(spec).tolist(),
        "lower_k3": binary.lower_bound_k(spec).tolist(),
        "timeshare": [binary.rate_timeshare(3)] * len(qs),
        "ignore_si": binary.rate_ignore_side_info(spec).tolist(),
    }


def _gaussian(p, q):
    """The Gaussian columns at arrays of P and Q, one call per column."""
    return {
        "upper_i": gaussian.upper_i(p, q).tolist(),
        "upper_ii": gaussian.upper_ii(p, q).tolist(),
        "lower": gaussian.lower_bound(p, q).tolist(),
        "timeshare": gaussian.rate_timeshare(p).tolist(),
        "interference_as_noise": gaussian.rate_interference_as_noise(p, q).tolist(),
    }


def _db_column(xs):
    return np.array([db_to_linear(x) for x in xs])


_FIG5_SNR = db_to_linear(33.0)
_FIG6_INR = db_to_linear(15.0)

# name: (x column, x values, {column: rates at the x values})
_SWEEPS = {
    "fig2": ("q", [i * 0.005 for i in range(101)], _binary_two_user),
    "fig4": ("q", [i * 0.005 for i in range(101)], _binary_three_user),
    "fig5": (
        "inr_db",
        [-10.0 + 60.0 * i / 120 for i in range(121)],
        lambda xs: _gaussian(np.full(len(xs), _FIG5_SNR), _db_column(xs)),
    ),
    "fig6": (
        "snr_db",
        [50.0 * i / 120 for i in range(121)],
        lambda xs: _gaussian(_db_column(xs), np.full(len(xs), _FIG6_INR)),
    ),
}
FIGURES = tuple(_SWEEPS)


def figure_table(name: str):
    """(header, rows) for one of the four figures."""
    if name not in _SWEEPS:
        raise ValueError(f"unknown figure {name!r}; choose from {FIGURES}")
    x_name, xs, columns_at = _SWEEPS[name]
    columns = columns_at(xs)
    return [x_name, *columns], [list(row) for row in zip(xs, *columns.values())]


def render_csv(header, rows) -> str:
    """The CSV text: the header line, then each row formatted as format_number
    formats each cell, by one % operation of a format string for the table."""
    row_format = ",".join(["%" + _NUMBER] * len(header))
    return "\n".join([",".join(header), *(row_format % tuple(row) for row in rows)]) + "\n"


def write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_csv(header, rows))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def write_svg(path, header, rows, title: str | None = None):
    """Minimal polyline plot of every column against the first one."""
    import math

    width, height = 720, 480
    ml, mr, mt, mb = 64, 16, 28, 44
    xs = [float(r[0]) for r in rows]
    series = list(zip(*[[float(v) for v in r[1:]] for r in rows]))
    ys = [v for s in series for v in s if math.isfinite(v)]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" height="{height-mt-mb}" '
        'fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width/2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )
    for k in range(5):
        gx = x0 + k * (x1 - x0) / 4
        gy = y0 + k * (y1 - y0) / 4
        parts.append(
            f'<line x1="{px(gx):.1f}" y1="{height-mb}" x2="{px(gx):.1f}" '
            f'y2="{height-mb+4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px(gx):.1f}" y="{height-mb+16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{gx:.3g}</text>'
        )
        parts.append(
            f'<line x1="{ml-4}" y1="{py(gy):.1f}" x2="{ml}" y2="{py(gy):.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{ml-8}" y="{py(gy)+4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{gy:.3g}</text>'
        )
    parts.append(
        f'<text x="{width/2:.1f}" y="{height-8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{header[0]}</text>'
    )
    for idx, (name, values) in enumerate(zip(header[1:], series)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{px(x):.2f},{py(v):.2f}" for x, v in zip(xs, values) if math.isfinite(v)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width-mr-6}" y="{mt+16+14*idx}" text-anchor="end" fill="{color}" '
            f'font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
