r"""On-disk formats: trace CSV, per-epoch metrics CSV, meta sidecar, SVG.

Floats are rendered with repr, the shortest decimal form that parses back
to the identical bit pattern, so a written trace reads back exactly. Probe
columns are left empty when probing was disabled (and on rows a probe
stride skipped); a diverged run's final row may carry non-finite values.

The trace CSV dialect, as written and as accepted by the reader:

* the first line is the header ``epoch,step,...,cum_dot`` (TRACE_COLUMNS);
* every later line is one step with exactly twelve comma-separated,
  unquoted cells and no blank lines in between;
* epoch, step and global_step are decimal integers;
* the other nine cells are floats as ``repr`` writes them (``nan``,
  ``inf`` and ``-inf`` included); an empty cell reads as NaN, and the
  writer leaves a probe cell empty exactly when its value is NaN;
* rows end in ``\r\n`` as written; the reader also takes ``\n`` or ``\r``.

A trace read back has probes enabled when any probe cell holds a number
other than NaN; as the writer blanks NaN probe values, in a written trace
that is any probe cell that is not empty.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from .analysis import EspMetrics
from .trainer import PROBE_COLUMNS, TRACE_COLUMNS, TRACE_DTYPE, Trace

__all__ = [
    "write_trace_csv",
    "read_trace_csv",
    "write_epochs_csv",
    "write_meta_json",
    "render_line_chart_svg",
]

# rows rendered per write: about 0.3 MB of str objects, small enough that
# writing a trace does not raise a run's peak memory (1,024 rows did, by
# 0.7 MB on a B = 4 sweep point)
_WRITE_CHUNK_ROWS = 256


def _render_float(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace in the dialect above, byte for byte what csv.writer emits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, len(trace), _WRITE_CHUNK_ROWS):
            cells = []
            for name in TRACE_COLUMNS:
                col = getattr(trace, name)[start : start + _WRITE_CHUNK_ROWS]
                if TRACE_DTYPE[name].kind == "i":
                    cells.append(map(str, col.astype(np.int64, copy=False).tolist()))
                    continue
                text = list(map(repr, col.astype(np.float64, copy=False).tolist()))
                if name in PROBE_COLUMNS:
                    for i in np.flatnonzero(np.isnan(col)).tolist():
                        text[i] = ""
                cells.append(text)
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _filled_lines(fh):
    """Body lines with every empty cell spelled ``nan``."""
    for line in fh:
        if line == "\n":
            raise ValueError("blank line")
        # two passes, because the first leaves every other cell of ",,,"
        line = line.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
        yield line + "nan" if line.endswith(",") else line


def read_trace_csv(path) -> Trace:
    """Read a trace written by write_trace_csv; malformed input raises ValueError."""
    table = np.empty(0, dtype=TRACE_DTYPE)
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split(",")) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}: {header!r}")
        lines = _filled_lines(fh)
        try:
            first = next(lines, None)
            if first is not None:
                table = np.loadtxt(
                    itertools.chain((first,), lines), delimiter=",",
                    dtype=TRACE_DTYPE, comments=None, ndmin=1,
                )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    columns = {name: np.ascontiguousarray(table[name]) for name in TRACE_COLUMNS}
    probes = any(not np.isnan(columns[name]).all() for name in PROBE_COLUMNS)
    return Trace(columns, probes_enabled=probes)


def write_epochs_csv(metrics: list[EspMetrics], path) -> None:
    """One row per epoch: the EspMetrics fields in declaration order.

    Floats are rendered with repr and everything else with str, byte for
    byte what csv.writer emits for these rows.
    """
    hints = get_type_hints(EspMetrics)
    render = {
        f.name: _render_float if hints[f.name] is float else str for f in fields(EspMetrics)
    }
    with open(path, "w", newline="") as fh:
        fh.write(",".join(render) + "\r\n")
        for m in metrics:
            fh.write(",".join(fmt(getattr(m, name)) for name, fmt in render.items()) + "\r\n")


def _plain(value):
    if is_dataclass(value) and not isinstance(value, type):
        return _plain(asdict(value))
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def write_meta_json(meta: dict, path) -> None:
    """Stable sidecar: keys sorted, no volatile fields, trailing newline."""
    with open(path, "w") as fh:
        json.dump(_plain(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_line_chart_svg(
    path,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 880,
    height: int = 480,
) -> None:
    """Self-contained polyline chart; no external assets or scripts."""
    margin_l, margin_r, margin_t, margin_b = 64, 16, 34, 44
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs, ys = [], []
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        x, y = x[keep], y[keep]
        cleaned.append((label, x, y))
        if len(x):
            xs.append(x)
            ys.append(y)
    if xs:
        x_min = min(float(np.min(x)) for x in xs)
        x_max = max(float(np.max(x)) for x in xs)
        y_min = min(float(np.min(y)) for y in ys)
        y_max = max(float(np.max(y)) for y in ys)
    else:
        x_min, x_max, y_min, y_max = 0.0, 1.0, 0.0, 1.0
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(x: float) -> float:
        return margin_l + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return margin_t + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    parts.append(
        f'<text x="{margin_l:.1f}" y="{margin_t + plot_h + 16:.1f}" '
        f'text-anchor="middle">{x_min:g}</text>'
    )
    parts.append(
        f'<text x="{margin_l + plot_w:.1f}" y="{margin_t + plot_h + 16:.1f}" '
        f'text-anchor="middle">{x_max:g}</text>'
    )
    parts.append(
        f'<text x="{margin_l - 6:.1f}" y="{margin_t + plot_h:.1f}" '
        f'text-anchor="end">{y_min:.4g}</text>'
    )
    parts.append(
        f'<text x="{margin_l - 6:.1f}" y="{margin_t + 10:.1f}" '
        f'text-anchor="end">{y_max:.4g}</text>'
    )
    if x_label:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 8}" '
            f'text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {margin_t + plot_h / 2:.1f})">{y_label}</text>'
        )
    for k, (label, x, y) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        if len(x):
            pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            )
        if label:
            ly = margin_t + 14 + 16 * k
            lx = margin_l + plot_w - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
