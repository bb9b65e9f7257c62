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

Both reads check every body line's cell count and reject a blank line,
naming its file line. A read of one epoch (``read_trace_csv(path,
epoch=e)``) parses only the rows whose epoch cell is ``e`` and returns them
bit for bit as the full read would. It still checks every other row's
integer epoch cell, but leaves the other cells of those rows unparsed; its
``probes_enabled`` describes the rows read.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, fields

import numpy as np

from .analysis import EspMetrics
from .trainer import PROBE_COLUMNS, TRACE_COLUMNS, TRACE_DTYPE, Trace

__all__ = [
    "write_columns",
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


def write_columns(path, columns: dict, blank_nan=()) -> None:
    r"""Write equal-length columns under a header of their names.

    Every cell is the repr of its Python value, so an int reads 3 and a
    float 3.0; a NaN cell is left empty in the columns named in blank_nan.
    Lines end in \r\n, byte for byte what csv.writer emits for these cells.
    """
    arrays = {name: np.asarray(col) for name, col in columns.items()}
    # csv.writer quotes the cell of a one-column row that is empty
    empty = '""' if len(arrays) == 1 else ""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(arrays) + "\r\n")
        for start in range(0, len(next(iter(arrays.values()), ())), _WRITE_CHUNK_ROWS):
            cells = []
            for name, col in arrays.items():
                col = col[start : start + _WRITE_CHUNK_ROWS]
                text = list(map(repr, col.tolist()))
                if name in blank_nan:
                    for i in np.flatnonzero(np.isnan(col)).tolist():
                        text[i] = empty
                cells.append(text)
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace in the dialect above, byte for byte what csv.writer emits."""
    columns = {name: getattr(trace, name) for name in TRACE_COLUMNS}
    write_columns(path, columns, blank_nan=PROBE_COLUMNS)


def _int64_cell(cell: str) -> int:
    """An integer cell's value by np.loadtxt's int64 rule; anything else raises ValueError."""
    # str.strip drops exactly the whitespace loadtxt skips; int() alone would
    # also take underscores and non-ASCII digits, and reject "\x1c2"
    body = cell.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    value = int(body) if digits.isascii() and digits.isdigit() else None
    if value is None or not -(2**63) <= value < 2**63:
        raise ValueError(f"epoch cell {cell!r} is not an integer")
    return value


def _epoch_lines(fh, epoch=None):
    """Every body line checked for its shape; those of ``epoch`` (all if None) with ``nan`` filled in."""
    belongs = {}  # epoch cell text -> whether it spells epoch
    for lineno, line in enumerate(fh, start=2):
        if line == "\n":
            raise ValueError(f"blank line at line {lineno}")
        if line.count(",") != len(TRACE_COLUMNS) - 1:
            raise ValueError(
                f"line {lineno} has {line.count(',') + 1} cells, not {len(TRACE_COLUMNS)}"
            )
        if epoch is not None:
            cell = line[: line.index(",")]
            keep = belongs.get(cell)
            if keep is None:
                keep = belongs[cell] = _int64_cell(cell) == epoch
            if not keep:
                continue
        # two passes, because the first leaves every other cell of ",,,"
        line = line.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
        yield line + "nan" if line.endswith(",") else line


def read_trace_csv(path, *, epoch=None) -> Trace:
    """Read a trace written by write_trace_csv; malformed input raises ValueError.

    With ``epoch`` set, only that epoch's rows are parsed and returned, bit
    for bit the full read's ``epoch_rows(epoch)`` slice. Every other row is
    still checked for its cell count and its integer epoch cell, and a blank
    line anywhere still raises; only the other cells of other epochs' rows
    go unparsed. ``probes_enabled`` then describes the rows read.
    """
    table = np.empty(0, dtype=TRACE_DTYPE)
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split(",")) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}: {header!r}")
        lines = _epoch_lines(fh, epoch)
        try:
            first = next(lines, None)
            if first is not None:
                table = np.loadtxt(
                    itertools.chain((first,), lines), delimiter=",",
                    dtype=TRACE_DTYPE, comments=None, ndmin=1,
                )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    # field views of the one loaded table, so reading holds a single copy
    columns = {name: table[name] for name in TRACE_COLUMNS}
    probes = any(not np.isnan(columns[name]).all() for name in PROBE_COLUMNS)
    return Trace(columns, probes_enabled=probes)


def write_epochs_csv(metrics: list[EspMetrics], path) -> None:
    """One row per epoch: the EspMetrics fields in declaration order, each value's repr."""
    columns = {f.name: [getattr(m, f.name) for m in metrics] for f in fields(EspMetrics)}
    write_columns(path, columns)


def _plain(value):
    """json's hook: numpy values as Python's, a dataclass (else TypeError) as its dict."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else asdict(value)


def write_meta_json(meta: dict, path) -> None:
    """Stable sidecar: keys sorted, no volatile fields, trailing newline."""
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _xml_text(s: str) -> str:
    """s escaped for XML character data (html.escape would import html.entities)."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart_svg(
    path,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Self-contained polyline chart; no external assets or scripts.

    A series longer than 2,000 points is drawn from every ceil(n / 2000)-th
    point, taken before non-finite points are dropped.
    """
    width, height = 880, 480
    margin_l, margin_r, margin_t, margin_b = 64, 16, 34, 44
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    title, x_label, y_label = _xml_text(title), _xml_text(x_label), _xml_text(y_label)
    xs, ys = [], []
    cleaned = []
    for label, x, y in series:
        stride = max(1, math.ceil(len(x) / 2000))
        x = np.asarray(x, dtype=float)[::stride]
        y = np.asarray(y, dtype=float)[::stride]
        keep = np.isfinite(x) & np.isfinite(y)
        x, y = x[keep], y[keep]
        cleaned.append((_xml_text(label), x, y))
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
