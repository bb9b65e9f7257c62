"""Row-loop reference implementations that the columnar code is checked against.

These are the straightforward versions: the trace CSV reader and writer and
the epoch-metrics CSV writer that go cell by cell through the csv module,
and the update-alignment fit that solves every active set at every shift.
The package's own versions must give the same bytes (writers), the same
columns, dtypes and probe flag (reader) and the same coefficients, R^2 and
residual norm (fit).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from sawtoothlab.analysis import (
    HYPERBOLIC_SHIFT_GRID,
    EspMetrics,
    FitResult,
    _as_series,
    _check_beta,
    _r_squared,
    window_average,
)
from sawtoothlab.trainer import PROBE_COLUMNS, TRACE_COLUMNS, Trace

_INT_COLUMNS = ("epoch", "step", "global_step")


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        int_cols = [getattr(trace, c) for c in _INT_COLUMNS]
        float_cols = [getattr(trace, c) for c in TRACE_COLUMNS[3:]]
        probe_set = set(PROBE_COLUMNS)
        probe_mask = [c in probe_set for c in TRACE_COLUMNS[3:]]
        for i in range(len(trace)):
            row = [str(int(col[i])) for col in int_cols]
            for col, is_probe in zip(float_cols, probe_mask):
                x = col[i]
                if is_probe and math.isnan(x):
                    row.append("")
                else:
                    row.append(repr(float(x)))
            writer.writerow(row)


def read_trace_csv(path) -> Trace:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}: {header}")
        rows = list(reader)
    n = len(rows)
    columns: dict[str, np.ndarray] = {
        name: np.empty(n, dtype=np.int64) for name in _INT_COLUMNS
    }
    for name in TRACE_COLUMNS[3:]:
        columns[name] = np.full(n, np.nan)
    any_probe = False
    for i, row in enumerate(rows):
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"row {i + 2} of {path} has {len(row)} fields")
        for k, name in enumerate(TRACE_COLUMNS):
            cell = row[k]
            if name in _INT_COLUMNS:
                columns[name][i] = int(cell)
            elif cell == "":
                columns[name][i] = np.nan
            else:
                columns[name][i] = float(cell)
                if name in PROBE_COLUMNS:
                    any_probe = True
    return Trace(columns, probes_enabled=any_probe)


def write_epochs_csv(metrics: list[EspMetrics], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "epoch",
                "loss_start",
                "loss_end",
                "rise",
                "drop",
                "amplitude",
                "curvature",
                "concavity_sign",
            ]
        )
        for m in metrics:
            writer.writerow(
                [
                    m.epoch,
                    repr(float(m.loss_start)),
                    repr(float(m.loss_end)),
                    repr(float(m.rise)),
                    repr(float(m.drop)),
                    repr(float(m.amplitude)),
                    repr(float(m.curvature)),
                    m.concavity_sign,
                ]
            )


def _constrained_lstsq(X: np.ndarray, y: np.ndarray, nonneg: np.ndarray) -> np.ndarray:
    ncols = X.shape[1]
    constrained = np.flatnonzero(nonneg)
    best = None
    best_res = np.inf
    for mask in range(1 << len(constrained)):
        zeroed = [constrained[i] for i in range(len(constrained)) if mask >> i & 1]
        keep = [j for j in range(ncols) if j not in zeroed]
        beta = np.zeros(ncols)
        if keep:
            sol, *_ = np.linalg.lstsq(X[:, keep], y, rcond=None)
            beta[keep] = sol
        if np.any(beta[constrained] < 0):
            continue
        res = float(np.sum((y - X @ beta) ** 2))
        if best is None or res < best_res - 1e-12 * max(1.0, best_res):
            best_res = res
            best = beta
    assert best is not None
    return best


def fit_dot_dtheta(t, y, beta1: float, beta2: float, window: int | None = None) -> FitResult:
    t, y = _as_series(t, y)
    _check_beta(beta1, "beta1")
    _check_beta(beta2, "beta2", upper_inclusive=True)
    if np.any(t < 1):
        raise ValueError("the update-alignment model needs t >= 1")
    decay_col = -(beta1 ** t) / t
    level_col = np.ones_like(t)
    y_fit = y
    notes: list[str] = []
    smooth = window is not None and window > 1
    if smooth:
        if window > len(t):
            raise ValueError(f"window {window} exceeds series length {len(t)}")
        y_fit = window_average(y, window)
        decay_col = window_average(decay_col, window)
        level_col = window_average(level_col, window)
        notes.append(f"fit on window-{window} moving averages")
    best = None
    best_res = np.inf
    best_shift = None
    best_pred = None
    for shift in HYPERBOLIC_SHIFT_GRID:
        hyp_col = 1.0 / (t + shift)
        if smooth:
            hyp_col = window_average(hyp_col, window)
        X = np.column_stack([decay_col, level_col, hyp_col])
        beta = _constrained_lstsq(X, y_fit, np.array([True, True, True]))
        pred = X @ beta
        res = float(np.sum((y_fit - pred) ** 2))
        if best is None or res < best_res - 1e-12 * max(1.0, best_res):
            best_res = res
            best = beta
            best_shift = float(shift)
            best_pred = pred
    coeffs = {
        "decay_amp": float(best[0]),
        "level": float(best[1]),
        "hyperbolic_amp": float(best[2]),
        "hyperbolic_shift": best_shift,
    }
    if beta2 == 1.0:
        notes.append("beta2 = 1: level cannot be unfolded into a slope coefficient")
    else:
        coeffs["slope"] = coeffs["level"] / float(np.sqrt(1.0 - beta2))
    return FitResult(
        model="dot_dtheta",
        coeffs=coeffs,
        r_squared=_r_squared(y_fit, best_pred),
        residual_norm=float(np.linalg.norm(y_fit - best_pred)),
        beta1=beta1,
        beta2=beta2,
        t_range=(float(t.min()), float(t.max())),
        degenerate=beta2 == 1.0,
        notes=tuple(notes),
    )
