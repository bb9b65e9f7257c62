"""Row-loop reference implementations that the columnar code is checked against.

These are the straightforward versions: the trace CSV reader and the
table writers (trace, epoch metrics, fit overlay, nshape sweep and any
int/float column table) that go cell by cell through the csv module, the
update-alignment fit that solves every active set at every shift, the Adam
step that divides by both bias corrections on every step, and the batch
loss and sparse gradient that each gather the batch themselves. The
package's own versions must give the same bytes (writers), the same
columns, dtypes and probe flag (reader), the same coefficients, R^2 and
residual norm (fit), the same update and moment bits (step) and the same
loss, coordinate and value bits (batch).
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
from sawtoothlab.optim import FLUSH_EVERY, MOMENT_FLOOR, AdamConfig, OptimizerState
from sawtoothlab.trainer import PROBE_COLUMNS, TRACE_COLUMNS, Trace

_INT_COLUMNS = ("epoch", "step", "global_step")


def _gather(problem, indices, x):
    j = problem.dim_index[indices]
    return problem.a[indices], x[j] - problem.b[indices], problem.c[indices], j


def _mean_loss(a, d, c) -> float:
    return float((a * d ** 2 + c).sum() / len(a))


def batch_loss(problem, batch, x) -> float:
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    a, d, c, _ = _gather(problem, batch.indices, x)
    return _mean_loss(a, d, c)


def sparse_batch_grad(problem, batch, x):
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    a, d, _, j = _gather(problem, batch.indices, x)
    coords, inverse = np.unique(j, return_inverse=True)
    vals = np.zeros(len(coords))
    np.add.at(vals, inverse, 2.0 * a * d)
    vals /= len(batch)
    return coords, vals


def write_columns(path, columns: dict, blank_nan=()) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        cols = [np.asarray(col) for col in columns.values()]
        blank = [name in blank_nan for name in columns]
        for i in range(len(cols[0]) if cols else 0):
            row = []
            for col, is_blank in zip(cols, blank):
                x = col[i]
                if np.issubdtype(col.dtype, np.integer):
                    row.append(str(int(x)))
                elif is_blank and math.isnan(x):
                    row.append("")
                else:
                    row.append(repr(float(x)))
            writer.writerow(row)


def write_overlay_csv(path, t, y, fitted) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "observed", "fitted"])
        for ti, yi, fi in zip(t, y, fitted):
            writer.writerow([repr(float(ti)), repr(float(yi)), repr(float(fi))])


def write_nshape_csv(path, betas, cosines) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta2", "cosine"])
        for b, c in zip(betas, cosines):
            writer.writerow([repr(float(b)), repr(float(c))])


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
        degenerate=beta2 == 1.0,
        notes=tuple(notes),
    )


def _ema(arr: np.ndarray, beta: float, idx, x, t: int) -> None:
    arr *= beta
    arr[idx] += (1.0 - beta) * x
    if t % FLUSH_EVERY == 0:
        mask = np.absolute(arr) < MOMENT_FLOOR
        if mask.any():
            arr[mask] = 0.0


def adam_step(state: OptimizerState, config: AdamConfig, grad, theta=None, coords=None):
    """One Adam step that always divides m by c1 and v by c2, even by 1.0."""
    if coords is None:
        grad, idx = np.asarray(grad, dtype=float), ...
    else:
        idx = coords
    if config.weight_decay > 0.0:
        full = config.weight_decay * np.asarray(theta, dtype=float)
        full[idx] += grad
        grad, idx = full, ...
    b1, b2 = config.beta1, config.beta2
    state.t += 1
    _ema(state.m, b1, idx, grad, state.t)
    _ema(state.v, b2, idx, grad * grad, state.t)
    c1 = c2 = 1.0
    if config.bias_correction:
        c1 = 1.0 - b1 ** state.t
        if b2 < 1.0:
            c2 = 1.0 - b2 ** state.t
    m_hat = state.m / c1
    denom = np.sqrt(state.v / c2) + config.epsilon
    delta = m_hat / denom
    delta *= -config.lr
    state.delta[...] = delta
    return state.delta
