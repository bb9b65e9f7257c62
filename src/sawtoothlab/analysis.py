"""Quantifying the sawtooth: per-epoch metrics and closed-form trace models.

The fitters regress probe series from one epoch (step index t starting at 0
at the epoch boundary) onto small documented bases:

    gradient norm      offset + slope * sqrt(1-beta2) * t
    momentum norm      decay_amp * beta1^t + slope * sqrt(1-beta2) * t + offset
    second-moment norm offset + slope * t + quad * (1-beta2) * t^2
    <m, tracked grad>  decay_amp * beta1^t + slope * sqrt(1-beta2) * t + offset
                       with decay_amp >= 0 and slope >= 0
    <delta, tracked grad>
                       -decay_amp * beta1^t / t + level + hyperbolic_amp/(t+shift)
                       with every coefficient >= 0; the shift is picked by a
                       grid search and level absorbs slope * sqrt(1-beta2).

Nonnegativity is enforced by active-set enumeration: every subset of the
constrained columns is clamped to zero in turn and the best feasible
ordinary-least-squares solution wins.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "FitResult",
    "EspMetrics",
    "fit_g_norm",
    "fit_m_norm",
    "fit_v_norm",
    "fit_dot_m",
    "fit_dot_dtheta",
    "evaluate_fit",
    "predict_loss_curve",
    "esp_metrics",
    "window_average",
    "nshape_delta",
    "nshape_sweep",
    "DEMO_TRACKED_GRAD",
    "DEMO_MOMENTUM",
    "DEMO_SECOND_MOMENT_PREV",
    "DEMO_GRAD_SQUARED",
]

HYPERBOLIC_SHIFT_GRID = np.arange(0.0, 100.5, 0.5)


@dataclass
class FitResult:
    """Coefficients and quality of one trace-model fit."""

    model: str
    coeffs: dict[str, float]
    r_squared: float
    residual_norm: float
    beta1: float | None
    beta2: float | None
    t_range: tuple[float, float]
    degenerate: bool = False
    notes: tuple[str, ...] = ()


def _as_series(t, y) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(t, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if t.shape != y.shape:
        raise ValueError(f"t and y must have equal length, got {t.shape} vs {y.shape}")
    if len(t) == 0:
        raise ValueError("series is empty")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("series contains non-finite entries")
    return t, y


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-24 * len(y) else 0.0
    return 1.0 - ss_res / ss_tot


def _solve_active_set(
    X: np.ndarray, y: np.ndarray, constrained: np.ndarray, zeroed: list[int]
) -> tuple[np.ndarray, bool, float]:
    """OLS with the `zeroed` columns clamped to zero.

    Returns the coefficients, whether every constrained one is nonnegative,
    and the residual sum of squares (inf when infeasible).
    """
    ncols = X.shape[1]
    keep = [j for j in range(ncols) if j not in zeroed]
    beta = np.zeros(ncols)
    if keep:
        sol, *_ = np.linalg.lstsq(X[:, keep], y, rcond=None)
        beta[keep] = sol
    if np.any(beta[constrained] < 0):
        return beta, False, np.inf
    return beta, True, float(np.sum((y - X @ beta) ** 2))


def _zeroed_columns(constrained: np.ndarray, mask: int) -> list[int]:
    return [constrained[i] for i in range(len(constrained)) if mask >> i & 1]


def _constrained_lstsq(
    X: np.ndarray,
    y: np.ndarray,
    nonneg: np.ndarray,
    solved: dict[int, tuple[np.ndarray, bool, float]] | None = None,
) -> np.ndarray:
    """OLS with selected coefficients constrained nonnegative.

    Enumerates active sets over the constrained columns (at most 2^3 here)
    and returns the feasible candidate with the smallest residual. Bit i of
    an active-set mask clamps the i-th constrained column; `solved` maps
    masks to results the caller has already computed for this X and y.
    """
    constrained = np.flatnonzero(nonneg)
    best = None
    best_res = np.inf
    for mask in range(1 << len(constrained)):
        if solved is not None and mask in solved:
            beta, feasible, res = solved[mask]
        else:
            zeroed = _zeroed_columns(constrained, mask)
            beta, feasible, res = _solve_active_set(X, y, constrained, zeroed)
        if not feasible:
            continue
        if best is None or res < best_res - 1e-12 * max(1.0, best_res):
            best_res = res
            best = beta
    assert best is not None  # the all-zeroed candidate is always feasible
    return best


def _fit_linear_model(
    model: str,
    t: np.ndarray,
    y: np.ndarray,
    columns: list[tuple[str, np.ndarray]],
    nonneg_names: tuple[str, ...] = (),
    beta1: float | None = None,
    beta2: float | None = None,
    window: int | None = None,
) -> FitResult:
    """Shared OLS driver: drops vanishing columns, then solves and scores.

    A window smooths the series before fitting. Because the model is linear
    in its coefficients, the same moving average is applied to every basis
    column, so the fitted coefficients still describe the raw-step model
    while the residual is scored against the smoothed series.
    """
    notes: list[str] = []
    names = [name for name, _ in columns]
    cols = [col for _, col in columns]
    if window is not None and window > 1:
        if window > len(t):
            raise ValueError(f"window {window} exceeds series length {len(t)}")
        y = window_average(y, window)
        cols = [window_average(col, window) for col in cols]
        notes.append(f"fit on window-{window} moving averages")
    scale = np.sqrt(len(y))
    live = [i for i, col in enumerate(cols) if np.linalg.norm(col) > 1e-12 * scale]
    dropped = [names[i] for i in range(len(cols)) if i not in live]
    if dropped:
        notes.append(f"degenerate columns fixed at zero: {', '.join(dropped)}")
    X = np.column_stack([cols[i] for i in live])
    nonneg = np.array([names[i] in nonneg_names for i in live])
    if np.any(nonneg):
        beta_live = _constrained_lstsq(X, y, nonneg)
    else:
        beta_live, *_ = np.linalg.lstsq(X, y, rcond=None)
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        notes.append("design matrix is rank deficient; minimum-norm solution")
    beta = np.zeros(len(cols))
    for slot, i in enumerate(live):
        beta[i] = beta_live[slot]
    pred = np.column_stack(cols) @ beta
    coeffs = {name: float(b) for name, b in zip(names, beta)}
    return FitResult(
        model=model,
        coeffs=coeffs,
        r_squared=_r_squared(y, pred),
        residual_norm=float(np.linalg.norm(y - pred)),
        beta1=beta1,
        beta2=beta2,
        t_range=(float(t.min()), float(t.max())),
        degenerate=bool(dropped) or rank < X.shape[1],
        notes=tuple(notes),
    )


def fit_g_norm(t, y, beta2: float, window: int | None = None) -> FitResult:
    """Fit gradient-norm growth: offset + slope * sqrt(1-beta2) * t."""
    t, y = _as_series(t, y)
    _check_beta(beta2, "beta2", upper_inclusive=True)
    return _fit_linear_model(
        "g_norm",
        t,
        y,
        [("offset", np.ones_like(t)), ("slope", np.sqrt(1.0 - beta2) * t)],
        beta2=beta2,
        window=window,
    )


def fit_m_norm(t, y, beta1: float, beta2: float, window: int | None = None) -> FitResult:
    """Fit momentum-norm shape: decay_amp * beta1^t + slope * sqrt(1-beta2) * t + offset."""
    t, y = _as_series(t, y)
    _check_beta(beta1, "beta1")
    _check_beta(beta2, "beta2", upper_inclusive=True)
    return _fit_linear_model(
        "m_norm",
        t,
        y,
        [
            ("decay_amp", beta1 ** t),
            ("slope", np.sqrt(1.0 - beta2) * t),
            ("offset", np.ones_like(t)),
        ],
        beta1=beta1,
        beta2=beta2,
        window=window,
    )


def fit_v_norm(t, y, beta2: float, window: int | None = None) -> FitResult:
    """Fit second-moment-norm shape: offset + slope * t + quad * (1-beta2) * t^2."""
    t, y = _as_series(t, y)
    _check_beta(beta2, "beta2", upper_inclusive=True)
    return _fit_linear_model(
        "v_norm",
        t,
        y,
        [
            ("offset", np.ones_like(t)),
            ("slope", t),
            ("quad", (1.0 - beta2) * t ** 2),
        ],
        beta2=beta2,
        window=window,
    )


def fit_dot_m(t, y, beta1: float, beta2: float, window: int | None = None) -> FitResult:
    """Fit the momentum/tracked-gradient inner product.

    Same basis as the momentum norm, but the decaying amplitude and the
    slope are constrained nonnegative; the offset stays free.
    """
    t, y = _as_series(t, y)
    _check_beta(beta1, "beta1")
    _check_beta(beta2, "beta2", upper_inclusive=True)
    return _fit_linear_model(
        "dot_m",
        t,
        y,
        [
            ("decay_amp", beta1 ** t),
            ("slope", np.sqrt(1.0 - beta2) * t),
            ("offset", np.ones_like(t)),
        ],
        nonneg_names=("decay_amp", "slope"),
        beta1=beta1,
        beta2=beta2,
        window=window,
    )


def fit_dot_dtheta(
    t, y, beta1: float, beta2: float, window: int | None = None
) -> FitResult:
    """Fit the update/tracked-gradient inner product.

    Model: -decay_amp * beta1^t / t + level + hyperbolic_amp / (t + shift),
    all coefficients nonnegative, where level stands for the product
    slope * sqrt(1-beta2). The shift runs over a fixed grid (0 to 100 in
    steps of 0.5) with an inner constrained OLS; ties prefer the smallest
    shift. Requires t >= 1 throughout. A window smooths the series and the
    basis columns alike, as in the linear fitters.
    """
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

    def design(shift: float) -> np.ndarray:
        hyp_col = 1.0 / (t + shift)
        if smooth:
            hyp_col = window_average(hyp_col, window)
        return np.column_stack([decay_col, level_col, hyp_col])

    # Active sets that clamp hyperbolic_amp (mask bit 2) never see the
    # shifted column: their solution, feasibility and residual are the same
    # at every shift, so they are solved once, on the first shift's design.
    nonneg = np.array([True, True, True])
    constrained = np.flatnonzero(nonneg)
    X0 = design(HYPERBOLIC_SHIFT_GRID[0])
    shift_free = {
        mask: _solve_active_set(X0, y_fit, constrained, _zeroed_columns(constrained, mask))
        for mask in range(4, 8)
    }
    best = None
    best_res = np.inf
    best_shift = None
    best_pred = None
    for shift in HYPERBOLIC_SHIFT_GRID:
        X = design(shift)
        beta = _constrained_lstsq(X, y_fit, nonneg, solved=shift_free)
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
        # level is the product slope * sqrt(1-beta2); surface the slope too
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


def _check_beta(value: float, name: str, upper_inclusive: bool = False) -> None:
    hi_ok = value <= 1.0 if upper_inclusive else value < 1.0
    if not (0.0 <= value and hi_ok):
        hi = "1]" if upper_inclusive else "1)"
        raise ValueError(f"{name} must lie in [0, {hi}, got {value}")


def _eval_dot_dtheta(coeffs: dict, beta1: float, t: np.ndarray) -> np.ndarray:
    return (
        -coeffs["decay_amp"] * beta1 ** t / t
        + coeffs["level"]
        + coeffs["hyperbolic_amp"] / (t + coeffs["hyperbolic_shift"])
    )


def evaluate_fit(fit: FitResult, t) -> np.ndarray:
    """Evaluate a fitted model at the given step indices."""
    t = np.asarray(t, dtype=float)
    c = fit.coeffs
    if fit.model == "g_norm":
        return c["offset"] + c["slope"] * np.sqrt(1.0 - fit.beta2) * t
    if fit.model in ("m_norm", "dot_m"):
        return (
            c["decay_amp"] * fit.beta1 ** t
            + c["slope"] * np.sqrt(1.0 - fit.beta2) * t
            + c["offset"]
        )
    if fit.model == "v_norm":
        return c["offset"] + c["slope"] * t + c["quad"] * (1.0 - fit.beta2) * t ** 2
    if fit.model == "dot_dtheta":
        return _eval_dot_dtheta(c, fit.beta1, t)
    raise ValueError(f"unknown model {fit.model!r}")


def predict_loss_curve(fit: FitResult, l0: float, T: int) -> np.ndarray:
    """Tracked-loss prediction by accumulating the fitted update alignment.

    Returns values for steps 0..T-1: the step-0 value is l0 and each later
    step adds the fitted alignment of the previous step, with the step-0
    alignment taken as zero (the model is only defined from t = 1).
    """
    if fit.model != "dot_dtheta":
        raise ValueError("loss prediction needs an update-alignment fit")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    pred = np.full(T, float(l0))
    if T > 1:
        steps = np.arange(1, T, dtype=float)
        increments = _eval_dot_dtheta(fit.coeffs, fit.beta1, steps)
        pred[1:] += np.concatenate([[0.0], np.cumsum(increments)[:-1]])
    return pred


@dataclass
class EspMetrics:
    """Window-averaged sawtooth statistics of one epoch.

    rise is the within-epoch climb (end minus start); drop is the fall
    across the boundary into the next epoch (end minus next start), NaN for
    the last epoch; amplitude is the drop normalized by the magnitude of
    the epoch-end level.
    """

    epoch: int
    loss_start: float
    loss_end: float
    rise: float
    drop: float
    amplitude: float
    curvature: float
    concavity_sign: int


def window_average(y: np.ndarray, window: int) -> np.ndarray:
    """Moving average with a full window (length drops by window - 1)."""
    y = np.asarray(y, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1:
        return y.copy()
    kernel = np.full(window, 1.0 / window)
    return np.convolve(y, kernel, mode="valid")


def esp_metrics(trace, window: int | None = None) -> list[EspMetrics]:
    """Per-epoch sawtooth metrics from a trace.

    The start and end levels of an epoch are the mean batch loss over its
    first and last ``window`` steps; the default window is 5 percent of the
    epoch length (at least 1). Epochs shorter than two windows are skipped
    with a notice. Curvature is the quadratic coefficient of a degree-2
    polynomial fit to the window-averaged intra-epoch loss.
    """
    epochs = np.asarray(trace.epoch)
    losses = np.asarray(trace.batch_loss, dtype=float)
    if len(epochs) == 0:
        return []
    out: list[EspMetrics] = []
    labels = np.unique(epochs)
    starts: dict[int, float] = {}
    pieces: dict[int, np.ndarray] = {}
    for e in labels:
        pieces[int(e)] = losses[epochs == e]
    for e in labels:
        y = pieces[int(e)]
        w = window if window is not None else max(1, round(0.05 * len(y)))
        if len(y) < 2 * w:
            logger.warning("epoch %d has %d steps, shorter than two windows; skipped", e, len(y))
            continue
        starts[int(e)] = float(np.mean(y[:w]))
    for e in labels:
        e = int(e)
        if e not in starts:
            continue
        y = pieces[e]
        w = window if window is not None else max(1, round(0.05 * len(y)))
        loss_start = starts[e]
        loss_end = float(np.mean(y[-w:]))
        rise = loss_end - loss_start
        if e + 1 in starts:
            drop = loss_end - starts[e + 1]
            amplitude = drop / max(abs(loss_end), 1e-12)
        else:
            drop = float("nan")
            amplitude = float("nan")
        averaged = window_average(y, w)
        x = np.arange(len(averaged), dtype=float)
        if len(averaged) >= 3:
            curvature = float(np.polyfit(x, averaged, 2)[0])
        else:
            curvature = 0.0
        out.append(
            EspMetrics(
                epoch=e,
                loss_start=loss_start,
                loss_end=loss_end,
                rise=rise,
                drop=drop,
                amplitude=amplitude,
                curvature=curvature,
                concavity_sign=int(np.sign(curvature)),
            )
        )
    return out


# Built-in demonstration vectors for the similarity sweep: a three-component
# caricature of the state right after an epoch boundary (stale momentum on
# the first component, a stale second moment on the third).
DEMO_TRACKED_GRAD = (2.0, 1.0, 2.0)
DEMO_MOMENTUM = (-8.0, 1.0, 2.0)
DEMO_SECOND_MOMENT_PREV = (1.0, 0.0001, 1.0)
DEMO_GRAD_SQUARED = (1.0, 1.0, 0.0001)


def nshape_delta(m_hat, v_prev, g_squared, beta2: float) -> np.ndarray:
    """Hypothetical update -m_hat / sqrt(beta2 * v_prev + (1-beta2) * g^2)."""
    m_hat = np.asarray(m_hat, dtype=float)
    v_prev = np.asarray(v_prev, dtype=float)
    g_squared = np.asarray(g_squared, dtype=float)
    if not (m_hat.shape == v_prev.shape == g_squared.shape):
        raise ValueError("vectors must share one shape")
    if np.any(v_prev < 0) or np.any(g_squared < 0):
        raise ValueError("second-moment inputs must be nonnegative")
    denom_sq = beta2 * v_prev + (1.0 - beta2) * g_squared
    if np.any(denom_sq <= 0):
        raise ZeroDivisionError("zero denominator component at this beta2")
    return -m_hat / np.sqrt(denom_sq)


def nshape_sweep(
    grad_l_b, m_hat, v_prev, g_squared, betas=None
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of the hypothetical update with a batch gradient,
    swept over the second-moment mixing coefficient.

    Returns (betas_used, cosines); grid points with a zero denominator or a
    zero-norm vector are skipped with a notice. The default grid is 101
    evenly spaced points on [0, 1].
    """
    grad = np.asarray(grad_l_b, dtype=float)
    if betas is None:
        betas = np.linspace(0.0, 1.0, 101)
    betas = np.asarray(betas, dtype=float)
    grad_norm = float(np.linalg.norm(grad))
    used = []
    cosines = []
    for beta2 in betas:
        try:
            delta = nshape_delta(m_hat, v_prev, g_squared, float(beta2))
        except ZeroDivisionError:
            logger.warning("beta2 = %g skipped: zero denominator component", beta2)
            continue
        delta_norm = float(np.linalg.norm(delta))
        if grad_norm == 0.0 or delta_norm == 0.0:
            logger.warning("beta2 = %g skipped: zero-norm vector", beta2)
            continue
        used.append(float(beta2))
        cosines.append(float(np.dot(grad, delta) / (grad_norm * delta_norm)))
    return np.asarray(used), np.asarray(cosines)
