"""Quantifying the sawtooth: per-epoch metrics and closed-form trace models.

The fitters regress probe series from one epoch (step index t starting at 0
at the epoch boundary) onto small documented bases. TRACE_MODELS declares
each basis once, under the name of the trace column it is fitted to:

    g_norm      gradient norm: offset + slope * sqrt(1-beta2) * t
    m_norm      momentum norm:
                decay_amp * beta1^t + slope * sqrt(1-beta2) * t + offset
    v_norm      second-moment norm: offset + slope * t + quad * (1-beta2) * t^2
    dot_m       <m, tracked grad>: the m_norm basis,
                with decay_amp >= 0 and slope >= 0
    dot_dtheta  <delta, tracked grad>, for t >= 1:
                -decay_amp * beta1^t / t + level + hyperbolic_amp / (t + shift)
                with every coefficient >= 0; the shift is picked by a grid
                search (0 to 100 in steps of 0.5, ties take the smallest)
                and level absorbs slope * sqrt(1-beta2).

Nonnegativity is enforced by active-set enumeration: every subset of the
constrained columns is clamped to zero in turn and the best feasible
ordinary-least-squares solution wins.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "FitResult",
    "EspMetrics",
    "TraceModel",
    "TRACE_MODELS",
    "fit_model",
    "fit_g_norm",
    "fit_m_norm",
    "fit_v_norm",
    "fit_dot_m",
    "fit_dot_dtheta",
    "evaluate_fit",
    "predict_loss_curve",
    "esp_metrics",
    "default_window",
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


def _momentum_basis(t, beta1, beta2):
    return [beta1 ** t, np.sqrt(1.0 - beta2) * t, np.ones_like(t)]


@dataclass(frozen=True)
class TraceModel:
    """One trace model of the module docstring, declared for fit_model.

    `basis(t, beta1, beta2)` returns one column per coefficient, in the
    order of `coeffs`. A model with a `shift` has one coefficient more: the
    last one multiplies the column 1/(t + shift), and the shift runs over
    HYPERBOLIC_SHIFT_GRID. An `unfold` coefficient stands for the product
    slope * sqrt(1-beta2), and the fit reports that slope as well.
    """

    coeffs: tuple[str, ...]
    basis: Callable[[np.ndarray, float | None, float], list[np.ndarray]]
    nonneg: tuple[str, ...] = ()
    needs_beta1: bool = False
    min_t: float = 0.0
    shift: str | None = None
    unfold: str | None = None


TRACE_MODELS = {
    "g_norm": TraceModel(
        coeffs=("offset", "slope"),
        basis=lambda t, beta1, beta2: [np.ones_like(t), np.sqrt(1.0 - beta2) * t],
    ),
    "m_norm": TraceModel(
        coeffs=("decay_amp", "slope", "offset"), basis=_momentum_basis, needs_beta1=True
    ),
    "v_norm": TraceModel(
        coeffs=("offset", "slope", "quad"),
        basis=lambda t, beta1, beta2: [np.ones_like(t), t, (1.0 - beta2) * t ** 2],
    ),
    "dot_m": TraceModel(
        coeffs=("decay_amp", "slope", "offset"),
        basis=_momentum_basis,
        nonneg=("decay_amp", "slope"),
        needs_beta1=True,
    ),
    "dot_dtheta": TraceModel(
        coeffs=("decay_amp", "level", "hyperbolic_amp"),
        basis=lambda t, beta1, beta2: [-(beta1 ** t) / t, np.ones_like(t)],
        nonneg=("decay_amp", "level", "hyperbolic_amp"),
        needs_beta1=True,
        min_t=1.0,
        shift="hyperbolic_shift",
        unfold="level",
    ),
}


def _trace_model(model: str) -> TraceModel:
    try:
        return TRACE_MODELS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}") from None


def fit_model(
    model: str,
    t,
    y,
    beta1: float | None = None,
    beta2: float | None = None,
    window: int | None = None,
) -> FitResult:
    """Fit one of TRACE_MODELS to a series by (constrained) least squares.

    Columns that vanish are fixed at zero and flag the fit degenerate. A
    window smooths the series before fitting. Because the model is linear
    in its coefficients, the same moving average is applied to every basis
    column, so the fitted coefficients still describe the raw-step model
    while the residual is scored against the smoothed series. A shifted
    column is fitted at every grid shift; ties prefer the smallest shift.
    """
    spec = _trace_model(model)
    t, y = _as_series(t, y)
    if spec.needs_beta1:
        _check_beta(beta1, "beta1")
    else:
        beta1 = None
    _check_beta(beta2, "beta2", upper_inclusive=True)
    if np.any(t < spec.min_t):
        raise ValueError(f"the {model} model needs t >= {spec.min_t:g}")
    notes: list[str] = []
    cols = spec.basis(t, beta1, beta2)
    smooth = window is not None and window > 1
    if smooth:
        if window > len(t):
            raise ValueError(f"window {window} exceeds series length {len(t)}")
        y = window_average(y, window)
        cols = [window_average(col, window) for col in cols]
        notes.append(f"fit on window-{window} moving averages")
    scale = np.sqrt(len(y))
    live = [i for i, col in enumerate(cols) if np.linalg.norm(col) > 1e-12 * scale]
    dropped = [spec.coeffs[i] for i in range(len(cols)) if i not in live]
    if dropped:
        notes.append(f"degenerate columns fixed at zero: {', '.join(dropped)}")
    # the shifted column, when there is one, is always live and comes last
    slots = live + list(range(len(cols), len(spec.coeffs)))
    live_cols = [cols[i] for i in live]
    nonneg = np.array([spec.coeffs[i] in spec.nonneg for i in slots])

    def shifted(shift: float) -> np.ndarray:
        col = 1.0 / (t + shift)
        return window_average(col, window) if smooth else col

    def solve(X: np.ndarray, solved=None) -> np.ndarray:
        if np.any(nonneg):
            return _constrained_lstsq(X, y, nonneg, solved)
        return np.linalg.lstsq(X, y, rcond=None)[0]

    if spec.shift is None:
        X = np.column_stack(live_cols)
        beta_live = solve(X)
    else:
        # Active sets that clamp the shifted coefficient (the top mask bit)
        # never see the shifted column: their solution, feasibility and
        # residual are the same at every shift, so they are solved once, on
        # the first shift's design.
        solved = {}
        if nonneg[-1]:
            constrained = np.flatnonzero(nonneg)
            X0 = np.column_stack(live_cols + [shifted(HYPERBOLIC_SHIFT_GRID[0])])
            top = 1 << (len(constrained) - 1)
            solved = {
                mask: _solve_active_set(X0, y, constrained, _zeroed_columns(constrained, mask))
                for mask in range(top, 2 * top)
            }
        best_res = np.inf
        beta_live = None
        for shift in HYPERBOLIC_SHIFT_GRID:
            candidate = shifted(shift)
            X_shift = np.column_stack(live_cols + [candidate])
            beta = solve(X_shift, solved)
            res = float(np.sum((y - X_shift @ beta) ** 2))
            if beta_live is None or res < best_res - 1e-12 * max(1.0, best_res):
                best_res, beta_live, X = res, beta, X_shift
                best_shift, best_col = float(shift), candidate
        cols = cols + [best_col]
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        notes.append("design matrix is rank deficient; minimum-norm solution")
    beta = np.zeros(len(cols))
    beta[slots] = beta_live
    pred = np.column_stack(cols) @ beta
    coeffs = {name: float(b) for name, b in zip(spec.coeffs, beta)}
    if spec.shift is not None:
        coeffs[spec.shift] = best_shift
    no_slope = spec.unfold is not None and beta2 == 1.0
    if no_slope:
        notes.append(f"beta2 = 1: {spec.unfold} cannot be unfolded into a slope coefficient")
    elif spec.unfold is not None:
        # the coefficient is the product slope * sqrt(1-beta2)
        coeffs["slope"] = coeffs[spec.unfold] / float(np.sqrt(1.0 - beta2))
    return FitResult(
        model=model,
        coeffs=coeffs,
        r_squared=_r_squared(y, pred),
        residual_norm=float(np.linalg.norm(y - pred)),
        beta1=beta1,
        beta2=beta2,
        t_range=(float(t.min()), float(t.max())),
        degenerate=bool(dropped or rank < X.shape[1] or no_slope),
        notes=tuple(notes),
    )


def fit_g_norm(t, y, beta2: float, window: int | None = None) -> FitResult:
    """Fit the gradient-norm model of TRACE_MODELS."""
    return fit_model("g_norm", t, y, None, beta2, window)


def fit_m_norm(t, y, beta1: float, beta2: float, window: int | None = None) -> FitResult:
    """Fit the momentum-norm model of TRACE_MODELS."""
    return fit_model("m_norm", t, y, beta1, beta2, window)


def fit_v_norm(t, y, beta2: float, window: int | None = None) -> FitResult:
    """Fit the second-moment-norm model of TRACE_MODELS."""
    return fit_model("v_norm", t, y, None, beta2, window)


def fit_dot_m(t, y, beta1: float, beta2: float, window: int | None = None) -> FitResult:
    """Fit the momentum/tracked-gradient model of TRACE_MODELS."""
    return fit_model("dot_m", t, y, beta1, beta2, window)


def fit_dot_dtheta(t, y, beta1: float, beta2: float, window: int | None = None) -> FitResult:
    """Fit the update/tracked-gradient model of TRACE_MODELS."""
    return fit_model("dot_dtheta", t, y, beta1, beta2, window)


def _check_beta(value: float, name: str, upper_inclusive: bool = False) -> None:
    hi_ok = value <= 1.0 if upper_inclusive else value < 1.0
    if not (0.0 <= value and hi_ok):
        hi = "1]" if upper_inclusive else "1)"
        raise ValueError(f"{name} must lie in [0, {hi}, got {value}")


def evaluate_fit(fit: FitResult, t) -> np.ndarray:
    """Evaluate a fitted model at the given step indices."""
    spec = _trace_model(fit.model)
    t = np.asarray(t, dtype=float)
    cols = spec.basis(t, fit.beta1, fit.beta2)
    if spec.shift is not None:
        cols.append(1.0 / (t + fit.coeffs[spec.shift]))
    return np.stack(cols, axis=-1) @ np.array([fit.coeffs[name] for name in spec.coeffs])


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
        increments = evaluate_fit(fit, np.arange(1, T, dtype=float))
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


def default_window(epoch_len: int) -> int:
    """The epoch-metrics smoothing window: 5 percent of an epoch, at least 1."""
    return max(1, round(0.05 * epoch_len))


def esp_metrics(trace, window: int | None = None) -> list[EspMetrics]:
    """Per-epoch sawtooth metrics from a trace.

    The start and end levels of an epoch are the mean batch loss over its
    first and last ``window`` steps; the default window is default_window of
    the epoch's length. Epochs shorter than two windows are skipped
    with a notice. Curvature is the quadratic coefficient of a degree-2
    polynomial fit to the window-averaged intra-epoch loss.
    """
    epochs = np.asarray(trace.epoch)
    losses = np.asarray(trace.batch_loss, dtype=float)
    out: list[EspMetrics] = []
    for e in np.unique(epochs).tolist():
        y = losses[epochs == e]
        w = window if window is not None else default_window(len(y))
        if len(y) < 2 * w:
            logger.warning("epoch %d has %d steps, shorter than two windows; skipped", e, len(y))
            continue
        loss_start = float(np.mean(y[:w]))
        if out and out[-1].epoch == e - 1:
            # this start closes the previous epoch's boundary
            prev = out[-1]
            prev.drop = prev.loss_end - loss_start
            prev.amplitude = prev.drop / max(abs(prev.loss_end), 1e-12)
        loss_end = float(np.mean(y[-w:]))
        rise = loss_end - loss_start
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
                drop=float("nan"),
                amplitude=float("nan"),
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
