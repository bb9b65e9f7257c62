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
ordinary-least-squares solution wins. The active sets that clamp the
shifted coefficient do not depend on the shift and are solved once per fit.
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


def _constrained_lstsq(X, y, nonneg, shared: dict) -> tuple[np.ndarray, float]:
    """OLS with selected coefficients constrained nonnegative; with none, plain OLS.

    Enumerates active sets over the constrained columns (at most 2^3 here),
    bit i of a mask clamping the i-th constrained column to zero, and
    returns (beta, residual sum of squares) of the feasible candidate with
    the smallest residual. Candidates that clamp the last constrained column
    never read it, so they are kept in `shared`: calls that pass one dict
    and differ only in that column solve them once.
    """
    constrained = np.flatnonzero(nonneg).tolist()
    top = 1 << len(constrained) >> 1  # the bit of the last constrained column
    best = None
    for mask in range(1 << len(constrained)):
        if mask & top and mask in shared:
            candidate = shared[mask]
        else:
            zeroed = [c for i, c in enumerate(constrained) if mask >> i & 1]
            keep = [j for j in range(X.shape[1]) if j not in zeroed]
            beta = np.zeros(X.shape[1])
            if keep:
                beta[keep] = np.linalg.lstsq(X[:, keep], y, rcond=None)[0]
            # an infeasible candidate is None; the all-zeroed one is always feasible
            candidate = None
            if not np.any(beta[constrained] < 0):
                candidate = beta, float(np.sum((y - X @ beta) ** 2))
            if mask & top:
                shared[mask] = candidate
        if candidate is not None and (
            best is None or candidate[1] < best[1] - 1e-12 * max(1.0, best[1])
        ):
            best = candidate
    return best


def _momentum_basis(t, beta1, beta2):
    return [beta1 ** t, np.sqrt(1.0 - beta2) * t, np.ones_like(t)]


@dataclass(frozen=True)
class TraceModel:
    """One trace model of the module docstring, declared for fit_model.

    `basis(t, beta1, beta2)` returns one column per coefficient, in the
    order of `coeffs`. A model with a `shift` has one coefficient more: the
    last one, which must be in `nonneg`, multiplies the column 1/(t + shift),
    and the shift runs over HYPERBOLIC_SHIFT_GRID. An `unfold` coefficient
    stands for the product slope * sqrt(1-beta2), and the fit reports that
    slope as well.
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

    Columns that vanish are fixed at zero and flag the fit degenerate, as
    does a constant (smoothed) series. A window smooths the series before
    fitting. Because the model is linear in its coefficients, the same
    moving average is applied to every basis column, so the fitted
    coefficients still describe the raw-step model while the residual is
    scored against the smoothed series. No window is a window of 1, which
    averages nothing: that is the unsmoothed fit. A shifted column is
    fitted at every grid shift; ties prefer the smallest shift.
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
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    notes: list[str] = []
    w = window or 1
    y = window_average(y, w)
    cols = [window_average(col, w) for col in spec.basis(t, beta1, beta2)]
    if w > 1:
        notes.append(f"fit on window-{w} moving averages")
    constant = bool(np.all(y == y[0]))
    if constant:
        notes.append("the series is constant, so r_squared says nothing")
    scale = np.sqrt(len(y))
    live = [i for i, col in enumerate(cols) if np.linalg.norm(col) > 1e-12 * scale]
    dropped = [spec.coeffs[i] for i in range(len(cols)) if i not in live]
    if dropped:
        notes.append(f"degenerate columns fixed at zero: {', '.join(dropped)}")
    # the shifted column, when there is one, is always live, constrained and last
    slots = live + list(range(len(cols), len(spec.coeffs)))
    X_fixed = np.column_stack([cols[i] for i in live])
    nonneg = np.array([spec.coeffs[i] in spec.nonneg for i in slots])
    # a model without a shifted column is a grid of one design
    shifts = HYPERBOLIC_SHIFT_GRID if spec.shift is not None else (None,)
    shared = {}
    beta_live = None
    for shift in shifts:
        X_shift = X_fixed
        if shift is not None:
            X_shift = np.column_stack((X_fixed, window_average(1.0 / (t + shift), w)))
        beta, res = _constrained_lstsq(X_shift, y, nonneg, shared)
        if beta_live is None or res < best_res - 1e-12 * max(1.0, best_res):
            best_res, beta_live, X, best_shift = res, beta, X_shift, shift
    if spec.shift is not None:
        cols = cols + [X[:, -1]]
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        notes.append("design matrix is rank deficient; minimum-norm solution")
    beta = np.zeros(len(cols))
    beta[slots] = beta_live
    pred = np.column_stack(cols) @ beta
    coeffs = {name: float(b) for name, b in zip(spec.coeffs, beta)}
    if spec.shift is not None:
        coeffs[spec.shift] = float(best_shift)
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
        degenerate=bool(dropped or rank < X.shape[1] or no_slope or constant),
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


def _check_beta(value: float | None, name: str, upper_inclusive: bool = False) -> None:
    hi_ok = value is not None and (value <= 1.0 if upper_inclusive else value < 1.0)
    if not (hi_ok and 0.0 <= value):
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
    """Moving average over a full window of 1 to len(y) steps (length drops by window - 1)."""
    y = np.asarray(y, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > len(y):
        raise ValueError(f"window {window} exceeds series length {len(y)}")
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
    the trace's longest epoch, one window for every epoch, so a diverged
    run's partial epoch is scored like its full ones. Epochs shorter than
    two windows are skipped with a notice. Curvature is the quadratic
    coefficient of a degree-2 polynomial fit to the window-averaged
    intra-epoch loss.
    """
    epochs = np.asarray(trace.epoch)
    losses = np.asarray(trace.batch_loss, dtype=float)
    counts = np.bincount(epochs)  # rows per epoch; np.unique would import numpy.ma
    w = window if window is not None else default_window(int(counts.max(initial=0)))
    out: list[EspMetrics] = []
    for e in np.flatnonzero(counts).tolist():
        y = losses[epochs == e]
        if len(y) < 2 * w:
            logger.warning("epoch %d has %d steps, shorter than two windows; skipped", e, len(y))
            continue
        averaged = window_average(y, w)
        loss_start = float(np.mean(y[:w]))
        if out and out[-1].epoch == e - 1:
            # this start closes the previous epoch's boundary
            prev = out[-1]
            prev.drop = prev.loss_end - loss_start
            prev.amplitude = prev.drop / max(abs(prev.loss_end), 1e-12)
        loss_end = float(np.mean(y[-w:]))
        rise = loss_end - loss_start
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


def nshape_sweep(grad_l_b, m_hat, v_prev, g_squared) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of the hypothetical update with a batch gradient,
    swept over the second-moment mixing coefficient.

    Returns (betas_used, cosines); grid points with a zero denominator or a
    zero-norm vector are skipped with a notice. The grid is 101 evenly
    spaced points on [0, 1].
    """
    grad = np.asarray(grad_l_b, dtype=float)
    grad_norm = float(np.linalg.norm(grad))
    used = []
    cosines = []
    for beta2 in np.linspace(0.0, 1.0, 101):
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
