"""Stepping functions for the adaptive optimizers under study.

All optimizers share one mutable state (first moment, second moment, step
counter) and report each update as an explicit delta so that callers can
probe the relationship between the update direction and individual batch
gradients. The step counter is never reset: epoch boundaries are a property
of the data schedule, not of the optimizer.

Update rules, with gradient g and learning rate lr:

    Adam          m <- beta1*m + (1-beta1)*g
                  v <- beta2*v + (1-beta2)*g^2
                  delta = -lr * m_hat / (sqrt(v_hat) + eps)
                  where m_hat, v_hat are bias-corrected (or raw) moments.

    RMSProp       v <- beta2*v + (1-beta2)*g^2
                  delta = -lr * g / (sqrt(v) + eps)

    SGD+momentum  m <- beta1*m + (1-beta1)*g
                  delta = -lr * m

Every stepper takes the gradient in one of two forms. Dense: ``grad`` is
the whole vector, checked for shape and finiteness. Sparse: ``coords`` holds
the coordinates the gradient can be nonzero on (one int, or an array of
unique ints) and ``grad`` its values there; the moment updates then touch
only those coordinates, the values are not checked (a caller in a hot loop
checks them once, at its own cost), and the result matches the dense form
on the scattered gradient value for value. A ``StepWorkspace`` makes a step
write into caller-owned buffers instead of allocating its delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdamConfig",
    "OptimizerState",
    "StepWorkspace",
    "UpdateResult",
    "NonFiniteGradientError",
    "adam_step",
    "rmsprop_step",
    "sgd_momentum_step",
]


class NonFiniteGradientError(ValueError):
    """Raised when a step is asked to consume a gradient with NaN or inf."""


@dataclass
class AdamConfig:
    """Hyperparameters shared by the Adam and RMSProp steppers.

    epsilon = 0 is allowed (it disables the denominator floor); it is useful
    for scale-invariance diagnostics but not recommended for training.
    """

    lr: float = 0.06
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 <= 1.0:
            raise ValueError(f"beta2 must lie in [0, 1], got {self.beta2}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")


@dataclass
class OptimizerState:
    """First moment, second moment, and a monotone step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, dim: int) -> "OptimizerState":
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


@dataclass
class StepWorkspace:
    """Caller-owned dense buffers for allocation-free steps.

    A step given a workspace returns its delta in ``delta``, valid until the
    next step that uses the workspace; ``temp`` holds intermediates.
    """

    delta: np.ndarray
    temp: np.ndarray

    @classmethod
    def fresh(cls, dim: int) -> "StepWorkspace":
        return cls(delta=np.empty(dim), temp=np.empty(dim))


@dataclass
class UpdateResult:
    """One step's parameter delta."""

    delta_theta: np.ndarray


def _check_grad(state: OptimizerState, grad, coords):
    """The gradient values and the index the moment updates write through."""
    if coords is not None:
        return grad, coords
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.m.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match state shape {state.m.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError("gradient contains non-finite entries")
    return grad, ...


def _buffers(work: StepWorkspace | None):
    return (None, None) if work is None else (work.delta, work.temp)


MOMENT_FLOOR = 1e-290
"""Moment magnitudes below this are flushed to exact zero periodically.

A coordinate that goes untouched for thousands of steps has its moment decay
geometrically toward the subnormal range, where it parks (rounding keeps the
smallest subnormal alive under repeated scaling) and every later vector pass
pays the hardware's denormal penalty. Magnitudes near the floor are some 270
orders below anything that can move the parameters, so the flush leaves
trajectories unchanged while keeping the arrays in normal range.
"""

FLUSH_EVERY = 64
"""Steps between moment flushes, keyed to the step counter.

Between flushes a surviving magnitude decays by at most beta ** 63, which for
any beta above 0.53 stays clear of the subnormal range. Fast-decaying
moments can dip below it transiently for a handful of coordinates; the next
flush clears them.
"""


def _flush_tiny(arr: np.ndarray) -> None:
    mask = np.absolute(arr) < MOMENT_FLOOR
    if mask.any():
        arr[mask] = 0.0


def _ema(arr: np.ndarray, beta: float, idx, x) -> None:
    """arr <- beta*arr + (1-beta)*x, where x lives on arr[idx]."""
    arr *= beta
    arr[idx] += (1.0 - beta) * x


def adam_step(
    state: OptimizerState,
    config: AdamConfig,
    grad,
    theta: np.ndarray | None = None,
    coords=None,
    work: StepWorkspace | None = None,
) -> UpdateResult:
    """Advance Adam by one step, mutating ``state`` and returning the update.

    ``theta`` is only consulted when ``config.weight_decay > 0``, in which
    case the raw gradient is augmented with ``weight_decay * theta`` before
    the moment updates (coupled L2); that gradient is dense whatever form
    ``grad`` came in.
    """
    grad, idx = _check_grad(state, grad, coords)
    out, temp = _buffers(work)
    if config.weight_decay > 0.0:
        if theta is None:
            raise ValueError("weight_decay > 0 requires the current parameters")
        full = np.multiply(np.asarray(theta, dtype=float), config.weight_decay, out=temp)
        full[idx] += grad
        grad, idx = full, ...

    b1, b2 = config.beta1, config.beta2
    state.t += 1
    _ema(state.m, b1, idx, grad)
    _ema(state.v, b2, idx, grad * grad)
    if state.t % FLUSH_EVERY == 0:
        _flush_tiny(state.m)
        _flush_tiny(state.v)

    c1 = c2 = 1.0  # raw moments: dividing by one is exact
    if config.bias_correction:
        c1 = 1.0 - b1 ** state.t
        if b2 < 1.0:
            c2 = 1.0 - b2 ** state.t
    m_hat = np.divide(state.m, c1, out=temp)
    denom = np.divide(state.v, c2, out=out)
    np.sqrt(denom, out=denom)
    denom += config.epsilon
    delta = np.divide(m_hat, denom, out=denom)
    delta *= -config.lr
    return UpdateResult(delta_theta=delta)


def rmsprop_step(
    state: OptimizerState,
    config: AdamConfig,
    grad,
    coords=None,
    work: StepWorkspace | None = None,
) -> UpdateResult:
    """Advance RMSProp by one step.

    Identical to Adam with beta1 = 0 and bias correction disabled: the first
    moment is left untouched and the raw gradient steers the update.
    """
    grad, idx = _check_grad(state, grad, coords)
    out, _ = _buffers(work)
    state.t += 1
    _ema(state.v, config.beta2, idx, grad * grad)
    if state.t % FLUSH_EVERY == 0:
        _flush_tiny(state.v)

    denom = np.sqrt(state.v, out=out)
    denom += config.epsilon
    if coords is None:
        delta = np.divide(grad, denom, out=denom)
    else:
        # the dense form divides a zero by every other coordinate's denominator
        touched = grad / denom[coords]
        delta = np.divide(0.0, denom, out=denom)
        delta[coords] = touched
    delta *= -config.lr
    return UpdateResult(delta_theta=delta)


def sgd_momentum_step(
    state: OptimizerState,
    lr: float,
    beta1: float,
    grad,
    coords=None,
    work: StepWorkspace | None = None,
) -> UpdateResult:
    """Advance damped-momentum SGD by one step; beta1 = 0 is plain descent."""
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not 0.0 <= beta1 < 1.0:
        raise ValueError(f"beta1 must lie in [0, 1), got {beta1}")
    grad, idx = _check_grad(state, grad, coords)
    out, _ = _buffers(work)
    state.t += 1
    _ema(state.m, beta1, idx, grad)
    if state.t % FLUSH_EVERY == 0:
        _flush_tiny(state.m)
    return UpdateResult(delta_theta=np.multiply(state.m, -lr, out=out))
