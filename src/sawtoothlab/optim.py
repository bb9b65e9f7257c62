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
on the scattered gradient value for value. The dense form is the sparse
form over every coordinate (index ``...``), through the same update lines.

Every stepper writes its delta into a dense buffer the state owns and
returns that array, valid until the state's next step; a caller that needs
it longer copies it. Off the periodic flush, a sparse step without weight
decay thus allocates no dense array; a dense step allocates temporaries.

Adam divides the moments by the bias corrections c1 = 1 - beta1^t and
c2 = 1 - beta2^t only while they differ from 1.0. In float64 each rounds to
exactly 1.0 once beta^t falls below 2^-54 (t = 356 for beta1 = 0.9,
t = 37,412 for beta2 = 0.999), and without bias correction both are 1.0
from the first step. Dividing by 1.0 returns its operand bit for bit
(signed zeros, subnormals, inf and NaN included), so skipping it cannot
move a bit; it saves one full-length pass per skipped division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdamConfig",
    "OptimizerState",
    "adam_step",
    "rmsprop_step",
    "sgd_momentum_step",
]


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
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 <= 1.0:
            raise ValueError(f"beta2 must lie in [0, 1], got {self.beta2}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be nonnegative and finite, got {self.weight_decay}"
            )


@dataclass
class OptimizerState:
    """First moment, second moment, and a monotone step counter.

    ``delta`` receives each step's update and ``temp`` its intermediates; a
    dense gradient may live in ``delta`` but not in ``temp``.
    """

    m: np.ndarray
    v: np.ndarray
    delta: np.ndarray
    temp: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, dim: int) -> "OptimizerState":
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return cls(m=np.zeros(dim), v=np.zeros(dim), delta=np.empty(dim), temp=np.empty(dim))


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
        raise ValueError("gradient contains non-finite entries")
    return grad, ...


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


def _ema(arr: np.ndarray, beta: float, idx, x, t: int, square: bool = False) -> None:
    """arr <- beta*arr + (1-beta)*x, where x lives on arr[idx], at step t.

    With square, x^2 takes x's place.
    Every FLUSH_EVERY steps the magnitudes below MOMENT_FLOOR go to zero.
    """
    arr *= beta
    arr[idx] += (1.0 - beta) * (x * x if square else x)
    if t % FLUSH_EVERY == 0:
        mask = np.absolute(arr) < MOMENT_FLOOR
        if mask.any():
            arr[mask] = 0.0


def adam_step(
    state: OptimizerState,
    config: AdamConfig,
    grad,
    theta: np.ndarray | None = None,
    coords=None,
) -> np.ndarray:
    """Advance Adam by one step, mutating ``state`` and returning the update.

    The update is ``state.delta``, valid until the state's next step.

    ``theta`` is only consulted when ``config.weight_decay > 0``, in which
    case the raw gradient is augmented with ``weight_decay * theta`` before
    the moment updates (coupled L2); that gradient is dense whatever form
    ``grad`` came in.

    A bias correction that equals 1.0 (from t = 356 for c1 at beta1 = 0.9,
    from t = 37,412 for c2 at beta2 = 0.999, and from t = 1 without bias
    correction) is not divided by: the raw moment is used in place, which
    gives the same bits because x / 1.0 == x exactly for every float64 x.
    """
    grad, idx = _check_grad(state, grad, coords)
    if config.weight_decay > 0.0:
        if theta is None:
            raise ValueError("weight_decay > 0 requires the current parameters")
        full = np.multiply(np.asarray(theta, dtype=float), config.weight_decay, out=state.temp)
        full[idx] += grad
        grad, idx = full, ...

    b1, b2 = config.beta1, config.beta2
    state.t += 1
    _ema(state.m, b1, idx, grad, state.t)
    _ema(state.v, b2, idx, grad, state.t, square=True)

    c1 = c2 = 1.0  # raw moments
    if config.bias_correction:
        c1 = 1.0 - b1 ** state.t
        if b2 < 1.0:
            c2 = 1.0 - b2 ** state.t
    # x / 1.0 is x bit for bit, so a correction that has rounded to 1.0 is skipped
    m_hat = state.m if c1 == 1.0 else np.divide(state.m, c1, out=state.temp)
    v_hat = state.v if c2 == 1.0 else np.divide(state.v, c2, out=state.delta)
    denom = np.sqrt(v_hat, out=state.delta)
    denom += config.epsilon
    delta = np.divide(m_hat, denom, out=denom)
    delta *= -config.lr
    return delta


def rmsprop_step(
    state: OptimizerState,
    config: AdamConfig,
    grad,
    coords=None,
) -> np.ndarray:
    """Advance RMSProp by one step.

    Adam with beta1 = 0 and no bias correction, bit for bit when the gradient
    spans every coordinate (a sparse zero update can differ in sign): the raw
    gradient steers it. The update is ``state.delta``, valid until the next step.
    """
    grad, idx = _check_grad(state, grad, coords)
    state.t += 1
    _ema(state.v, config.beta2, idx, grad, state.t, square=True)

    denom = np.sqrt(state.v, out=state.temp)
    denom += config.epsilon
    # off the index the scattered gradient is a zero, divided like the rest;
    # the gradient is read before state.delta, where it may live, is written
    touched = grad / denom[idx]
    delta = np.divide(0.0, denom, out=state.delta)
    delta[idx] = touched
    delta *= -config.lr
    return delta


def sgd_momentum_step(
    state: OptimizerState,
    lr: float,
    beta1: float,
    grad,
    coords=None,
) -> np.ndarray:
    """Advance damped-momentum SGD by one step; beta1 = 0 is plain descent.

    The update is ``state.delta``, valid until the state's next step.
    """
    if not 0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not 0.0 <= beta1 < 1.0:
        raise ValueError(f"beta1 must lie in [0, 1), got {beta1}")
    grad, idx = _check_grad(state, grad, coords)
    state.t += 1
    _ema(state.m, beta1, idx, grad, state.t)
    return np.multiply(state.m, -lr, out=state.delta)
