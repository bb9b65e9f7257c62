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

Called without a live set (below), every stepper writes its delta into a
dense buffer the state owns and returns that array, valid until the state's
next step; a caller that needs it longer copies it. Off the periodic flush,
a sparse step without weight decay thus allocates no dense array; a dense
step allocates temporaries.

A stepper may also be given a live set, ``live``: unique ints that hold the
step's coordinates. The moments still decay over every coordinate, but the
square root, the divisions and the lr scale run over the live set alone,
and the returned buffer is valid there only. Beside each rule, a settling
test (``adam_settled``, ``rmsprop_settled``, ``sgd_settled``, each called
as (state, config, theta, idx)) names the coordinates ``idx`` whose every
update until their next gradient provably rounds away against theta:
fl(theta + delta) == theta. A caller that adds every coordinate a gradient
touches to its live set before the step, and drops only settled ones,
moves theta bit for bit as the dense delta would. The settling tests
assume no weight decay, whose gradient touches every coordinate on every
step. A coordinate no gradient has touched updates by -0.0, which moves no
theta, only while epsilon > 0 (Adam and RMSProp); at epsilon = 0 its
update is 0/0, so such a caller starts its live set full.

Why the settling tests hold. fl(theta + delta) == theta when
|delta| < |theta|*2^-54, since the gaps either side of a nonzero theta are
at least |theta|*2^-53. Between gradients a moment only decays:
m <- fl(beta1*m), v <- fl(beta2*v), and the flush only zeroes, so |m| never
grows, and it shrinks by beta1 per step up to a rounding of 1 + 2^-53 in
the normal range; a moment under MOMENT_FLOOR may round rather than decay
until its flush zeroes it, which the bounds absorb as an added MOMENT_FLOOR.
The bias correction c1 only grows with t, and c2 <= 1 only enlarges v. So,
with t the state's step count and k >= 1 steps without a gradient:

    Adam     |delta(t+k)| <= lr/c1(t+1) * min((beta1*|m| + MOMENT_FLOOR)/eps,
                                              beta1*|m|/sqrt(beta2*v) + MOMENT_FLOOR/eps)
    SGD      |delta(t+k)| <= lr * (beta1*|m| + MOMENT_FLOOR)

Adam's eps branch holds because the denominator never falls below eps. The
sqrt(v) branch needs the ratio m/sqrt(v) to shrink, by beta1/sqrt(beta2)
per step, so it is used only when beta1 < sqrt(beta2) with room for the
roundings (beta2 = 0.7 leaves the eps branch alone); and it needs the
denominator to stay above sqrt(v) decayed, which a flush that zeroes v (at
v < MOMENT_FLOOR) breaks unless eps is at least sqrt(MOMENT_FLOOR), about
1e-145. RMSProp's numerator off its batch is +0.0, so its update there is
exactly fl(0/denominator * -lr) = -0.0 wherever the denominator is positive,
and -0.0 + theta == theta for every theta, so its coordinates settle right
after their step. A factor 2 on every bound covers the few roundings of each
update and of the bound itself. theta = +-0, a subnormal theta and a NaN or
inf bound never settle.

Adam and RMSProp end in one adaptive update, -lr * (n/c1) / (sqrt(v/c2) + eps),
with n = m for Adam, and for RMSProp n = g, zero off its batch, and
c1 = c2 = 1. Adam's bias corrections c1 = 1 - beta1^t and c2 = 1 - beta2^t
are divided by only while they differ from 1.0. In float64 each rounds to
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
    "adam_settled",
    "adam_step",
    "rmsprop_settled",
    "rmsprop_step",
    "sgd_momentum_step",
    "sgd_settled",
]


def _check_lr_beta1(lr: float, beta1: float) -> None:
    """Reject a step size or first-moment decay that no stepper accepts."""
    if not 0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not 0.0 <= beta1 < 1.0:
        raise ValueError(f"beta1 must lie in [0, 1), got {beta1}")


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
        _check_lr_beta1(self.lr, self.beta1)
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
    dense gradient may live in ``delta`` but not in ``temp``. A step over a
    live set computes in the first slots of both buffers and leaves ``delta``
    valid on the live set only (module docstring).
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


def _ema(arr: np.ndarray, beta: float, idx, x, t: int) -> None:
    """arr <- beta*arr + (1-beta)*x, x on arr[idx] (grad * grad for a second moment).

    At each step t that FLUSH_EVERY divides, the magnitudes below MOMENT_FLOOR go to zero.
    """
    arr *= beta
    arr[idx] += (1.0 - beta) * x
    if t % FLUSH_EVERY == 0:
        mask = np.absolute(arr) < MOMENT_FLOOR
        if mask.any():
            arr[mask] = 0.0


def _rounds_away(bound: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Where fl(theta + delta) == theta for every |delta| <= 2*bound.

    The gaps either side of a float64 theta != 0 are at least |theta|*2^-53,
    so an add smaller than |theta|*2^-54 rounds back to theta; the factor 2
    covers the roundings a bound leaves out. The test fails for theta = +-0,
    for a subnormal theta (whose |theta|*2^-54 rounds to 0), and for a NaN
    theta or bound.
    """
    return 2.0 * bound < np.absolute(theta) * 2.0**-54


def _bias_corrections(config: AdamConfig, t: int) -> tuple[float, float]:
    """Adam's (c1, c2) at step t; both 1.0 without bias correction."""
    if not config.bias_correction:
        return 1.0, 1.0
    b1, b2 = config.beta1, config.beta2
    return 1.0 - b1**t, 1.0 - b2**t if b2 < 1.0 else 1.0


def _adaptive_update(
    state: OptimizerState, config: AdamConfig, num, v, c1: float, c2: float, live
) -> np.ndarray:
    """delta[live] <- -lr * (num/c1) / (sqrt(v/c2) + eps); returns state.delta.

    num and v are views over every coordinate, copies over a live set. num
    may live in temp, not in delta, whose first n slots take the denominator.
    """
    n = v.size
    # x / 1.0 is x bit for bit, so a correction that has rounded to 1.0 is skipped
    num_hat = num if c1 == 1.0 else np.divide(num, c1, out=state.temp[:n])
    v_hat = v if c2 == 1.0 else np.divide(v, c2, out=state.delta[:n])
    denom = np.sqrt(v_hat, out=state.delta[:n])
    denom += config.epsilon
    step = np.divide(num_hat, denom, out=denom)
    step *= -config.lr
    # to the live coordinates; numpy copies the overlapping right-hand side
    # first, and over every coordinate the assignment is a no-op
    state.delta[live] = step
    return state.delta


def adam_step(
    state: OptimizerState,
    config: AdamConfig,
    grad,
    theta: np.ndarray | None = None,
    coords=None,
    live=...,
) -> np.ndarray:
    """Advance Adam by one step, mutating ``state`` and returning the update.

    The update is ``state.delta``, valid until the state's next step, and
    only on ``live`` when a live set is given (see the module docstring).

    ``theta`` is only consulted when ``config.weight_decay > 0``, in which
    case the raw gradient is augmented with ``weight_decay * theta`` before
    the moment updates (coupled L2); that gradient is dense whatever form
    ``grad`` came in, so ``live`` must then be every coordinate.
    """
    grad, idx = _check_grad(state, grad, coords)
    if config.weight_decay > 0.0:
        if theta is None:
            raise ValueError("weight_decay > 0 requires the current parameters")
        full = np.multiply(np.asarray(theta, dtype=float), config.weight_decay, out=state.temp)
        full[idx] += grad
        grad, idx = full, ...

    state.t += 1
    _ema(state.m, config.beta1, idx, grad, state.t)
    _ema(state.v, config.beta2, idx, grad * grad, state.t)

    c1, c2 = _bias_corrections(config, state.t)
    return _adaptive_update(state, config, state.m[live], state.v[live], c1, c2, live)


def adam_settled(
    state: OptimizerState, config: AdamConfig, theta: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Which coordinates ``idx`` no Adam update moves until their next gradient.

    The bound is the module docstring's, taken after the state's last step
    and for steps without weight decay.
    """
    b1, eps = config.beta1, config.epsilon
    c1, _ = _bias_corrections(config, state.t + 1)
    m = np.absolute(state.m[idx])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = (b1 * m + MOMENT_FLOOR) / eps
        # m/sqrt(v) shrinks, roundings included, and a zeroed v leaves eps >= sqrt(v)
        if b1 * b1 * (1 + 2**-48) < config.beta2 and eps * eps >= MOMENT_FLOOR:
            ratio = b1 * m / np.sqrt(config.beta2 * state.v[idx]) + MOMENT_FLOOR / eps
            bound = np.fmin(bound, ratio)  # fmin: a 0/0 ratio leaves the eps branch
        return _rounds_away(config.lr / c1 * bound, theta[idx])


def rmsprop_step(
    state: OptimizerState,
    config: AdamConfig,
    grad,
    coords=None,
    live=...,
) -> np.ndarray:
    """Advance RMSProp by one step.

    Adam with beta1 = 0 and no bias correction, bit for bit when the gradient
    spans every coordinate (a sparse zero update can differ in sign): the
    adaptive update with the gradient, scattered over the live set, as its
    numerator. That is +0.0 off the batch, where the update is thus exactly
    -0.0, which is why ``rmsprop_settled`` holds. The update is
    ``state.delta``, valid until the next step, and only on ``live``.
    """
    grad, idx = _check_grad(state, grad, coords)
    state.t += 1
    _ema(state.v, config.beta2, idx, grad * grad, state.t)
    # the gradient is read before state.delta, where it may live, is written
    state.temp[live] = 0.0
    state.temp[idx] = grad
    return _adaptive_update(state, config, state.temp[live], state.v[live], 1.0, 1.0, live)


def rmsprop_settled(
    state: OptimizerState, config: AdamConfig, theta: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Which coordinates ``idx`` no RMSProp update moves until their next gradient.

    Off its batch the update is exactly -0.0 wherever the denominator is
    positive, which takes epsilon > 0 (else a v the flush zeroes leaves 0/0),
    and -0.0 leaves every theta as it is, so ``theta`` is not read.
    """
    return (np.sqrt(state.v[idx]) + config.epsilon > 0) & (config.epsilon > 0)


def sgd_momentum_step(
    state: OptimizerState,
    lr: float,
    beta1: float,
    grad,
    coords=None,
    live=...,
) -> np.ndarray:
    """Advance damped-momentum SGD by one step; beta1 = 0 is plain descent.

    The update is ``state.delta``, valid until the state's next step, and
    only on ``live`` when a live set is given.
    """
    _check_lr_beta1(lr, beta1)
    grad, idx = _check_grad(state, grad, coords)
    state.t += 1
    _ema(state.m, beta1, idx, grad, state.t)
    m = state.m[live]
    state.delta[live] = np.multiply(m, -lr, out=state.delta[: m.size])
    return state.delta


def sgd_settled(
    state: OptimizerState, config: AdamConfig, theta: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Which coordinates ``idx`` no SGD update moves until their next gradient."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = config.lr * (config.beta1 * np.absolute(state.m[idx]) + MOMENT_FLOOR)
        return _rounds_away(bound, theta[idx])
