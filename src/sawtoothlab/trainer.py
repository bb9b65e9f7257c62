"""Instrumented incremental training loop over the quadratic testbed.

Each step draws the next scheduled batch, evaluates its loss and gradient
at the current parameters, applies one optimizer update, and records a
trace row. Probing additionally follows one fixed batch per epoch (the
batch sitting at a configured position of the epoch's realized order) and
records its loss plus the inner products of its gradient with the step
gradient, the momentum, and the applied update. All probe quantities that
involve the tracked batch's gradient evaluate it at the pre-update
parameters of the step, matching the step's own gradient; momentum and the
update delta are the post-update values of the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optim import (
    AdamConfig,
    OptimizerState,
    StepWorkspace,
    adam_step,
    rmsprop_step,
    sgd_momentum_step,
)
from .problem import (
    Batch,
    QuadraticProblem,
    batch_loss,
    batch_loss_grad,
    generate_quadratic,
    toy_losses,
)
from .schedule import POLICIES, EpochSchedule, batches_per_epoch

__all__ = [
    "TRACE_COLUMNS",
    "TRACE_DTYPE",
    "Trace",
    "RunConfig",
    "ToyConfig",
    "RunResult",
    "run",
    "run_toy",
    "probe_epoch_start_losses",
    "oscillation_amplitude",
    "TOY_THETA0",
    "TOY_BETA2",
    "TOY_EPSILON",
]

TRACE_COLUMNS = (
    "epoch",
    "step",
    "global_step",
    "batch_loss",
    "g_norm",
    "m_norm",
    "v_norm",
    "tracked_loss",
    "dot_g",
    "dot_m",
    "dot_dtheta",
    "cum_dot",
)
# epoch, step and global_step count; every other column is a float
TRACE_DTYPE = np.dtype(
    [
        (name, np.int64 if name in ("epoch", "step", "global_step") else np.float64)
        for name in TRACE_COLUMNS
    ]
)

# Columns that only carry values when probing is enabled.
PROBE_COLUMNS = ("tracked_loss", "dot_g", "dot_m", "dot_dtheta", "cum_dot")


class Trace:
    """Columnar store of the per-step trace (one numpy array per column)."""

    def __init__(self, columns: dict[str, np.ndarray], probes_enabled: bool) -> None:
        n = None
        for name in TRACE_COLUMNS:
            col = columns[name]
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise ValueError("trace columns must share one length")
            setattr(self, name, col)
        self.probes_enabled = probes_enabled

    @classmethod
    def empty(cls, num_epochs: int, epoch_len: int, probes_enabled: bool) -> Trace:
        """A trace of num_epochs epochs of epoch_len steps, every float NaN.

        The count columns come from that epoch layout, so a step loop writes
        only the values it measures; run() cuts a diverged trace short. Each
        epoch's epoch_mean_loss is then summed from the trace in step order.
        """
        rows = num_epochs * epoch_len
        counts = {
            "epoch": np.repeat(np.arange(1, num_epochs + 1), epoch_len),
            "step": np.tile(np.arange(epoch_len), num_epochs),
            "global_step": np.arange(rows),
        }
        floats = {name: np.full(rows, np.nan) for name in TRACE_COLUMNS if name not in counts}
        return cls(counts | floats, probes_enabled)

    def __len__(self) -> int:
        return len(self.epoch)

    def epoch_rows(self, epoch: int) -> np.ndarray:
        return np.flatnonzero(self.epoch == epoch)


@dataclass
class RunConfig:
    """Everything a quadratic-testbed run depends on."""

    optimizer: str = "adam"  # adam | rmsprop | sgd
    lr: float = 0.06
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True
    num_functions: int = 10000
    dim: int = 10000
    problem_seed: int = 13
    x_init: float | np.ndarray = 3.0
    policy: str = "shuffle"
    batch_size: int = 1
    initial_shuffle: bool = False
    num_epochs: int = 9
    seed: int = 12
    probe: bool = True
    tracked_batch: int = 100
    probe_stride: int = 1
    epoch_start_probe_epoch: int | None = None
    # testbed batch losses live in O(1..20); runaway runs shoot past 1e7
    # within the first epoch, so 1e6 separates the two regimes cleanly
    divergence_ceiling: float = 1e6

    def __post_init__(self) -> None:
        if self.optimizer not in ("adam", "rmsprop", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.epoch_start_probe_epoch is not None and not (
            1 <= self.epoch_start_probe_epoch <= self.num_epochs
        ):
            # an epoch the run never reaches would be recorded and never probed
            raise ValueError(
                f"epoch_start_probe_epoch must lie in [1, {self.num_epochs}], "
                f"got {self.epoch_start_probe_epoch}"
            )
        if self.probe_stride < 1:
            raise ValueError("probe_stride must be >= 1")
        if self.divergence_ceiling <= 0:
            raise ValueError("divergence_ceiling must be positive")
        self.adam_config()  # lr, betas, epsilon and weight_decay
        if self.optimizer != "adam" and self.weight_decay != 0:
            # only adam_step reads it, so it would be recorded and ignored
            raise ValueError(
                f"weight_decay applies to adam only, got {self.weight_decay} "
                f"for {self.optimizer}"
            )
        if self.optimizer != "sgd" and not self.epsilon > 0:
            # every coordinate a batch misses would divide 0 by sqrt(0)
            raise ValueError(
                f"epsilon must be positive for {self.optimizer}, got {self.epsilon}"
            )
        if self.optimizer != "sgd" and self.beta2 == 1:
            # v never leaves 0, so every step is lr*m/epsilon and the run diverges
            raise ValueError(f"beta2 must be < 1 for {self.optimizer}, got {self.beta2}")
        if not 1 <= self.batch_size <= self.num_functions:
            raise ValueError(
                f"batch_size must lie in [1, {self.num_functions}], got {self.batch_size}"
            )
        bpe = batches_per_epoch(self.num_functions, self.batch_size)
        if self.probe and not 0 <= self.tracked_batch < bpe:
            raise ValueError(
                f"tracked_batch must lie in [0, {bpe}), got {self.tracked_batch}"
            )

    def adam_config(self) -> AdamConfig:
        """Stepper hyperparameters; RMSProp ignores beta1, so it gets 0."""
        return AdamConfig(
            lr=self.lr,
            beta1=self.beta1 if self.optimizer != "rmsprop" else 0.0,
            beta2=self.beta2,
            epsilon=self.epsilon,
            weight_decay=self.weight_decay,
            bias_correction=self.bias_correction,
        )


@dataclass
class ToyConfig:
    sequencing: str
    momentum_beta1: float
    lr: float
    epochs: int
    theta0: float


@dataclass
class RunResult:
    config: object
    trace: Trace
    diverged: bool
    divergence_step: int | None
    epoch_mean_loss: np.ndarray
    epoch_start_losses: np.ndarray | None = None
    epoch_start_probe_epoch: int | None = None

    @property
    def final_mean_loss(self) -> float:
        if len(self.epoch_mean_loss) == 0:
            return float("nan")
        return float(self.epoch_mean_loss[-1])


def _initial_theta(config: RunConfig, dim: int) -> np.ndarray:
    if np.isscalar(config.x_init):
        return np.full(dim, float(config.x_init))
    theta = np.array(config.x_init, dtype=float)
    if theta.shape != (dim,):
        raise ValueError(f"x_init must be a scalar or a length-{dim} vector")
    return theta


def _dot(arr: np.ndarray, coords, vals) -> float:
    """arr . g for a gradient in batch_loss_grad's (coords, vals) form.

    A single member's scalar pair multiplies; arrays reduce through matmul.
    """
    if isinstance(coords, np.ndarray):
        return float(arr[coords] @ vals)
    return arr.item(coords) * vals


def _norm(dense: np.ndarray, coords, vals) -> float:
    """|g| from g's dense form, whose dot keeps the bits a sparse one would not.

    A single member's |value| is that dot's square root, bit for bit, as long
    as its square neither underflows nor overflows.
    """
    if isinstance(coords, np.ndarray):
        return math.sqrt(dense @ dense)
    return abs(vals)


def run(config: RunConfig) -> RunResult:
    """Execute one configured run and return its trace and summaries."""
    problem = generate_quadratic(
        config.problem_seed, config.num_functions, config.dim
    )
    theta = _initial_theta(config, problem.dim)
    state = OptimizerState.fresh(problem.dim)
    work = StepWorkspace.fresh(problem.dim)
    opt_config = config.adam_config()
    if config.optimizer == "adam":
        def step_fn(coords, vals):
            return adam_step(state, opt_config, vals, theta, coords, work)
    elif config.optimizer == "rmsprop":
        def step_fn(coords, vals):
            return rmsprop_step(state, opt_config, vals, coords, work)
    else:
        def step_fn(coords, vals):
            return sgd_momentum_step(state, config.lr, config.beta1, vals, coords, work)

    schedule = EpochSchedule(
        config.policy,
        config.num_functions,
        config.batch_size,
        config.seed,
        config.initial_shuffle,
    )
    bpe = batches_per_epoch(config.num_functions, config.batch_size)

    trace = Trace.empty(config.num_epochs, bpe, config.probe)
    row = 0
    diverged = False
    epoch_start_losses = None
    ceiling = config.divergence_ceiling

    m_arr, v_arr = state.m, state.v
    # the step gradient in dense form, which g_norm and dot_g read: it is
    # zero off the step's coords, so each step re-zeroes only the last ones
    gbuf = np.zeros(problem.dim)
    coords = 0

    for epoch in range(1, config.num_epochs + 1):
        batches = schedule.peek_epoch_batches()
        if config.probe:
            tracked = Batch(indices=batches[config.tracked_batch].indices.copy())
        if epoch == config.epoch_start_probe_epoch:
            epoch_start_losses = probe_epoch_start_losses(problem, schedule, theta)
        cum_dot = 0.0
        for step in range(bpe):
            batch = schedule.next_batch()
            gbuf[coords] = 0.0
            loss, coords, vals = batch_loss_grad(problem, batch, theta)
            g_norm = math.nan
            if math.isfinite(loss) and abs(loss) <= ceiling:
                gbuf[coords] = vals
                g_norm = _norm(gbuf, coords, vals)
            # a diverged step is recorded, without a probe or an update, and ends the run
            diverged = not math.isfinite(g_norm)
            probed = not diverged and config.probe and step % config.probe_stride == 0
            if probed:
                tracked_loss, t_coords, t_vals = batch_loss_grad(problem, tracked, theta)
                dot_g = _dot(gbuf, t_coords, t_vals)
            if not diverged:
                delta = step_fn(coords, vals).delta_theta
                theta += delta

            trace.batch_loss[row] = loss
            trace.g_norm[row] = g_norm
            trace.m_norm[row] = math.sqrt(m_arr @ m_arr)
            trace.v_norm[row] = math.sqrt(v_arr @ v_arr)
            if probed:
                dot_dtheta = _dot(delta, t_coords, t_vals)
                cum_dot += dot_dtheta
                trace.tracked_loss[row] = tracked_loss
                trace.dot_g[row] = dot_g
                trace.dot_m[row] = _dot(m_arr, t_coords, t_vals)
                trace.dot_dtheta[row] = dot_dtheta
                trace.cum_dot[row] = cum_dot
            row += 1
            if diverged:
                break
        if diverged:
            break

    trace = Trace(
        {name: getattr(trace, name)[:row] for name in TRACE_COLUMNS},
        probes_enabled=config.probe,
    )
    return RunResult(
        config=config,
        trace=trace,
        diverged=diverged,
        divergence_step=row - 1 if diverged else None,
        epoch_mean_loss=_epoch_mean_loss(trace),
        epoch_start_losses=epoch_start_losses,
        epoch_start_probe_epoch=config.epoch_start_probe_epoch
        if epoch_start_losses is not None
        else None,
    )


def probe_epoch_start_losses(
    problem: QuadraticProblem, schedule: EpochSchedule, theta: np.ndarray
) -> np.ndarray:
    """Loss of every batch of the schedule's current epoch, all at one theta.

    At an epoch boundary this samples the distribution whose spread shrinks
    like sigma^2/B with the batch size.
    """
    return np.array([batch_loss(problem, b, theta) for b in schedule.peek_epoch_batches()])


def _epoch_mean_loss(trace: Trace) -> np.ndarray:
    """Mean batch loss of each epoch the trace reaches, summed in step order.

    Each epoch starts at step 0. cumsum adds left to right as a running sum
    would; np.sum and np.mean add pairwise, which moves the last bits of
    the pinned meta.json means.
    """
    ends = np.flatnonzero(trace.step == 0)[1:]
    return np.array([np.cumsum(seg)[-1] / len(seg) for seg in np.split(trace.batch_loss, ends)])


# Starting point for the documented toy configuration, slightly off the
# symmetric point 0.5 so that the frozen order's two recorded losses do not
# coincide by accident of symmetry.
TOY_THETA0 = 0.505
# betas/epsilon for the toy's adaptive branch; the near-empty second moment
# early in the run is the amplification being demonstrated
TOY_BETA2 = 0.999
TOY_EPSILON = 1e-8


def run_toy(
    sequencing: str,
    momentum_beta1: float,
    lr: float = 0.1,
    epochs: int = 60,
    theta0: float = TOY_THETA0,
) -> RunResult:
    """Two-batch toy run contrasting a frozen order with epoch reversal.

    sequencing "fixed" visits the batches as AB, AB, ...; "reversed" visits
    them as AB, BA, AB, ... so that each boundary repeats a batch immediately.
    With momentum_beta1 = 0 each step is the plain incremental gradient
    method (SGD without momentum). A positive momentum_beta1 switches to the
    adaptive update (Adam without bias correction); the second moment starts
    empty, so early steps are strongly amplified, which is what makes the
    boundary re-exposure visibly larger than either plain-gradient run.
    """
    if sequencing not in ("fixed", "reversed"):
        raise ValueError(f"sequencing must be 'fixed' or 'reversed', got {sequencing!r}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    state = OptimizerState.fresh(1)
    if momentum_beta1 == 0.0:
        def step_fn(g):
            return sgd_momentum_step(state, lr, 0.0, g)
    else:
        adaptive = AdamConfig(
            lr=lr,
            beta1=momentum_beta1,
            beta2=TOY_BETA2,
            epsilon=TOY_EPSILON,
            bias_correction=False,
        )

        def step_fn(g):
            return adam_step(state, adaptive, g)
    policy = "fixed" if sequencing == "fixed" else "reverse"
    schedule = EpochSchedule(policy, num_samples=2, batch_size=1, seed=0)
    theta = np.array([float(theta0)])
    grads = np.array([[1.0], [-1.0]])
    trace = Trace.empty(epochs, 2, probes_enabled=False)
    for row in range(len(trace)):
        i = int(schedule.next_batch().indices[0])
        trace.batch_loss[row] = toy_losses(float(theta[0]))[i]
        theta += step_fn(grads[i]).delta_theta
        trace.g_norm[row] = abs(grads[i, 0])
        trace.m_norm[row] = abs(state.m[0])
        trace.v_norm[row] = state.v[0]
    config = ToyConfig(
        sequencing=sequencing,
        momentum_beta1=momentum_beta1,
        lr=lr,
        epochs=epochs,
        theta0=theta0,
    )
    return RunResult(
        config=config,
        trace=trace,
        diverged=False,
        divergence_step=None,
        epoch_mean_loss=_epoch_mean_loss(trace),
    )


def oscillation_amplitude(trace: Trace, tail_fraction: float = 0.25) -> float:
    """Max minus min of the recorded batch loss over the trailing window."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    k = max(4, int(round(tail_fraction * n)))
    k = min(k, n)
    tail = trace.batch_loss[n - k :]
    return float(np.max(tail) - np.min(tail))
