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
from typing import Iterator, NamedTuple

import numpy as np

from .optim import (
    FLUSH_EVERY,
    MOMENT_FLOOR,
    AdamConfig,
    OptimizerState,
    adam_step,
    rmsprop_step,
    sgd_momentum_step,
)
from .problem import (
    Batch,
    QuadraticProblem,
    batch_grad,
    batch_loss,
    generate_quadratic,
    sparse_batch_grad,
    toy_losses,
)
from .schedule import EpochSchedule, batches_per_epoch

__all__ = [
    "TRACE_COLUMNS",
    "StepTrace",
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

# Columns that only carry values when probing is enabled.
PROBE_COLUMNS = ("tracked_loss", "dot_g", "dot_m", "dot_dtheta", "cum_dot")


class StepTrace(NamedTuple):
    epoch: int
    step: int
    global_step: int
    batch_loss: float
    g_norm: float
    m_norm: float
    v_norm: float
    tracked_loss: float
    dot_g: float
    dot_m: float
    dot_dtheta: float
    cum_dot: float


class Trace:
    """Columnar store of StepTrace rows (one numpy array per column)."""

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

    def __len__(self) -> int:
        return len(self.epoch)

    def __getitem__(self, i: int) -> StepTrace:
        return StepTrace(
            *(getattr(self, name)[i] for name in TRACE_COLUMNS)
        )

    def __iter__(self) -> Iterator[StepTrace]:
        for i in range(len(self)):
            yield self[i]

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
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.probe_stride < 1:
            raise ValueError("probe_stride must be >= 1")
        if self.divergence_ceiling <= 0:
            raise ValueError("divergence_ceiling must be positive")
        self.adam_config()  # lr, betas, epsilon and weight_decay
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


def run(config: RunConfig) -> RunResult:
    """Execute one configured run and return its trace and summaries."""
    problem = generate_quadratic(
        config.problem_seed, config.num_functions, config.dim
    )
    theta = _initial_theta(config, problem.dim)
    state = OptimizerState.fresh(problem.dim)
    opt_config = config.adam_config()
    if config.optimizer == "adam":
        def step_fn(g):
            return adam_step(state, opt_config, g, theta)
    elif config.optimizer == "rmsprop":
        def step_fn(g):
            return rmsprop_step(state, opt_config, g)
    else:
        def step_fn(g):
            return sgd_momentum_step(state, config.lr, config.beta1, g)

    schedule = EpochSchedule(
        config.policy,
        config.num_functions,
        config.batch_size,
        config.seed,
        config.initial_shuffle,
    )
    bpe = batches_per_epoch(config.num_functions, config.batch_size)

    total = bpe * config.num_epochs
    cols = {
        "epoch": np.empty(total, dtype=np.int64),
        "step": np.empty(total, dtype=np.int64),
        "global_step": np.empty(total, dtype=np.int64),
    }
    for name in TRACE_COLUMNS[3:]:
        cols[name] = np.full(total, np.nan)

    row = 0
    diverged = False
    divergence_step = None
    epoch_start_losses = None
    epoch_sums: list[float] = []
    epoch_counts: list[int] = []
    ceiling = config.divergence_ceiling

    # locals for the hot loop
    col_epoch = cols["epoch"]
    col_step = cols["step"]
    col_global = cols["global_step"]
    col_loss = cols["batch_loss"]
    col_gn = cols["g_norm"]
    col_mn = cols["m_norm"]
    col_vn = cols["v_norm"]
    col_tl = cols["tracked_loss"]
    col_dg = cols["dot_g"]
    col_dm = cols["dot_m"]
    col_dd = cols["dot_dtheta"]
    col_cd = cols["cum_dot"]
    m_arr, v_arr = state.m, state.v

    # batch_size 1 touches a single coordinate per step; scalar arithmetic,
    # a reused dense gradient buffer, and an inlined moment update (same
    # expression forms as the optim module, so results stay bit-identical)
    # avoid per-step allocations.  Coupled L2 makes the effective gradient
    # dense, so weight decay falls back to the generic path.
    scalar_path = config.batch_size == 1 and config.weight_decay == 0.0
    if scalar_path:
        a_arr = np.ascontiguousarray(problem.coeffs[:, 0])
        b_arr = np.ascontiguousarray(problem.coeffs[:, 1])
        c_arr = np.ascontiguousarray(problem.coeffs[:, 2])
        j_arr = problem.dim_index
        gbuf = np.zeros(problem.dim)
        prev_j = -1
        mhat_buf = np.empty(problem.dim)
        vhat_buf = np.empty(problem.dim)
        delta_buf = np.empty(problem.dim)
        abs_buf = np.empty(problem.dim)
        mask_buf = np.empty(problem.dim, dtype=bool)
        opt_b1 = opt_config.beta1
        opt_b2 = opt_config.beta2
        opt_kind = config.optimizer

        def flush_tiny(arr):
            # mirrors the optim module's moment flush, reusing buffers
            np.absolute(arr, out=abs_buf)
            np.less(abs_buf, MOMENT_FLOOR, out=mask_buf)
            if mask_buf.any():
                arr[mask_buf] = 0.0

    for epoch in range(1, config.num_epochs + 1):
        batches = schedule.peek_epoch_batches()
        if config.probe:
            tracked = Batch(indices=batches[config.tracked_batch].indices.copy())
            if scalar_path:
                ti = int(tracked.indices[0])
                t_j = int(j_arr[ti])
                t_a = float(a_arr[ti])
                t_b = float(b_arr[ti])
                t_c = float(c_arr[ti])
        if epoch == config.epoch_start_probe_epoch:
            epoch_start_losses = probe_epoch_start_losses(problem, schedule, theta)
        cum_dot = 0.0
        loss_sum = 0.0
        steps_done = 0
        for step in range(bpe):
            batch = schedule.next_batch()
            if scalar_path:
                i = int(batch.indices[0])
                j = int(j_arr[i])
                d = theta[j] - b_arr[i]
                loss = float(a_arr[i] * (d * d) + c_arr[i])
            else:
                loss = batch_loss(problem, batch, theta)
            bad_loss = not math.isfinite(loss) or abs(loss) > ceiling
            g = None
            g_norm = math.nan
            if not bad_loss:
                if scalar_path:
                    gval = 2.0 * a_arr[i] * d
                    if prev_j >= 0:
                        gbuf[prev_j] = 0.0
                    gbuf[j] = gval
                    prev_j = j
                    g = gbuf
                    g_norm = abs(float(gval))
                else:
                    g = batch_grad(problem, batch, theta)
                    g_norm = float(np.sqrt(g @ g))
            if bad_loss or not math.isfinite(g_norm):
                col_epoch[row] = epoch
                col_step[row] = step
                col_global[row] = row
                col_loss[row] = loss
                col_gn[row] = g_norm
                col_mn[row] = float(np.sqrt(m_arr @ m_arr))
                col_vn[row] = float(np.sqrt(v_arr @ v_arr))
                loss_sum += loss
                steps_done += 1
                row += 1
                diverged = True
                divergence_step = row - 1
                break

            probed = config.probe and step % config.probe_stride == 0
            if probed:
                if scalar_path:
                    td = theta[t_j] - t_b
                    tracked_loss = float(t_a * (td * td) + t_c)
                    t_val = 2.0 * t_a * td
                    dot_g = float(g[t_j] * t_val)
                else:
                    tracked_loss = batch_loss(problem, tracked, theta)
                    t_coords, t_vals = sparse_batch_grad(problem, tracked, theta)
                    dot_g = float(g[t_coords] @ t_vals)

            if scalar_path:
                state.t += 1
                if opt_kind == "adam":
                    m_arr *= opt_b1
                    m_arr[j] += (1.0 - opt_b1) * gval
                    v_arr *= opt_b2
                    v_arr[j] += (1.0 - opt_b2) * (gval * gval)
                    if state.t % FLUSH_EVERY == 0:
                        flush_tiny(m_arr)
                        flush_tiny(v_arr)
                    if config.bias_correction:
                        np.divide(m_arr, 1.0 - opt_b1 ** state.t, out=mhat_buf)
                        if opt_b2 < 1.0:
                            np.divide(v_arr, 1.0 - opt_b2 ** state.t, out=vhat_buf)
                        else:
                            np.copyto(vhat_buf, v_arr)
                    else:
                        np.copyto(mhat_buf, m_arr)
                        np.copyto(vhat_buf, v_arr)
                    np.sqrt(vhat_buf, out=vhat_buf)
                    vhat_buf += opt_config.epsilon
                    np.divide(mhat_buf, vhat_buf, out=delta_buf)
                    delta_buf *= -opt_config.lr
                elif opt_kind == "rmsprop":
                    v_arr *= opt_b2
                    v_arr[j] += (1.0 - opt_b2) * (gval * gval)
                    if state.t % FLUSH_EVERY == 0:
                        flush_tiny(v_arr)
                    np.sqrt(v_arr, out=vhat_buf)
                    vhat_buf += opt_config.epsilon
                    np.divide(g, vhat_buf, out=delta_buf)
                    delta_buf *= -opt_config.lr
                else:
                    m_arr *= opt_b1
                    m_arr[j] += (1.0 - opt_b1) * gval
                    if state.t % FLUSH_EVERY == 0:
                        flush_tiny(m_arr)
                    np.multiply(m_arr, -opt_config.lr, out=delta_buf)
                delta_arr = delta_buf
            else:
                result = step_fn(g)
                delta_arr = result.delta_theta
            theta += delta_arr

            col_epoch[row] = epoch
            col_step[row] = step
            col_global[row] = row
            col_loss[row] = loss
            col_gn[row] = g_norm
            col_mn[row] = math.sqrt(m_arr @ m_arr)
            col_vn[row] = math.sqrt(v_arr @ v_arr)
            if probed:
                if scalar_path:
                    dot_m = float(m_arr[t_j] * t_val)
                    dot_dtheta = float(delta_arr[t_j] * t_val)
                else:
                    dot_m = float(m_arr[t_coords] @ t_vals)
                    dot_dtheta = float(delta_arr[t_coords] @ t_vals)
                cum_dot += dot_dtheta
                col_tl[row] = tracked_loss
                col_dg[row] = dot_g
                col_dm[row] = dot_m
                col_dd[row] = dot_dtheta
                col_cd[row] = cum_dot
            loss_sum += loss
            steps_done += 1
            row += 1
        if steps_done:
            epoch_sums.append(loss_sum)
            epoch_counts.append(steps_done)
        if diverged:
            break

    trace = Trace(
        {name: cols[name][:row] for name in TRACE_COLUMNS},
        probes_enabled=config.probe,
    )
    epoch_mean_loss = np.array(
        [s / c for s, c in zip(epoch_sums, epoch_counts)], dtype=float
    )
    return RunResult(
        config=config,
        trace=trace,
        diverged=diverged,
        divergence_step=divergence_step,
        epoch_mean_loss=epoch_mean_loss,
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
    batches = schedule.peek_epoch_batches()
    idx = np.concatenate([b.indices for b in batches])
    a = problem.coeffs[idx, 0]
    b = problem.coeffs[idx, 1]
    c = problem.coeffs[idx, 2]
    xj = theta[problem.dim_index[idx]]
    vals = a * (xj - b) ** 2 + c
    sizes = np.array([len(b_) for b_ in batches])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.add.reduceat(vals, starts) / sizes


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
    method. A positive momentum_beta1 switches to the adaptive update (first
    and second moment EMAs, no bias correction); the second moment starts
    empty, so early steps are strongly amplified, which is what makes the
    boundary re-exposure visibly larger than either plain-gradient run.
    """
    if sequencing not in ("fixed", "reversed"):
        raise ValueError(f"sequencing must be 'fixed' or 'reversed', got {sequencing!r}")
    if not 0.0 <= momentum_beta1 < 1.0:
        raise ValueError(f"momentum_beta1 must lie in [0, 1), got {momentum_beta1}")
    if lr <= 0:
        raise ValueError("lr must be positive")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    policy = "fixed" if sequencing == "fixed" else "reverse"
    schedule = EpochSchedule(policy, num_samples=2, batch_size=1, seed=0)
    theta = float(theta0)
    m = 0.0
    v = 0.0
    grads = (1.0, -1.0)
    total = 2 * epochs
    cols = {
        "epoch": np.empty(total, dtype=np.int64),
        "step": np.empty(total, dtype=np.int64),
        "global_step": np.empty(total, dtype=np.int64),
    }
    for name in TRACE_COLUMNS[3:]:
        cols[name] = np.full(total, np.nan)
    row = 0
    epoch_means = []
    for epoch in range(1, epochs + 1):
        losses_this_epoch = []
        for step in range(2):
            batch = schedule.next_batch()
            i = int(batch.indices[0])
            loss = toy_losses(theta)[i]
            g = grads[i]
            if momentum_beta1 == 0.0:
                theta -= lr * g
            else:
                m = momentum_beta1 * m + (1.0 - momentum_beta1) * g
                v = TOY_BETA2 * v + (1.0 - TOY_BETA2) * (g * g)
                theta -= lr * m / (math.sqrt(v) + TOY_EPSILON)
            cols["epoch"][row] = epoch
            cols["step"][row] = step
            cols["global_step"][row] = row
            cols["batch_loss"][row] = loss
            cols["g_norm"][row] = abs(g)
            cols["m_norm"][row] = abs(m)
            cols["v_norm"][row] = v
            losses_this_epoch.append(loss)
            row += 1
        epoch_means.append(float(np.mean(losses_this_epoch)))
    trace = Trace({name: cols[name] for name in TRACE_COLUMNS}, probes_enabled=False)
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
        epoch_mean_loss=np.array(epoch_means),
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
