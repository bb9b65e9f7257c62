"""Instrumented incremental training loop over the quadratic testbed and the toy.

Each step draws the next scheduled batch, evaluates its loss and gradient
at the current parameters, applies one optimizer update, and records a
trace row. Probing additionally follows one fixed batch per epoch (the
batch sitting at a configured position of the epoch's realized order) and
records its loss plus the inner products of its gradient with the step
gradient, the momentum, and the applied update. All probe quantities that
involve the tracked batch's gradient evaluate it at the pre-update
parameters of the step, matching the step's own gradient; momentum and the
update delta are the post-update values of the same step.

The update is computed and applied on a live set of coordinates only, those
whose pending update can still move the parameters; off it the optimizer's
settling test proves the update rounds away, so the trace bits are those of
updating every coordinate (``_LiveSet``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optim import (
    FLUSH_EVERY,
    AdamConfig,
    OptimizerState,
    adam_settled,
    adam_step,
    rmsprop_settled,
    rmsprop_step,
    sgd_momentum_step,
    sgd_settled,
)
from .problem import EpochGather, generate_quadratic
from .schedule import EpochSchedule, batches_per_epoch

__all__ = [
    "TRACE_COLUMNS",
    "TRACE_DTYPE",
    "PROBE_COLUMNS",
    "Trace",
    "RunConfig",
    "RunResult",
    "run",
    "run_toy",
    "oscillation_amplitude",
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

        The count columns come from that epoch layout, so the row loop writes
        only the values it measures, and cuts a diverged trace short. Each
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
    # record every batch's loss at one theta at this epoch's start; spread shrinks like sigma^2/B
    epoch_start_probe_epoch: int | None = None
    # testbed batch losses live in O(1..20); runaway runs shoot past 1e7
    # within the first epoch, so 1e6 separates the two regimes cleanly
    divergence_ceiling: float = 1e6

    def __post_init__(self) -> None:
        if self.optimizer not in ("adam", "rmsprop", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        for key in ("seed", "problem_seed"):
            # numpy would reject a negative seed only once the run starts
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
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
        if not np.all(np.isfinite(self.x_init)):
            # the run would go on until a batch reached the coordinate, then flag DIVERGED
            raise ValueError("x_init must be finite")
        if not np.isscalar(self.x_init) and np.shape(self.x_init) != (self.dim,):
            raise ValueError(f"x_init must be a scalar or a length-{self.dim} vector")
        if not self.divergence_ceiling > 0:
            # inf is the way to ask for no ceiling; NaN would end every run at step 0
            raise ValueError(
                f"divergence_ceiling must be positive, got {self.divergence_ceiling}"
            )
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
        self.schedule()  # policy, num_functions and batch_size
        bpe = batches_per_epoch(self.num_functions, self.batch_size)
        if self.probe and not 0 <= self.tracked_batch < bpe:
            raise ValueError(
                f"tracked_batch must lie in [0, {bpe}), got {self.tracked_batch}"
            )

    def schedule(self) -> EpochSchedule:
        """The batch schedule this config describes, before its first epoch."""
        return EpochSchedule(
            self.policy, self.num_functions, self.batch_size, self.seed, self.initial_shuffle
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
class RunResult:
    """A run's trace and what it reads off it; a diverged trace ends on the diverged step."""

    config: RunConfig
    trace: Trace
    diverged: bool
    epoch_start_losses: np.ndarray | None = None

    @property
    def divergence_step(self) -> int | None:
        return len(self.trace) - 1 if self.diverged else None

    @property
    def epoch_mean_loss(self) -> np.ndarray:
        """Mean batch loss of each epoch the trace reaches, summed in step order.

        Each epoch starts at step 0. cumsum adds left to right as a running sum
        would; np.sum and np.mean add pairwise, which moves the last bits of
        the pinned meta.json means.
        """
        ends = np.flatnonzero(self.trace.step == 0)[1:]
        return np.array(
            [np.cumsum(seg)[-1] / len(seg) for seg in np.split(self.trace.batch_loss, ends)]
        )

    @property
    def final_mean_loss(self) -> float:
        return float(self.epoch_mean_loss[-1])


def _dot(arr: np.ndarray, coords, vals) -> float:
    """arr . g for a gradient in EpochGather.loss_grad's (coords, vals) form.

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


def _stepper(config: RunConfig, state: OptimizerState, theta: np.ndarray):
    """config.optimizer's step, (coords, vals, live) -> delta, and its settling test.

    The test, idx -> mask, is None under weight decay, whose gradient touches
    every coordinate on every step.
    """
    opt = config.adam_config()
    if config.optimizer == "adam":
        return (
            lambda coords, vals, live: adam_step(state, opt, vals, theta, coords, live),
            None if opt.weight_decay > 0 else lambda idx: adam_settled(state, opt, theta, idx),
        )
    if config.optimizer == "rmsprop":
        return (
            lambda coords, vals, live: rmsprop_step(state, opt, vals, coords, live),
            lambda idx: rmsprop_settled(state, opt, idx),
        )
    return (
        lambda coords, vals, live: sgd_momentum_step(
            state, config.lr, config.beta1, vals, coords, live
        ),
        lambda idx: sgd_settled(state, config.lr, config.beta1, theta, idx),
    )


# Above this share of dim the live set's gathers and scatters cost more than
# the dense passes they save, so every coordinate is live. Measured in
# process at dim 10,000 for Adam at B = 1, 4 and 16 (2 vCPUs, numpy 2.4.6):
# an adam_step and theta add over a live set of n coordinates matched a
# dense one between n = 2,000 and 3,500 across three runs. The share sits at
# the low end, since the live set's joins and prunes cost too.
DENSE_SHARE = 0.2


class _LiveSet:
    """The coordinates whose pending update may still move theta.

    They are the first n entries of idx, and mask marks them. A coordinate
    joins when a gradient touches it and leaves when the settling test
    proves that every update until its next gradient rounds away (module
    optim). A coordinate no gradient has touched has m = v = 0 and an
    update of -0.0, which leaves theta as it is, so it never joins. Past
    DENSE_SHARE of dim every coordinate is live, and joins stop until a
    prune over every coordinate shrinks the set again.
    """

    def __init__(self, dim: int, settled) -> None:
        self.mask = np.zeros(dim, dtype=bool)
        self.idx = np.empty(dim, dtype=np.intp)
        self.n = 0
        self.settled = settled
        # without a settling test every coordinate stays live
        self.dense_from = DENSE_SHARE * dim if settled is not None else -1

    def join(self, coords) -> None:
        """Add coords, an int or an array of unique ints."""
        if self.n > self.dense_from:
            return
        if isinstance(coords, np.ndarray):
            fresh = coords[~self.mask[coords]]
            self.mask[fresh] = True
            self.idx[self.n : self.n + fresh.size] = fresh
            self.n += fresh.size
        elif not self.mask[coords]:
            self.mask[coords] = True
            self.idx[self.n] = coords
            self.n += 1

    def index(self):
        """The live set as a step's index, ``...`` when every coordinate is live."""
        return ... if self.n > self.dense_from else self.idx[: self.n]

    def prune(self) -> None:
        """Drop the settled coordinates."""
        live = self.index()
        keep = ~self.settled(live)
        if live is ...:
            self.mask[:] = keep
            kept = np.flatnonzero(keep)
        else:
            self.mask[live[~keep]] = False
            kept = live[keep]
        self.n = kept.size
        self.idx[: self.n] = kept


def run(config: RunConfig) -> RunResult:
    """Execute one configured run and return its trace and summaries."""
    problem = generate_quadratic(config.problem_seed, config.num_functions, config.dim)
    return _train(config, lambda order: EpochGather(problem, order, config.batch_size).loss_grad)


def _train(config: RunConfig, epoch_loss_grad) -> RunResult:
    """Train config's schedule, one epoch at a time.

    epoch_loss_grad(order) takes an epoch's sample order and returns its
    loss_grad(k, theta) -> (loss, coords, vals) for the epoch's batch k.
    """
    theta = np.full(config.dim, config.x_init, dtype=float)
    state = OptimizerState.fresh(config.dim)
    step_fn, settled = _stepper(config, state, theta)
    live = _LiveSet(config.dim, settled)
    schedule = config.schedule()
    bpe = batches_per_epoch(config.num_functions, config.batch_size)

    trace = Trace.empty(config.num_epochs, bpe, config.probe)
    diverged = False
    epoch_start_losses = None
    ceiling = config.divergence_ceiling

    m_arr, v_arr = state.m, state.v
    # the step gradient in dense form, which g_norm and dot_g read: it is
    # zero off the step's coords, so each step re-zeroes only the last ones
    gbuf = np.zeros(config.dim)
    coords = 0

    for row in range(len(trace)):
        epoch, step = divmod(row, bpe)
        if step == 0:
            loss_grad = epoch_loss_grad(schedule.next_epoch_order())
            if epoch + 1 == config.epoch_start_probe_epoch:
                epoch_start_losses = np.array([loss_grad(k, theta)[0] for k in range(bpe)])
            cum_dot = 0.0
        gbuf[coords] = 0.0
        loss, coords, vals = loss_grad(step, theta)
        g_norm = math.nan
        if math.isfinite(loss) and abs(loss) <= ceiling:
            gbuf[coords] = vals
            g_norm = _norm(gbuf, coords, vals)
        # a diverged step is recorded, without a probe or an update, and ends the run
        diverged = not math.isfinite(g_norm)
        probed = not diverged and config.probe and step % config.probe_stride == 0
        if probed:
            tracked_loss, t_coords, t_vals = loss_grad(config.tracked_batch, theta)
            dot_g = _dot(gbuf, t_coords, t_vals)
        if not diverged:
            live.join(coords)
            if probed and step == 0:
                # dot_dtheta reads the update on the tracked batch all epoch
                live.join(t_coords)
            idx = live.index()
            delta = step_fn(coords, vals, idx)  # state.delta, valid on idx until the next step
            theta[idx] += delta[idx]
            if state.t % FLUSH_EVERY == 0 and settled is not None:
                live.prune()
                if config.probe:
                    live.join(t_coords)

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
        if diverged:
            # copies, so a diverged trace does not keep the full-length columns alive
            trace = Trace(
                {name: getattr(trace, name)[: row + 1].copy() for name in TRACE_COLUMNS},
                probes_enabled=config.probe,
            )
            break
    return RunResult(config, trace, diverged, epoch_start_losses)


def run_toy(
    sequencing: str,
    momentum_beta1: float,
    lr: float = 0.1,
    epochs: int = 60,
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
    policies = {"fixed": "fixed", "reversed": "reverse"}
    if sequencing not in policies:
        raise ValueError(f"sequencing must be 'fixed' or 'reversed', got {sequencing!r}")
    config = RunConfig(
        optimizer="sgd" if momentum_beta1 == 0.0 else "adam",
        lr=lr,
        beta1=momentum_beta1,
        # the adaptive branch's betas/epsilon; the near-empty second moment
        # early in the run is the amplification being demonstrated
        beta2=0.999,
        epsilon=1e-8,
        bias_correction=False,
        num_functions=2,  # batches A and B, on one parameter
        dim=1,
        # slightly off the symmetric point 0.5, so that the frozen order's two
        # recorded losses do not coincide by accident of symmetry
        x_init=0.505,
        policy=policies[sequencing],
        num_epochs=epochs,
        seed=0,
        probe=False,
        divergence_ceiling=math.inf,  # every finite toy run goes the full length
    )

    def epoch_loss_grad(order):
        # batch A's loss is theta and B's 1 - theta, so a step trades one for the other
        def loss_grad(k, theta):
            if order.item(k):
                return 1.0 - theta.item(), 0, -1.0
            return theta.item(), 0, 1.0

        return loss_grad

    return _train(config, epoch_loss_grad)


def oscillation_amplitude(trace: Trace) -> float:
    """Max minus min of the batch loss over the trace's last quarter, at least 4 rows."""
    n = len(trace)
    if n == 0:
        raise ValueError("empty trace")
    tail = trace.batch_loss[n - min(n, max(4, round(0.25 * n))) :]
    return float(np.max(tail) - np.min(tail))
