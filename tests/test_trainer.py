"""Instrumented training loop: trace semantics, step-path equivalence, probes."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sawtoothlab.optim import (
    AdamConfig,
    OptimizerState,
    adam_step,
    rmsprop_step,
    sgd_momentum_step,
)
from sawtoothlab.problem import batch_grad, batch_loss, generate_quadratic, sparse_batch_grad
from sawtoothlab.schedule import POLICIES, EpochSchedule, batches_per_epoch
from sawtoothlab.traceio import write_trace_csv
from sawtoothlab.trainer import (
    PROBE_COLUMNS,
    TRACE_COLUMNS,
    RunConfig,
    Trace,
    oscillation_amplitude,
    probe_epoch_start_losses,
    run,
    run_toy,
)

SMALL = dict(num_functions=60, dim=30, problem_seed=3, seed=4, num_epochs=3, tracked_batch=5)


def _mirror_columns(config):
    """The same run rebuilt step by step from the public building blocks.

    No shortcuts: dense gradients, the optimizer module's own step
    functions, probe quantities recomputed from scratch. run() must agree
    with this bit for bit.
    """
    problem = generate_quadratic(config.problem_seed, config.num_functions, config.dim)
    theta = np.full(problem.dim, float(config.x_init))
    state = OptimizerState.fresh(problem.dim)
    opt = AdamConfig(
        lr=config.lr,
        beta1=config.beta1 if config.optimizer != "rmsprop" else 0.0,
        beta2=config.beta2,
        epsilon=config.epsilon,
        weight_decay=config.weight_decay,
        bias_correction=config.bias_correction,
    )
    sched = EpochSchedule(
        config.policy, config.num_functions, config.batch_size, config.seed,
        config.initial_shuffle,
    )
    bpe = batches_per_epoch(config.num_functions, config.batch_size)
    rows = []
    for epoch in range(1, config.num_epochs + 1):
        batches = sched.peek_epoch_batches()
        tracked = batches[config.tracked_batch]
        cum = 0.0
        for step in range(bpe):
            batch = sched.next_batch()
            loss = batch_loss(problem, batch, theta)
            g = batch_grad(problem, batch, theta)
            g_norm = float(np.sqrt(g @ g))
            tracked_loss = batch_loss(problem, tracked, theta)
            tc, tv = sparse_batch_grad(problem, tracked, theta)
            dot_g = float(g[tc] @ tv)
            if config.optimizer == "adam":
                res = adam_step(state, opt, g, theta)
            elif config.optimizer == "rmsprop":
                res = rmsprop_step(state, opt, g)
            else:
                res = sgd_momentum_step(state, config.lr, config.beta1, g)
            theta += res.delta_theta
            dot_m = float(state.m[tc] @ tv)
            dot_dtheta = float(res.delta_theta[tc] @ tv)
            cum += dot_dtheta
            rows.append(
                (loss, g_norm,
                 float(np.sqrt(state.m @ state.m)),
                 float(np.sqrt(state.v @ state.v)),
                 tracked_loss, dot_g, dot_m, dot_dtheta, cum)
            )
    return np.array(rows)


def _assert_matches_mirror(config):
    trace = run(config).trace
    mirror = _mirror_columns(config)
    for k, name in enumerate(TRACE_COLUMNS[3:]):
        np.testing.assert_array_equal(
            getattr(trace, name), mirror[:, k], err_msg=name
        )


def test_run_is_deterministic():
    a = run(RunConfig(**SMALL)).trace
    b = run(RunConfig(**SMALL)).trace
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    c = run(RunConfig(**{**SMALL, "seed": 99})).trace
    assert not np.array_equal(a.batch_loss, c.batch_loss)


@pytest.mark.parametrize("optimizer", ["adam", "rmsprop", "sgd"])
def test_b1_run_matches_building_blocks(optimizer):
    _assert_matches_mirror(RunConfig(optimizer=optimizer, **SMALL))


def _has_duplicate_coords(config):
    """Whether some step batch of the run puts two members on one coordinate."""
    problem = generate_quadratic(config.problem_seed, config.num_functions, config.dim)
    sched = EpochSchedule(
        config.policy, config.num_functions, config.batch_size, config.seed,
        config.initial_shuffle,
    )
    bpe = batches_per_epoch(config.num_functions, config.batch_size)
    for _ in range(config.num_epochs * bpe):
        j = problem.dim_index[sched.next_batch().indices]
        if len(np.unique(j)) < len(j):
            return True
    return False


@pytest.mark.parametrize("optimizer", ["adam", "rmsprop", "sgd"])
def test_minibatch_path_matches_building_blocks(optimizer):
    _assert_matches_mirror(
        RunConfig(optimizer=optimizer, batch_size=4, **{**SMALL, "tracked_batch": 3})
    )
    # members sharing a coordinate accumulate into one sparse gradient entry
    crowded = RunConfig(
        optimizer=optimizer, batch_size=8, **{**SMALL, "dim": 6, "tracked_batch": 2}
    )
    assert _has_duplicate_coords(crowded)
    _assert_matches_mirror(crowded)


@settings(max_examples=40, deadline=None)
@given(
    optimizer=st.sampled_from(["adam", "rmsprop", "sgd"]),
    batch_size=st.sampled_from([1, 2, 3, 8]),
    policy=st.sampled_from(POLICIES),
    bias_correction=st.booleans(),
    beta2=st.sampled_from([0.9, 0.999]),
    epsilon=st.sampled_from([1e-8, 1e-3]),
    num_functions=st.integers(8, 40),
    dim=st.integers(3, 20),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_run_matches_building_blocks_on_random_configs(
    optimizer, batch_size, policy, bias_correction, beta2, epsilon,
    num_functions, dim, seed, data,
):
    bpe = batches_per_epoch(num_functions, batch_size)
    # RunConfig accepts weight decay for Adam only
    decays = st.sampled_from([0.0, 0.1]) if optimizer == "adam" else st.just(0.0)
    weight_decay = data.draw(decays, label="weight_decay")
    config = RunConfig(
        optimizer=optimizer, batch_size=batch_size, policy=policy,
        bias_correction=bias_correction, beta2=beta2, epsilon=epsilon,
        weight_decay=weight_decay, num_functions=num_functions, dim=dim,
        problem_seed=seed, seed=seed + 1, num_epochs=2,
        tracked_batch=data.draw(st.integers(0, bpe - 1), label="tracked_batch"),
    )
    # The mirror has no divergence ceiling, so it only describes runs that
    # finish.
    assume(not run(config).diverged)
    _assert_matches_mirror(config)


# SHA-256 of write_trace_csv's bytes for small runs, recorded before the
# B = 1 scalar fast path and the generic step path were merged into one.
# _assert_matches_mirror compares values, so it cannot see the sign of a
# zero cell; these digests can.
TRACE_DIGESTS = {
    "adam": ({}, "b2cbb0a8b3e9da5585c9ffccced7ef88b3fac5b1b96f58de43dd46177c1df6f8"),
    "rmsprop": (
        {"optimizer": "rmsprop"},
        "f5f61da3c7fa3084e86862318036abc18f23a2e7bc17c64a792748ed991742bc",
    ),
    "sgd": (
        {"optimizer": "sgd"},
        "c09e6908d56aa2fca87b3f41e95b2c1796124d75ab8dba1445395c4f4a6e802b",
    ),
    "adam_b4": (
        {"batch_size": 4, "tracked_batch": 3},
        "cb67c85b116bc73dd7574291c889990348b4d535dbee052d745c685b919cf10c",
    ),
    "adam_b8": (
        {"batch_size": 8, "tracked_batch": 3},
        "11893e92f5c5d463cd44ecae8b0f60889c483fc74c87f7bc9166b9a445720870",
    ),
    "adam_weight_decay": (
        {"weight_decay": 0.1},
        "22df07ef55022c3475daefb8f79d50d8d17ade8934ea711793d17095d89bae46",
    ),
}
# The weight-decay run at B = 1 was recorded on the generic path, whose
# one-element matmul probes gave +0.0 where a single member's product is
# -0.0; every B = 1 run now multiplies, as the fast path did. Its bytes are
# pinned as they are now, and equal the recording once -0.0 cells read 0.0.
WEIGHT_DECAY_DIGEST = "d536daa9200a56563f73a5172bd698957643088bd310b89a6cd70bc729895681"


@pytest.mark.parametrize("case", list(TRACE_DIGESTS))
def test_trace_bytes_match_recorded_digests(case, tmp_path):
    overrides, digest = TRACE_DIGESTS[case]
    path = tmp_path / "trace.csv"
    write_trace_csv(run(RunConfig(**{**SMALL, **overrides})).trace, path)
    data = path.read_bytes()
    if case == "adam_weight_decay":
        assert hashlib.sha256(data).hexdigest() == WEIGHT_DECAY_DIGEST
        data = re.sub(rb",-0\.0(?=,|\r\n)", b",0.0", data)
    assert hashlib.sha256(data).hexdigest() == digest


def test_weight_decay_run_matches_building_blocks():
    cfg = RunConfig(weight_decay=0.1, **SMALL)
    _assert_matches_mirror(cfg)
    plain = run(RunConfig(**SMALL)).trace
    decayed = run(cfg).trace
    assert not np.array_equal(plain.batch_loss, decayed.batch_loss)


def test_divergence_by_ceiling_threshold():
    cfg = RunConfig(
        num_functions=50, dim=10, problem_seed=1, seed=1, num_epochs=2,
        probe=False, tracked_batch=0, divergence_ceiling=1e-3,
    )
    res = run(cfg)
    assert res.diverged
    assert res.divergence_step == 0
    assert len(res.trace) == 1
    assert np.isnan(res.trace.g_norm[0])  # flagged before the gradient
    assert res.epoch_mean_loss.shape == (1,)


def test_runaway_run_is_cut_short():
    cfg = RunConfig(
        optimizer="sgd", lr=1000.0, num_functions=50, dim=10, problem_seed=1,
        seed=1, num_epochs=3, probe=False, tracked_batch=0,
    )
    res = run(cfg)
    assert res.diverged
    assert res.divergence_step is not None
    assert len(res.trace) == res.divergence_step + 1
    assert len(res.trace) < 3 * 50


def test_diverged_step_is_recorded_unprobed_and_without_an_update():
    cfg = RunConfig(
        optimizer="sgd", lr=1000.0, num_functions=50, dim=10, problem_seed=1,
        seed=1, num_epochs=3, tracked_batch=0,
    )
    res = run(cfg)
    trace = res.trace
    assert res.diverged and len(trace) >= 2
    assert not abs(trace.batch_loss[-1]) <= cfg.divergence_ceiling
    assert np.isnan(trace.g_norm[-1])
    # the optimizer state is the previous step's: no update was applied
    assert trace.m_norm[-1] == trace.m_norm[-2]
    assert trace.v_norm[-1] == trace.v_norm[-2]
    assert trace.global_step[-1] == res.divergence_step
    for name in PROBE_COLUMNS:
        assert not np.isnan(getattr(trace, name)[-2])
        assert np.isnan(getattr(trace, name)[-1])


def test_small_default_run_completes():
    res = run(RunConfig(**SMALL))
    assert not res.diverged
    assert res.divergence_step is None
    assert len(res.trace) == 3 * 60
    assert np.isfinite(res.trace.batch_loss).all()


def test_epoch_mean_loss_matches_trace():
    res = run(RunConfig(**SMALL))
    for e in range(1, 4):
        rows = res.trace.epoch_rows(e)
        assert res.epoch_mean_loss[e - 1] == pytest.approx(
            float(np.mean(res.trace.batch_loss[rows])), rel=1e-12
        )
    assert res.final_mean_loss == res.epoch_mean_loss[-1]


def _step_order_means(trace):
    sums, counts = {}, {}
    for epoch, loss in zip(trace.epoch.tolist(), trace.batch_loss.tolist()):
        sums[epoch] = sums.get(epoch, 0.0) + loss
        counts[epoch] = counts.get(epoch, 0) + 1
    return np.array([sums[e] / counts[e] for e in sorted(sums)])


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        # 60 = 8 * 7 + 4, so every epoch ends in a short batch
        {"batch_size": 7},
        # diverges 32 steps into epoch 3
        {"optimizer": "sgd", "lr": 3.0, "num_functions": 50, "dim": 10,
         "problem_seed": 1, "seed": 1, "probe": False},
    ],
    ids=["small", "short_last_batch", "diverged"],
)
def test_epoch_mean_loss_is_the_step_order_sum(overrides):
    # meta.json pins these bytes, which a pairwise sum (np.sum, np.mean) moves
    res = run(RunConfig(**{**SMALL, **overrides}))
    assert res.diverged == ("lr" in overrides)
    if res.diverged:
        assert len(res.epoch_mean_loss) == 3 and len(res.trace) % 50 != 0
    np.testing.assert_array_equal(res.epoch_mean_loss, _step_order_means(res.trace))


def test_tracked_batch_invariants(reduced_run):
    trace = reduced_run.result.trace
    bstar = reduced_run.result.config.tracked_batch
    for e in range(1, reduced_run.result.config.num_epochs + 1):
        rows = trace.epoch_rows(e)
        r = rows[bstar]
        # at its own step the tracked batch is the step batch, so the
        # gradient inner product collapses to the squared gradient norm
        assert trace.dot_g[r] == trace.g_norm[r] ** 2
        # the step taken on the tracked batch lowers its loss
        assert trace.tracked_loss[r + 1] < trace.tracked_loss[r]
        # first-order telescoping: summed update alignments reproduce the
        # tracked-loss path while the stale-momentum phase lasts
        tl = trace.tracked_loss[rows]
        cd = trace.cum_dot[rows]
        for t in range(1, bstar + 1):
            pred = tl[0] + cd[t - 1]
            assert abs(pred - tl[t]) <= 1e-4 * max(abs(tl[t]), 1e-12)


def test_cum_dot_resets_and_accumulates():
    res = run(RunConfig(**SMALL))
    trace = res.trace
    for e in range(1, 4):
        rows = trace.epoch_rows(e)
        running = 0.0
        for r in rows:
            running += trace.dot_dtheta[r]
            assert trace.cum_dot[r] == running


def test_probe_stride_leaves_gaps():
    res = run(RunConfig(probe_stride=5, **SMALL))
    trace = res.trace
    probed = trace.step % 5 == 0
    for name in ("tracked_loss", "dot_g", "dot_m", "dot_dtheta", "cum_dot"):
        col = getattr(trace, name)
        assert np.isfinite(col[probed]).all()
        assert np.isnan(col[~probed]).all()
    rows = trace.epoch_rows(2)
    dots = trace.dot_dtheta[rows]
    cums = trace.cum_dot[rows]
    running = 0.0
    for d, c in zip(dots, cums):
        if np.isnan(d):
            assert np.isnan(c)
        else:
            running += d
            assert c == running


def test_probe_disabled():
    res = run(RunConfig(probe=False, **{**SMALL, "tracked_batch": 9999}))
    trace = res.trace
    assert not trace.probes_enabled
    for name in ("tracked_loss", "dot_g", "dot_m", "dot_dtheta", "cum_dot"):
        assert np.isnan(getattr(trace, name)).all()


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(optimizer="adagrad")
    with pytest.raises(ValueError):
        RunConfig(num_epochs=0)
    with pytest.raises(ValueError):
        RunConfig(probe_stride=0)
    with pytest.raises(ValueError):
        RunConfig(divergence_ceiling=0.0)
    # everything run() depends on is checked when the config is built
    for bad in (
        {"tracked_batch": 60},
        {"batch_size": 4, "tracked_batch": 15},
        {"batch_size": 0},
        {"batch_size": 61},
        {"lr": 0.0},
        {"beta1": 1.0},
        {"beta2": 1.5},
        # v would stay 0 and every step would be lr * m / epsilon
        {"beta2": 1.0},
        {"optimizer": "rmsprop", "beta2": 1.0},
        {"optimizer": "sgd", "beta1": -0.1},
        {"epsilon": -1e-8},
        {"epsilon": 0.0},
        {"optimizer": "rmsprop", "epsilon": 0.0},
        {"weight_decay": -0.1},
        # only adam_step applies weight decay
        {"optimizer": "rmsprop", "weight_decay": 0.1},
        {"optimizer": "sgd", "weight_decay": 0.1},
        # run() would fail on these only once the run starts
        {"policy": "bogus"},
        {"dim": 0},
        # an epoch the run never reaches would be recorded and never probed
        {"epoch_start_probe_epoch": 0},
        {"epoch_start_probe_epoch": 4},
    ):
        with pytest.raises(ValueError):
            RunConfig(**{**SMALL, **bad})
    # RMSProp has no first moment, so its beta1 goes unchecked
    RunConfig(optimizer="rmsprop", **{**SMALL, "beta1": 1.0})
    # SGD never divides by the second moment, so epsilon = 0 is harmless
    RunConfig(optimizer="sgd", **{**SMALL, "epsilon": 0.0})
    # and it keeps no second moment, so beta2 = 1 is harmless too
    RunConfig(optimizer="sgd", **{**SMALL, "beta2": 1.0})


def test_vector_x_init():
    x0 = np.linspace(-1.0, 1.0, 30)
    res = run(RunConfig(x_init=x0, **SMALL))
    plain = run(RunConfig(**SMALL))
    assert not np.array_equal(res.trace.batch_loss, plain.trace.batch_loss)
    with pytest.raises(ValueError):
        run(RunConfig(x_init=np.ones(7), **SMALL))


def test_epoch_start_probe_capture():
    res = run(RunConfig(epoch_start_probe_epoch=1, **SMALL))
    assert res.epoch_start_probe_epoch == 1
    losses = res.epoch_start_losses
    assert losses is not None and len(losses) == 60
    # batch 0 is evaluated at the same theta by the probe and the trace
    assert losses[0] == res.trace.batch_loss[0]
    assert run(RunConfig(**SMALL)).epoch_start_losses is None


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_epoch_start_losses_are_batch_losses(batch_size):
    problem = generate_quadratic(7, 500, 40)
    theta = np.random.default_rng(2).normal(size=40)
    sched = EpochSchedule("shuffle", 500, batch_size, seed=3)
    losses = probe_epoch_start_losses(problem, sched, theta)
    batches = sched.peek_epoch_batches()
    assert len(losses) == len(batches)
    for k, batch in enumerate(batches):
        assert losses[k] == batch_loss(problem, batch, theta)


def test_epoch_start_spread_shrinks_with_batch_size():
    problem = generate_quadratic(7, 4096, 512)
    theta = np.full(512, 3.0)
    variances = {}
    for B in (1, 4, 16, 64):
        sched = EpochSchedule("shuffle", 4096, B, seed=3)
        losses = probe_epoch_start_losses(problem, sched, theta)
        assert len(losses) == 4096 // B
        variances[B] = float(np.var(losses, ddof=1))
    for B in (4, 16, 64):
        ratio = variances[B] / (variances[1] / B)
        assert 0.6 < ratio < 1.6


def test_trace_container():
    res = run(RunConfig(**SMALL))
    trace = res.trace
    assert len(trace) == 180
    np.testing.assert_array_equal(trace.global_step, np.arange(180))
    rows = trace.epoch_rows(2)
    assert (trace.epoch[rows] == 2).all()
    with pytest.raises(ValueError):
        Trace(
            {name: np.zeros(3 if name == "epoch" else 2) for name in TRACE_COLUMNS},
            probes_enabled=False,
        )


def test_toy_plain_gradient_is_periodic():
    fixed = run_toy("fixed", 0.0)
    np.testing.assert_allclose(fixed.trace.batch_loss[:4], [0.505, 0.595, 0.505, 0.595])
    np.testing.assert_allclose(fixed.trace.batch_loss[-4:], [0.505, 0.595, 0.505, 0.595])
    np.testing.assert_allclose(fixed.epoch_mean_loss, np.full(60, 0.55))
    rev = run_toy("reversed", 0.0)
    np.testing.assert_allclose(rev.trace.batch_loss[:4], [0.505, 0.595, 0.495, 0.605])
    assert oscillation_amplitude(fixed.trace) == pytest.approx(0.09)
    assert oscillation_amplitude(rev.trace) == pytest.approx(0.11)


def test_toy_adaptive_branch_amplifies_boundary():
    res = run_toy("reversed", 0.9)
    trace = res.trace
    assert (trace.g_norm == 1.0).all()
    assert (trace.v_norm[1:] > 0).all()
    assert trace.m_norm.max() > 0
    amp = oscillation_amplitude(trace)
    assert amp > oscillation_amplitude(run_toy("reversed", 0.0).trace)
    assert amp == pytest.approx(0.280966, abs=1e-5)


# SHA-256 of write_trace_csv's bytes for the three cmd_toy cases, recorded
# while run_toy still wrote its epoch, step and global_step cells one by one.
TOY_DIGESTS = {
    ("fixed", 0.0): "9fcf9244c94fae499032e58fa8bbfccc5c73cd2a910160adfdab1a30bba609fa",
    ("reversed", 0.0): "056f32acc2b8746f645834c0ad5cdf99a0e9020e835238aba61041302b3720d4",
    ("reversed", 0.9): "d2abc5d5d341b3d1e789a592971fe5050fbcd20aa642d8d7b1c1d40a5378a10e",
}


@pytest.mark.parametrize("case", list(TOY_DIGESTS), ids=lambda c: f"{c[0]}_{c[1]}")
def test_toy_trace_bytes_match_recorded_digests(case, tmp_path):
    path = tmp_path / "toy.csv"
    write_trace_csv(run_toy(*case).trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TOY_DIGESTS[case]


def test_toy_validation():
    with pytest.raises(ValueError):
        run_toy("random", 0.0)
    with pytest.raises(ValueError):
        run_toy("fixed", 1.0)
    with pytest.raises(ValueError):
        run_toy("fixed", 0.0, lr=0.0)
    with pytest.raises(ValueError):
        run_toy("fixed", 0.0, epochs=0)


def test_oscillation_amplitude_windowing():
    def trace_of(values):
        n = len(values)
        cols = {name: np.zeros(n) for name in TRACE_COLUMNS}
        cols["batch_loss"] = np.asarray(values, dtype=float)
        return Trace(cols, probes_enabled=False)

    tr = trace_of([0.0, 0.0, 0.0, 0.0, 5.0, 1.0, 9.0, 3.0])
    # 25 percent of 8 rounds to 2 but the window never shrinks below 4
    assert oscillation_amplitude(tr, tail_fraction=0.25) == 8.0
    assert oscillation_amplitude(tr, tail_fraction=1.0) == 9.0
    short = trace_of([1.0, 7.0, 2.0])
    assert oscillation_amplitude(short, tail_fraction=0.25) == 6.0
    with pytest.raises(ValueError):
        oscillation_amplitude(tr, tail_fraction=0.0)
    with pytest.raises(ValueError):
        oscillation_amplitude(trace_of([]))
