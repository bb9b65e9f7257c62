"""Instrumented training loop: trace semantics, step-path equivalence, probes."""

import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_digest
from sawtoothlab import trainer
from sawtoothlab.optim import (
    AdamConfig,
    OptimizerState,
    adam_settled,
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
    run,
    run_toy,
)

SMALL = dict(num_functions=60, dim=30, problem_seed=3, seed=4, num_epochs=3, tracked_batch=5)
# SMALL's overrides for runs whose coordinates go long enough between visits to settle
SETTLING = dict(num_functions=3000, dim=3000, num_epochs=2)


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
            theta += res
            dot_m = float(state.m[tc] @ tv)
            dot_dtheta = float(res[tc] @ tv)
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
    "adam": (
        {},
        {
            "SkylakeX": "b2cbb0a8b3e9da5585c9ffccced7ef88b3fac5b1b96f58de43dd46177c1df6f8",
            "Haswell": "86c946473eae3475e85d3f84872df78bfc77db42c74afc368e2886184578e183",
        },
    ),
    "rmsprop": (
        {"optimizer": "rmsprop"},
        {
            "SkylakeX": "f5f61da3c7fa3084e86862318036abc18f23a2e7bc17c64a792748ed991742bc",
            "Haswell": "ba95a19f008a331d24ec8a5d8fc983e4bbba05c3e413289a7169351876ca7fda",
        },
    ),
    "sgd": (
        {"optimizer": "sgd"},
        {
            "SkylakeX": "c09e6908d56aa2fca87b3f41e95b2c1796124d75ab8dba1445395c4f4a6e802b",
            "Haswell": "94db4b5e6fc65e1904806e327a730405faebc926a4e25234f1d8e826b096e5ef",
        },
    ),
    "adam_b4": (
        {"batch_size": 4, "tracked_batch": 3},
        {
            "SkylakeX": "cb67c85b116bc73dd7574291c889990348b4d535dbee052d745c685b919cf10c",
            "Haswell": "e2adc81ee2e388b5ac773a92b7b97cb097335b7594756762acd719bfa2f7bed6",
        },
    ),
    "adam_b8": (
        {"batch_size": 8, "tracked_batch": 3},
        {
            "SkylakeX": "11893e92f5c5d463cd44ecae8b0f60889c483fc74c87f7bc9166b9a445720870",
            "Haswell": "46c5e907ecd3fbd3d9a49c6b62b045781f120f54e440172aead1ec073d971f67",
        },
    ),
    "adam_weight_decay": (
        {"weight_decay": 0.1},
        {
            "SkylakeX": "22df07ef55022c3475daefb8f79d50d8d17ade8934ea711793d17095d89bae46",
            "Haswell": "2450122ad7dba3cc93aa1b86aee3d9062c7daa6970ced3a71c15667e644db7f0",
        },
    ),
    # recorded while every step batch still sorted and searched its own coordinates
    "adam_replacement_b4": (
        {"policy": "replacement", "batch_size": 4, "tracked_batch": 3},
        {
            "SkylakeX": "88e112523653e181810458482092f9c42a99147fcae655fd1d30be4ffd0f9a4c",
            "Haswell": "0fe467df1265351d6d4c9ff33b5c55d531ef2d46455fb7834035d66fd7e85f12",
        },
    ),
    # test_minibatch_path_matches_building_blocks' crowded run: members share coordinates
    "adam_crowded_b8": (
        {"batch_size": 8, "dim": 6, "tracked_batch": 2},
        {
            "SkylakeX": "19db83e470cec1a7c0cbc194d317eab4fead142b11d45e994c9b3058b9b16dd1",
            "Haswell": "7f3c813d59bfa6093a7306dfe3d66a579e4bc11f2c147119100bc915396c1758",
        },
    ),
    # 60 = 3 * 16 + 12: each epoch ends on a short batch, which is the tracked one
    "adam_b16_short_last_batch": (
        {"batch_size": 16, "tracked_batch": 3},
        {
            "SkylakeX": "e77a048f16c04e9bbca8e98b870966b5945c25c714870287ea617a4cda3cd2f5",
            "Haswell": "b4ac145fe591874d171a557c14b8ca8fec44a7c01e352d7aeeadd0b8d31bec8e",
        },
    ),
    # recorded while every step still updated every coordinate: a coordinate
    # waits thousands of steps between visits here, long enough for its
    # update to round away against theta, so these runs step a live set
    "adam_settling": (
        SETTLING,
        {
            "SkylakeX": "0724c5abdddb243a531ae92d2d93b6709486c7a48770e59f7d650c92462844b0",
            "Haswell": "4d7e015e83d411f287eebcbf5a5caf732993ae4d111e30054adc8e5869857ed0",
        },
    ),
    # four coordinates a step need a larger dim to leave most of them settled
    "adam_settling_b4": (
        {**SETTLING, "num_functions": 8000, "dim": 8000, "batch_size": 4},
        {
            "SkylakeX": "7362b212d1a1856bedccae985285da420cc64e24eb98c44dcf9ae1af250dbb92",
            "Haswell": "9d3083e9571a53359da1ea6dfb0d633a9956a120cda15220c1dd192c68096e82",
        },
    ),
    # beta1 > sqrt(beta2): only the epsilon branch of Adam's bound holds; the
    # loss grows past the default ceiling, so the run goes on to the end
    "adam_settling_beta2_0.7": (
        {**SETTLING, "beta2": 0.7, "divergence_ceiling": np.inf},
        {
            "SkylakeX": "77340a4ddc36aff6f7d9a7fd0c051acee08d1d90e563be2dd9d2a1d2dc2e03b0",
            "Haswell": "f388fc2eeef551bff58eab30ab20c32da7a8bcb805ca668e11f11eaecb45c45a",
        },
    ),
    # theta starts at +0.0, which never settles, and m, v are used raw
    "adam_settling_x0_raw": (
        {**SETTLING, "x_init": 0.0, "bias_correction": False},
        {
            "SkylakeX": "22c32adcff0babcb134839164ffe00f7c08e825b8d2d91f6a3897a32f5abf903",
            "Haswell": "bdf82b1e362b37269288c63f0e8cf94c01d4ce649c57f0ef864a3517394f20f9",
        },
    ),
    "rmsprop_settling": (
        {**SETTLING, "optimizer": "rmsprop"},
        {
            "SkylakeX": "5d9f7d0651731fcf5e40efc6c851979027c6fa77b5fff4be5400e36b9a175a6b",
            "Haswell": "c63c1b7c13e9145f12ebb6f886b6e180dc9a8efec1d0ff406b6cc59771ec7aec",
        },
    ),
    "sgd_settling": (
        {**SETTLING, "optimizer": "sgd"},
        {
            "SkylakeX": "26278dbe305df97726efb31c5ca7bcd4201bc42ad6d89dd9e95e0f9d232f9232",
            "Haswell": "77ffc01286ee0d355df17ab3884717d77ee7d23711df0d7d048786ec5ba4d44d",
        },
    ),
}
# The weight-decay run at B = 1 was recorded on the generic path, whose
# one-element matmul probes gave +0.0 where a single member's product is
# -0.0; every B = 1 run now multiplies, as the fast path did. Its bytes are
# pinned as they are now, and equal the recording once -0.0 cells read 0.0.
WEIGHT_DECAY_DIGEST = {
    "SkylakeX": "d536daa9200a56563f73a5172bd698957643088bd310b89a6cd70bc729895681",
    "Haswell": "63f8fcfe74dfe97d87725d0824e0ede14e05652e2377b0af9b1ce56fb8f76255",
}


@pytest.mark.parametrize("case", list(TRACE_DIGESTS))
def test_trace_bytes_match_recorded_digests(case, tmp_path):
    overrides, digest = TRACE_DIGESTS[case]
    path = tmp_path / "trace.csv"
    write_trace_csv(run(RunConfig(**{**SMALL, **overrides})).trace, path)
    data = path.read_bytes()
    if case == "adam_weight_decay":
        assert_digest(hashlib.sha256(data).hexdigest(), WEIGHT_DECAY_DIGEST)
        data = re.sub(rb",-0\.0(?=,|\r\n)", b",0.0", data)
    assert_digest(hashlib.sha256(data).hexdigest(), digest)


def _adam_digest_test_on(core):
    """Run the adam trace digest test in a subprocess on the given OpenBLAS core."""
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_trainer.py::test_trace_bytes_match_recorded_digests[adam]"],
        cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_CORETYPE": core},
        capture_output=True, text=True, timeout=300,
    )


def test_a_digest_failure_names_the_recorded_and_the_running_core():
    # no digest is recorded on Nehalem, whose kernels round the trace's BLAS
    # dots differently again, so the test fails and names all the cores
    proc = _adam_digest_test_on("Nehalem")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "no digest recorded on OpenBLAS core Nehalem; recorded on SkylakeX, Haswell" in (
        proc.stdout
    )


def test_a_digest_holds_on_each_core_it_is_recorded_on():
    # the Haswell kernels give other trace bits than SkylakeX's, and the
    # digest recorded on Haswell holds there
    proc = _adam_digest_test_on("Haswell")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_settling_run_matches_building_blocks():
    # the mirror steps every coordinate densely; run() steps its live set
    _assert_matches_mirror(RunConfig(**{**SMALL, **SETTLING}))


@pytest.mark.parametrize("share", [0.0, 1.0], ids=["all_dense", "all_live_set"])
@pytest.mark.parametrize(
    "overrides",
    [{}, {"probe_stride": 7}, {"optimizer": "rmsprop"}, {"optimizer": "sgd"},
     {"x_init": 0.0, "bias_correction": False}, {"batch_size": 4, "tracked_batch": 3},
     {"optimizer": "rmsprop", "batch_size": 4, "tracked_batch": 3}],
    ids=["adam", "probe_stride", "rmsprop", "sgd", "x0_raw", "adam_b4", "rmsprop_b4"],
)
def test_trace_bits_do_not_depend_on_the_dense_share(share, overrides, monkeypatch):
    # share 0 steps every coordinate from the first step on, share 1 never
    # does; the default switches between the two as the live set grows and shrinks
    config = RunConfig(**{**SMALL, **SETTLING, **overrides})
    expected = run(config).trace
    monkeypatch.setattr(trainer, "DENSE_SHARE", share)
    trace = run(config).trace
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(
            getattr(trace, name).view(np.int64), getattr(expected, name).view(np.int64),
            err_msg=name,
        )


def test_live_set_holds_only_joined_coordinates_past_the_dense_share():
    # theta = 0 never settles, theta = 1 settles at once under a fresh state;
    # a coordinate no gradient touched must stay out of the set at every size
    dim = 100
    theta = np.zeros(dim)
    theta[::4] = 1.0
    state, cfg = OptimizerState.fresh(dim), AdamConfig()
    live = trainer._LiveSet(dim, lambda idx: adam_settled(state, cfg, theta, idx))
    joined = np.arange(0, 60, 2)
    live.join(joined[:10])
    live.join(joined[10:])
    live.join(61)
    joined = np.append(joined, 61)
    assert joined.size > trainer.DENSE_SHARE * dim
    assert live.index() is ...
    np.testing.assert_array_equal(np.sort(live.idx[: live.n]), joined)
    live.prune()
    kept = joined[theta[joined] == 0]
    assert kept.size <= trainer.DENSE_SHARE * dim
    np.testing.assert_array_equal(np.sort(live.index()), kept)
    np.testing.assert_array_equal(np.flatnonzero(live.mask), kept)


def test_weight_decay_run_does_no_live_set_work(monkeypatch):
    # weight decay has no settling test, so every step indexes every
    # coordinate and joining the step's coordinates would be wasted work
    joined = []
    monkeypatch.setattr(trainer._LiveSet, "join", lambda self, coords: joined.append(coords))
    result = run(RunConfig(weight_decay=0.1, **SMALL))
    assert not result.diverged
    assert joined == []


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


def test_diverged_trace_columns_own_exactly_their_rows():
    cfg = RunConfig(
        optimizer="sgd", lr=1000.0, num_functions=50, dim=10, problem_seed=1,
        seed=1, num_epochs=3, tracked_batch=0,
    )
    res = run(cfg)
    assert res.diverged
    for name in TRACE_COLUMNS:
        col = getattr(res.trace, name)
        assert col.base is None and col.size == res.divergence_step + 1, name


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


def test_run_memory_is_bounded_by_its_vectors_not_its_batch_count():
    # N = dim = 20,000 at B = 1: 20,000 batches an epoch. Past the trace, the
    # run's arrays (problem, dense vectors, one epoch's gather) peak near
    # 3.6 MiB; a Batch object and an index view kept per batch took the peak
    # to 10.2 MiB.
    config = RunConfig(num_functions=20_000, dim=20_000, num_epochs=2)
    tracemalloc.start()
    try:
        result = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trace_bytes = sum(getattr(result.trace, name).nbytes for name in TRACE_COLUMNS)
    assert peak - trace_bytes < 6 * 2**20


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
    # numpy would reject a negative seed only once the run starts, without the key
    for key in ("seed", "problem_seed"):
        with pytest.raises(ValueError, match=f"{key} must be >= 0, got -1"):
            RunConfig(**{**SMALL, key: -1})
    RunConfig(**{**SMALL, "seed": 0, "problem_seed": 0})
    # non-finite settings used to run: lr, x_init and weight_decay = inf and a
    # NaN ceiling were flagged DIVERGED, and epsilon = inf trained nothing
    for key in ("lr", "epsilon", "weight_decay"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{key} must be .* finite"):
                RunConfig(**{**SMALL, key: value})
    for x_init in (np.nan, np.inf, -np.inf, np.r_[np.ones(29), np.nan]):
        with pytest.raises(ValueError, match="x_init must be finite"):
            RunConfig(**{**SMALL, "x_init": x_init})
    # a vector of the wrong shape used to fail only in run(), after the problem draw
    for x_init in (np.ones(29), np.ones((2, 15))):
        with pytest.raises(ValueError, match="x_init must be a scalar or a length-30 vector"):
            RunConfig(**{**SMALL, "x_init": x_init})
    with pytest.raises(ValueError, match="divergence_ceiling must be positive, got nan"):
        RunConfig(**{**SMALL, "divergence_ceiling": np.nan})
    # an infinite ceiling is the way to ask for none
    assert not run(RunConfig(**{**SMALL, "divergence_ceiling": np.inf})).diverged
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
    losses = res.epoch_start_losses
    assert losses is not None and len(losses) == 60
    # batch 0 is evaluated at the same theta by the probe and the trace
    assert losses[0] == res.trace.batch_loss[0]
    assert run(RunConfig(**SMALL)).epoch_start_losses is None


def _epoch_start_losses(num_functions, dim, batch_size, x_init):
    """The run's epoch-start probe of epoch 1, on problem seed 7 and schedule seed 3."""
    config = RunConfig(
        num_functions=num_functions, dim=dim, problem_seed=7, x_init=x_init,
        batch_size=batch_size, num_epochs=1, seed=3, probe=False, epoch_start_probe_epoch=1,
    )
    return run(config).epoch_start_losses


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_epoch_start_losses_are_batch_losses(batch_size):
    problem = generate_quadratic(7, 500, 40)
    theta = np.random.default_rng(2).normal(size=40)
    losses = _epoch_start_losses(500, 40, batch_size, theta)
    batches = EpochSchedule("shuffle", 500, batch_size, seed=3).peek_epoch_batches()
    assert len(losses) == len(batches)
    for k, batch in enumerate(batches):
        assert losses[k] == batch_loss(problem, batch, theta)


def test_epoch_start_spread_shrinks_with_batch_size():
    variances = {}
    for B in (1, 4, 16, 64):
        losses = _epoch_start_losses(4096, 512, B, 3.0)
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
# The toy's one-coordinate dots are single products, which no BLAS kernel
# rounds, so one digest holds on every OpenBLAS core.
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
    # schedule policy names are not sequencings, not even the one "reversed" maps to
    for sequencing in ("reverse", "shuffle"):
        with pytest.raises(ValueError, match="sequencing"):
            run_toy(sequencing, 0.0)


def test_oscillation_amplitude_windowing():
    def trace_of(values):
        n = len(values)
        cols = {name: np.zeros(n) for name in TRACE_COLUMNS}
        cols["batch_loss"] = np.asarray(values, dtype=float)
        return Trace(cols, probes_enabled=False)

    tr = trace_of([0.0, 0.0, 0.0, 0.0, 5.0, 1.0, 9.0, 3.0])
    # 25 percent of 8 rounds to 2 but the window never shrinks below 4
    assert oscillation_amplitude(tr) == 8.0
    short = trace_of([1.0, 7.0, 2.0])
    assert oscillation_amplitude(short) == 6.0
    with pytest.raises(ValueError):
        oscillation_amplitude(trace_of([]))


def test_trace_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product over its threads from 10,002 coordinates
    # on, which moves the g_norm, m_norm and v_norm bits; at the default dim
    # of 10,000, one thread and two must write the same trace
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from sawtoothlab.trainer import TRACE_COLUMNS, RunConfig, run\n"
        "trace = run(RunConfig(num_functions=400, dim=10000, batch_size=4, num_epochs=2,\n"
        "                      seed=5, tracked_batch=0)).trace\n"
        "for name in TRACE_COLUMNS:\n"
        "    column = np.ascontiguousarray(getattr(trace, name))\n"
        "    print(name, hashlib.sha256(column.tobytes()).hexdigest())\n"
    )
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0].splitlines()) == len(TRACE_COLUMNS)
    assert digests[0] == digests[1]
