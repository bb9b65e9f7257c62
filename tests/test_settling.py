"""Live-set steps: an update over the live set moves theta as the dense one does.

Each case steps one visit sequence twice, once densely and once over a live
set kept the way the trainer keeps it (a coordinate joins when a gradient
touches it and leaves when the optimizer's settling test says so), and
compares every bit of theta, m and v, and of the update on the live set, at
every step. The visits cover every coordinate first and then only a few hot
ones, so the cold coordinates go hundreds of steps without a gradient.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawtoothlab.optim import (
    AdamConfig,
    OptimizerState,
    adam_settled,
    adam_step,
    rmsprop_settled,
    rmsprop_step,
    sgd_momentum_step,
    sgd_settled,
)

HOT = 3  # coordinates the second phase still visits


def _step(optimizer, state, cfg, vals, theta, coords, live):
    if optimizer == "adam":
        return adam_step(state, cfg, vals, theta, coords, live)
    if optimizer == "rmsprop":
        return rmsprop_step(state, cfg, vals, coords, live)
    return sgd_momentum_step(state, cfg.lr, cfg.beta1, vals, coords, live)


def _settled(optimizer, state, cfg, theta, idx):
    if optimizer == "adam":
        return adam_settled(state, cfg, theta, idx)
    if optimizer == "rmsprop":
        return rmsprop_settled(state, cfg, idx)
    return sgd_settled(state, cfg.lr, cfg.beta1, theta, idx)


def _visits(rng, dim, spread_steps, hot_steps):
    """(coords, vals) per step: every coordinate first, then only the HOT first ones."""
    out = []
    for k in range(spread_steps + hot_steps):
        pool = dim if k < spread_steps else HOT
        size = int(rng.integers(1, 4))
        if size == 1:
            # a single member's coordinate, as the trainer passes it at B = 1
            out.append((int(rng.integers(pool)), float(rng.normal())))
        else:
            coords = np.sort(rng.choice(pool, size=min(size, pool), replace=False))
            out.append((coords, rng.normal(size=coords.size)))
    return out


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _step_both(optimizer, cfg, theta0, visits, prune_every, decay_steps=(), start_full=False):
    """Step visits densely and over a live set; its (before, after) sizes at each prune."""
    dim = theta0.size
    dense, sparse = OptimizerState.fresh(dim), OptimizerState.fresh(dim)
    theta_d, theta_s = theta0.copy(), theta0.copy()
    live = np.full(dim, start_full)
    decayed = dataclasses.replace(cfg, weight_decay=0.1)
    sizes = []
    for k, (coords, vals) in enumerate(visits):
        step_cfg = decayed if k in decay_steps else cfg
        live[coords] = True
        if step_cfg.weight_decay > 0:
            live[:] = True  # its gradient touches every coordinate
        idx = np.flatnonzero(live)
        delta = _step(optimizer, dense, step_cfg, vals, theta_d, coords, ...)
        theta_d += delta
        delta = _step(optimizer, sparse, step_cfg, vals, theta_s, coords, idx)
        theta_s[idx] += delta[idx]
        where = f"step {k}"
        np.testing.assert_array_equal(_bits(theta_s), _bits(theta_d), err_msg=where)
        np.testing.assert_array_equal(_bits(sparse.m), _bits(dense.m), err_msg=where)
        np.testing.assert_array_equal(_bits(sparse.v), _bits(dense.v), err_msg=where)
        np.testing.assert_array_equal(
            _bits(sparse.delta[idx]), _bits(dense.delta[idx]), err_msg=where
        )
        if (k + 1) % prune_every == 0:
            live[idx[_settled(optimizer, sparse, cfg, theta_s, idx)]] = False
            sizes.append((idx.size, int(live.sum())))
    return sizes


def _theta0(kind, dim, rng):
    if kind == "mixed":
        # mixed signs over many scales, a few exact zeros among them
        theta = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-3, 3, dim)
        theta[rng.random(dim) < 0.1] = 0.0
        return theta
    return np.full(dim, kind)


@settings(max_examples=30, deadline=None)
@given(
    optimizer=st.sampled_from(["adam", "rmsprop", "sgd"]),
    beta1=st.sampled_from([0.0, 0.9]),
    beta2=st.sampled_from([0.7, 0.999]),
    epsilon=st.sampled_from([1e-300, 1e-8]),
    bias_correction=st.booleans(),
    lr=st.floats(1e-3, 3.0),
    theta_kind=st.sampled_from([0.0, -0.0, 1e-300, "mixed"]),
    prune_every=st.sampled_from([1, 7, 64]),
    dim=st.integers(HOT + 1, 24),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_live_set_steps_match_dense_steps(
    optimizer, beta1, beta2, epsilon, bias_correction, lr, theta_kind, prune_every,
    dim, seed, data,
):
    rng = np.random.default_rng(seed)
    cfg = AdamConfig(
        lr=lr, beta1=beta1 if optimizer != "rmsprop" else 0.0, beta2=beta2,
        epsilon=epsilon, bias_correction=bias_correction,
    )
    # weight decay is an Adam setting; a step that has it makes every coordinate live
    decay_steps = set()
    if optimizer == "adam":
        decay_steps = set(data.draw(st.lists(st.integers(0, 99), max_size=3), label="decay"))
    visits = _visits(rng, dim, spread_steps=100, hot_steps=600)
    sizes = _step_both(optimizer, cfg, _theta0(theta_kind, dim, rng), visits, prune_every,
                       decay_steps)
    if optimizer == "rmsprop":
        # off its batch the update is -0.0, so every coordinate settles at once
        assert all(after == 0 for _, after in sizes)
    if cfg.beta1 == 0.0 and (optimizer == "sgd" or epsilon == 1e-8):
        # m is zero one step after a gradient, so off its batch a coordinate's
        # update is at most lr*MOMENT_FLOOR/epsilon and it settles at once
        assert any(after < before for before, after in sizes)


@pytest.mark.parametrize(
    "optimizer, beta2",
    [("adam", 0.999), ("adam", 0.7), ("rmsprop", 0.999), ("sgd", 0.999)],
    ids=["adam_sqrt_v_branch", "adam_eps_branch", "rmsprop", "sgd"],
)
def test_live_set_shrinks_to_the_hot_coordinates(optimizer, beta2):
    rng = np.random.default_rng(3)
    dim = 40
    theta0 = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-2, 2, dim)
    cfg = AdamConfig(beta1=0.0 if optimizer == "rmsprop" else 0.9, beta2=beta2)
    visits = _visits(rng, dim, spread_steps=200, hot_steps=900)
    sizes = _step_both(optimizer, cfg, theta0, visits, prune_every=64)
    assert max(before - after for before, after in sizes) > HOT
    # every cold coordinate has settled by the end; only hot ones may stay
    assert sizes[-1][1] <= HOT


def test_a_flushed_second_moment_leaves_only_epsilon():
    # beta1^2 < beta2 < beta1: v falls under MOMENT_FLOOR and is zeroed some
    # 1,900 steps after a visit, while m is still far above it; the update
    # then divides by epsilon = 1e-200 alone, about 1e55 times what the
    # sqrt(v) bound allowed, so that bound must not settle the coordinate
    rng = np.random.default_rng(5)
    cfg = AdamConfig(beta1=0.8, beta2=0.7, epsilon=1e-200)
    visits = _visits(rng, 8, spread_steps=40, hot_steps=2200)
    sizes = _step_both("adam", cfg, rng.normal(size=8), visits, prune_every=64)
    assert sizes[-1][1] <= HOT


def test_a_growing_ratio_keeps_the_sqrt_v_bound_unused():
    # beta1 > sqrt(beta2): m/sqrt(v) grows by beta1/sqrt(beta2) per step
    # until sqrt(v) reaches epsilon, so a bound taken from its value at the
    # prune fails later. A second gradient that nearly cancels the first
    # leaves m tiny against sqrt(v), where that bound would settle theta = 1e6.
    rng = np.random.default_rng(7)
    cfg = AdamConfig(beta1=0.9, beta2=0.7, epsilon=1e-100)
    visits = [(0, 1.0), (0, -0.9 * (1 + 1e-12))] + [(1, rng.normal()) for _ in range(1500)]
    _step_both("adam", cfg, np.array([1e6, 1.0]), visits, prune_every=64)


@pytest.mark.parametrize("optimizer", ["adam", "rmsprop"])
def test_zero_epsilon_settles_no_coordinate(optimizer):
    # without epsilon a denominator can reach 0: RMSProp's off-batch update is
    # 0/0 once the flush zeroes v, Adam's m/0 once v is zeroed under a live m.
    # Untouched coordinates update by 0/0 too, so the live set starts full.
    rng = np.random.default_rng(11)
    cfg = AdamConfig(beta1=0.0 if optimizer == "rmsprop" else 0.9, epsilon=0.0)
    visits = _visits(rng, 8, spread_steps=40, hot_steps=1200)
    with np.errstate(invalid="ignore"):
        sizes = _step_both(optimizer, cfg, rng.normal(size=8), visits, prune_every=64,
                           start_full=True)
    assert all(after == 8 for _, after in sizes)
