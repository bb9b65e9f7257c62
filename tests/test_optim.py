"""Stepper unit tests: hand-evaluated values, invariants, reductions."""

import numpy as np
import pytest

from sawtoothlab.optim import (
    FLUSH_EVERY,
    MOMENT_FLOOR,
    AdamConfig,
    NonFiniteGradientError,
    OptimizerState,
    StepWorkspace,
    adam_step,
    rmsprop_step,
    sgd_momentum_step,
)


def test_config_validation():
    AdamConfig(epsilon=0.0)  # allowed, diagnostic use
    with pytest.raises(ValueError):
        AdamConfig(lr=0.0)
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(beta2=-0.1)
    with pytest.raises(ValueError):
        AdamConfig(epsilon=-1e-9)
    with pytest.raises(ValueError):
        AdamConfig(weight_decay=-1.0)


def test_fresh_state_shape_and_zero():
    s = OptimizerState.fresh(3)
    assert s.t == 0
    assert not s.m.any() and not s.v.any()
    with pytest.raises(ValueError):
        OptimizerState.fresh(0)


def test_adam_zero_gradient_gives_zero_update():
    s = OptimizerState.fresh(4)
    r = adam_step(s, AdamConfig(), np.zeros(4))
    assert not r.delta_theta.any()
    assert s.t == 1


def test_adam_first_step_hand_value():
    # bias correction at t=1 gives m_hat=g, v_hat=g^2, so delta = -lr*g/(|g|+eps)
    s = OptimizerState.fresh(1)
    r = adam_step(s, AdamConfig(lr=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8), np.array([1.0]))
    assert r.delta_theta[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_first_step_sign_scale_property():
    # with eps=0 the first corrected step is -lr*sign(g) componentwise
    cfg = AdamConfig(lr=0.05, epsilon=0.0)
    rng = np.random.default_rng(7)
    g = rng.normal(size=6)
    g[g == 0] = 1.0
    for c in (3.0, -0.25, 1e-4):
        a = adam_step(OptimizerState.fresh(6), cfg, g).delta_theta
        b = adam_step(OptimizerState.fresh(6), cfg, c * g).delta_theta
        np.testing.assert_allclose(b, np.sign(c) * a, rtol=1e-12)


def test_adam_counter_and_second_moment_nonnegative():
    s = OptimizerState.fresh(5)
    cfg = AdamConfig()
    rng = np.random.default_rng(0)
    for k in range(1, 40):
        adam_step(s, cfg, rng.normal(size=5))
        assert s.t == k
        assert (s.v >= 0).all()


def test_adam_without_bias_correction_uses_raw_moments():
    g = np.array([2.0])
    s = OptimizerState.fresh(1)
    cfg = AdamConfig(lr=1.0, beta1=0.5, beta2=0.5, epsilon=0.0, bias_correction=False)
    r = adam_step(s, cfg, g)
    # m = 1.0, v = 2.0 raw
    assert r.delta_theta[0] == pytest.approx(-1.0 / np.sqrt(2.0), rel=1e-12)


def test_weight_decay_augments_gradient():
    theta = np.array([3.0, -2.0])
    g = np.array([1.0, 1.0])
    cfg = AdamConfig(weight_decay=0.1)
    ref = adam_step(OptimizerState.fresh(2), AdamConfig(), g + 0.1 * theta)
    got = adam_step(OptimizerState.fresh(2), cfg, g, theta=theta)
    np.testing.assert_array_equal(got.delta_theta, ref.delta_theta)


def test_gradient_validation():
    s = OptimizerState.fresh(2)
    with pytest.raises(ValueError):
        adam_step(s, AdamConfig(), np.zeros(3))
    with pytest.raises(NonFiniteGradientError):
        adam_step(s, AdamConfig(), np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteGradientError):
        rmsprop_step(s, AdamConfig(), np.array([np.inf, 0.0]))


def test_rmsprop_hand_values():
    s = OptimizerState.fresh(1)
    r = rmsprop_step(s, AdamConfig(lr=0.1, beta2=0.9, epsilon=0.0), np.array([2.0]))
    # v = 0.1*4 = 0.4
    assert s.v[0] == pytest.approx(0.4, rel=1e-12)
    assert r.delta_theta[0] == pytest.approx(-0.1 * 2.0 / np.sqrt(0.4), rel=1e-12)

    s = OptimizerState.fresh(1)
    cfg = AdamConfig(lr=1.0, beta2=0.5, epsilon=0.0)
    rmsprop_step(s, cfg, np.array([1.0]))
    r2 = rmsprop_step(s, cfg, np.array([1.0]))
    assert r2.delta_theta[0] == pytest.approx(-1.0 / np.sqrt(0.75), rel=1e-12)


def test_rmsprop_leaves_first_moment_alone():
    s = OptimizerState.fresh(3)
    rmsprop_step(s, AdamConfig(), np.ones(3))
    assert not s.m.any()


def test_sgd_momentum_hand_values():
    s = OptimizerState.fresh(1)
    r = sgd_momentum_step(s, lr=0.1, beta1=0.0, grad=np.array([1.0]))
    assert r.delta_theta[0] == pytest.approx(-0.1, rel=1e-15)

    s = OptimizerState.fresh(1)
    r = sgd_momentum_step(s, lr=1.0, beta1=0.9, grad=np.array([1.0]))
    assert r.delta_theta[0] == pytest.approx(-0.1, rel=1e-12)
    r = sgd_momentum_step(s, lr=1.0, beta1=0.9, grad=np.array([-1.0]))
    # m = 0.9*0.1 - 0.1 = -0.01
    assert r.delta_theta[0] == pytest.approx(0.01, rel=1e-10)


def test_adam_reduces_to_rmsprop():
    """beta1=0 without bias correction must be bit-equal to RMSProp."""
    cfg = AdamConfig(lr=0.03, beta1=0.0, beta2=0.97, epsilon=1e-8, bias_correction=False)
    sa = OptimizerState.fresh(8)
    sr = OptimizerState.fresh(8)
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = rng.normal(size=8)
        da = adam_step(sa, cfg, g).delta_theta
        dr = rmsprop_step(sr, cfg, g).delta_theta
        np.testing.assert_array_equal(da, dr)
    np.testing.assert_array_equal(sa.v, sr.v)


def test_determinism_bitwise():
    cfg = AdamConfig()
    rng = np.random.default_rng(3)
    grads = rng.normal(size=(50, 4))
    s1, s2 = OptimizerState.fresh(4), OptimizerState.fresh(4)
    for g in grads:
        d1 = adam_step(s1, cfg, g).delta_theta
        d2 = adam_step(s2, cfg, g).delta_theta
        np.testing.assert_array_equal(d1, d2)


def test_moment_flush_parks_stale_coordinates_at_zero():
    # one touched coordinate decaying for thousands of steps would otherwise
    # linger as a subnormal; the periodic flush must zero it exactly
    s = OptimizerState.fresh(2)
    cfg = AdamConfig(beta1=0.9, beta2=0.9)
    g = np.zeros(2)
    g[0] = 1.0
    adam_step(s, cfg, g)
    g[0] = 0.0
    for _ in range(7000):
        adam_step(s, cfg, g)
    assert s.m[0] == 0.0
    assert s.v[0] == 0.0


def test_moment_flush_is_keyed_to_the_global_counter():
    # just below a flush boundary the tiny value survives; at it, it goes
    s = OptimizerState.fresh(1)
    cfg = AdamConfig()
    s.m[0] = MOMENT_FLOOR / 2
    s.v[0] = MOMENT_FLOOR / 2
    s.t = FLUSH_EVERY - 2
    adam_step(s, cfg, np.zeros(1))
    assert s.m[0] != 0.0
    adam_step(s, cfg, np.zeros(1))  # t hits FLUSH_EVERY here
    assert s.m[0] == 0.0 and s.v[0] == 0.0


def test_flush_threshold_is_far_below_normal_scale():
    # anything at the floor decays through ~64 steps of beta1=0.9 without
    # entering the subnormal range (~2.2e-308)
    assert MOMENT_FLOOR * 0.9 ** (FLUSH_EVERY - 1) > 2.3e-308


@pytest.mark.parametrize(
    "optimizer, weight_decay",
    [("adam", 0.0), ("adam", 0.1), ("rmsprop", 0.0), ("sgd", 0.0)],
)
def test_sparse_form_matches_dense_form(optimizer, weight_decay):
    # (coords, values) with a reused workspace steps exactly like the dense
    # scattered gradient, across two flushes and for scalar coordinates too
    dim = 9
    cfg = AdamConfig(lr=0.05, beta2=0.99, weight_decay=weight_decay)

    def step(state, grad, theta, coords=None, work=None):
        if optimizer == "adam":
            return adam_step(state, cfg, grad, theta, coords, work)
        if optimizer == "rmsprop":
            return rmsprop_step(state, cfg, grad, coords, work)
        return sgd_momentum_step(state, cfg.lr, cfg.beta1, grad, coords, work)

    rng = np.random.default_rng(5)
    dense, sparse = OptimizerState.fresh(dim), OptimizerState.fresh(dim)
    work = StepWorkspace.fresh(dim)
    theta = rng.normal(size=dim)
    for k in range(150):
        coords = np.sort(rng.choice(dim, size=1 + k % 4, replace=False))
        vals = rng.normal(size=len(coords))
        g = np.zeros(dim)
        g[coords] = vals
        if k % 3 == 0:
            coords, vals = int(coords[0]), float(vals[0])
            g[:] = 0.0
            g[coords] = vals
        want = step(dense, g, theta).delta_theta
        got = step(sparse, vals, theta, coords, work).delta_theta
        assert got is work.delta
        np.testing.assert_array_equal(got, want)
        theta += want
    assert sparse.t == dense.t == 150
    np.testing.assert_array_equal(sparse.m, dense.m)
    np.testing.assert_array_equal(sparse.v, dense.v)
