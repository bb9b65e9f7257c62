"""Stepper unit tests: hand-evaluated values, invariants, reductions."""

import ast
import inspect
import tracemalloc

import numpy as np
import pytest

import reference_impl
from sawtoothlab import optim
from sawtoothlab.optim import (
    FLUSH_EVERY,
    MOMENT_FLOOR,
    AdamConfig,
    OptimizerState,
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
    # neither inf nor NaN is a usable step size, denominator floor or decay
    for key in ("lr", "epsilon", "weight_decay"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{key} must be .* finite"):
                AdamConfig(**{key: value})


def test_sgd_rejects_a_step_size_that_is_not_positive_and_finite():
    # an infinite step turns every update into -inf or nan
    for lr in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            sgd_momentum_step(OptimizerState.fresh(2), lr, 0.9, np.array([1.0, 0.0]))
    # so does a momentum outside [0, 1), as AdamConfig rejects it
    for beta1 in (-0.1, 1.0, np.nan):
        with pytest.raises(ValueError, match=r"beta1 must lie in \[0, 1\)"):
            sgd_momentum_step(OptimizerState.fresh(2), 0.1, beta1, np.array([1.0, 0.0]))


def test_fresh_state_shape_and_zero():
    s = OptimizerState.fresh(3)
    assert s.t == 0
    assert not s.m.any() and not s.v.any()
    with pytest.raises(ValueError):
        OptimizerState.fresh(0)


def test_adam_zero_gradient_gives_zero_update():
    s = OptimizerState.fresh(4)
    r = adam_step(s, AdamConfig(), np.zeros(4))
    assert not r.any()
    assert s.t == 1


def test_adam_first_step_hand_value():
    # bias correction at t=1 gives m_hat=g, v_hat=g^2, so delta = -lr*g/(|g|+eps)
    s = OptimizerState.fresh(1)
    r = adam_step(s, AdamConfig(lr=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8), np.array([1.0]))
    assert r[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_first_step_sign_scale_property():
    # with eps=0 the first corrected step is -lr*sign(g) componentwise
    cfg = AdamConfig(lr=0.05, epsilon=0.0)
    rng = np.random.default_rng(7)
    g = rng.normal(size=6)
    g[g == 0] = 1.0
    for c in (3.0, -0.25, 1e-4):
        a = adam_step(OptimizerState.fresh(6), cfg, g)
        b = adam_step(OptimizerState.fresh(6), cfg, c * g)
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
    assert r[0] == pytest.approx(-1.0 / np.sqrt(2.0), rel=1e-12)


def test_weight_decay_augments_gradient():
    theta = np.array([3.0, -2.0])
    g = np.array([1.0, 1.0])
    cfg = AdamConfig(weight_decay=0.1)
    ref = adam_step(OptimizerState.fresh(2), AdamConfig(), g + 0.1 * theta)
    got = adam_step(OptimizerState.fresh(2), cfg, g, theta=theta)
    np.testing.assert_array_equal(got, ref)
    with pytest.raises(ValueError, match="weight_decay > 0 requires the current parameters"):
        adam_step(OptimizerState.fresh(2), cfg, g)


def test_gradient_validation():
    s = OptimizerState.fresh(2)
    with pytest.raises(ValueError):
        adam_step(s, AdamConfig(), np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(s, AdamConfig(), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        rmsprop_step(s, AdamConfig(), np.array([np.inf, 0.0]))


def test_rmsprop_hand_values():
    s = OptimizerState.fresh(1)
    r = rmsprop_step(s, AdamConfig(lr=0.1, beta2=0.9, epsilon=0.0), np.array([2.0]))
    # v = 0.1*4 = 0.4
    assert s.v[0] == pytest.approx(0.4, rel=1e-12)
    assert r[0] == pytest.approx(-0.1 * 2.0 / np.sqrt(0.4), rel=1e-12)

    s = OptimizerState.fresh(1)
    cfg = AdamConfig(lr=1.0, beta2=0.5, epsilon=0.0)
    rmsprop_step(s, cfg, np.array([1.0]))
    r2 = rmsprop_step(s, cfg, np.array([1.0]))
    assert r2[0] == pytest.approx(-1.0 / np.sqrt(0.75), rel=1e-12)


def test_rmsprop_leaves_first_moment_alone():
    s = OptimizerState.fresh(3)
    rmsprop_step(s, AdamConfig(), np.ones(3))
    assert not s.m.any()


def test_sgd_momentum_hand_values():
    s = OptimizerState.fresh(1)
    r = sgd_momentum_step(s, lr=0.1, beta1=0.0, grad=np.array([1.0]))
    assert r[0] == pytest.approx(-0.1, rel=1e-15)

    s = OptimizerState.fresh(1)
    r = sgd_momentum_step(s, lr=1.0, beta1=0.9, grad=np.array([1.0]))
    assert r[0] == pytest.approx(-0.1, rel=1e-12)
    r = sgd_momentum_step(s, lr=1.0, beta1=0.9, grad=np.array([-1.0]))
    # m = 0.9*0.1 - 0.1 = -0.01
    assert r[0] == pytest.approx(0.01, rel=1e-10)


def test_adam_reduces_to_rmsprop():
    """beta1=0 without bias correction gives RMSProp's step.

    Bit for bit in the dense form. In the sparse form the updates are equal
    in value: Adam's m *= 0 leaves -0.0 on a coordinate the batch missed
    where m was negative, so such a zero update can differ in sign.
    """
    cfg = AdamConfig(lr=0.03, beta1=0.0, beta2=0.97, epsilon=1e-8, bias_correction=False)
    sa = OptimizerState.fresh(8)
    sr = OptimizerState.fresh(8)
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = rng.normal(size=8)
        da = adam_step(sa, cfg, g)
        dr = rmsprop_step(sr, cfg, g)
        np.testing.assert_array_equal(da.view(np.int64), dr.view(np.int64))
    np.testing.assert_array_equal(sa.v.view(np.int64), sr.v.view(np.int64))
    sa = OptimizerState.fresh(8)
    sr = OptimizerState.fresh(8)
    for _ in range(200):
        coords = np.sort(rng.choice(8, size=3, replace=False))
        g = rng.normal(size=3)
        da = adam_step(sa, cfg, g, coords=coords)
        dr = rmsprop_step(sr, cfg, g, coords=coords)
        np.testing.assert_array_equal(da, dr)
    np.testing.assert_array_equal(sa.v.view(np.int64), sr.v.view(np.int64))


def test_determinism_bitwise():
    cfg = AdamConfig()
    rng = np.random.default_rng(3)
    grads = rng.normal(size=(50, 4))
    s1, s2 = OptimizerState.fresh(4), OptimizerState.fresh(4)
    for g in grads:
        d1 = adam_step(s1, cfg, g)
        d2 = adam_step(s2, cfg, g)
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


def _step(optimizer, cfg, state, grad, theta, coords=None):
    if optimizer == "adam":
        return adam_step(state, cfg, grad, theta, coords)
    if optimizer == "rmsprop":
        return rmsprop_step(state, cfg, grad, coords)
    return sgd_momentum_step(state, cfg.lr, cfg.beta1, grad, coords)


@pytest.mark.parametrize(
    "optimizer, weight_decay",
    [("adam", 0.0), ("adam", 0.1), ("rmsprop", 0.0), ("sgd", 0.0)],
)
def test_sparse_form_matches_dense_form(optimizer, weight_decay):
    # (coords, values) steps exactly like the dense scattered gradient, into
    # the state's own delta, across two flushes, for scalar coordinates and
    # for a batch on every coordinate too
    dim = 9
    cfg = AdamConfig(lr=0.05, beta2=0.99, weight_decay=weight_decay)
    rng = np.random.default_rng(5)
    dense, sparse = OptimizerState.fresh(dim), OptimizerState.fresh(dim)
    theta = rng.normal(size=dim)
    for k in range(150):
        if k % 5 == 4:  # a batch that spans every coordinate
            coords = np.arange(dim)
        else:
            coords = np.sort(rng.choice(dim, size=1 + k % 4, replace=False))
        vals = rng.normal(size=len(coords))
        g = np.zeros(dim)
        g[coords] = vals
        if k % 3 == 0:
            coords, vals = int(coords[0]), float(vals[0])
            g[:] = 0.0
            g[coords] = vals
        want = _step(optimizer, cfg, dense, g, theta)
        got = _step(optimizer, cfg, sparse, vals, theta, coords)
        assert got is sparse.delta
        np.testing.assert_array_equal(got, want)
        theta += want
    assert sparse.t == dense.t == 150
    np.testing.assert_array_equal(sparse.m, dense.m)
    np.testing.assert_array_equal(sparse.v, dense.v)


def test_only_check_grad_tells_the_gradient_forms_apart():
    # the dense form is the sparse form over every coordinate (index ...), so
    # a function that compares with ... or asks whether coords is None keeps
    # a second update path; _check_grad alone validates the dense form
    scanned, found = set(), []
    for func in ast.walk(ast.parse(inspect.getsource(optim))):
        if not isinstance(func, ast.FunctionDef) or func.name == "_check_grad":
            continue
        scanned.add(func.name)
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            consts = [o.value for o in operands if isinstance(o, ast.Constant)]
            names = {o.id for o in operands if isinstance(o, ast.Name)}
            if ... in consts or ("coords" in names and None in consts):
                found.append(f"{func.name}:{node.lineno}")
    assert {"_ema", "adam_step", "rmsprop_step", "sgd_momentum_step"} <= scanned
    assert not found


def test_only_the_adaptive_update_takes_roots_and_divides():
    # Adam and RMSProp end in one _adaptive_update call, so the square root,
    # the eps floor and the divisions are written once; a stepper that
    # divides or takes a root on its own keeps a second copy of the update
    steppers = {"adam_step", "rmsprop_step", "sgd_momentum_step"}
    scanned, found = set(), []
    for func in ast.walk(ast.parse(inspect.getsource(optim))):
        if not isinstance(func, ast.FunctionDef) or func.name not in steppers:
            continue
        scanned.add(func.name)
        for node in ast.walk(func):
            divides = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            )
            calls = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
                and node.attr in ("sqrt", "divide")
            )
            if divides or calls:
                found.append(f"{func.name}:{node.lineno}")
    assert scanned == steppers
    assert not found


@pytest.mark.parametrize("optimizer", ["adam", "rmsprop", "sgd"])
def test_sparse_step_allocates_no_dense_array(optimizer):
    # the delta lands in the state's own buffers, so a sparse step off a
    # flush allocates only its few touched values, not one dense vector
    dim = 100_000
    cfg = AdamConfig()
    state = OptimizerState.fresh(dim)
    coords = np.array([3, 17, 4096])
    vals = np.array([0.5, -1.0, 2.0])

    def step():
        if optimizer == "adam":
            return adam_step(state, cfg, vals, None, coords)
        if optimizer == "rmsprop":
            return rmsprop_step(state, cfg, vals, coords)
        return sgd_momentum_step(state, cfg.lr, cfg.beta1, vals, coords)

    step()  # warm-up, off the measurement
    tracemalloc.start()
    try:
        delta = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.t % FLUSH_EVERY != 0
    assert delta is state.delta
    # one dense vector is 8 * dim = 800 KB; even a dense bool mask is 100 KB
    assert peak < 8 * dim // 100


@pytest.mark.parametrize(
    "optimizer, weight_decay",
    [("adam", 0.0), ("adam", 0.1), ("rmsprop", 0.0), ("sgd", 0.0)],
)
def test_dense_step_reads_a_gradient_that_aliases_its_delta(optimizer, weight_decay):
    # the gradient may live in state.delta, so every stepper reads it for
    # the last time before it writes the update there
    cfg = AdamConfig(lr=0.05, weight_decay=weight_decay)
    rng = np.random.default_rng(9)
    aliased, plain = OptimizerState.fresh(5), OptimizerState.fresh(5)
    theta = rng.normal(size=5)
    for _ in range(3):
        g = rng.normal(size=5)
        want = _step(optimizer, cfg, plain, g, theta).copy()
        aliased.delta[:] = g
        got = _step(optimizer, cfg, aliased, aliased.delta, theta)
        for a, b in ((got, want), (aliased.m, plain.m), (aliased.v, plain.v)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        theta += want


@pytest.mark.parametrize("form", ["dense", "sparse"])
@pytest.mark.parametrize("bias_correction", [True, False])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_adam_matches_the_always_dividing_step_bit_for_bit(form, bias_correction, weight_decay):
    # a bias correction is skipped only once it is exactly 1.0, which at
    # beta1 = 0.9 is from t = 356 on and at beta2 = 0.95 from t = 730 on;
    # the int64 views tell -0.0 from 0.0, which array equality would not
    cfg = AdamConfig(lr=0.05, beta1=0.9, beta2=0.95, weight_decay=weight_decay,
                     bias_correction=bias_correction)
    assert 1.0 - 0.9 ** 355 < 1.0 == 1.0 - 0.9 ** 356
    assert 1.0 - 0.95 ** 729 < 1.0 == 1.0 - 0.95 ** 730
    dim = 8
    rng = np.random.default_rng(21)
    got, want = OptimizerState.fresh(dim), OptimizerState.fresh(dim)
    theta = rng.normal(size=dim)
    sentinel = np.float64(-1234.5).view(np.int64)
    for t in range(1, 801):
        coords = np.sort(rng.choice(dim, size=1 + t % 3, replace=False))
        vals = rng.normal(size=len(coords))
        if t % 7 == 0:
            vals[0] = -0.0
        if form == "dense":
            g = np.zeros(dim)
            g[coords] = vals
            args = (g, theta)
        else:
            args = (vals, theta, coords)
        # without weight decay, temp is written only by the m / c1 pass
        watch_temp = t >= 356 and weight_decay == 0.0
        if watch_temp:
            got.temp.view(np.int64)[:] = sentinel
        delta = adam_step(got, cfg, *args)
        ref = reference_impl.adam_step(want, cfg, *args)
        assert got.t == want.t == t
        for a, b in ((delta, ref), (got.m, want.m), (got.v, want.v)):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        if watch_temp:
            assert (got.temp.view(np.int64) == sentinel).all()
        theta += delta
