"""Separable-quadratic testbed and the two-batch toy objective."""

import numpy as np
import pytest

from sawtoothlab.problem import (
    Batch,
    QuadraticProblem,
    batch_grad,
    batch_loss,
    full_loss,
    full_loss_minimum,
    batch_loss_grad,
    generate_quadratic,
    sparse_batch_grad,
    toy_losses,
)

# pinned regression values for the documented problem draws
GOLDEN_FULL = 77578.3132532052
GOLDEN_REDUCED = 15236.978558049752


def _single(a, b, c, dim=4, j=1):
    coeffs = np.array([[a, b, c]])
    return QuadraticProblem(
        num_functions=1,
        dim=dim,
        coeffs=coeffs,
        dim_index=np.array([j]),
        seed=-1,
    )


def test_generation_is_deterministic_and_valid():
    p1 = generate_quadratic(42, 500, 100)
    p2 = generate_quadratic(42, 500, 100)
    np.testing.assert_array_equal(p1.coeffs, p2.coeffs)
    np.testing.assert_array_equal(p1.dim_index, p2.dim_index)
    assert ((p1.coeffs[:, 0] >= 0.5) & (p1.coeffs[:, 0] <= 1.0)).all()
    assert (np.abs(p1.coeffs[:, 1]) <= 1).all()
    assert ((p1.coeffs[:, 2] >= 0.5) & (p1.coeffs[:, 2] <= 1.0)).all()
    assert p1.dim_index.min() >= 0 and p1.dim_index.max() < 100
    p3 = generate_quadratic(43, 500, 100)
    assert not np.array_equal(p1.coeffs, p3.coeffs)


def test_single_function_loss_and_grad():
    p = _single(2.0, 1.0, 0.5)
    x = np.zeros(4)
    x[1] = 2.0
    b = Batch(np.array([0]))
    assert batch_loss(p, b, x) == pytest.approx(2.0 * 1.0 + 0.5)
    g = batch_grad(p, b, x)
    assert g[1] == pytest.approx(4.0)
    assert np.count_nonzero(g) == 1


def test_batch_mean_convention():
    coeffs = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    p = QuadraticProblem(2, 3, coeffs, np.array([0, 0]), seed=-1)
    x = np.zeros(3)
    b = Batch(np.array([0, 1]))
    # losses 0 and 4, gradient contributions 0 and -4 on coordinate 0
    assert batch_loss(p, b, x) == pytest.approx(2.0)
    assert batch_grad(p, b, x)[0] == pytest.approx(-2.0)


def test_grad_matches_finite_differences():
    p = generate_quadratic(3, 50, 20)
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    b = Batch(np.arange(0, 50, 7))
    g = batch_grad(p, b, x)
    h = 1e-5
    for j in range(20):
        e = np.zeros(20)
        e[j] = h
        fd = (batch_loss(p, b, x + e) - batch_loss(p, b, x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_sparsity_bound():
    p = generate_quadratic(9, 200, 1000)
    x = np.zeros(1000)
    b = Batch(np.array([3, 77, 130]))
    assert np.count_nonzero(batch_grad(p, b, x)) <= 3


def test_sparse_batch_grad_agrees_with_dense():
    p = generate_quadratic(9, 100, 40)
    rng = np.random.default_rng(1)
    x = rng.normal(size=40)
    b = Batch(np.array([4, 10, 10, 93]))
    dense = batch_grad(p, b, x)
    idx, vals = sparse_batch_grad(p, b, x)
    rebuilt = np.zeros(40)
    np.add.at(rebuilt, idx, vals)
    np.testing.assert_allclose(rebuilt, dense, rtol=0, atol=0)


def test_convexity_along_random_segments():
    p = generate_quadratic(17, 60, 25)
    rng = np.random.default_rng(2)
    b = Batch(rng.integers(0, 60, size=8))
    for _ in range(20):
        x, y = rng.normal(size=(2, 25)) * 3
        lam = rng.uniform()
        lhs = batch_loss(p, b, lam * x + (1 - lam) * y)
        rhs = lam * batch_loss(p, b, x) + (1 - lam) * batch_loss(p, b, y)
        assert lhs <= rhs + 1e-12


def test_full_loss_shared_coordinate_minimum():
    coeffs = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    p = QuadraticProblem(2, 2, coeffs, np.array([1, 1]), seed=-1)
    xmin, fmin = full_loss_minimum(p)
    assert xmin[1] == pytest.approx(1.0)
    assert fmin == pytest.approx(2.0)
    assert full_loss(p, xmin) == pytest.approx(2.0)


def test_full_loss_golden_fixtures():
    p = generate_quadratic(13, 10000, 10000)
    assert full_loss(p, np.full(10000, 3.0)) == pytest.approx(GOLDEN_FULL, rel=1e-12)
    q = generate_quadratic(5, 2000, 2000)
    assert full_loss(q, np.full(2000, 3.0)) == pytest.approx(GOLDEN_REDUCED, rel=1e-12)


def test_batch_loss_grad_matches_separate_calls():
    # one gather gives the same bits as batch_loss plus sparse_batch_grad;
    # a single member comes back as a scalar coordinate and value
    p = generate_quadratic(9, 40, 8)
    x = np.random.default_rng(2).normal(size=8)
    for indices in ([7], [3, 11], [0, 5, 9, 13, 21, 22, 30, 39], [4, 4, 4]):
        batch = Batch(np.array(indices))
        loss, coords, vals = batch_loss_grad(p, batch, x)
        tc, tv = sparse_batch_grad(p, batch, x)
        assert loss == batch_loss(p, batch, x)
        if len(indices) == 1:
            assert np.ndim(coords) == 0 and np.ndim(vals) == 0
            coords, vals = np.array([coords]), np.array([vals])
        np.testing.assert_array_equal(coords, tc)
        np.testing.assert_array_equal(vals, tv)
    with pytest.raises(ValueError):
        batch_loss_grad(p, Batch(np.array([], dtype=np.int64)), x)


def test_coefficient_columns_are_contiguous_views():
    p = generate_quadratic(4, 30, 10)
    for k, col in enumerate((p.a, p.b, p.c)):
        assert col.flags.c_contiguous
        assert np.shares_memory(col, p.coeffs)
        np.testing.assert_array_equal(col, p.coeffs[:, k])


def test_toy_losses():
    assert toy_losses(0.0) == (0.0, 1.0)
    g, h = toy_losses(0.3)
    assert g == pytest.approx(0.3)
    # the two components always sum to exactly one
    for theta in (-2.0, 0.0, 0.25, 0.707, 19.5):
        a, b = toy_losses(theta)
        assert a + b == 1.0
