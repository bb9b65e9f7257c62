"""Separable-quadratic testbed."""

import numpy as np
import pytest

import reference_impl
from sawtoothlab.problem import (
    Batch,
    EpochGather,
    QuadraticProblem,
    batch_grad,
    batch_loss,
    full_loss,
    full_loss_minimum,
    batch_loss_grad,
    generate_quadratic,
    sparse_batch_grad,
)
from sawtoothlab.schedule import EpochSchedule

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


def test_malformed_problems_are_rejected():
    fields = dict(num_functions=1, dim=4, coeffs=np.array([[1.0, 0.0, 0.5]]),
                  dim_index=np.array([1]))
    QuadraticProblem(**fields)
    for change, message in [
        ({"coeffs": np.ones((2, 3))}, r"coeffs must have shape \(1, 3\), got \(2, 3\)"),
        ({"dim_index": np.array([0, 1])}, "dim_index must have one entry per function"),
        ({"coeffs": np.array([[-1.0, 0.0, 0.5]])}, "curvatures must be nonnegative"),
        ({"dim_index": np.array([4])}, r"dim_index entries must lie in \[0, dim\)"),
        ({"dim_index": np.array([-1])}, r"dim_index entries must lie in \[0, dim\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            QuadraticProblem(**(fields | change))
    for num_functions, dim in ((0, 4), (4, 0)):
        with pytest.raises(ValueError, match="num_functions and dim must be >= 1"):
            generate_quadratic(0, num_functions, dim)


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
    p = QuadraticProblem(2, 3, coeffs, np.array([0, 0]))
    x = np.zeros(3)
    b = Batch(np.array([0, 1]))
    # losses 0 and 4, gradient contributions 0 and -4 on coordinate 0
    assert batch_loss(p, b, x) == pytest.approx(2.0)
    assert batch_grad(p, b, x)[0] == pytest.approx(-2.0)


def test_grad_matches_finite_differences():
    # batch_grad's scatter, then every EpochGather row over one permutation:
    # the scalar row (B = 1, and B = 7's one-member last row), array rows
    # with and without shared coordinates, a short last row (B = 8) and the
    # whole epoch (B = 50)
    p = generate_quadratic(3, 50, 20)
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    h = 1e-5

    def check(grad, loss):
        for j in range(20):
            e = np.zeros(20)
            e[j] = h
            fd = (loss(x + e) - loss(x - e)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    b = Batch(np.arange(0, 50, 7))
    check(batch_grad(p, b, x), lambda z: batch_loss(p, b, z))
    order = np.random.default_rng(4).permutation(50)
    shared = set()
    for batch_size in (1, 7, 8, 50):
        gather = EpochGather(p, order, batch_size)
        for k in range(len(gather)):
            _, coords, vals = gather.loss_grad(k, x)
            grad = np.zeros(20)
            grad[coords] = vals
            check(grad, lambda z: gather.loss_grad(k, z)[0])
            j = p.dim_index[order[k * batch_size : (k + 1) * batch_size]]
            shared.add((len(j) > 1, len(np.unique(j)) < len(j)))
    assert shared == {(False, False), (True, False), (True, True)}


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
    p = QuadraticProblem(2, 2, coeffs, np.array([1, 1]))
    xmin, fmin = full_loss_minimum(p)
    assert xmin[1] == pytest.approx(1.0)
    assert fmin == pytest.approx(2.0)
    assert full_loss(p, xmin) == pytest.approx(2.0)


def test_full_loss_golden_fixtures():
    p = generate_quadratic(13, 10000, 10000)
    assert full_loss(p, np.full(10000, 3.0)) == pytest.approx(GOLDEN_FULL, rel=1e-12)
    q = generate_quadratic(5, 2000, 2000)
    assert full_loss(q, np.full(2000, 3.0)) == pytest.approx(GOLDEN_REDUCED, rel=1e-12)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_batch_loss_grad_matches_separate_calls():
    # one gather gives the same bits as the reference batch loss and sparse
    # gradient, which gather separately; a single member comes back as a
    # scalar coordinate and value
    p = generate_quadratic(9, 40, 8)
    x = np.random.default_rng(2).normal(size=8)
    for indices in ([7], [3, 11], [0, 5, 9, 13, 21, 22, 30, 39], [4, 4, 4]):
        batch = Batch(np.array(indices))
        loss, coords, vals = batch_loss_grad(p, batch, x)
        tc, tv = reference_impl.sparse_batch_grad(p, batch, x)
        assert _bits(loss) == _bits(reference_impl.batch_loss(p, batch, x))
        if len(indices) == 1:
            assert np.ndim(coords) == 0 and np.ndim(vals) == 0
            coords, vals = np.array([coords]), np.array([vals])
        np.testing.assert_array_equal(coords, tc)
        np.testing.assert_array_equal(_bits(vals), _bits(tv))
    with pytest.raises(ValueError):
        batch_loss_grad(p, Batch(np.array([], dtype=np.int64)), x)


def test_batch_loss_and_sparse_batch_grad_match_the_reference_bits():
    # both read batch_loss_grad; a single member still comes back as arrays
    p = generate_quadratic(3, 50, 12)
    rng = np.random.default_rng(4)
    x = rng.normal(size=12)
    for size in (1, 2, 5, 16, 50):
        batch = Batch(rng.integers(0, 50, size=size))
        assert _bits(batch_loss(p, batch, x)) == _bits(reference_impl.batch_loss(p, batch, x))
        coords, vals = sparse_batch_grad(p, batch, x)
        tc, tv = reference_impl.sparse_batch_grad(p, batch, x)
        assert coords.dtype == tc.dtype and coords.shape == tc.shape
        np.testing.assert_array_equal(coords, tc)
        np.testing.assert_array_equal(_bits(vals), _bits(tv))
    for f in (batch_loss, sparse_batch_grad):
        with pytest.raises(ValueError):
            f(p, Batch(np.array([], dtype=np.int64)), x)


def _reference_row(p, batch, x):
    """The reference (loss, coords, vals) of one batch, as bytes."""
    coords, vals = reference_impl.sparse_batch_grad(p, batch, x)
    return np.float64(reference_impl.batch_loss(p, batch, x)).tobytes(), coords.tobytes(), vals.tobytes()


@pytest.mark.parametrize("policy", ["shuffle", "replacement"])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 8, 16])
def test_epoch_gather_rows_match_the_reference_bits(policy, batch_size):
    # 61 functions on 7 coordinates: members share coordinates, and a
    # permutation epoch ends on a short batch at every B > 1 (of one member
    # at B = 2 and 3); replacement epochs hold full batches only
    p = generate_quadratic(5, 61, 7)
    x = np.random.default_rng(8).normal(size=7)
    x[p.dim_index[0]] = p.b[0]  # member 0 sits exactly at its centre
    sched = EpochSchedule(policy, 61, batch_size, seed=6)
    centred = shared = False
    for _ in range(3):
        batches = sched.peek_epoch_batches()
        gather = EpochGather(p, sched.next_epoch_order(), batch_size)
        assert len(gather) == len(batches)
        for k, batch in enumerate(batches):
            loss, coords, vals = gather.loss_grad(k, x)
            row = np.float64(loss).tobytes(), np.atleast_1d(coords).tobytes(), np.atleast_1d(vals).tobytes()
            assert row == _reference_row(p, batch, x), k
            centred |= 0 in batch.indices
            shared |= len(np.unique(p.dim_index[batch.indices])) < len(batch)
    assert centred and shared == (batch_size > 1)
    if policy == "shuffle" and batch_size > 1:
        assert len(batches[-1]) == 61 % batch_size


@pytest.mark.parametrize("batch_size", [2, 4, 8])
def test_epoch_gather_adds_negative_zero_products_into_positive_zeros(batch_size):
    # every centre at 0 and x = -0.0: each member's 2 a (x - b) is -0.0, and
    # the reference's sum into zeros makes it +0.0, sharing or not
    p = generate_quadratic(5, 8, 8)
    coeffs = p.coeffs.copy()
    coeffs[:, 1] = 0.0
    q = QuadraticProblem(num_functions=8, dim=8, coeffs=coeffs, dim_index=p.dim_index)
    x = np.full(8, -0.0)
    gather = EpochGather(q, np.arange(8), batch_size)
    for k, batch in enumerate(Batch(np.arange(i, i + batch_size)) for i in range(0, 8, batch_size)):
        loss, coords, vals = gather.loss_grad(k, x)
        assert not np.signbit(vals).any()
        assert (np.float64(loss).tobytes(), coords.tobytes(), vals.tobytes()) == _reference_row(q, batch, x)


def test_coefficient_columns_are_contiguous_views():
    p = generate_quadratic(4, 30, 10)
    for k, col in enumerate((p.a, p.b, p.c)):
        assert col.flags.c_contiguous
        assert np.shares_memory(col, p.coeffs)
        np.testing.assert_array_equal(col, p.coeffs[:, k])
