"""Batch ordering policies and the boundary-overlap statistic."""

import math

import numpy as np
import pytest

from sawtoothlab.schedule import (
    EpochSchedule,
    POLICIES,
    batches_per_epoch,
    boundary_overlap_mc,
    expected_overlap,
)


def _epoch_indices(sched):
    return np.concatenate([b.indices for b in sched.peek_epoch_batches()])


def test_batches_per_epoch():
    assert batches_per_epoch(10, 1) == 10
    assert batches_per_epoch(10, 3) == 4
    assert batches_per_epoch(10, 10) == 1


def test_validation():
    with pytest.raises(ValueError):
        EpochSchedule("roundrobin", 10, 1, seed=0)
    with pytest.raises(ValueError):
        EpochSchedule("shuffle", 10, 11, seed=0)
    with pytest.raises(ValueError):
        EpochSchedule("shuffle", 0, 1, seed=0)
    with pytest.raises(ValueError):
        expected_overlap(10, 0)
    for trials in (0, -3):
        with pytest.raises(ValueError):
            boundary_overlap_mc(10, 2, trials)
    for batch_size in (0, -1, 11):
        with pytest.raises(ValueError):
            boundary_overlap_mc(10, batch_size, 100)


def test_shuffle_epochs_are_permutations():
    sched = EpochSchedule("shuffle", 23, 4, seed=7)
    seen = []
    for _ in range(3):
        idx = _epoch_indices(sched)
        assert len(idx) == 23
        np.testing.assert_array_equal(np.sort(idx), np.arange(23))
        seen.append(idx.copy())
        for _ in range(batches_per_epoch(23, 4)):
            sched.next_batch()
    # fresh draws: consecutive epochs should not repeat the order
    assert not np.array_equal(seen[0], seen[1])


def test_fixed_policy_is_static():
    sched = EpochSchedule("fixed", 12, 5, seed=0)
    first = _epoch_indices(sched)
    np.testing.assert_array_equal(first, np.arange(12))
    for _ in range(2 * batches_per_epoch(12, 5)):
        sched.next_batch()
    np.testing.assert_array_equal(sched.current_order(), first)


def test_reverse_policy_alternates():
    sched = EpochSchedule("reverse", 9, 2, seed=0)
    e1 = _epoch_indices(sched)
    for _ in range(batches_per_epoch(9, 2)):
        sched.next_batch()
    e2 = _epoch_indices(sched)
    np.testing.assert_array_equal(e2, e1[::-1])
    for _ in range(batches_per_epoch(9, 2)):
        sched.next_batch()
    # reversing twice restores the original order
    np.testing.assert_array_equal(_epoch_indices(sched), e1)


def test_reverse_boundary_repeats_last_sample():
    sched = EpochSchedule("reverse", 30, 1, seed=0)
    last = None
    for _ in range(30):
        last = sched.next_batch()
    first_of_next = sched.next_batch()
    assert last.indices[0] == first_of_next.indices[0]


def test_replacement_draws_are_unconstrained():
    sched = EpochSchedule("replacement", 10, 2, seed=3)
    idx = _epoch_indices(sched)
    assert len(idx) == 10
    assert idx.min() >= 0 and idx.max() < 10
    # with-replacement draws almost surely miss some sample in one epoch
    assert len(np.unique(idx)) < 10
    with pytest.raises(ValueError):
        sched.current_order()


def test_short_final_batch():
    sched = EpochSchedule("shuffle", 10, 3, seed=1)
    sizes = [len(b) for b in sched.peek_epoch_batches()]
    assert sizes == [3, 3, 3, 1]


def test_initial_shuffle_randomizes_frozen_order():
    plain = EpochSchedule("fixed", 40, 1, seed=11)
    mixed = EpochSchedule("fixed", 40, 1, seed=11, initial_shuffle=True)
    np.testing.assert_array_equal(plain.current_order(), np.arange(40))
    order = mixed.current_order()
    assert not np.array_equal(order, np.arange(40))
    np.testing.assert_array_equal(np.sort(order), np.arange(40))


def test_determinism_across_instances():
    for policy in POLICIES:
        a = EpochSchedule(policy, 17, 3, seed=9)
        b = EpochSchedule(policy, 17, 3, seed=9)
        for _ in range(3 * batches_per_epoch(17, 3)):
            np.testing.assert_array_equal(a.next_batch().indices, b.next_batch().indices)


def test_peek_does_not_advance():
    sched = EpochSchedule("shuffle", 8, 2, seed=2)
    planned = sched.peek_epoch_batches()
    served = [sched.next_batch() for _ in range(4)]
    for p, s in zip(planned, served):
        np.testing.assert_array_equal(p.indices, s.indices)


def test_expected_overlap_values():
    assert expected_overlap(10000, 100) == pytest.approx(1.0)
    assert expected_overlap(100, 10) == pytest.approx(1.0)
    assert expected_overlap(1000, 1) == pytest.approx(0.001)


# The statistical checks below use seed 0 and a 4-SE bound on the mean and
# on the variance, both fixed before the checks were first run.
Z = 4.0


def _hypergeometric_moments(n, b):
    """Mean, variance and fourth central moment of Hypergeometric(N, B, B).

    The law of |S ∩ T| for independent uniform B-subsets S, T of N items,
    computed from its pmf C(B, k) C(N-B, B-k) / C(N, B).
    """
    total = math.comb(n, b)
    ks = np.arange(max(0, 2 * b - n), b + 1)
    pmf = np.array([math.comb(b, k) * math.comb(n - b, b - k) / total for k in ks])
    mean = float(pmf @ ks)
    var = float(pmf @ (ks - mean) ** 2)
    mu4 = float(pmf @ (ks - mean) ** 4)
    return mean, var, mu4


def _assert_follows_hypergeometric(mean, var, count, n, b):
    """Sample mean and variance of `count` i.i.d. draws within Z SE of the law."""
    law_mean, law_var, law_mu4 = _hypergeometric_moments(n, b)
    assert law_mean == pytest.approx(b * b / n)
    assert law_var == pytest.approx(b * b * (n - b) ** 2 / (n * n * (n - 1)))
    assert abs(mean - law_mean) <= Z * math.sqrt(law_var / count)
    # the large-sample SE of a sample variance is sqrt((mu4 - var^2) / count)
    assert abs(var - law_var) <= Z * math.sqrt((law_mu4 - law_var**2) / count)


def _shuffle_boundary_overlaps(n, b, epochs, seed):
    """|last batch of epoch e ∩ first batch of epoch e+1| along one schedule."""
    sched = EpochSchedule("shuffle", n, b, seed)
    counts = []
    last = None
    for epoch in range(1, epochs + 1):
        batch = sched.next_batch().indices
        assert sched.epoch == epoch
        if last is not None:
            counts.append(len(np.intersect1d(last, batch)))
        for _ in range(batches_per_epoch(n, b) - 1):
            batch = sched.next_batch().indices
        last = batch
    return np.array(counts)


def test_overlap_mc_matches_closed_form():
    mean, se = boundary_overlap_mc(200, 20, trials=20000, seed=0)
    expected = expected_overlap(200, 20)
    assert se < 0.05
    assert abs(mean - expected) < 4 * se
    # the function returns se = std / sqrt(trials); undo it for the variance
    _assert_follows_hypergeometric(mean, se * se * 20000, 20000, 200, 20)


def test_overlap_mc_is_deterministic_per_seed():
    assert boundary_overlap_mc(300, 10, 500, seed=3) == boundary_overlap_mc(300, 10, 500, seed=3)
    assert boundary_overlap_mc(300, 10, 1, seed=3)[1] == math.inf


@pytest.mark.parametrize("n, b, epochs", [(200, 20, 20000), (10000, 100, 2000)])
def test_shuffle_schedule_boundary_overlap_is_hypergeometric(n, b, epochs):
    # Consecutive boundaries share an epoch order, but their counts are
    # uncorrelated (independent, in fact): given every order up to epoch e,
    # the head batch of epoch e+1 is a fresh uniform B-subset, so the count
    # at boundary e has the same law whatever came before. The usual SE of
    # a mean of i.i.d. draws therefore holds.
    counts = _shuffle_boundary_overlaps(n, b, epochs, seed=0)
    assert len(counts) == epochs - 1
    _assert_follows_hypergeometric(counts.mean(), counts.var(ddof=1), len(counts), n, b)


@pytest.mark.parametrize("n, b, epochs", [(10, 3, 20000), (200, 30, 5000)])
def test_overlap_with_a_short_last_batch_matches_real_boundaries(n, b, epochs):
    # B does not divide N, so each epoch ends on a batch of r = N mod B
    # items; the count at a boundary follows Hypergeometric(N, r, B)
    r = n % b
    total = math.comb(n, b)
    ks = np.arange(0, r + 1)
    pmf = np.array([math.comb(r, k) * math.comb(n - r, b - k) / total for k in ks])
    law_mean = float(pmf @ ks)
    law_var = float(pmf @ (ks - law_mean) ** 2)
    assert law_mean == pytest.approx(r * b / n)
    assert expected_overlap(n, b) == pytest.approx(law_mean, rel=1e-12)
    counts = _shuffle_boundary_overlaps(n, b, epochs, seed=0)
    assert abs(counts.mean() - law_mean) <= Z * math.sqrt(law_var / len(counts))
    mean, se = boundary_overlap_mc(n, b, trials=epochs, seed=0)
    assert abs(mean - law_mean) <= Z * math.sqrt(law_var / epochs)
    assert se == pytest.approx(math.sqrt(law_var / epochs), rel=0.1)


def test_overlap_mc_draws_are_unchanged_when_b_divides_n():
    # one trial draws the tail and head batches, both of B items, from one
    # generator; recorded before the tail size followed the last batch
    assert boundary_overlap_mc(300, 10, 500, seed=3) == (0.314, 0.025614844143210434)
    assert boundary_overlap_mc(200, 20, 2000, seed=5) == (2.014, 0.028342611944312982)
    assert boundary_overlap_mc(7, 7, 5, seed=1) == (7.0, 0.0)
