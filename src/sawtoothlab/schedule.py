"""Epoch-by-epoch batch ordering policies.

The boundary between two epochs is where sample re-exposure happens: under
fresh shuffling the expected number of samples shared by the last batch of
one epoch and the first batch of the next is B^2/N, or r*B/N when the last
batch is a short one of r items. The policies here span the interesting
range: fresh shuffles, a frozen order, an order that exactly reverses every
epoch (maximal boundary re-exposure), and i.i.d. sampling with replacement
(no epoch structure at all).
"""

from __future__ import annotations

import math

import numpy as np

from .problem import Batch

__all__ = [
    "EpochSchedule",
    "POLICIES",
    "batches_per_epoch",
    "expected_overlap",
    "boundary_overlap_mc",
]

POLICIES = ("shuffle", "fixed", "reverse", "replacement")


def batches_per_epoch(num_samples: int, batch_size: int) -> int:
    return math.ceil(num_samples / batch_size)


class EpochSchedule:
    """Yields batches for consecutive epochs under one ordering policy.

    Every epoch's batch list is materialized when the epoch begins, so the
    batch that will sit at any position is known at the epoch boundary (the
    trainer uses this to freeze its tracked batch). Permutation policies
    slice one epoch order into consecutive batches, with a short final batch
    when batch_size does not divide num_samples; the replacement policy
    draws ceil(N/B) independent uniform batches per nominal epoch.
    """

    def __init__(
        self,
        policy: str,
        num_samples: int,
        batch_size: int,
        seed: int,
        initial_shuffle: bool = False,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if not 1 <= batch_size <= num_samples:
            raise ValueError(
                f"batch_size must lie in [1, {num_samples}], got {batch_size}"
            )
        self.policy = policy
        self.num_samples = num_samples
        self.batch_size = batch_size
        self.seed = seed
        self.initial_shuffle = initial_shuffle
        self.rng = np.random.default_rng(seed)
        self.epoch = 0
        self._order: np.ndarray | None = None
        self._batches: list[Batch] = []
        self._cursor = 0

    def _next_order(self) -> np.ndarray:
        n = self.num_samples
        if self.policy == "shuffle":
            return self.rng.permutation(n)
        if self.policy == "fixed":
            if self._order is None:
                if self.initial_shuffle:
                    return self.rng.permutation(n)
                return np.arange(n)
            return self._order
        if self.policy == "reverse":
            if self._order is None:
                if self.initial_shuffle:
                    return self.rng.permutation(n)
                return np.arange(n)
            return self._order[::-1].copy()
        raise AssertionError(self.policy)

    def _begin_epoch(self) -> None:
        self.epoch += 1
        n, b = self.num_samples, self.batch_size
        count = batches_per_epoch(n, b)
        if self.policy == "replacement":
            draws = self.rng.integers(0, n, size=count * b)
            self._batches = [
                Batch(indices=draws[k * b : (k + 1) * b]) for k in range(count)
            ]
        else:
            self._order = self._next_order()
            self._batches = [
                Batch(indices=self._order[k * b : min((k + 1) * b, n)])
                for k in range(count)
            ]
        self._cursor = 0

    def _exhausted(self) -> bool:
        return self._cursor >= len(self._batches)

    def next_batch(self) -> Batch:
        """The next batch, starting a new epoch whenever the last ran out."""
        if self._exhausted():
            self._begin_epoch()
        batch = self._batches[self._cursor]
        self._cursor += 1
        return batch

    def peek_epoch_batches(self) -> list[Batch]:
        """The current epoch's batches, starting a new epoch if the last ran out."""
        if self._exhausted():
            self._begin_epoch()
        return list(self._batches)

    def current_order(self) -> np.ndarray:
        """The realized sample order of the current epoch (permutation policies)."""
        if self.policy == "replacement":
            raise ValueError("replacement sampling has no epoch order")
        if self._order is None:
            self._begin_epoch()
        return self._order.copy()


def _last_batch_size(num_samples: int, batch_size: int) -> int:
    """r = N - (ceil(N/B) - 1) * B, the size of an epoch's last batch (B if B divides N)."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if not 1 <= batch_size <= num_samples:
        raise ValueError(
            f"batch_size must lie in [1, {num_samples}], got {batch_size}"
        )
    return num_samples - (batches_per_epoch(num_samples, batch_size) - 1) * batch_size


def expected_overlap(num_samples: int, batch_size: int) -> float:
    """Expected shared-sample count between boundary batches, r*B/N.

    The last batch of one fresh permutation holds r items (r = B when B
    divides N, else N mod B) and the first batch of the next holds B. They
    are independent uniform subsets, so each of the r items falls in the
    head batch with probability B/N; when B divides N this is B^2/N.
    """
    r = _last_batch_size(num_samples, batch_size)
    return r * batch_size / num_samples


def boundary_overlap_mc(
    num_samples: int, batch_size: int, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the boundary-batch overlap.

    One trial is one fresh-shuffle epoch boundary. The last r items of a
    uniform permutation are a uniform r-subset (r the last batch's size, as
    in expected_overlap), and the next epoch's permutation is independent,
    so a trial draws only the tail r-subset and the head B-subset
    (``rng.choice`` without replacement each) and counts the items they
    share. The count follows the Hypergeometric(N, r, B) law;
    tests/test_schedule.py checks its mean r*B/N and its variance here and
    on real ``EpochSchedule`` boundaries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, b = num_samples, batch_size
    r = _last_batch_size(n, b)
    rng = np.random.default_rng(seed)
    in_tail = np.zeros(n, dtype=bool)
    counts = np.empty(trials, dtype=np.int64)
    for k in range(trials):
        tail = rng.choice(n, r, replace=False)
        in_tail[tail] = True
        counts[k] = np.count_nonzero(in_tail[rng.choice(n, b, replace=False)])
        in_tail[tail] = False
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return mean, se
