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
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # imported where a Batch is made: the overlap command loads no problem code
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

    Every epoch's sample order is drawn when the epoch begins, so the batch
    that will sit at any position is known at the epoch boundary (the
    trainer uses this to freeze its tracked batch). Batch k of an epoch is
    the order's k-th slice of batch_size: permutation policies cut one
    permutation of the samples, with a short final batch when batch_size
    does not divide num_samples; the replacement policy draws ceil(N/B)
    full batches of independent uniform indices per nominal epoch. The
    schedule keeps the order alone and makes a Batch only when asked for one.
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
        _last_batch_size(num_samples, batch_size)  # checks both sizes
        self.policy = policy
        self.num_samples = num_samples
        self.batch_size = batch_size
        self.initial_shuffle = initial_shuffle
        self._seed = seed
        self.epoch = 0
        self._order = np.empty(0, dtype=np.int64)  # the current epoch's order
        self._cursor = 0  # start of the current epoch's first undrawn batch

    def _epoch_order(self) -> np.ndarray:
        """The current epoch's whole order, starting a new epoch if the last ran out."""
        if self._cursor < len(self._order):
            return self._order
        if self.epoch == 0:
            # made at the first draw: a schedule built to check a config imports no numpy.random
            self.rng = np.random.default_rng(self._seed)
        self.epoch += 1
        n, b = self.num_samples, self.batch_size
        if self.policy == "replacement":
            self._order = self.rng.integers(0, n, size=batches_per_epoch(n, b) * b)
        elif self.policy == "shuffle" or (self.epoch == 1 and self.initial_shuffle):
            self._order = self.rng.permutation(n)
        elif self.epoch == 1:
            self._order = np.arange(n)
        elif self.policy == "reverse":
            self._order = self._order[::-1].copy()
        # a fixed order stays as it is
        self._cursor = 0
        return self._order

    def next_batch(self) -> Batch:
        """The next batch, starting a new epoch whenever the last ran out."""
        from .problem import Batch

        indices, start = self._epoch_order(), self._cursor
        self._cursor += self.batch_size
        return Batch(indices=indices[start : self._cursor])

    def next_epoch_order(self) -> np.ndarray:
        """The order of the current epoch's undrawn batches, which then count as drawn.

        A new epoch starts first if the last ran out, so called at each epoch
        boundary it hands over every epoch whole: batch k is the k-th slice
        of batch_size, as next_batch would have drawn it.
        """
        indices, start = self._epoch_order(), self._cursor
        self._cursor = len(indices)
        return indices[start:]

    def peek_epoch_batches(self) -> list[Batch]:
        """The current epoch's batches, starting a new epoch if the last ran out."""
        from .problem import Batch

        indices, b = self._epoch_order(), self.batch_size
        return [Batch(indices=indices[k : k + b]) for k in range(0, len(indices), b)]


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

    One trial is one fresh-shuffle epoch boundary: the last r items of one
    permutation (r as in expected_overlap) against the first B of the next.
    The head is a uniform B-subset independent of the tail, so by
    exchangeability the tail can be fixed as items 0..r-1, and the head is
    drawn over them alone by selection sampling (Knuth's Algorithm S, TAOCP
    vol. 2, 3.4.2): item i joins it with probability (B - chosen) / (N - i),
    which a uniform integer in [0, N - i) falling below B - chosen has
    exactly, with no float rounding. All trials advance together, for
    O(trials*r) draws and O(trials) memory with no term in N; draws are
    fixed per seed. The count follows Hypergeometric(N, r, B): its mean
    r*B/N and variance are checked in tests/test_schedule.py.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, b = num_samples, batch_size
    r = _last_batch_size(n, b)
    rng = np.random.default_rng(seed)
    counts = np.zeros(trials, dtype=np.int64)
    for i in range(r):
        counts += rng.integers(0, n - i, size=trials) < b - counts
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return mean, se
