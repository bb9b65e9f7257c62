"""Incremental quadratic testbed: the problem draw, its batches and its losses.

The testbed objective is a sum of N one-dimensional quadratics, each pinned
to a single coordinate of the parameter vector:

    F(x) = sum_i  a_i * (x[j_i] - b_i)^2 + c_i

with a_i drawn from U(0.5, 1), b_i from U(-1, 1), c_i from U(0.5, 1) and
j_i uniform over coordinates. Every batch therefore has a gradient with at
most |batch| nonzero entries, which keeps per-sample effects visible in the
optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadraticProblem",
    "Batch",
    "EpochGather",
    "generate_quadratic",
    "batch_loss",
    "batch_grad",
    "sparse_batch_grad",
    "batch_loss_grad",
    "full_loss",
    "full_loss_minimum",
]


@dataclass
class Batch:
    """Indices of the functions visited at one step."""

    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class QuadraticProblem:
    """A fixed drawn instance of the incremental quadratic objective.

    coeffs is an (N, 3) array whose columns are the curvature a, the center
    b and the offset c; dim_index[i] is the coordinate function i acts on.
    coeffs is stored column-major, so the columns a, b and c are contiguous
    views for the per-step gathers.
    """

    num_functions: int
    dim: int
    coeffs: np.ndarray
    dim_index: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != (self.num_functions, 3):
            raise ValueError(
                f"coeffs must have shape ({self.num_functions}, 3), got {self.coeffs.shape}"
            )
        if self.dim_index.shape != (self.num_functions,):
            raise ValueError("dim_index must have one entry per function")
        if np.any(self.coeffs[:, 0] < 0):
            raise ValueError("curvatures must be nonnegative")
        if np.any((self.dim_index < 0) | (self.dim_index >= self.dim)):
            raise ValueError("dim_index entries must lie in [0, dim)")
        self.coeffs = np.asfortranarray(self.coeffs)
        self.a, self.b, self.c = self.coeffs.T


def generate_quadratic(seed: int, num_functions: int, dim: int) -> QuadraticProblem:
    """Draw a problem instance; identical (seed, N, dim) gives identical draws.

    Draw order is fixed: the (N, 3) coefficient table row-major, then the
    center column is redrawn from U(-1, 1), then the coordinate assignment.
    """
    if num_functions < 1 or dim < 1:
        raise ValueError("num_functions and dim must be >= 1")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.5, 1.0, size=(num_functions, 3))
    coeffs[:, 1] = rng.uniform(-1.0, 1.0, size=num_functions)
    dim_index = rng.integers(0, dim, size=num_functions)
    return QuadraticProblem(
        num_functions=num_functions,
        dim=dim,
        coeffs=coeffs,
        dim_index=dim_index,
    )


class EpochGather:
    """A sample order cut into batches, with the problem's terms gathered once.

    Batch k is order[k*B:(k+1)*B]; when B does not divide the order's length
    a short last batch holds the rest. Construction gathers dim_index, a, b
    and c along the whole order. At B > 1 it also sorts every full batch's
    coordinates at once, keeping the argsort permutation, and flags the
    batches whose members share a coordinate, so a step reads its batch's
    row: one gather of x, the loss, and the gradient put in coordinate order
    by the stored permutation. The gather holds arrays over the order and
    nothing per batch.
    """

    def __init__(self, problem: QuadraticProblem, order: np.ndarray, batch_size: int) -> None:
        body = len(order) - len(order) % batch_size
        rows = order[:body].reshape(-1, batch_size) if batch_size > 1 else order
        self.batch_size = batch_size
        self._rows = len(rows)
        self._j = problem.dim_index[rows]
        self._a, self._b, self._c = problem.a[rows], problem.b[rows], problem.c[rows]
        if batch_size > 1:
            self._a2 = self._a * 2.0  # exact, so a2 * d rounds as 2.0 * a * d does
            self._perm = np.argsort(self._j, axis=1)
            self._coords = np.sort(self._j, axis=1)  # self._j[perm], row by row
            self._shared = (self._coords[:, 1:] == self._coords[:, :-1]).any(axis=1)
        rest = len(order) - body
        self._last = EpochGather(problem, order[body:], rest) if rest else None

    def __len__(self) -> int:
        return self._rows + (self._last is not None)

    def loss_grad(self, k: int, x: np.ndarray):
        """(loss, coords, vals): batch k's mean loss and sparse gradient at x.

        coords are the batch's unique coordinates in increasing order and vals
        the mean gradient there, the bits that adding each member's
        2 a (x[j] - b) into zeros in batch order and dividing by the batch
        size gives. A single-member batch gives an int coordinate and a float
        value by plain indexing, several times cheaper than a one-element
        gather; its loss and value are the same numbers the array form
        computes.
        """
        if self.batch_size == 1:
            j = self._j.item(k)
            a = self._a.item(k)
            d = x.item(j) - self._b.item(k)
            return a * (d * d) + self._c.item(k), j, 2.0 * a * d
        if k >= self._rows:
            return self._last.loss_grad(k - self._rows, x)
        # each in-place operation rounds as a * (x[j] - b)^2 + c and
        # 2 a (x[j] - b) do, and np.add.reduce sums in batch order as
        # np.mean does, without its dispatch overhead
        n = self.batch_size
        j, a = self._j[k], self._a[k]
        d = x[j]
        d -= self._b[k]
        terms = d * d
        terms *= a
        terms += self._c[k]
        loss = np.add.reduce(terms).item() / n
        g = self._a2[k] * d
        if self._shared.item(k):
            coords, inverse = np.unique(j, return_inverse=True)
            vals = np.zeros(len(coords))
            np.add.at(vals, inverse, g)
        else:
            coords = self._coords[k]
            vals = g[self._perm[k]]
            vals += 0.0  # a -0.0 product becomes the +0.0 that adding it into zeros gives
        vals /= n
        return loss, coords, vals


def batch_loss(problem: QuadraticProblem, batch: Batch, x: np.ndarray) -> float:
    """Mean loss of the batch members at x."""
    return batch_loss_grad(problem, batch, x)[0]


def batch_grad(problem: QuadraticProblem, batch: Batch, x: np.ndarray) -> np.ndarray:
    """Mean gradient of the batch members at x, as a dense vector.

    Each member contributes 2 a (x[j] - b) to its own coordinate; members
    sharing a coordinate accumulate. This is sparse_batch_grad scattered.
    """
    coords, vals = sparse_batch_grad(problem, batch, x)
    grad = np.zeros(problem.dim)
    grad[coords] = vals
    return grad


def sparse_batch_grad(
    problem: QuadraticProblem, batch: Batch, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(coords, values) form of batch_grad; coords are unique and sorted."""
    _, coords, vals = batch_loss_grad(problem, batch, x)
    return np.atleast_1d(coords), np.atleast_1d(vals)


def batch_loss_grad(problem: QuadraticProblem, batch: Batch, x: np.ndarray):
    """(loss, coords, vals) of one batch: EpochGather.loss_grad on a one-batch gather."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    return EpochGather(problem, batch.indices, len(batch)).loss_grad(0, x)


def full_loss(problem: QuadraticProblem, x: np.ndarray) -> float:
    """Sum of all component losses at x."""
    xj = x[problem.dim_index]
    return float(np.sum(problem.a * (xj - problem.b) ** 2 + problem.c))


def full_loss_minimum(problem: QuadraticProblem) -> tuple[np.ndarray, float]:
    """Closed-form minimizer and minimum of the full objective.

    Coordinate j minimizes a weighted least squares of the centers living on
    it: x*[j] = sum(a_i b_i) / sum(a_i). Coordinates no function touches are
    left at zero.
    """
    a, b = problem.a, problem.b
    wsum = np.bincount(problem.dim_index, weights=a, minlength=problem.dim)
    wbsum = np.bincount(problem.dim_index, weights=a * b, minlength=problem.dim)
    x_star = np.zeros(problem.dim)
    touched = wsum > 0
    x_star[touched] = wbsum[touched] / wsum[touched]
    return x_star, full_loss(problem, x_star)
