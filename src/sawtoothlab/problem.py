"""Incremental quadratic testbed and the two-batch toy objective.

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
    "generate_quadratic",
    "batch_loss",
    "batch_grad",
    "sparse_batch_grad",
    "batch_loss_grad",
    "full_loss",
    "full_loss_minimum",
    "toy_losses",
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
    seed: int

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
        seed=seed,
    )


def _gather(problem: QuadraticProblem, indices: np.ndarray, x: np.ndarray):
    j = problem.dim_index[indices]
    return problem.a[indices], x[j] - problem.b[indices], problem.c[indices], j


def _mean_loss(a, d, c) -> float:
    # np.mean's bits without its dispatch overhead
    return float((a * d ** 2 + c).sum() / len(a))


def _sparse_grad(a, d, j, n: int) -> tuple[np.ndarray, np.ndarray]:
    # np.unique(j, return_inverse=True) at a third of its cost on a few members
    s = np.sort(j)
    coords = s[np.concatenate(([True], s[1:] != s[:-1]))]
    vals = np.zeros(len(coords))
    np.add.at(vals, np.searchsorted(coords, j), 2.0 * a * d)
    vals /= n
    return coords, vals


def batch_loss(problem: QuadraticProblem, batch: Batch, x: np.ndarray) -> float:
    """Mean loss of the batch members at x."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    a, d, c, _ = _gather(problem, batch.indices, x)
    return _mean_loss(a, d, c)


def batch_grad(problem: QuadraticProblem, batch: Batch, x: np.ndarray) -> np.ndarray:
    """Mean gradient of the batch members at x, as a dense vector.

    Each member contributes 2 a (x[j] - b) to its own coordinate; members
    sharing a coordinate accumulate.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    a, d, _, j = _gather(problem, batch.indices, x)
    grad = np.zeros(problem.dim)
    np.add.at(grad, j, 2.0 * a * d)
    grad /= len(batch)
    return grad


def sparse_batch_grad(
    problem: QuadraticProblem, batch: Batch, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(coords, values) form of batch_grad; coords are unique and sorted."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    a, d, _, j = _gather(problem, batch.indices, x)
    return _sparse_grad(a, d, j, len(batch))


def batch_loss_grad(problem: QuadraticProblem, batch: Batch, x: np.ndarray):
    """(loss, coords, vals): batch_loss and sparse_batch_grad from one gather.

    A single-member batch gives an int coordinate and a float value by plain
    indexing, several times cheaper than a one-element gather; its loss and
    value are the same numbers the array form computes.
    """
    indices = batch.indices
    if len(indices) == 1:
        i = indices.item()
        j = problem.dim_index.item(i)
        a = problem.a.item(i)
        d = x.item(j) - problem.b.item(i)
        return a * (d * d) + problem.c.item(i), j, 2.0 * a * d
    if len(indices) == 0:
        raise ValueError("batch must be nonempty")
    a, d, c, j = _gather(problem, indices, x)
    return _mean_loss(a, d, c), *_sparse_grad(a, d, j, len(indices))


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


def toy_losses(theta: float) -> tuple[float, float]:
    """Batch losses (A, B) of the toy objective at theta.

    The two batches are linear, A(theta) = theta and B(theta) = 1 - theta.
    Their sum is constant, so any movement of theta trades one batch loss
    against the other; gradients are +1 and -1 regardless of theta.
    """
    return (theta, 1.0 - theta)
