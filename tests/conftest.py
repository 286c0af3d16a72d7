import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from monosplit import (CocoerciveMap, ErrorSchedule, InclusionProblem,
                       ResolventFamily, SubspaceProjector, matrix_projector)
from theory import ProductSpace

# property tests draw the same examples on every run and keep no example
# database; hypothesis's other caches go under pytest's cache directory
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      str(Path(__file__).resolve().parents[1] / ".pytest_cache"
                          / "hypothesis"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_subspace_matrix(rng, dim, rank):
    """Dense orthogonal-projector matrix onto a random rank-dimensional subspace."""
    G = rng.standard_normal((dim, rank))
    Q, _ = np.linalg.qr(G)
    return Q @ Q.T


def matrix_layouts(M):
    """``M`` C-ordered, Fortran-ordered and as a non-contiguous view."""
    d = M.shape[0]
    strided = np.zeros((2 * d, 2 * d))
    strided[::2, ::2] = M
    return {"C": np.ascontiguousarray(M), "F": np.asfortranarray(M),
            "strided": strided[::2, ::2]}


def random_subspace_projector(rng, dim, rank=None):
    if rank is None:
        rank = int(rng.integers(1, dim))
    return matrix_projector(random_subspace_matrix(rng, dim, rank))


def random_spd(rng, dim, lo=0.5, hi=3.0):
    """Symmetric positive definite matrix with eigenvalues in [lo, hi]."""
    G = rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(G)
    eigs = rng.uniform(lo, hi, size=dim)
    return (Q * eigs) @ Q.T


def kkt_solution(Q, b, P):
    """Closed-form minimizer of x'Qx/2 - b'x over range(P), via a linear
    KKT solve on an orthonormal basis of the subspace (independent of the
    iterative solvers; the basis comes from the projector's spectrum)."""
    Q = np.asarray(Q, float)
    b = np.asarray(b, float)
    M = np.array([P(e) for e in np.eye(P.dim)]).T
    w, U = np.linalg.eigh(M)
    Z = U[:, w > 0.5]
    t = np.linalg.solve(Z.T @ Q @ Z, Z.T @ b)
    return Z @ t


def relative_memberships(V, x, y):
    """Relative distances ``||x - P_V x|| / (1 + ||x||)`` of x to V and
    ``||P_V y|| / (1 + ||y||)`` of y to its orthogonal complement."""
    inner = V.inner
    return (inner.norm(x - V(x)) / (1.0 + inner.norm(x)),
            inner.norm(V(y)) / (1.0 + inner.norm(y)))


def counting_problem(prob):
    """The same problem with ``P_V`` and ``B`` wrapped to count their calls;
    returns the wrapped problem and the live ``{"V": ..., "B": ...}`` counts."""
    V, B = prob.V, prob.B
    counts = {"V": 0, "B": 0}

    def project(x):
        counts["V"] += 1
        return V(x)

    def forward(x):
        counts["B"] += 1
        return B(x)

    return InclusionProblem(prob.A, CocoerciveMap(forward, B.beta, B.dim),
                            SubspaceProjector(project, V.dim, V.inner)), counts


def fpi_unit_step_reference(prob, gamma, lam, x0, y0, n_iters):
    """Pairs ``(x_n, y_n)``, n = 0..n_iters, of the literal unit-step
    forward-partial-inverse recursion with constant relaxation ``lam``:

        s_n = x_n - gamma P_V B x_n + gamma y_n,   p_n = J_{gamma A} s_n
        x_{n+1} = x_n + lam (P_V p_n - x_n)
        y_{n+1} = y_n + (lam / gamma)(P_V p_n - p_n)
    """
    A, B, V = prob.A, prob.B, prob.V
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    points = [(x, y)]
    for _ in range(n_iters):
        p = A.resolve(gamma, x - gamma * V(B(x)) + gamma * y)
        Pp = V(p)
        x, y = x + lam * (Pp - x), y + (lam / gamma) * (Pp - p)
        points.append((x, y))
    return points


def pi_sum_reference(prob, gamma, lam, x0, Y0, n_iters):
    """Pairs ``(x_n, Y_n)``, n = 0..n_iters, of the blockwise partial-inverse
    sum recursion with constant relaxation ``lam``, each block resolved on
    its own:

        p_{i,n} = J_{(gamma/w_i) A_i}(x_n - gamma B x_n + gamma y_{i,n})
        x_{n+1} = x_n + lam (pbar_n - x_n)
        y_{i,n+1} = y_{i,n} + (lam / gamma)(pbar_n - p_{i,n})

    with ``pbar_n`` the weighted mean of the ``p_{i,n}``.
    """
    w = prob.weights
    x = np.array(x0, dtype=float)
    Y = np.array(Y0, dtype=float).reshape(prob.m, prob.base_dim)
    points = [(x, Y)]
    for _ in range(n_iters):
        S = x - gamma * prob.B(x) + gamma * Y
        P = np.array([A.resolve(gamma / wi, s)
                      for A, wi, s in zip(prob.blocks, w, S)])
        pbar = w @ P
        x, Y = x + lam * (pbar - x), Y + (lam / gamma) * (pbar - P)
        points.append((x, Y))
    return points


def trace_deviation(trace, reference):
    """``max_n ||x_n - x'_n|| + ||y_n - y'_n||`` over two runs of pairs of
    equal length."""
    assert len(trace) == len(reference)
    return max(float(np.linalg.norm(x1 - x2) + np.linalg.norm(y1 - y2))
               for (x1, y1), (x2, y2) in zip(trace, reference))


def lifted_problem(prob):
    """The product-space reduction of ``0 in sum_i A_i x + B x`` as a
    subspace inclusion on the weighted product space, block by block: block
    i resolves on its own at ``gamma / w_i``, ``B`` acts on every block and
    ``V`` is the consensus subspace."""
    space, w = ProductSpace.of(prob), prob.weights

    def resolve(gamma, X):
        return np.concatenate([A.resolve(gamma / wi, Xi) for A, wi, Xi
                               in zip(prob.blocks, w, space.split(X))])

    def forward(X):
        return np.concatenate([prob.B(Xi) for Xi in space.split(X)])

    return InclusionProblem(ResolventFamily(resolve, space.dim),
                            CocoerciveMap(forward, prob.beta, space.dim),
                            space.consensus_projector())


def lifted_errors(space, a_errors, b_errors):
    """A base-space schedule copied into every block, and per-block schedules
    stacked, as schedules on the weighted product space."""
    lifted = ErrorSchedule(lambda n: space.lift(a_errors(n)), a_errors.bound,
                           a_errors.summable, space.dim)
    stacked = ErrorSchedule(
        lambda n: np.concatenate([e(n) for e in b_errors]),
        lambda n: np.sqrt(sum(wi * e.bound(n) ** 2
                              for wi, e in zip(space.weights, b_errors))),
        all(e.summable for e in b_errors), space.dim)
    return lifted, stacked


def lifted_trace(space, gamma, trace):
    """Pairs ``(x_n, Z_n)`` of a lifted ``fdr_solve`` trace: the base point
    and the blocks of ``z_n = x_n - gamma y_n``."""
    return [(space.weights @ space.split(x), space.split(x - gamma * y))
            for x, y in trace]
