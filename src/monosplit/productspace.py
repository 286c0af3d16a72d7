"""Product-space reduction for sums of finitely many monotone operators.

``0 in sum_i A_i x + B x`` is rewritten over the m-fold product of the base
space, weighted blockwise, as an inclusion against the diagonal (consensus)
subspace: the lifted operator resolves blockwise with per-block parameters
``gamma / w_i``, the lifted forward map applies ``B`` to every block, and the
consensus projector replaces each block by the weighted mean.  The direct
parallel loop :func:`sum_splitting_solve` is that lifted Douglas-Rachford
iteration written blockwise; its partial-inverse form
:func:`sum_splitting_pi` runs the same loop under ``z_i = x - gamma y_i``.

The direct loop resolves all blocks through
:meth:`ProductProblem.resolve_blocks`, which evaluates each run of
consecutive library-built blocks sharing a row kernel (boxes, soft
thresholds) in one stacked call and any other block on its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

import numpy as np

from .fdr import _ranges
from .fpi import EPSILON
from .km import (DEFAULT_MAX_ITERS, DEFAULT_TOL, _bind, _check_schedule, _iterate,
                 _kernel_of, _planned, _refuse, as_relaxation)
from .operators import _check_finite_gamma, zero_cocoercive
from .spaces import InnerProduct, as_vector

__all__ = [
    "ProductProblem",
    "ProductSolveResult",
    "sum_splitting_solve",
    "sum_splitting_pi",
    "parallel_dr2",
    "dr2_relaxation",
]

SCALED_GAMMA_CAP = 1e12


def _check_weights(weights, m, count_only=False):
    """``weights`` as ``m`` floats in ]0, 1[ (1 when ``m`` is 1) summing to 1
    within 1e-12, equal ones when None; the range is read from ``w.min()``
    and ``w.max()``, through which a NaN propagates and is refused; with
    ``count_only``, None once the count is checked."""
    if weights is None:
        return np.full(m, 1.0 / m)
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    if count_only:
        return None
    if not (w.min() > 0.0 and (m == 1 or w.max() < 1.0)):
        raise ValueError("each weight must lie in ]0, 1[")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {float(w.sum())}")
    return w


def _block_plan(blocks):
    """Runs ``(start, stop, kernel, params)`` covering the blocks in order.

    Consecutive blocks that carry the same row kernel, and whose ``resolve``
    :func:`monosplit.km._kernel_of` accepts, form one run, each parameter
    stacked over the run; every other block, a wrapper included, is a run of
    one with ``kernel`` its ``resolve`` and ``params`` None.
    """
    specs = [A._kernel if _kernel_of(A.resolve) is not None else None for A in blocks]
    plan, start = [], 0
    for kernel, run in groupby(specs, key=lambda s: None if s is None else s[0]):
        run = list(run)
        stop = start + len(run)
        if kernel is None:
            plan += [(i, i + 1, blocks[i].resolve, None) for i in range(start, stop)]
        else:
            params = tuple(np.stack(col) for col in zip(*(s[1] for s in run)))
            plan.append((start, stop, kernel, params))
        start = stop
    return plan


class ProductProblem:
    """Data for ``0 in sum_i A_i x + B x`` with block weights.

    ``B`` defaults to the zero map with ``beta = 1``; weights default to the
    uniform ``1/m``; ``m``, ``base_dim`` and ``weights`` are the block
    count, the base dimension and the checked weights.  The blocks are held
    as a tuple: the plan of :meth:`resolve_blocks` is cached on first use.
    """

    __slots__ = ("blocks", "B", "m", "base_dim", "weights", "_plan")

    def __init__(self, blocks, B=None, weights=None):
        self.blocks = tuple(blocks)
        self._plan = None
        if not self.blocks:
            raise ValueError("at least one operator block is required")
        base_dim = self.blocks[0].dim
        for A in self.blocks:
            if A.dim != base_dim:
                raise ValueError("all operator blocks must share the base dimension")
        self.B = zero_cocoercive(base_dim) if B is None else B
        if self.B.dim != base_dim:
            raise ValueError("forward map dimension mismatch")
        if base_dim < 1:
            raise ValueError("m and base_dim must be positive")
        self.m = len(self.blocks)
        self.base_dim = base_dim
        self.weights = _check_weights(weights, self.m)

    @property
    def beta(self):
        return self.B.beta

    @property
    def _runs(self):
        if self._plan is None:
            # concurrent first calls build equal plans; either may be kept
            self._plan = _block_plan(self.blocks)
        return self._plan

    def resolve_blocks(self, gammas, S):
        """Rows ``J_{gammas[i] A_i} S[i]`` for all blocks, as an ``(m, d)`` array.

        A run of consecutive library-built blocks sharing a row kernel is
        resolved in one stacked call, bit-identical to resolving its rows one
        by one; other blocks, wrappers included, go through their own
        ``resolve``.  ``gammas`` must be positive and ``S`` of shape
        ``(m, d)``: the callers check both once per solve.
        """
        return _resolve_runs(self._runs, gammas, S)


def _resolve_runs(plan, gammas, S):
    """The rows of :meth:`ProductProblem.resolve_blocks` along ``plan``."""
    P = np.empty_like(S)
    for start, stop, kernel, params in plan:
        if params is None:
            P[start] = kernel(gammas[start], S[start])
        else:
            P[start:stop] = kernel(gammas[start:stop, None], S[start:stop], *params)
    return P


@dataclass
class ProductSolveResult:
    """Base-space outcome of a product-space run.

    ``certificate_residual`` combines the per-block resolvent residuals of
    the final inclusion decomposition with the residual of the assembled sum.
    """
    final: np.ndarray
    status: str
    iterations: int
    history: list = field(default_factory=list)
    certificate_residual: float = float("inf")
    block_residuals: np.ndarray | None = None
    sum_residual: float | None = None
    spread: float | None = None
    duals: np.ndarray | None = None
    trace: list | None = None


def _as_blocks(v, m, d):
    """Per-block points as a finite ``(m, d)`` array (a flat ``m * d`` vector
    is accepted too); the copy is the caller's to update in place."""
    V = np.asarray(v, dtype=float)
    if V.shape not in ((m, d), (m * d,)):
        raise ValueError(f"dimension mismatch: expected {m} blocks of length {d}, "
                         f"got shape {V.shape}")
    return as_vector(V.reshape(-1)).reshape(m, d).copy()


def _certificate(prob, x, Bx, gamma, S):
    """Certificate fields of a final, error-free block step ``P_i = J_{(gamma/w_i) A_i} S_i``.

    ``U_i = w_i (S_i - P_i) / gamma`` lies in ``A_i P_i``; the per-block
    resolvent residuals ``||x - J_{A_i}(x + U_i)||`` and the sum residual
    ``||sum_i U_i + B x||`` vanish exactly when ``x`` solves the inclusion.
    """
    w = prob.weights
    P = prob.resolve_blocks(gamma / w, S)
    U = w[:, None] * (S - P) / gamma
    block_res = np.linalg.norm(x - prob.resolve_blocks(np.ones(prob.m), x + U),
                               axis=1)
    sum_res = float(np.linalg.norm(U.sum(axis=0) + Bx))
    return dict(certificate_residual=max(float(block_res.max()), sum_res),
                block_residuals=block_res, sum_residual=sum_res,
                spread=float(np.linalg.norm(P - x, axis=1).max()))


def _add_block_errors(P, errors, n):
    """Add to row ``i`` of ``P``, in place, the iteration-n error of each
    pair ``(i, schedule)`` whose schedule is active at n; returns whether
    it added any."""
    added = False
    for i, e in errors:
        if e.active(n):
            P[i] += e(n)
            added = True
    return added


def sum_splitting_solve(prob, gamma=None, relaxation=1.0, a_errors=None,
                        b_errors=None, z0=None, tol=DEFAULT_TOL,
                        max_iters=DEFAULT_MAX_ITERS, log_every=1, trace=False):
    """Direct parallel loop for ``0 in sum_i A_i x + B x``.

    Per iteration, with ``x_n`` the weighted mean of the blocks,

        s_{i,n} = 2 x_n - z_{i,n} - gamma (B x_n + a_n)
        p_{i,n} = J_{(gamma/w_i) A_i} s_{i,n} + b_{i,n}
        z_{i,n+1} = z_{i,n} + lambda_n (p_{i,n} - x_n)

    Parameters mirror ``fdr_solve``; ``b_errors`` is a per-block list.  The
    run is the lifted Douglas-Rachford iteration written blockwise.

    Returns a base-space :class:`ProductSolveResult`; on convergence the
    certificate assembles the block inclusions ``w_i q_i in A_i x`` and their
    sum against ``-B x``.
    """
    run = _planned(*_sum_plan(prob.B, prob.m, prob.weights, gamma, relaxation,
                              a_errors, b_errors, prob.base_dim))
    Z = np.zeros((prob.m, prob.base_dim)) if z0 is None else _as_blocks(
        z0, prob.m, prob.base_dim)
    return run(prob, Z, tol, max_iters, log_every, trace)


def _sum_plan(B, m, weights=None, gamma=None, relaxation=1.0, a_errors=None,
              b_errors=None, dim=None, closed=False):
    """:func:`sum_splitting_solve`'s plan for the forward map ``B``, of which
    it reads ``beta`` alone, and ``m`` blocks of ``weights``, or with
    ``closed`` that of :func:`sum_splitting_pi`, whose relaxations lie in
    ``[epsilon, 1]``: ``(run, refusals)`` with ``run(prob, Z, tol,
    max_iters, log_every, trace)``, or ``run(prob, x, Y, ...)`` from the
    partial-inverse pair (see :func:`monosplit.km._refuse`).  It checks
    every resolvent parameter ``gamma / w_i`` of the run last, and warns when
    one exceeds ``SCALED_GAMMA_CAP``; a weight of None leaves only the count."""
    refusals = []
    w = None if m is None else _refuse(refusals, "weights", _check_weights, weights, m,
                                       isinstance(weights, list) and None in weights)
    gamma, lam_at = _ranges(refusals, B, gamma, relaxation, closed and (EPSILON, 1.0))
    b_errors = None if b_errors is None else list(b_errors)
    if b_errors is not None and m is not None and len(b_errors) != m:
        refusals.append(("b_errors", ValueError(
            f"expected {m} per-block error schedules, got {len(b_errors)}")))
    for name, e in [("a_errors", a_errors)] + [
            (f"b_errors[{i}]", e) for i, e in enumerate(b_errors or ())]:
        _refuse(refusals, name, _check_schedule, e, dim)
    if gamma is not None and w is not None:
        worst = _refuse(refusals, "gamma", _check_finite_gamma, gamma / float(w.min()),
                        "resolvent parameter")
        if worst is not None and worst > SCALED_GAMMA_CAP:
            warnings.warn(f"scaled resolvent parameter gamma/w_i reaches {worst:.3e}, "
                          f"beyond the cap {SCALED_GAMMA_CAP:.3e}; results may be "
                          "inaccurate", RuntimeWarning)
    if closed:
        return partial(_pi_run, gamma=gamma, lam_at=lam_at), refusals
    return partial(_sum_splitting_run, gamma=gamma, lam_at=lam_at, a_errors=a_errors,
                   b_errors=b_errors), refusals


def _sum_splitting_run(prob, Z, tol, max_iters, log_every, trace=False, *, gamma,
                       lam_at, a_errors=None, b_errors=None, duals=False):
    """:func:`sum_splitting_solve`'s loop from the blocks ``Z`` on checked
    parameters (``b_errors`` a list of m); with ``duals`` the result reports
    ``y_i = (x - z_i) / gamma`` in ``duals`` and the trace, as
    :func:`sum_splitting_pi` does."""
    d, w = prob.base_dim, prob.weights
    b_errors = [(i, e) for i, e in enumerate(b_errors or ()) if e is not None]
    gammas = gamma / w
    # B and the blocks resolved one at a time
    apply_B, *kernels = _bind([prob.B] + [r[2] for r in prob._runs if r[3] is None],
                              [a_errors] + [e for _, e in b_errors])
    kernels = iter(kernels)
    plan = [r if r[3] is not None else r[:2] + (next(kernels), None) for r in prob._runs]

    def step(n, Z):
        x = w @ Z
        Bx = apply_B(x)
        a_active = a_errors is not None and a_errors.active(n)
        forward = Bx + a_errors(n) if a_active else Bx
        P = _resolve_runs(plan, gammas, 2.0 * x - gamma * forward - Z)
        D = D_clean = P - x
        if a_active:
            D_clean = _resolve_runs(plan, gammas, 2.0 * x - gamma * Bx - Z) - x
        if b_errors and _add_block_errors(P, b_errors, n):
            D = P - x
        residual = math.sqrt(np.add.reduce(w * np.add.reduce(D_clean ** 2, 1)))
        return residual, x, Z, D

    run = _iterate(Z, step, lam_at, tol, max_iters, log_every, trace,
                   InnerProduct(d).norm)
    # assemble the final certificate from an exact (error-free) block step
    x, Z = run.x, run.y
    Bx = prob.B(x)
    res = ProductSolveResult(final=x, status=run.status, iterations=run.iterations,
                             history=run.history, trace=run.trace,
                             **_certificate(prob, x, Bx, gamma, 2.0 * x - gamma * Bx - Z))
    if duals:
        res.duals = (x - Z) / gamma
        if res.trace is not None:
            res.trace = [(xn, (xn - Zn) / gamma) for xn, Zn in res.trace]
    return res


def _pi_run(prob, x, Y, tol, max_iters, log_every, trace=False, *, gamma, lam_at):
    """:func:`sum_splitting_pi`'s run from ``x`` and the duals ``Y``: the
    loop from ``z_i = x - gamma y_i``."""
    return _sum_splitting_run(prob, x - gamma * Y, tol, max_iters, log_every, trace,
                              gamma=gamma, lam_at=lam_at, duals=True)


def parallel_dr2(A1, A2, gamma=1.0, relaxation=1.0, b1_errors=None,
                 b2_errors=None, z0=None, tol=DEFAULT_TOL,
                 max_iters=DEFAULT_MAX_ITERS, log_every=1, trace=False):
    """Parallel two-operator resolvent splitting for ``0 in A_1 x + A_2 x``.

    Both resolvents are evaluated simultaneously (each on the other block):

        x_n = (z_{1,n} + z_{2,n}) / 2
        p_{1,n} = J_{2 gamma A_1}(z_{2,n}) + b_{1,n}
        p_{2,n} = J_{2 gamma A_2}(z_{1,n}) + b_{2,n}
        z_{i,n+1} = z_{i,n} + lambda_n (p_{i,n} - x_n)

    Any finite ``gamma > 0`` is admissible and the relaxations range over
    ``]0, 3/2[`` with ``sum_n lambda_n (3 - 2 lambda_n) = +inf``.
    """
    if A1.dim != A2.dim:
        raise ValueError("operator dimensions differ")
    run = _planned(*_dr2_plan(gamma, relaxation, b1_errors, b2_errors, A1.dim))
    Z = np.zeros((2, A1.dim)) if z0 is None else _as_blocks(z0, 2, A1.dim)
    return run(A1, A2, Z, tol, max_iters, log_every, trace)


def _dr2_plan(gamma=1.0, relaxation=1.0, b1_errors=None, b2_errors=None, dim=None):
    """:func:`parallel_dr2`'s plan, which checks the resolvent parameter
    ``2 gamma`` last: ``(run, refusals)`` with ``run(A1, A2, Z, tol,
    max_iters, log_every, trace)`` (see :func:`monosplit.km._refuse`)."""
    refusals = []
    if gamma is not None:
        gamma = _refuse(refusals, "gamma", _check_finite_gamma, gamma)
    lam_at = None if relaxation is None else _refuse(
        refusals, "relaxation", dr2_relaxation, relaxation)
    for name, e in (("b1_errors", b1_errors), ("b2_errors", b2_errors)):
        _refuse(refusals, name, _check_schedule, e, dim)
    if gamma is not None:
        _refuse(refusals, "gamma", _check_finite_gamma, 2.0 * gamma, "resolvent parameter")
    return partial(_dr2_run, gamma=gamma, lam_at=lam_at, b1_errors=b1_errors,
                   b2_errors=b2_errors), refusals


def _dr2_run(A1, A2, Z, tol, max_iters, log_every, trace=False, *, gamma, lam_at,
             b1_errors=None, b2_errors=None):
    """:func:`parallel_dr2`'s iteration from the blocks ``Z`` on checked
    parameters."""
    errors = [(i, e) for i, e in enumerate((b1_errors, b2_errors)) if e is not None]
    J1, J2 = _bind((A1.resolve, A2.resolve), (b1_errors, b2_errors))

    def step(n, Z):
        x = 0.5 * (Z[0] + Z[1])
        P = np.empty_like(Z)
        P[0] = J1(2.0 * gamma, Z[1])
        P[1] = J2(2.0 * gamma, Z[0])
        D = P - x
        residual = math.sqrt(0.5 * D[0].dot(D[0]) + 0.5 * D[1].dot(D[1]))
        if errors and _add_block_errors(P, errors, n):
            D = P - x
        return residual, x, Z, D

    run = _iterate(Z, step, lam_at, tol, max_iters, log_every, trace,
                   InnerProduct(A1.dim).norm)

    # the product certificate at equal weights (gamma / w_i = 2 gamma) and
    # B = 0, with each block resolved on the other one: s_1 = z_2, s_2 = z_1
    x, Z = run.x, run.y
    return ProductSolveResult(final=x, status=run.status, iterations=run.iterations,
                              history=run.history, trace=run.trace,
                              **_certificate(ProductProblem([A1, A2]), x,
                                             np.zeros(A1.dim), gamma, Z[::-1]))


def dr2_relaxation(relaxation):
    """Relaxations of :func:`parallel_dr2` as a checked ``n -> lambda_n``.

    The averagedness constant is 2/3, so the open range ``]0, 1/alpha[`` is
    exactly ``]0, 3/2[``; the prefix is audited here and every later term
    when the solver reaches it, each error naming that range.
    """
    note = " (two-operator parallel splitting requires relaxations in ]0, 3/2[)"
    schedule = as_relaxation(relaxation)
    try:
        admissible, message = schedule.open_range(2.0 / 3.0)
    except ValueError as e:
        raise ValueError(f"{e}{note}") from None
    return schedule.checked(admissible, lambda lam, n: message(lam, n) + note)


def sum_splitting_pi(prob, gamma=None, relaxation=1.0, x0=None, y0=None,
                     tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS,
                     log_every=1, trace=False):
    """Partial-inverse form of the parallel sum splitting.

    Its iterates are a base primal ``x_n`` and per-block duals ``y_{i,n}``
    with ``sum_i w_i y_{i,n} = 0``, following

        s_{i,n} = x_n - gamma B x_n + gamma y_{i,n}
        p_{i,n} = J_{(gamma/w_i) A_i} s_{i,n}
        y_{i,n+1} = y_{i,n} + (lambda_n/gamma)(pbar_n - p_{i,n})
        x_{n+1} = x_n + lambda_n (pbar_n - x_n)

    with ``pbar_n`` the weighted mean of the ``p_{i,n}``.  Relaxations range
    over ``[epsilon, 1]``, with ``epsilon`` the constant ``fpi.EPSILON``.  The
    run is the loop of :func:`sum_splitting_solve` from
    ``z_{i,0} = x_0 - gamma y_{i,0}``, with ``y_{i,n} = (x_n - z_{i,n})/gamma``
    in ``duals`` and the trace; its residual
    ``sqrt(sum_i w_i ||p_{i,n} - x_n||^2)`` equals
    ``sqrt(||pbar_n - x_n||^2 + sum_i w_i ||pbar_n - p_{i,n}||^2)``.
    """
    m, d, w = prob.m, prob.base_dim, prob.weights
    run = _planned(*_sum_plan(prob.B, m, w, gamma, relaxation, closed=True))
    x = np.zeros(d) if x0 is None else as_vector(x0, d)
    if y0 is None:
        Y = np.zeros((m, d))
    else:
        Y = _as_blocks(y0, m, d)
        drift = float(np.linalg.norm(w @ Y))
        if drift > 1e-9 * (1.0 + float(np.abs(Y).max())):
            raise ValueError(
                f"dual initialization must satisfy sum_i w_i y_i = 0 "
                f"(violation {drift:.3e})"
            )
    return run(prob, x, Y, tol, max_iters, log_every, trace)
