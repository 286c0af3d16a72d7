"""Forward-Douglas-Rachford splitting.

Solves ``0 in A x + B x + N_V x`` for maximally monotone ``A``, cocoercive
``B`` and a closed subspace ``V``: an explicit step on ``B`` followed by a
Douglas-Rachford step coupling ``A`` with the normal cone of ``V``.  The
driving operators are

    T_gamma = (Id + R_{gamma A} o R_{N_V}) / 2      (firmly nonexpansive)
    S_gamma = Id - gamma P_V o B o P_V              (gamma/(2 beta)-averaged)

and the primal-dual pair is read off the fixed point ``z`` of
``T_gamma o S_gamma`` as ``x = P_V z``, ``y = (x - z)/gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .km import (DEFAULT_MAX_ITERS, DEFAULT_TOL, _bind, _check_schedule, _iterate,
                 _planned, _refuse, as_relaxation)
from .operators import AveragedOperator, _check_finite_gamma
from .spaces import _mark_built, _matvec, as_vector

__all__ = [
    "check_gamma",
    "averagedness",
    "InclusionProblem",
    "PrimalDualResult",
    "build_T",
    "build_S",
    "fdr_solve",
]


def check_gamma(gamma, beta):
    """``gamma`` as a float, checked to lie in ``]0, 2*beta[`` for a
    ``beta``-cocoercive forward map."""
    if not 0.0 < gamma < 2.0 * beta:
        raise ValueError(
            f"gamma must lie in ]0, 2*beta[ = ]0, {2.0 * beta}[; got {gamma}"
        )
    return float(gamma)


def averagedness(gamma, beta):
    """Averagedness constant ``max(2/3, 2 gamma/(gamma + 2 beta))`` of
    ``T_gamma o S_gamma``; relaxations range over ``]0, 1/alpha[``."""
    return max(2.0 / 3.0, 2.0 * gamma / (gamma + 2.0 * beta))


@dataclass(frozen=True)
class InclusionProblem:
    """Problem data for ``0 in A x + B x + N_V x``.

    Admissible proximal parameters form the open interval ``]0, 2 beta[``
    where ``beta`` is the cocoercivity constant of ``B``.
    """

    A: object
    B: object
    V: object

    def __post_init__(self):
        if not (self.A.dim == self.B.dim == self.V.dim):
            raise ValueError(
                f"dimension mismatch: A on R^{self.A.dim}, B on R^{self.B.dim}, "
                f"V on R^{self.V.dim}"
            )

    @property
    def dim(self):
        return self.A.dim

    @property
    def beta(self):
        return self.B.beta


def build_T(A, V, gamma):
    """Douglas-Rachford operator ``(Id + R_{gamma A} o R_{N_V}) / 2``; 1/2-averaged."""
    _check_finite_gamma(gamma)

    def apply(z):
        return 0.5 * (z + A.reflected(gamma, V.reflect(z)))

    return _mark_built(AveragedOperator(apply, 0.5, V.dim, label="douglas-rachford"))


def _fused_forward(B, V):
    """``x -> K x - P_V b`` with ``K = P_V Q P_V``, which is ``P_V B P_V x``
    in one matvec, when ``B x = Q x - b`` exposes an exactly symmetric ``Q``
    and ``V`` an exactly symmetric matrix; None for any other pair.

    Both are read with ``getattr``, so wrappers that forward attributes fuse
    as the objects they wrap do.  ``Q`` is the read-only snapshot on the
    record of its certified content (see
    :class:`monosplit.operators._Certified`), which maps of equal matrices
    share; ``K`` is kept there in one slot keyed by the identity of ``V``'s
    own view of its matrix and emptied when that view is collected.  When
    the slot holds another projector, or none, the call builds ``K`` with two
    d x d matrix products; later calls read it.  ``P_V b`` costs one
    projection per call of this helper.

    Every call fuses an eligible pair, whether or not ``K`` is cached, so a
    solve's bits depend on its inputs alone and not on what ran before it.
    """
    affine = getattr(B, "_affine", None)
    P = getattr(V, "_matrix", None)
    if affine is None or P is None:
        return None
    K = affine.certified.sandwich(P)
    return _matvec(K, True, V(affine.b))


def build_S(B, V, gamma):
    """Forward operator ``Id - gamma P_V o B o P_V``; gamma/(2 beta)-averaged.

    An affine ``B`` and a matrix ``V`` are applied fused, as
    ``z - gamma (K z - P_V b)`` (see :func:`_fused_forward`)."""
    check_gamma(gamma, B.beta)
    project, apply_B = _bind((V, B))
    forward = _fused_forward(B, V) or (lambda z: project(apply_B(project(z))))

    def apply(z):
        return z - gamma * forward(z)

    return _mark_built(AveragedOperator(apply, gamma / (2.0 * B.beta), V.dim,
                                        label="forward"))


@dataclass
class PrimalDualResult:
    """Primal point in V, dual point in the orthogonal complement, and the
    logged run: residuals are the error-free fixed-point gaps, which double
    as the resolvent-based inclusion certificate.  ``membership_violation``
    is ``max(||x - P_V x|| / (1 + ||x||), ||P_V y|| / (1 + ||y||))`` at the
    returned pair."""
    x: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    history: list = field(default_factory=list)
    inclusion_residual: float = float("inf")
    membership_violation: float = 0.0
    trace: list | None = None


def _primal_dual_result(V, run):
    """The :class:`PrimalDualResult` of a finished run, with the relative
    distances of the returned ``x`` to V and ``y`` to its complement as
    ``membership_violation``."""
    inner = V.inner
    x, y = run.x, run.y
    membership = max(inner.norm(x - V(x)) / (1.0 + inner.norm(x)),
                     inner.norm(V(y)) / (1.0 + inner.norm(y)))
    return PrimalDualResult(x=x, y=y, status=run.status,
                            iterations=run.iterations, history=run.history,
                            inclusion_residual=run.residual,
                            membership_violation=membership, trace=run.trace)


def fdr_solve(prob, gamma=None, relaxation=1.0, a_errors=None, b_errors=None,
              z0=None, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS,
              log_every=1, trace=False, objective=None):
    """Solve the inclusion by the forward-Douglas-Rachford iteration.

    Each iteration performs

        x_n = P_V z_n
        y_n = (x_n - z_n) / gamma
        s_n = x_n - gamma P_V(B x_n + a_n) + gamma y_n
        p_n = J_{gamma A} s_n + b_n
        z_{n+1} = z_n + lambda_n (p_n - x_n)

    Parameters
    ----------
    prob : InclusionProblem
    gamma : float, optional
        Proximal parameter in ``]0, 2*beta[``; defaults to ``beta``.
    relaxation : float or RelaxationSchedule
        Relaxations in ``]0, 1/alpha[`` with
        ``alpha = max(2/3, 2*gamma/(gamma + 2*beta))``.
    a_errors, b_errors : ErrorSchedule, optional
        Summable perturbations of the forward evaluation and of the
        resolvent; validated before the first iteration.
    z0 : array_like, optional
        Starting point (defaults to the origin).
    tol : float
        Convergence threshold on the error-free residual
        ``||J_{gamma A}(x_n - gamma P_V B x_n + gamma y_n) - x_n||``;
        a negative value disables the test.
    max_iters, log_every, trace : see ``km_solve``.
    objective : callable, optional
        Evaluated at ``x_n`` on logged rows, recorded in the history.

    Returns
    -------
    PrimalDualResult
        On convergence ``x`` solves the inclusion with the residual
        certificate at ``tol`` and ``y`` is the associated dual point; the
        history rows carry (n, lambda_n, residual, dx, dy, objective) and
        ``membership_violation`` the relative distances of the returned
        ``x`` to V and ``y`` to its complement.
    """
    run = _planned(*_fdr_plan(prob.B, gamma, relaxation, a_errors, b_errors,
                              prob.dim, prob.V.inner.norm))
    z = np.zeros(prob.dim) if z0 is None else as_vector(z0, prob.dim).copy()
    return run(prob, z, tol, max_iters, log_every, trace, objective)


def _ranges(refusals, B, gamma, relaxation, closed=None):
    """``gamma`` (``beta`` of ``B`` when None) checked in ``]0, 2 beta[``,
    and the relaxations in ``]0, 1/alpha[``, or in the interval ``closed``:
    each None when missing or refused (see :func:`monosplit.km._refuse`)."""
    lam_at = None
    gamma = None if B is None else _refuse(
        refusals, "gamma", check_gamma, B.beta if gamma is None else float(gamma), B.beta)
    if relaxation is not None and closed:
        lam_at = _refuse(refusals, "relaxation",
                         lambda: as_relaxation(relaxation).validate_closed(*closed))
    elif relaxation is not None and gamma is not None:
        lam_at = _refuse(refusals, "relaxation", lambda: as_relaxation(
            relaxation).validate_open(averagedness(gamma, B.beta)))
    return gamma, lam_at


def _fdr_plan(B, gamma=None, relaxation=1.0, a_errors=None, b_errors=None,
              dim=None, norm=None):
    """:func:`fdr_solve`'s plan for the forward map ``B``, of which it reads
    ``beta`` alone: ``(run, refusals)`` with ``run(prob, z, tol, max_iters,
    log_every, trace, objective)`` (see :func:`monosplit.km._refuse`)."""
    refusals = []
    gamma, lam_at = _ranges(refusals, B, gamma, relaxation)
    for name, e in (("a_errors", a_errors), ("b_errors", b_errors)):
        _refuse(refusals, name, _check_schedule, e, dim, norm)
    return partial(_fdr_run, gamma=gamma, lam_at=lam_at, a_errors=a_errors,
                   b_errors=b_errors), refusals


def _fdr_run(prob, z, tol, max_iters, log_every, trace=False, objective=None, *,
             gamma, lam_at, a_errors=None, b_errors=None):
    """:func:`fdr_solve`'s iteration from ``z`` on checked parameters; an
    affine ``B`` and a matrix ``V`` take ``P_V B x`` fused (see
    :func:`_fused_forward`)."""
    A, B, V = prob.A, prob.B, prob.V
    inner = V.inner
    fused = _fused_forward(B, V)
    project, apply_B, resolve = _bind((V, B, A.resolve), (a_errors, b_errors))

    def step(n, z):
        x = project(z)
        y = (x - z) / gamma
        PBx = project(apply_B(x)) if fused is None else fused(x)
        s_clean = x - gamma * PBx + gamma * y
        if a_errors is not None and a_errors.active(n):
            p = resolve(gamma, s_clean - gamma * project(a_errors(n)))
            p_clean = resolve(gamma, s_clean)
        else:
            p = p_clean = resolve(gamma, s_clean)
        if b_errors is not None and b_errors.active(n):
            p = p + b_errors(n)
        d_clean = p_clean - x
        d = d_clean if p is p_clean else p - x
        return inner.norm(d_clean), x, y, d

    run = _iterate(z, step, lam_at, tol, max_iters, log_every, trace,
                   inner.norm, objective, log_dy=True)
    return _primal_dual_result(V, run)

