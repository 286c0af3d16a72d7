"""Convex minimization over a subspace.

Minimizes ``f(x) + g(x)`` subject to ``x in V`` for a proper lsc convex
``f`` reached through its proximity operator and a differentiable convex
``g`` with Lipschitz gradient, by handing ``A = subdifferential of f`` and
``B = gradient of g`` to the subspace splitting solver: a
:class:`ProxFunction` is the resolvent family of ``df`` (prox = resolvent)
and a :class:`SmoothFunction` the ``1/L``-cocoercive map ``grad g``, so
both go to the solver as they are.  A solution exists
whenever the optimality system ``0 in  df(x) + grad g(x) + N_V x`` has a
zero; establishing that (e.g. through interiority of ``dom f - V`` or shared
minimizers) is a user obligation.
"""

from __future__ import annotations

import numpy as np

from .fdr import InclusionProblem, fdr_solve
from .km import DEFAULT_MAX_ITERS, DEFAULT_TOL
from .operators import (CocoerciveMap, ResolventFamily, _AffineData,
                        _box_bounds, _CachedAffineSolve, _clamp,
                        _soft_threshold, _symmetric_psd)
from .spaces import _mark_built, _matvec, as_vector

__all__ = [
    "ProxFunction",
    "SmoothFunction",
    "prox_l1",
    "l1_function",
    "box_function",
    "quadratic_function",
    "zero_function",
    "quadratic_smooth",
    "zero_smooth",
    "min_over_subspace",
]


class ProxFunction(ResolventFamily):
    """Convex function accessed through ``prox_{gamma f}``, the resolvent of
    its subdifferential.

    ``resolve(gamma, x)`` must return the unique minimizer of
    ``f(.) + ||. - x||^2 / (2 gamma)``; the family is firmly nonexpansive.
    ``value`` is optional and used only for diagnostics (the solvers never
    evaluate the function).
    """

    __slots__ = ("value",)

    def __init__(self, prox, dim, value=None, label=""):
        super().__init__(prox, dim, label)
        self.value = value

    def as_resolvent(self):
        """The subdifferential of ``f`` as a resolvent family: ``f`` itself."""
        return self


class SmoothFunction(CocoerciveMap):
    """Differentiable convex function with an L-Lipschitz gradient, applied
    by calling it.

    The gradient is then cocoercive with constant ``beta = 1/L``
    (Baillon-Haddad), which is the certificate passed to the splitting
    solvers.
    """

    __slots__ = ("lipschitz", "value")

    def __init__(self, grad, lipschitz, dim, value=None, label=""):
        if not (np.isfinite(lipschitz) and lipschitz > 0):
            raise ValueError(f"lipschitz must be a positive finite number, got {lipschitz}")
        self.lipschitz = float(lipschitz)
        super().__init__(grad, 1.0 / self.lipschitz, dim, label)
        self.value = value

    def as_cocoercive(self):
        """The gradient as a cocoercive map: ``g`` itself."""
        return self


prox_l1 = _soft_threshold


def l1_function(dim):
    """``f(x) = ||x||_1``."""
    return _mark_built(ProxFunction(prox_l1, dim,
                                    value=lambda x: float(np.abs(x).sum()), label="l1"))


def box_function(lo, hi):
    """Indicator of the box ``[lo, hi]``; infinite bounds are allowed."""
    lo, hi = _box_bounds(lo, hi)

    def value(x):
        return 0.0 if np.all((x >= lo - 1e-12) & (x <= hi + 1e-12)) else float("inf")

    return _mark_built(ProxFunction(lambda gamma, x: _clamp(gamma, x, lo, hi),
                                    lo.shape[0], value=value, label="box-indicator"))


def _quadratic_value(Q, symmetric, b):
    """``x -> x'Qx/2 - b'x``, applying ``Q`` by :func:`monosplit.spaces._matvec`."""
    Qx = _matvec(Q, symmetric)

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x.dot(Qx(x)) - b.dot(x))

    return value


def quadratic_function(Q, b=None):
    """``f(x) = x'Qx/2 - b'x`` for symmetric PSD ``Q``; prox solves
    ``(Id + gamma Q) z = x + gamma b`` with a factorization cached per gamma,
    and the value applies ``Q`` as :func:`quadratic_smooth` does; both read
    the read-only snapshot of ``Q``."""
    certified = _symmetric_psd(Q)
    Q = certified.Q
    dim = Q.shape[0]
    b = np.zeros(dim) if b is None else as_vector(b, dim)
    cache = _CachedAffineSolve(Q)
    return _mark_built(ProxFunction(lambda gamma, x: cache.solve(gamma, x + gamma * b),
                                    dim, value=_quadratic_value(Q, certified.symmetric, b),
                                    label="quadratic"))


def zero_function(dim):
    """``f = 0``; the prox is the identity."""
    return _mark_built(ProxFunction(lambda gamma, x: x.copy(), dim,
                                    value=lambda x: 0.0, label="zero"))


def quadratic_smooth(Q, b=None):
    """``g(x) = x'Qx/2 - b'x`` with gradient ``Qx - b`` and ``L = lambda_max(Q)``.

    The gradient and the value apply the read-only snapshot of ``Q`` as
    ``affine_gradient`` does: an exactly symmetric one with a one-triangle
    BLAS kernel (see :func:`monosplit.spaces._matvec`), exposed on the
    gradient as there, and one symmetric only within ``operators.PSD_TOL``
    as given.
    """
    certified = _symmetric_psd(Q)
    Q = certified.Q
    dim = Q.shape[0]
    lam_max = float(certified.eigs[-1])
    if lam_max <= 0.0:
        raise ValueError("Q must have a positive largest eigenvalue; "
                         "use zero_smooth for a vanishing gradient")
    b = np.zeros(dim) if b is None else as_vector(b, dim)
    symmetric = certified.symmetric
    g = SmoothFunction(_matvec(Q, symmetric, b), lam_max, dim,
                       value=_quadratic_value(Q, symmetric, b), label="quadratic")
    g._affine = _AffineData(b, certified) if symmetric else None
    return _mark_built(g)


def zero_smooth(dim, lipschitz=1.0):
    """``g = 0``; the declared Lipschitz constant only sets the step range."""
    return _mark_built(SmoothFunction(lambda x: np.zeros_like(x), lipschitz, dim,
                                      value=lambda x: 0.0, label="zero"))


def min_over_subspace(f, g, V, gamma=None, relaxation=1.0, a_errors=None,
                      b_errors=None, z0=None, tol=DEFAULT_TOL,
                      max_iters=DEFAULT_MAX_ITERS, log_every=1):
    """Minimize ``f + g`` over the subspace of ``V``.

    Runs the forward-Douglas-Rachford solver with ``A`` the subdifferential
    of ``f`` (through its prox) and ``B`` the gradient of ``g``:

        x_n = P_V z_n
        y_n = (x_n - z_n) / gamma
        s_n = x_n - gamma P_V(grad g(x_n) + a_n) + gamma y_n
        p_n = prox_{gamma f} s_n + b_n
        z_{n+1} = z_n + lambda_n (p_n - x_n)

    ``gamma`` ranges over ``]0, 2/L[`` for the gradient's Lipschitz constant
    ``L``.  When both functions are evaluable the objective is recorded on
    logged rows.  Existence of a solution to the optimality system is a user
    obligation.

    Returns the ``PrimalDualResult`` of the underlying run: on convergence
    ``x`` minimizes ``f + g`` over the subspace (fixed-point residual
    certificate at ``tol``).
    """
    prob, objective = _problem(f, g, V)
    return fdr_solve(prob, gamma=gamma, relaxation=relaxation,
                     a_errors=a_errors, b_errors=b_errors, z0=z0, tol=tol,
                     max_iters=max_iters, log_every=log_every,
                     objective=objective)


def _problem(f, g, V):
    """The inclusion that :func:`min_over_subspace` solves, and its objective
    ``f + g`` (None unless both functions are evaluable)."""
    objective = None
    if f.value is not None and g.value is not None:
        objective = lambda x: float(f.value(x)) + float(g.value(x))
    return InclusionProblem(f.as_resolvent(), g.as_cocoercive(), V), objective
