"""Forward-partial-inverse splitting.

Solves ``0 in A x + B x + N_V x`` by an explicit step on ``B`` followed by a
proximal step on the partial inverse of ``gamma A`` with respect to ``V``.
The general routine finds, per iteration, a pair ``(p_n, q_n)`` with

    x_n - delta_n gamma P_V B x_n + gamma y_n = p_n + gamma q_n
    P_V q_n / delta_n + (Id-P_V) q_n  in  A(P_V p_n + (Id-P_V) p_n / delta_n)

and then relaxes ``x_{n+1} = x_n + lambda_n (P_V p_n - x_n)``,
``y_{n+1} = y_n + lambda_n ((Id-P_V) q_n - y_n)``.  Solving that subproblem
is not explicit in general; a user oracle covers varying ``delta_n``.  For
``delta_n = 1`` the pair is produced by the resolvent of ``A`` itself, and
the routine is the forward-Douglas-Rachford iteration written in the
variables ``(x, y) = (P_V z, (P_V z - z)/gamma)``: :func:`fpi_explicit_solve`
runs it as such, from ``z_0 = x_0 - gamma y_0``.  On the auxiliary variable
``r_n = x_n + gamma y_n`` the routine is exactly a forward-backward step on
the partial inverse; the test surface checks that identity and the literal
recursion on the traces of :func:`fpi_explicit_solve`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .km import (DEFAULT_MAX_ITERS, DEFAULT_TOL, ScalarSchedule, _bind,
                 _constant_schedule, _iterate, _planned, _refuse, as_relaxation)
from .fdr import _fdr_run, _primal_dual_result, _ranges
from .operators import _check_finite_gamma
from .spaces import as_vector

__all__ = [
    "EPSILON",
    "StepSchedule",
    "OracleError",
    "constant_steps",
    "fpi_solve",
    "fpi_explicit_solve",
]

# the theorem needs some epsilon > 0 keeping delta_n in
# [epsilon, 2*beta/gamma - epsilon] and lambda_n in [epsilon, 1]; every range
# of the partial-inverse forms is checked against this one
EPSILON = 1e-3
# relative tolerance on a user oracle's sum identity and scaled inclusion
ORACLE_TOL = 1e-9


class OracleError(RuntimeError):
    """A user Step-1 oracle returned a pair violating its defining conditions."""


class StepSchedule(ScalarSchedule):
    """Sequence of proximal scalings ``delta_n`` for the partial-inverse step.

    Admissible values lie in ``[epsilon, 2*beta/gamma - epsilon]`` for the
    module constant ``epsilon = EPSILON``; the values are audited and
    checked by :meth:`ScalarSchedule.checked`.
    """

    __slots__ = ()

    def validate(self, gamma, beta):
        hi = 2.0 * beta / gamma - EPSILON
        if EPSILON > hi:
            raise ValueError(
                f"empty step range: [epsilon, 2*beta/gamma - epsilon] = [{EPSILON}, {hi}]"
            )
        return self.checked(
            lambda d: EPSILON <= d <= hi,
            lambda d, n: (f"step value {d} at n={n} outside admissible range "
                          f"[epsilon, 2*beta/gamma - epsilon] = [{EPSILON}, {hi}]"))


def constant_steps(value):
    """Constant schedule ``delta_n = value``."""
    return _constant_schedule(StepSchedule, value)


def _start(V, point, complement=False):
    """``point`` as a vector of V's space, the origin when None; a given
    point must lie in V (``x0``), or with ``complement`` in its orthogonal
    complement (``y0``)."""
    if point is None:
        return np.zeros(V.dim)
    p = as_vector(point, V.dim)
    violation = V.inner.norm(V(p) if complement else p - V(p))
    if violation > 1e-9 * (1.0 + V.inner.norm(p)):
        where = ("y0 must lie in the orthogonal complement" if complement
                 else "x0 must lie in the subspace")
        raise ValueError(f"{where} (violation {violation:.3e})")
    return p


def _fpi_plan(B, gamma=None, steps=1.0, relaxation=1.0, oracle=None, V=None,
              x0=None, y0=None, explicit=False):
    """:func:`fpi_solve`'s plan for the forward map ``B``, of which it reads
    ``beta`` alone, or with ``explicit`` that of :func:`fpi_explicit_solve`,
    which checks ``gamma`` in ``]0, 2 beta[`` and takes no ``steps``:
    ``(run, refusals)`` with ``run(prob, tol, max_iters, log_every, trace)``
    from the checked starts in ``V``, or from the ``x`` it is given (see
    :func:`monosplit.km._refuse`)."""
    refusals, delta_at, beta = [], None, None if B is None else B.beta
    if explicit:
        gamma, steps = _ranges(refusals, B, gamma, None)[0], None
    elif beta is not None or gamma is not None:
        gamma = _refuse(refusals, "gamma", _check_finite_gamma,
                        beta if gamma is None else gamma)
    if steps is not None:
        steps = _refuse(refusals, "steps", lambda: steps if isinstance(
            steps, StepSchedule) else constant_steps(steps))
    if steps is not None and gamma is not None and beta is not None:
        delta_at = _refuse(refusals, "steps", steps.validate, gamma, beta)
        steps = steps if delta_at else None
    if oracle is None and steps is not None and steps.constant_value != 1.0:
        refusals.append(("steps", ValueError(
            "varying or non-unit step schedules require a user oracle; "
            "the built-in closed form covers delta = 1 only")))
    lam_at = None if relaxation is None else _refuse(
        refusals, "relaxation",
        lambda: as_relaxation(relaxation).validate_closed(EPSILON, 1.0))
    x = y = None
    if V is not None:
        x = _refuse(refusals, "x0", _start, V, x0)
        y = _refuse(refusals, "y0", _start, V, y0, True)
    run = _explicit_run if oracle is None else partial(_oracle_run, delta_at=delta_at,
                                                        oracle=oracle)
    return partial(run, x=x, y=y, gamma=gamma, lam_at=lam_at), refusals


def fpi_solve(prob, gamma=None, steps=1.0, relaxation=1.0, oracle=None,
              x0=None, y0=None, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS,
              log_every=1, trace=False):
    """Solve the inclusion by the forward-partial-inverse routine.

    Parameters
    ----------
    prob : InclusionProblem
    gamma : float, optional
        Any positive finite proximal parameter (defaults to ``beta``); the step
        schedule must fit inside ``[epsilon, 2*beta/gamma - epsilon]``.
    steps : float or StepSchedule
        Scalings ``delta_n``.  Without an ``oracle`` they must be the
        constant 1, and the run is :func:`fpi_explicit_solve`; any other
        schedule needs a user ``oracle``.
    relaxation : float or RelaxationSchedule
        Relaxations ``lambda_n`` in ``[epsilon, 1]``.  Both ranges use the
        module constant ``epsilon = EPSILON``.
    oracle : callable, optional
        User Step-1 solver ``oracle(x, y, delta, gamma, PBx) -> (p, q)``,
        handed the step's ``P_V B x``.  The pair must satisfy the sum
        identity ``x - delta*gamma*PBx + gamma*y = p + gamma*q`` and the
        scaled inclusion of the partial-inverse step; both are verified each
        iteration (the inclusion via the resolvent residual of ``A``), and
        violations above ``ORACLE_TOL`` relative abort with
        :class:`OracleError`.
    x0, y0 : array_like, optional
        Starting points; ``x0`` must lie in the subspace and ``y0`` in its
        orthogonal complement (both default to the origin).
    tol, max_iters, log_every, trace : see ``fdr_solve``.

    Returns
    -------
    PrimalDualResult
    """
    run = _planned(*_fpi_plan(prob.B, gamma, steps, relaxation, oracle, prob.V, x0, y0))
    return run(prob, tol, max_iters, log_every, trace)


def _oracle_run(prob, tol, max_iters, log_every, trace=False, *, x, y, gamma,
                lam_at, delta_at, oracle):
    """:func:`fpi_solve`'s iteration with a user ``oracle`` from the pair
    ``(x, y)`` on checked parameters."""
    A, B, V = prob.A, prob.B, prob.V
    inner = V.inner
    # the oracle's pair is user data: V and A see it through their public calls
    project, apply_B = _bind((V, B))

    def step(n, state):
        x, y = state    # the rows of the (2, d) state
        delta = delta_at(n)
        PBx = project(apply_B(x))
        target = x - delta * gamma * PBx + gamma * y
        p, q = oracle(x, y, delta, gamma, PBx)
        sum_gap = inner.norm(target - (p + gamma * q))
        Pp, Pq = V(p), V(q)
        u = Pp + (p - Pp) / delta
        w = Pq / delta + (q - Pq)
        inclusion_gap = inner.norm(u - A.resolve(1.0, u + w))
        if (sum_gap > ORACLE_TOL * (1.0 + inner.norm(target))
                or inclusion_gap > ORACLE_TOL * (1.0 + inner.norm(u))):
            raise OracleError(
                f"Step 1 oracle residuals too large at iteration {n}: "
                f"sum identity {sum_gap:.3e}, scaled inclusion {inclusion_gap:.3e}"
            )
        rx = Pp - x
        ry = q - Pq - y
        residual = float(np.sqrt(inner.norm(rx) ** 2 + (gamma * inner.norm(ry)) ** 2))
        return residual, x, y, np.stack((rx, ry))

    run = _iterate(np.stack((x, y)), step, lam_at, tol, max_iters, log_every, trace,
                   inner.norm, log_dy=True)
    return _primal_dual_result(V, run)


def fpi_explicit_solve(prob, gamma=None, relaxation=1.0, x0=None, y0=None,
                       tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS,
                       log_every=1, trace=False):
    """Explicit unit-step forward-partial-inverse routine.

    Its iterates are those of the recursion

        s_n = x_n - gamma P_V B x_n + gamma y_n
        p_n = J_{gamma A} s_n
        y_{n+1} = y_n + (lambda_n / gamma)(P_V p_n - p_n)
        x_{n+1} = x_n + lambda_n (P_V p_n - x_n)

    for ``gamma in ]0, 2*beta[`` and relaxations in ``[epsilon, 1]``, with
    ``epsilon`` the module constant ``EPSILON``.  The run is the
    forward-Douglas-Rachford iteration of ``fdr_solve`` from
    ``z_0 = x_0 - gamma y_0``, whose pairs ``(P_V z_n, (P_V z_n - z_n)/gamma)``
    are the ``(x_n, y_n)`` above; its residual ``||p_n - x_n||`` is
    ``sqrt(||P_V p_n - x_n||^2 + ||p_n - P_V p_n||^2)`` by orthogonality.
    With ``V`` the whole space this collapses to the forward-backward
    iteration ``x_{n+1} = x_n + lambda_n (J_{gamma A}(x_n - gamma B x_n) - x_n)``.
    """
    run = _planned(*_fpi_plan(prob.B, gamma, None, relaxation, None, prob.V, x0, y0,
                              explicit=True))
    return run(prob, tol, max_iters, log_every, trace)


def _explicit_run(prob, tol, max_iters, log_every, trace=False, *, x, y, gamma, lam_at):
    """:func:`fpi_explicit_solve`'s run from the pair ``(x, y)``: the FDR
    iteration from ``z_0 = x - gamma y``."""
    return _fdr_run(prob, x - gamma * y, tol, max_iters, log_every, trace,
                    gamma=gamma, lam_at=lam_at)
