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

import numpy as np

from .km import (CONVERGED, DIVERGED, MAX_ITERS, DEFAULT_MAX_ITERS,
                 DEFAULT_TOL, IterationRow, as_relaxation)
from .operators import AveragedOperator
from .spaces import as_vector

__all__ = [
    "InclusionProblem",
    "PrimalDualResult",
    "CharacterizationReport",
    "build_T",
    "build_S",
    "fdr_solve",
    "characterization_check",
]


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

    def alpha(self, gamma):
        """Averagedness constant of ``T_gamma o S_gamma``."""
        return max(2.0 / 3.0, 2.0 * gamma / (gamma + 2.0 * self.beta))

    def check_gamma(self, gamma):
        if not 0.0 < gamma < 2.0 * self.beta:
            raise ValueError(
                f"gamma must lie in ]0, 2*beta[ = ]0, {2.0 * self.beta}[; got {gamma}"
            )
        return float(gamma)


def build_T(A, V, gamma):
    """Douglas-Rachford operator ``(Id + R_{gamma A} o R_{N_V}) / 2``; 1/2-averaged."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")

    def apply(z):
        return 0.5 * (z + A.reflected(gamma, V.reflect(z)))

    return AveragedOperator(apply, 0.5, V.dim, label="douglas-rachford")


def build_S(B, V, gamma):
    """Forward operator ``Id - gamma P_V o B o P_V``; gamma/(2 beta)-averaged."""
    if not 0.0 < gamma < 2.0 * B.beta:
        raise ValueError(
            f"gamma must lie in ]0, 2*beta[ = ]0, {2.0 * B.beta}[; got {gamma}"
        )

    def apply(z):
        return z - gamma * V(B(V(z)))

    return AveragedOperator(apply, gamma / (2.0 * B.beta), V.dim, label="forward")


@dataclass
class PrimalDualResult:
    """Primal point in V, dual point in the orthogonal complement, and the
    logged run: residuals are the error-free fixed-point gaps, which double
    as the resolvent-based inclusion certificate."""
    x: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    history: list = field(default_factory=list)
    inclusion_residual: float = float("inf")
    forward_gap: list = field(default_factory=list)
    membership_violation: float = 0.0
    trace: list | None = None


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
        ``forward_gap`` the retro-computed ``||P_V B x_n - P_V B x_final||``.
    """
    A, B, V = prob.A, prob.B, prob.V
    dim = prob.dim
    inner = V.inner
    gamma = prob.beta if gamma is None else float(gamma)
    prob.check_gamma(gamma)
    alpha = prob.alpha(gamma)
    relax = as_relaxation(relaxation)
    relax.validate_open(alpha)
    for errs in (a_errors, b_errors):
        if errs is not None:
            if errs.dim != dim:
                raise ValueError("error schedule dimension mismatch")
            errs.validate(norm=inner.norm)
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    if log_every < 1:
        raise ValueError("log_every must be at least 1")

    z = np.zeros(dim) if z0 is None else as_vector(z0, dim).copy()
    rows = []
    fw_vectors = []
    xy_trace = [] if trace else None
    membership = 0.0
    status = MAX_ITERS
    iterations = 0
    residual = float("inf")
    prev_x = None
    prev_y = None

    # z starts finite, so iteration 0 always sets x and y
    for n in range(max_iters + 1):
        if not np.all(np.isfinite(z)):
            status = DIVERGED
            iterations = n
            if prev_x is not None:
                x, y = prev_x, prev_y
            break
        x = V(z)
        y = (x - z) / gamma
        Bx = B(x)
        PBx = V(Bx)

        a_active = a_errors is not None and a_errors.active(n)
        b_active = b_errors is not None and b_errors.active(n)
        s_clean = x - gamma * PBx + gamma * y
        if a_active:
            s = s_clean - gamma * V(a_errors(n))
            p = A.resolve(gamma, s)
            p_clean = A.resolve(gamma, s_clean)
        else:
            p = A.resolve(gamma, s_clean)
            p_clean = p
        p_err = p + b_errors(n) if b_active else p

        residual = inner.norm(p_clean - x)
        lam = relax(n)
        converged = np.isfinite(residual) and residual <= tol
        terminal = converged or n == max_iters or not np.isfinite(residual)
        if trace:
            xy_trace.append((x.copy(), y.copy()))
        if n % log_every == 0 or terminal:
            dx = inner.norm(x - prev_x) if prev_x is not None else 0.0
            dy = inner.norm(y - prev_y) if prev_y is not None else 0.0
            obj = float(objective(x)) if objective is not None else None
            rows.append(IterationRow(n, lam, residual, dx, dy, obj))
            fw_vectors.append(PBx.copy())
            vx = inner.norm(x - V(x)) / (1.0 + inner.norm(x))
            vy = inner.norm(V(y)) / (1.0 + inner.norm(y))
            membership = max(membership, vx, vy)
        if not np.isfinite(residual):
            status = DIVERGED
            iterations = n
            break
        if converged:
            status = CONVERGED
            iterations = n
            break
        if n == max_iters:
            iterations = n
            break
        prev_x, prev_y = x, y
        z = z + lam * (p_err - x)

    fw_final = V(B(x))
    forward_gap = [inner.norm(v - fw_final) for v in fw_vectors]
    return PrimalDualResult(x=x, y=y, status=status, iterations=iterations,
                            history=rows, inclusion_residual=residual,
                            forward_gap=forward_gap,
                            membership_violation=membership, trace=xy_trace)


@dataclass(frozen=True)
class CharacterizationReport:
    fixed_point_residual: float
    inclusion_residual: float
    x: np.ndarray
    y: np.ndarray


def characterization_check(prob, gamma, z):
    """Diagnose a candidate ``z`` against the fixed-point characterization.

    Reports ``||T_gamma(S_gamma z) - z||`` together with the primal-dual pair
    ``(x, y) = (P_V z, -(Id - P_V) z / gamma)`` and its resolvent-based
    inclusion residual for ``0 in A x + B x + N_V x``.
    """
    gamma = prob.check_gamma(gamma)
    A, B, V = prob.A, prob.B, prob.V
    inner = V.inner
    z = as_vector(z, prob.dim)
    T = build_T(A, V, gamma)
    S = build_S(B, V, gamma)
    fixed_point = inner.norm(T(S(z)) - z)
    x = V(z)
    y = (x - z) / gamma
    s = x - gamma * V(B(x)) + gamma * y
    inclusion = inner.norm(x - A.resolve(gamma, s))
    return CharacterizationReport(fixed_point, inclusion, x, y)
