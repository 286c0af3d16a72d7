"""Operator abstractions used by the splitting solvers.

Maximally monotone operators are accessed exclusively through their
gamma-parameterized resolvents; cocoercive forward maps carry a declared
(and sample-auditable) cocoercivity constant.  The module also provides the
closed-form resolvent of the partial inverse of an operator with respect to
a subspace, and averagedness certification by sampling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spaces import InnerProduct, _matvec, as_vector

__all__ = [
    "ResolventFamily",
    "CocoerciveMap",
    "AveragedOperator",
    "SampleAudit",
    "partial_inverse_resolvent",
    "partial_inverse_residual",
    "certify_averaged",
    "audit_firm_nonexpansiveness",
    "audit_cocoercivity",
    "zero_operator",
    "normal_cone_of_subspace",
    "subdifferential_abs",
    "normal_cone_box",
    "linear_monotone",
    "affine_gradient",
    "zero_cocoercive",
    "translate_operator",
]


class ResolventFamily:
    """A maximally monotone operator represented by its resolvents.

    ``resolve(gamma, x)`` evaluates ``(Id + gamma A)^{-1} x``.  It must be
    defined for every ``gamma > 0`` and every finite ``x`` (full domain) and
    be firmly nonexpansive in ``x`` for each ``gamma``.  Evaluation must be
    reentrant: no mutable shared state across calls.

    Built-in families whose resolvent is an elementwise formula also carry it
    as ``_kernel = (kernel, params)``; see :func:`_row_kernel_family`.
    """

    __slots__ = ("_resolve", "dim", "label", "_kernel")

    def __init__(self, resolve, dim, label=""):
        self._resolve = resolve
        self.dim = int(dim)
        self.label = label
        self._kernel = None

    def resolve(self, gamma, x):
        if not gamma > 0:
            raise ValueError(f"resolvent parameter must be positive, got {gamma}")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: operator acts on R^{self.dim}, got shape {x.shape}"
            )
        return self._resolve(gamma, x)

    def reflected(self, gamma, x):
        """Reflected resolvent ``2 J_{gamma A} x - x`` (nonexpansive)."""
        x = np.asarray(x, dtype=float)
        return 2.0 * self.resolve(gamma, x) - x

    def __repr__(self):
        tag = f" '{self.label}'" if self.label else ""
        return f"ResolventFamily(dim={self.dim}{tag})"


class CocoerciveMap:
    """Single-valued map with a declared cocoercivity constant ``beta``.

    The constant is a semantic input to step-size bounds; it is declared by
    the caller and sample-audited in the test surface, never inferred.
    """

    __slots__ = ("_func", "beta", "dim", "label")

    def __init__(self, func, beta, dim, label=""):
        if not (np.isfinite(beta) and beta > 0):
            raise ValueError(f"beta must be a positive finite number, got {beta}")
        self._func = func
        self.beta = float(beta)
        self.dim = int(dim)
        self.label = label

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: map acts on R^{self.dim}, got shape {x.shape}"
            )
        return self._func(x)

    def __repr__(self):
        tag = f" '{self.label}'" if self.label else ""
        return f"CocoerciveMap(dim={self.dim}, beta={self.beta}{tag})"


class AveragedOperator:
    """Operator declared to be ``alpha``-averaged for some ``alpha`` in (0, 1)."""

    __slots__ = ("_func", "alpha", "dim", "label")

    def __init__(self, func, alpha, dim, label=""):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in ]0, 1[, got {alpha}")
        self._func = func
        self.alpha = float(alpha)
        self.dim = int(dim)
        self.label = label

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: operator acts on R^{self.dim}, got shape {x.shape}"
            )
        return self._func(x)

    def __repr__(self):
        tag = f" '{self.label}'" if self.label else ""
        return f"AveragedOperator(dim={self.dim}, alpha={self.alpha}{tag})"


def partial_inverse_resolvent(A, P, gamma, s):
    """Resolvent of the partial inverse of ``gamma A`` with respect to the
    subspace of ``P``, evaluated at ``s``.

    Closed form: with ``p = J_{gamma A} s``,

        J(s) = P p + (Id - P)(s - p).

    The returned ``z`` satisfies ``s - z in (gamma A)_V z``; see
    :func:`partial_inverse_residual` for the unfolding test.
    """
    s = np.asarray(s, dtype=float)
    p = A.resolve(gamma, s)
    return P(p) + P.complement(s - p)


def partial_inverse_residual(A, P, gamma, s, z):
    """How far ``z`` is from satisfying ``s - z in (gamma A)_V z``.

    Unfolds the graph-swap definition of the partial inverse: builds
    ``u = P z + (Id-P)(s - z)`` and ``w = P (s - z) + (Id-P) z`` and tests
    ``w in gamma A u`` through the resolvent identity ``u = J_{gamma A}(u + w)``.
    """
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    u = P(z) + P.complement(s - z)
    w = P(s - z) + P.complement(z)
    return P.inner.norm(u - A.resolve(gamma, u + w))


@dataclass(frozen=True)
class SampleAudit:
    """Outcome of a sampled inequality check: worst violation over the draws."""
    passed: bool
    worst_violation: float
    samples: int


def certify_averaged(T, samples=1000, tol=1e-9, seed=0, scale=1.0, inner=None):
    """Sample the averagedness inequality on random pairs.

    For an ``alpha``-averaged operator,

        ||Tx - Ty||^2 <= ||x - y||^2
                         - ((1 - alpha)/alpha) ||(Id-T)x - (Id-T)y||^2.

    Reports the worst violation (left side minus right side) over the
    sampled pairs; the certificate passes when it stays below ``tol``.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    inner = InnerProduct(T.dim) if inner is None else inner
    ratio = (1.0 - T.alpha) / T.alpha
    worst = 0.0
    for _ in range(samples):
        x = scale * rng.standard_normal(T.dim)
        y = scale * rng.standard_normal(T.dim)
        Tx, Ty = T(x), T(y)
        d = Tx - Ty
        r = (x - Tx) - (y - Ty)
        e = x - y
        violation = inner.dot(d, d) - (inner.dot(e, e) - ratio * inner.dot(r, r))
        worst = max(worst, violation)
    return SampleAudit(worst <= tol, worst, samples)


def audit_firm_nonexpansiveness(A, gammas=(0.5, 1.0, 2.0), samples=334,
                                tol=1e-9, seed=0, scale=1.0, inner=None):
    """Sample ``<Jx - Jy, x - y> >= ||Jx - Jy||^2`` on random pairs per gamma."""
    rng = np.random.default_rng(seed)
    inner = InnerProduct(A.dim) if inner is None else inner
    worst = 0.0
    total = 0
    for gamma in gammas:
        for _ in range(samples):
            x = scale * rng.standard_normal(A.dim)
            y = scale * rng.standard_normal(A.dim)
            d = A.resolve(gamma, x) - A.resolve(gamma, y)
            worst = max(worst, inner.dot(d, d) - inner.dot(d, x - y))
            total += 1
    return SampleAudit(worst <= tol, worst, total)


def audit_cocoercivity(B, samples=300, tol=1e-9, seed=0, scale=1.0,
                       projector=None, inner=None):
    """Sample ``<x - y, Bx - By> >= beta ||Bx - By||^2`` at the declared beta.

    With a ``projector`` the pairs are drawn from its subspace, matching maps
    whose cocoercivity is only claimed there.
    """
    rng = np.random.default_rng(seed)
    if inner is None:
        inner = projector.inner if projector is not None else InnerProduct(B.dim)
    worst = 0.0
    for _ in range(samples):
        x = scale * rng.standard_normal(B.dim)
        y = scale * rng.standard_normal(B.dim)
        if projector is not None:
            x = projector(x)
            y = projector(y)
        d = B(x) - B(y)
        worst = max(worst, B.beta * inner.dot(d, d) - inner.dot(x - y, d))
    return SampleAudit(worst <= tol, worst, samples)


# ---------------------------------------------------------------------------
# built-in operator constructors
# ---------------------------------------------------------------------------

def zero_operator(dim):
    """A = 0; the resolvent is the identity for every gamma."""
    return ResolventFamily(lambda gamma, x: x.copy(), dim, label="zero")


def normal_cone_of_subspace(P):
    """Normal cone to the subspace of ``P``; its resolvent is the projection."""
    return ResolventFamily(lambda gamma, x: P(x), P.dim,
                           label=f"normal-cone({P.label or 'subspace'})")


def _row_kernel_family(kernel, params, dim, label):
    """Family whose resolvent is ``kernel(gamma, x, *params)``.

    The kernel is elementwise, so it broadcasts over a leading block axis:
    given ``x`` of shape ``(k, dim)``, ``gamma`` of shape ``(k, 1)`` and each
    parameter stacked to ``(k, dim)``, one call resolves k blocks with the
    same float64 operations as k single-vector calls.  The pair is kept as
    ``_kernel`` so that product-space solvers can stack runs of such blocks.
    """
    family = ResolventFamily(lambda gamma, x: kernel(gamma, x, *params), dim,
                             label=label)
    family._kernel = (kernel, params)
    return family


def _soft_threshold(gamma, x):
    """Soft threshold: coordinatewise shrink toward zero by ``gamma``."""
    return np.sign(x) * np.maximum(np.abs(x) - gamma, 0.0)


def _soft_threshold_centered(gamma, x, c):
    d = x - c
    return c + np.sign(d) * np.maximum(np.abs(d) - gamma, 0.0)


def _clamp(gamma, x, lo, hi):
    """Clamp onto ``[lo, hi]``; the bits of ``np.clip`` with array bounds."""
    return np.minimum(np.maximum(x, lo), hi)


def subdifferential_abs(dim, center=None):
    """Coordinatewise subdifferential of ``|. - center|``; resolvent = soft threshold."""
    if center is None:
        return _row_kernel_family(_soft_threshold, (), dim, "abs-subdifferential")
    return _row_kernel_family(_soft_threshold_centered, (as_vector(center, dim),),
                              dim, "abs-subdifferential")


def _box_bounds(lo, hi):
    """Bounds of a nonempty box as float vectors; infinite bounds are allowed."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.ndim != 1 or hi.shape != lo.shape:
        raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ValueError("box bounds must not be NaN")
    if np.any(lo > hi):
        raise ValueError("empty box: lo > hi in some coordinate")
    return lo, hi


def normal_cone_box(lo, hi):
    """Normal cone to the box ``[lo, hi]``; resolvent = clamp, gamma-independent.

    Infinite bounds are allowed (half-lines and rays)."""
    lo, hi = _box_bounds(lo, hi)
    return _row_kernel_family(_clamp, (lo, hi), lo.shape[0], "box-normal-cone")


class _CachedAffineSolve:
    """Solves ``(Id + gamma M) z = rhs`` with an LU factorization cached per gamma.

    The cache is guarded so concurrent callers observe a consistent value;
    a factorization is immutable once stored.  Solves call LAPACK ``getrs``
    directly, which returns the bits of ``scipy.linalg.lu_solve`` without
    its per-call wrapper cost; the finiteness check on ``rhs`` is kept.
    """

    __slots__ = ("M", "_cache", "_lock", "_getrs")

    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)
        self._cache = {}
        self._lock = threading.Lock()
        self._getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (self.M,))

    def solve(self, gamma, rhs):
        key = float(gamma)
        lu = self._cache.get(key)
        if lu is None:
            with self._lock:
                lu = self._cache.get(key)
                if lu is None:
                    n = self.M.shape[0]
                    lu = scipy.linalg.lu_factor(np.eye(n) + key * self.M)
                    self._cache[key] = lu
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        z, info = self._getrs(lu[0], lu[1], rhs)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of getrs")
        return z


def linear_monotone(M, b=None, tol=1e-10):
    """Affine monotone operator ``A x = M x + b``.

    ``M`` must be monotone (positive-semidefinite symmetric part, skew part
    arbitrary).  The resolvent solves ``(Id + gamma M) z = x - gamma b`` by a
    dense factorization cached per gamma.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got shape {M.shape}")
    dim = M.shape[0]
    sym = 0.5 * (M + M.T)
    lo = float(np.linalg.eigvalsh(sym).min())
    scale = max(1.0, float(np.abs(M).max()))
    if lo < -tol * scale:
        raise ValueError(f"M is not monotone: symmetric part has eigenvalue {lo:.3e}")
    b = np.zeros(dim) if b is None else as_vector(b, dim)
    cache = _CachedAffineSolve(M)

    def res(gamma, x):
        return cache.solve(gamma, x - gamma * b)

    return ResolventFamily(res, dim, label="affine-monotone")


def _symmetric_psd(Q, tol):
    """``Q`` as a float matrix checked square, symmetric and positive
    semidefinite (relative to its largest entry), with its eigenvalues and
    whether it is exactly symmetric."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    scale = max(1.0, float(np.abs(Q).max()))
    asymmetry = float(np.abs(Q - Q.T).max())
    if asymmetry > tol * scale:
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if float(eigs.min()) < -tol * scale:
        raise ValueError(f"Q must be positive semidefinite (min eigenvalue {eigs.min():.3e})")
    return Q, eigs, asymmetry == 0.0


def affine_gradient(Q, b=None, tol=1e-10):
    """Cocoercive map ``x -> Q x - b`` for symmetric PSD ``Q``.

    The certified constant is ``beta = 1 / lambda_max(Q)``.  An exactly
    symmetric ``Q`` is applied with a one-triangle BLAS kernel (see
    :func:`monosplit.spaces._matvec`); a ``Q`` symmetric only within ``tol``
    is applied as given, ``Q @ x - b``.
    """
    Q, eigs, symmetric = _symmetric_psd(Q, tol)
    dim = Q.shape[0]
    lam_max = float(eigs.max())
    if lam_max <= 0.0:
        raise ValueError("Q must have a positive largest eigenvalue; "
                         "use zero_cocoercive for a vanishing forward map")
    b = np.zeros(dim) if b is None else as_vector(b, dim)
    return CocoerciveMap(_matvec(Q, symmetric, b), 1.0 / lam_max, dim,
                         label="affine-gradient")


def zero_cocoercive(dim, beta=1.0):
    """B = 0, vacuously cocoercive for every constant.

    ``beta`` only sets the admissible step range downstream; pick it as large
    as the step sizes you intend to use require.
    """
    return CocoerciveMap(lambda x: np.zeros_like(x), beta, dim, label="zero")


def translate_operator(A, c):
    """Operator ``x -> A(x - c)``; its resolvent is ``c + J_{gamma A}(x - c)``."""
    c = as_vector(c, A.dim)
    return ResolventFamily(lambda gamma, x: c + A.resolve(gamma, x - c), A.dim,
                           label=f"translated({A.label or 'operator'})")
