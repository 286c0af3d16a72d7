"""Operator abstractions used by the splitting solvers.

Maximally monotone operators are accessed exclusively through their
gamma-parameterized resolvents; cocoercive forward maps carry a declared
cocoercivity constant and averaged operators a declared averagedness
constant, both inputs to the step-size bounds, never inferred.  The
built-in families (zero, subspace normal cone, soft threshold, box normal
cone, affine monotone, affine gradient) have closed-form resolvents or maps.

The module keeps one piece of shared state: the lock-guarded slot in which
:func:`_symmetric_psd` keeps the eigenvalues of the last symmetric positive
semidefinite ``Q`` it certified, under the digest of its entries (see
:class:`_CertifiedSlot`), so that maps built from equal matrices take one
eigendecomposition between them.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg

from .spaces import _digest, _mark_built, _matvec, _square_matrix, as_vector

__all__ = [
    "ResolventFamily",
    "CocoerciveMap",
    "AveragedOperator",
    "zero_operator",
    "normal_cone_of_subspace",
    "subdifferential_abs",
    "normal_cone_box",
    "linear_monotone",
    "affine_gradient",
    "zero_cocoercive",
]

# relative tolerance of the symmetry and semidefiniteness checks on a matrix
PSD_TOL = 1e-10


def _check_finite_gamma(gamma, name="gamma"):
    """``gamma`` as a float, checked to lie in ``]0, +inf[``, the range of
    ``resolve``, ``build_T``, ``fpi_solve`` and ``parallel_dr2``."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {gamma}")
    return float(gamma)


class ResolventFamily:
    """A maximally monotone operator represented by its resolvents.

    ``resolve(gamma, x)`` evaluates ``(Id + gamma A)^{-1} x``.  It must be
    defined for every finite ``gamma > 0`` and every finite ``x`` (full
    domain) and be firmly nonexpansive in ``x`` for each ``gamma``.
    Evaluation must be reentrant: no mutable shared state across calls.

    Built-in families whose resolvent is an elementwise formula also carry it
    as ``_kernel = (kernel, params)``; see :func:`_row_kernel_family`.
    """

    __slots__ = ("_resolve", "dim", "label", "_kernel", "_built")

    def __init__(self, resolve, dim, label=""):
        self._resolve = resolve
        self.dim = int(dim)
        self.label = label
        self._kernel = None

    def resolve(self, gamma, x):
        _check_finite_gamma(gamma, "resolvent parameter")
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
        return f"{type(self).__name__}(dim={self.dim}{tag})"


class CocoerciveMap:
    """Single-valued map with a declared cocoercivity constant ``beta``.

    The constant is a semantic input to step-size bounds; it is declared by
    the caller, never inferred.

    A built-in map ``x -> Q x - b`` with an exactly symmetric ``Q`` also
    carries ``_affine``, an :class:`_AffineData`; any other map carries None.
    """

    __slots__ = ("_func", "beta", "dim", "label", "_affine", "_built")

    def __init__(self, func, beta, dim, label=""):
        if not (np.isfinite(beta) and beta > 0):
            raise ValueError(f"beta must be a positive finite number, got {beta}")
        self._func = func
        self.beta = float(beta)
        self.dim = int(dim)
        self.label = label
        self._affine = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: map acts on R^{self.dim}, got shape {x.shape}"
            )
        return self._func(x)

    def __repr__(self):
        tag = f" '{self.label}'" if self.label else ""
        return f"{type(self).__name__}(dim={self.dim}, beta={self.beta}{tag})"


class AveragedOperator:
    """Operator declared to be ``alpha``-averaged for some ``alpha`` in (0, 1)."""

    __slots__ = ("_func", "alpha", "dim", "label", "_built")

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


# ---------------------------------------------------------------------------
# built-in operator constructors
# ---------------------------------------------------------------------------

def zero_operator(dim):
    """A = 0; the resolvent is the identity for every gamma."""
    return _mark_built(ResolventFamily(lambda gamma, x: x.copy(), dim, label="zero"))


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
    return _mark_built(family)


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
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("box bounds must not be NaN")
    if (lo > hi).any():
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


def linear_monotone(M, b=None):
    """Affine monotone operator ``A x = M x + b``.

    ``M`` must be monotone (positive-semidefinite symmetric part, skew part
    arbitrary).  The resolvent solves ``(Id + gamma M) z = x - gamma b`` by a
    dense factorization cached per gamma.
    """
    M, largest = _square_matrix(M, "M")
    dim = M.shape[0]
    sym = 0.5 * (M + M.T)
    lo = float(np.linalg.eigvalsh(sym).min())
    scale = max(1.0, largest)
    if lo < -PSD_TOL * scale:
        raise ValueError(f"M is not monotone: symmetric part has eigenvalue {lo:.3e}")
    b = np.zeros(dim) if b is None else as_vector(b, dim)
    cache = _CachedAffineSolve(M)

    def res(gamma, x):
        return cache.solve(gamma, x - gamma * b)

    return _mark_built(ResolventFamily(res, dim, label="affine-monotone"))


class _CertifiedSlot:
    """The eigenvalues and exact-symmetry flag of the last matrix that
    :func:`_symmetric_psd` certified, under the digest of its entries.

    One slot holds the digest (see :func:`monosplit.spaces._digest`), the
    eigenvalues, stored read-only, and the flag, taken from the same content
    and replaced together, so maps built from equal matrices share one
    eigendecomposition and another matrix replaces it.  Memory is one
    eigenvalue vector.  The slot is guarded so concurrent callers observe a
    consistent triple; the check itself runs outside the lock.
    """

    __slots__ = ("_key", "_value", "_lock")

    def __init__(self):
        self._key = self._value = None
        self._lock = threading.Lock()

    def lookup(self, key):
        """``(eigs, symmetric)`` stored under ``key``, or None."""
        with self._lock:
            return self._value if key == self._key else None

    def store(self, key, eigs, symmetric):
        eigs.flags.writeable = False
        with self._lock:
            self._key, self._value = key, (eigs, symmetric)


_CERTIFIED = _CertifiedSlot()


def _symmetric_psd(Q):
    """``Q`` as a float matrix checked square, finite, symmetric and positive
    semidefinite (relative to its largest entry), with its eigenvalues, which
    are read-only, and whether it is exactly symmetric.

    A ``Q`` whose entries match the last one to pass (see
    :class:`_CertifiedSlot`) is checked square and finite and takes the
    stored result; any other is checked in full and stored only once it has
    passed.
    """
    Q, largest = _square_matrix(Q, "Q")
    key = _digest(Q)
    certified = _CERTIFIED.lookup(key)
    if certified is not None:
        return (Q,) + certified
    scale = max(1.0, largest)
    asymmetry = float(np.abs(Q - Q.T).max())
    if asymmetry > PSD_TOL * scale:
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if float(eigs.min()) < -PSD_TOL * scale:
        raise ValueError(f"Q must be positive semidefinite (min eigenvalue {eigs.min():.3e})")
    symmetric = asymmetry == 0.0
    _CERTIFIED.store(key, eigs, symmetric)
    return Q, eigs, symmetric


class _AffineData:
    """``Q`` and ``b`` of a map ``x -> Q x - b`` with an exactly symmetric
    ``Q``, both kept by reference, for the solvers' fused forward step (see
    :func:`monosplit.fdr._fused_forward`).  ``key`` is the content digest of
    ``Q`` that step last used (see :class:`monosplit.spaces._SandwichCache`);
    None until its first use: the digest :func:`_symmetric_psd` takes at
    build time is not reused, as ``Q`` may change before that use."""

    __slots__ = ("Q", "b", "key")

    def __init__(self, Q, b):
        self.Q = Q
        self.b = b
        self.key = None


def affine_gradient(Q, b=None):
    """Cocoercive map ``x -> Q x - b`` for symmetric PSD ``Q``.

    The certified constant is ``beta = 1 / lambda_max(Q)``.  An exactly
    symmetric ``Q`` is applied with a one-triangle BLAS kernel (see
    :func:`monosplit.spaces._matvec`) and exposed as ``_affine``; a ``Q``
    symmetric only within ``PSD_TOL`` is applied as given, ``Q @ x - b``.
    ``Q`` and ``b`` are kept by reference.
    """
    Q, eigs, symmetric = _symmetric_psd(Q)
    dim = Q.shape[0]
    lam_max = float(eigs.max())
    if lam_max <= 0.0:
        raise ValueError("Q must have a positive largest eigenvalue; "
                         "use zero_cocoercive for a vanishing forward map")
    b = np.zeros(dim) if b is None else as_vector(b, dim)
    B = CocoerciveMap(_matvec(Q, symmetric, b), 1.0 / lam_max, dim,
                      label="affine-gradient")
    B._affine = _AffineData(Q, b) if symmetric else None
    return _mark_built(B)


def zero_cocoercive(dim, beta=1.0):
    """B = 0, vacuously cocoercive for every constant.

    ``beta`` only sets the admissible step range downstream; pick it as large
    as the step sizes you intend to use require.
    """
    return _mark_built(CocoerciveMap(lambda x: np.zeros_like(x), beta, dim, label="zero"))

