"""Operator abstractions used by the splitting solvers.

Maximally monotone operators are accessed exclusively through their
gamma-parameterized resolvents; cocoercive forward maps carry a declared
cocoercivity constant and averaged operators a declared averagedness
constant, both inputs to the step-size bounds, never inferred.  The
built-in families (zero, subspace normal cone, soft threshold, box normal
cone, affine monotone, affine gradient) have closed-form resolvents or maps.

The module keeps one piece of shared state, a slot holding the
:class:`_Certified` record of the last symmetric positive semidefinite ``Q``
that :func:`_symmetric_psd` certified: maps built from equal matrices share
that record, and with it one eigendecomposition and the fused forward
step's product ``K = P Q P``, which the record drops once the projector
matrix ``P`` is collected.  One module lock guards the slot and every build
of ``K``.  Digesting a matrix of 1 MiB or more starts one short-lived thread
(see :func:`_digest`); no thread outlives the call that started it.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .spaces import _mark_built, _matvec, _square, _square_matrix, as_vector

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


# a buffer of this many bytes or more is digested in two halves at once
_SPLIT_BYTES = 1 << 20


def _digest(M):
    """Digest of the entries of the float array ``M`` in C order.

    Arrays of equal entries share a digest whatever their memory layout.
    The digest does not hold the shape; a square matrix's byte length fixes
    it.  Below ``_SPLIT_BYTES`` it is the SHA-256 of the entries.  From there
    on it is the SHA-256 of each half of them, the second half hashed by a
    short-lived thread while this one hashes the first: ``hashlib`` releases
    the interpreter lock on large buffers, so on 2 cores the two halves of a
    d=1000 matrix take about 3.5 ms together where one pass takes about
    6.3 ms.  Below the split the thread's start would cost more than it
    saves.
    """
    flat = np.ascontiguousarray(M).reshape(-1)
    if flat.nbytes < _SPLIT_BYTES:
        return hashlib.sha256(flat).digest()
    half = flat.size // 2
    second = []
    worker = threading.Thread(
        target=lambda: second.append(hashlib.sha256(flat[half:]).digest()))
    worker.start()
    first = hashlib.sha256(flat[:half]).digest()
    worker.join()
    return first + second[0]


# guards _last and every build of a _Certified record's K
_LOCK = threading.Lock()
_last = None


def _releaser(record):
    """Callback for a weak reference to the projector matrix in ``record``'s
    slot: it empties the slot, and so drops ``K``, once that matrix is
    collected.  It takes no lock, as it can run in a thread that holds
    ``_LOCK``; when it empties a slot that another thread has just refilled,
    the cost is one rebuild of ``K``, never a wrong one."""
    record = weakref.ref(record)

    def release(ref):
        live = record()
        if live is not None and live._slot[0] is ref:
            live._slot = (None, None)

    return release


class _Certified:
    """What :func:`_symmetric_psd` derives from one content of ``Q``: ``key``,
    the digest of its entries, the read-only ``eigs``, whether ``Q`` is
    exactly ``symmetric``, and one slot holding ``K = P Q P`` for the last
    projector matrix ``P`` that ``Q`` was fused with (see :meth:`sandwich`).
    The slot refers to ``P`` weakly and is emptied when ``P`` is collected.
    """

    __slots__ = ("key", "eigs", "symmetric", "_slot", "__weakref__")

    def __init__(self, key, eigs, symmetric):
        eigs.flags.writeable = False
        self.key, self.eigs, self.symmetric = key, eigs, symmetric
        self._slot = (None, None)

    def sandwich(self, P, Q):
        """``K = P Q P`` for the projector matrix ``P``, compared by identity,
        and a ``Q`` that this record certified, exactly symmetric and
        Fortran-ordered so that :func:`monosplit.spaces._matvec` applies it
        with ``dsymv`` and no copy.  ``K`` is built only once the digest of
        ``Q`` is found to still equal ``key``: the map's ``beta`` was certified
        for that content."""
        with _LOCK:
            ref, K = self._slot
            if ref is None or ref() is not P:
                self._slot = (None, None)   # the last K goes before the next is built
                if _digest(Q) != self.key:
                    raise ValueError("Q changed after its map was built; rebuild the map")
                # in place, so that the build holds at most two d x d arrays
                # beside P and Q; K.T of the symmetric C-ordered K is the
                # same matrix, Fortran-ordered
                K = P @ (Q @ P)
                K += K.T
                K *= 0.5
                K = K.T
                self._slot = (weakref.ref(P, _releaser(self)), K)
            return K


def _asymmetry(Q):
    """``max |Q - Q.T|``, with one d x d temporary."""
    gap = Q - Q.T
    return float(np.abs(gap, out=gap).max())


def _symmetric_psd(Q):
    """``Q`` as a float matrix checked square, finite, symmetric and positive
    semidefinite (relative to its largest entry), with its :class:`_Certified`
    record.

    A square, nonempty ``Q`` is digested first.  One whose entries match
    those of the last ``Q`` to pass takes that record with no further
    check: equal entries are finite.  Any other is checked in full and its
    record is kept only once it has passed.
    """
    global _last
    Q = _square(Q, "Q")
    key = _digest(Q)
    with _LOCK:
        last = _last
    if last is not None and last.key == key:
        return Q, last
    Q, largest = _square_matrix(Q, "Q")
    scale = max(1.0, largest)
    asymmetry = _asymmetry(Q)
    if asymmetry > PSD_TOL * scale:
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if float(eigs.min()) < -PSD_TOL * scale:
        raise ValueError(f"Q must be positive semidefinite (min eigenvalue {eigs.min():.3e})")
    certified = _Certified(key, eigs, asymmetry == 0.0)
    with _LOCK:
        _last = certified
    return Q, certified


class _AffineData(NamedTuple):
    """``Q`` and ``b`` of a map ``x -> Q x - b`` with an exactly symmetric
    ``Q``, both kept by reference, and the :class:`_Certified` record of the
    content ``Q`` had when the map was built, for the solvers' fused forward
    step (see :func:`monosplit.fdr._fused_forward`)."""

    Q: np.ndarray
    b: np.ndarray
    certified: _Certified


def affine_gradient(Q, b=None):
    """Cocoercive map ``x -> Q x - b`` for symmetric PSD ``Q``.

    The certified constant is ``beta = 1 / lambda_max(Q)``.  An exactly
    symmetric ``Q`` is applied with a one-triangle BLAS kernel (see
    :func:`monosplit.spaces._matvec`) and exposed as ``_affine``; a ``Q``
    symmetric only within ``PSD_TOL`` is applied as given, ``Q @ x - b``.
    ``Q`` and ``b`` are kept by reference.
    """
    Q, certified = _symmetric_psd(Q)
    dim = Q.shape[0]
    lam_max = float(certified.eigs.max())
    if lam_max <= 0.0:
        raise ValueError("Q must have a positive largest eigenvalue; "
                         "use zero_cocoercive for a vanishing forward map")
    b = np.zeros(dim) if b is None else as_vector(b, dim)
    B = CocoerciveMap(_matvec(Q, certified.symmetric, b), 1.0 / lam_max, dim,
                      label="affine-gradient")
    B._affine = _AffineData(Q, b, certified) if certified.symmetric else None
    return _mark_built(B)


def zero_cocoercive(dim, beta=1.0):
    """B = 0, vacuously cocoercive for every constant.

    ``beta`` only sets the admissible step range downstream; pick it as large
    as the step sizes you intend to use require.
    """
    return _mark_built(CocoerciveMap(lambda x: np.zeros_like(x), beta, dim, label="zero"))

