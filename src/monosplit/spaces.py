"""Finite-dimensional real Hilbert space primitives.

Vectors are plain 1-d numpy arrays.  The ambient geometry is carried by
:class:`InnerProduct` (uniform or diagonally weighted), and closed subspaces
are represented by their orthogonal projectors.  Objects keep the arrays
they are given by reference, so an array changed after construction changes
the object built from it.  Each object is safe to share across threads: the
only state that changes after construction is the lock-guarded slot where a
matrix projector keeps its product ``P Q P`` (see :class:`_SandwichCache`).
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv

__all__ = [
    "InnerProduct",
    "SubspaceProjector",
    "ProjectorAudit",
    "as_vector",
    "identity_projector",
    "zero_projector",
    "zero_mean_projector",
    "span_projector",
    "matrix_projector",
    "audit_projector",
]


def as_vector(x, dim=None):
    """Coerce ``x`` to a finite 1-d float array, optionally checking its length.

    Scalars are promoted to vectors of length 1.  Non-finite coordinates are
    rejected: points handed to the solvers must be honest elements of R^n.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected length {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite coordinates")
    return v


class InnerProduct:
    """Diagonal inner product ``<x, y> = sum_k w_k x_k y_k``.

    With no weight vector the product is the uniform Euclidean one.  Weights
    must be strictly positive, which makes the form symmetric, bilinear and
    positive definite.
    """

    __slots__ = ("dim", "weights")

    def __init__(self, dim, weights=None):
        dim = int(dim)
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        if weights is None:
            self.weights = None
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (dim,):
                raise ValueError(f"weights must have shape ({dim},), got {w.shape}")
            if not (w > 0).all():
                raise ValueError("inner product weights must be strictly positive")
            self.weights = w

    @property
    def is_uniform(self):
        return self.weights is None

    # Products call ``ndarray.dot``, the BLAS ``ddot`` that ``np.dot`` reaches
    # through a Python-level dispatcher; a list ``x`` takes ``np.dot``.

    def dot(self, x, y):
        if self.weights is None:
            try:
                return float(x.dot(y))
            except AttributeError:
                return float(np.dot(x, y))
        return float((self.weights * x).dot(y))

    def norm(self, x):
        if self.weights is None:
            try:
                return math.sqrt(x.dot(x))
            except AttributeError:
                return math.sqrt(np.dot(x, x))
        return math.sqrt(max(float((self.weights * x).dot(x)), 0.0))

    def __repr__(self):
        kind = "uniform" if self.is_uniform else "weighted"
        return f"InnerProduct(dim={self.dim}, {kind})"


class SubspaceProjector:
    """Orthogonal projector onto a closed subspace of R^dim.

    ``apply`` must be linear, idempotent and self-adjoint with respect to
    ``inner``; :func:`audit_projector` samples those properties.  Projectors
    are supplied (as structured callables or dense matrices), never derived
    from spanning sets.

    A projector given by an exactly symmetric matrix also carries
    ``_sandwich``, the :class:`_SandwichCache` of that matrix; any other
    carries None.
    """

    __slots__ = ("_apply", "dim", "inner", "label", "_sandwich")

    def __init__(self, apply, dim, inner=None, label=""):
        self._apply = apply
        self.dim = int(dim)
        self.inner = InnerProduct(dim) if inner is None else inner
        if self.inner.dim != self.dim:
            raise ValueError("inner product dimension does not match the projector")
        self.label = label
        self._sandwich = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: projector acts on R^{self.dim}, got shape {x.shape}"
            )
        return self._apply(x)

    def complement(self, x):
        """Projection onto the orthogonal complement: ``x - P x``."""
        x = np.asarray(x, dtype=float)
        return x - self(x)

    def reflect(self, x):
        """Reflection through the subspace: ``2 P x - x``."""
        x = np.asarray(x, dtype=float)
        return 2.0 * self(x) - x

    def __repr__(self):
        tag = f" '{self.label}'" if self.label else ""
        return f"SubspaceProjector(dim={self.dim}{tag})"


def identity_projector(dim, inner=None):
    """Projector onto the whole space."""
    return SubspaceProjector(lambda x: x.copy(), dim, inner, label="identity")


def zero_projector(dim, inner=None):
    """Projector onto the trivial subspace {0}."""
    return SubspaceProjector(lambda x: np.zeros_like(x), dim, inner, label="zero")


def zero_mean_projector(dim):
    """Projector onto {x : sum_k x_k = 0} under the uniform inner product."""
    return SubspaceProjector(lambda x: x - x.sum() / dim, dim, label="zero-mean")


def span_projector(v, inner=None):
    """Rank-one projector onto the line spanned by ``v``."""
    v = as_vector(v)
    inner = InnerProduct(v.shape[0]) if inner is None else inner
    vv = inner.dot(v, v)
    if vv <= 0.0:
        raise ValueError("span vector must be nonzero")

    def apply(x):
        return v * (inner.dot(v, x) / vv)

    return SubspaceProjector(apply, v.shape[0], inner, label="span")


def _square_matrix(M, name):
    """``M`` as a float matrix checked square and finite, with its largest
    absolute entry (0.0 when empty); errors name ``name``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    largest = float(np.abs(M).max(initial=0.0))  # NaN or inf when an entry is
    if not math.isfinite(largest):
        raise ValueError(f"{name} has non-finite entries")
    return M, largest


def _digest(M):
    """SHA-256 digest of the entries of the float array ``M`` in C order.

    Arrays of equal entries share a digest whatever their memory layout.
    The digest does not hold the shape; a square matrix's byte length fixes
    it."""
    return hashlib.sha256(np.ascontiguousarray(M)).digest()


def _matvec(M, symmetric, b=None):
    """``x -> M @ x``, or ``x -> M @ x - b``, for a square float matrix ``M``.

    An exactly ``symmetric`` ``M`` is applied by BLAS ``dsymv``, which reads
    one triangle and so moves half the bytes of ``M @ x``; its results can
    differ from ``M @ x`` in the last bits.  ``dsymv`` copies a matrix that is
    not Fortran-contiguous on every call, so one such view is kept: ``M``
    itself, ``M.T`` (the same matrix) for a C-contiguous ``M``, or a copy made
    here.  ``b`` is copied into each result and never written.  Any other
    ``M`` is applied as ``M @ x``.  Callers check the length of ``x``:
    ``dsymv`` reads the first n entries of a longer vector.
    """
    if not symmetric:
        if b is None:
            return lambda x: M @ x
        return lambda x: M @ x - b
    F = M if M.flags.f_contiguous else np.asfortranarray(M.T)
    if b is None:
        return lambda x: dsymv(1.0, F, x)
    return lambda x: dsymv(1.0, F, x, -1.0, b)


class _SandwichCache:
    """The product ``K = P Q P`` of an exactly symmetric projector matrix
    ``P`` with the exactly symmetric matrix ``Q`` it was last asked for.

    One slot holds ``K`` and the SHA-256 digest of the entries of the ``Q``
    it was built from, both taken in the same step, so the key always names
    the content ``K`` was built from: maps built from equal matrices share
    ``K``, and another ``Q`` replaces it.  ``K`` is made exactly symmetric
    and Fortran-ordered, so that :func:`_matvec` applies it with ``dsymv``
    and no copy.  Memory is one d x d matrix per projector.  The slot is
    guarded so concurrent callers observe a consistent pair.
    """

    __slots__ = ("P", "_key", "_K", "_lock")

    def __init__(self, P):
        self.P = P
        self._key = self._K = None
        self._lock = threading.Lock()

    def product(self, Q, key):
        """``(K, key)`` with ``key`` the digest under which ``K`` is stored.

        A ``key`` equal to the stored one, as returned by an earlier call for
        the same map, reuses ``K`` without reading ``Q``; any other ``key``,
        or None, digests ``Q`` and builds ``K`` unless the digest matches.
        """
        with self._lock:
            if key is None or key != self._key:
                key = _digest(Q)
                if key != self._key:
                    # in place, so that the build holds at most two d x d
                    # arrays beside P and Q; K.T of the symmetric C-ordered
                    # K is the same matrix, Fortran-ordered
                    K = self.P @ (Q @ self.P)
                    K += K.T
                    K *= 0.5
                    self._key, self._K = key, K.T
            return self._K, key


def matrix_projector(M, inner=None):
    """Projector given by a dense matrix.

    The matrix is audited for idempotence, self-adjointness (w.r.t.
    ``inner``) and linearity on random samples and rejected if it fails.  An
    exactly symmetric matrix is applied with a one-triangle BLAS kernel (see
    :func:`_matvec`) and carries a :class:`_SandwichCache`; any other, such
    as a projector self-adjoint only under a weighted ``inner``, is applied
    as ``M @ x``.  ``M`` is kept by reference.
    """
    M, _ = _square_matrix(M, "projector matrix")
    symmetric = np.array_equal(M, M.T)
    P = SubspaceProjector(_matvec(M, symmetric), M.shape[0], inner, label="matrix")
    audit = audit_projector(P, samples=8)
    if not audit.passed:
        raise ValueError(f"matrix is not an orthogonal projector: {audit}")
    if symmetric:
        P._sandwich = _SandwichCache(M)
    return P


@dataclass(frozen=True)
class ProjectorAudit:
    passed: bool
    worst_idempotency: float
    worst_self_adjointness: float
    worst_linearity: float


def audit_projector(P, samples=32, tol=1e-8):
    """Sample the projector invariants on unit-scale points drawn with seed 0.

    Checks ``P(Px) = Px``, ``<Px, y> = <x, Py>`` and linearity, each within
    ``tol`` (absolute, default 1e-8), and reports the worst violations; a
    NaN violation is the worst and fails the audit.
    """
    rng = np.random.default_rng(0)
    idem, sym, lin = [], [], []
    for _ in range(samples):
        x = rng.standard_normal(P.dim)
        y = rng.standard_normal(P.dim)
        a = rng.standard_normal()
        Px = P(x)
        idem.append(P.inner.norm(P(Px) - Px))
        sym.append(abs(P.inner.dot(Px, y) - P.inner.dot(x, P(y))))
        lin.append(P.inner.norm(P(a * x + y) - a * Px - P(y)))
    worst = [_worst(v) for v in (idem, sym, lin)]
    return ProjectorAudit(all(w <= tol for w in worst), *worst)


def _worst(values):
    """The largest of ``values`` (0.0 when empty), or NaN when any is NaN."""
    return math.nan if any(v != v for v in values) else max(values, default=0.0)
