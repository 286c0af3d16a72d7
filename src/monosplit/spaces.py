"""Finite-dimensional real Hilbert space primitives.

Vectors are plain 1-d numpy arrays.  The ambient geometry is carried by
:class:`InnerProduct` (uniform or diagonally weighted), and closed subspaces
are represented by their orthogonal projectors.  Objects keep the arrays
they are given by reference (``span_projector`` keeps a rescaled copy), so an
array changed after construction changes the object built from it.  The
module keeps read-only audit samples per dimension and its objects hold no
mutable state, so each is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
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
    must be strictly positive and finite, which makes the form symmetric,
    bilinear and positive definite.
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
            if not (w < math.inf).all():
                raise ValueError("inner product weights must be finite")
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
    ``_matrix``, a view of that matrix of its own, for the fused forward step
    of :mod:`monosplit.fdr`; any other carries None.
    """

    __slots__ = ("_apply", "dim", "inner", "label", "_matrix", "_built")

    def __init__(self, apply, dim, inner=None, label=""):
        self._apply = apply
        self.dim = int(dim)
        self.inner = InnerProduct(dim) if inner is None else inner
        if self.inner.dim != self.dim:
            raise ValueError("inner product dimension does not match the projector")
        self.label = label
        self._matrix = None

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


def _mark_built(obj):
    """``obj``, marked as built by the library (see :func:`monosplit.km._bind`)."""
    obj._built = True
    return obj


def identity_projector(dim, inner=None):
    """Projector onto the whole space."""
    return _mark_built(SubspaceProjector(lambda x: x.copy(), dim, inner, label="identity"))


def zero_projector(dim, inner=None):
    """Projector onto the trivial subspace {0}."""
    return _mark_built(SubspaceProjector(np.zeros_like, dim, inner, label="zero"))


def zero_mean_projector(dim):
    """Projector onto {x : sum_k x_k = 0} under the uniform inner product."""
    return _mark_built(SubspaceProjector(lambda x: x - np.add.reduce(x) / dim, dim,
                                         label="zero-mean"))


def span_projector(v, inner=None):
    """Rank-one projector onto the line spanned by ``v``.

    ``v`` is kept as a copy scaled by the power of two that brings its
    largest entry into [0.5, 1), so ``<v, v>`` neither overflows nor
    underflows; in the normal range the scaling is exact and the results
    keep the bits of the unscaled formula."""
    v = as_vector(v)
    v = np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1])
    inner = InnerProduct(v.shape[0]) if inner is None else inner
    vv = inner.dot(v, v)
    if vv <= 0.0:
        raise ValueError("span vector must be nonzero")

    def apply(x):
        return v * (inner.dot(v, x) / vv)

    return _mark_built(SubspaceProjector(apply, v.shape[0], inner, label="span"))


def _square(M, name):
    """``M`` as a float matrix checked square and nonempty; errors name
    ``name``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"{name} must be nonempty")
    return M


def _square_matrix(M, name):
    """``M`` as a float matrix checked square, nonempty and finite, with its
    largest absolute entry; errors name ``name``."""
    M = _square(M, name)
    largest = float(np.abs(M).max())  # NaN or inf when an entry is
    if not math.isfinite(largest):
        raise ValueError(f"{name} has non-finite entries")
    return M, largest


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


def matrix_projector(M, inner=None):
    """Projector given by a dense matrix.

    The matrix is audited for idempotence, self-adjointness (w.r.t.
    ``inner``) and linearity on the 8 seeded samples of :func:`audit_projector`,
    blocked (see :func:`_audit_matrix`), and refused if it fails, as it does
    on a non-finite entry (diagnosed only then), or a violation overflows.  An
    exactly symmetric matrix is applied with a one-triangle BLAS kernel (see
    :func:`_matvec`) and carries a view of it as ``_matrix``; any other (say,
    self-adjoint only under weights) as ``M @ x``; ``M`` is kept by reference.
    """
    M = _square(M, "projector matrix")
    d = M.shape[0]
    inner = InnerProduct(d) if inner is None else inner
    audit = _audit_matrix(M, inner) if inner.dim == d else None
    if audit is None or not audit.passed:   # finiteness, inner's dimension, the audit
        _square_matrix(M, "projector matrix")
        SubspaceProjector(None, d, inner)
        raise ValueError(f"matrix is not an orthogonal projector: {audit}")
    symmetric = np.array_equal(M, M.T)
    P = SubspaceProjector(_matvec(M, symmetric), d, inner, label="matrix")
    if symmetric:
        P._matrix = M.view()
    return _mark_built(P)


@dataclass(frozen=True)
class ProjectorAudit:
    passed: bool
    worst_idempotency: float
    worst_self_adjointness: float
    worst_linearity: float


# The audit policy: the absolute tolerance of every projector audit, and the
# number of seeded samples a matrix projector is audited on.
_AUDIT_TOL = 1e-8
_MATRIX_AUDIT_SAMPLES = 8


def audit_projector(P, samples=32, tol=_AUDIT_TOL):
    """Sample the projector invariants on unit-scale points drawn with seed 0.

    Checks ``P(Px) = Px``, ``<Px, y> = <x, Py>`` and linearity on
    ``samples >= 1`` points, each within ``tol`` (absolute, default 1e-8),
    and reports the worst violations; a NaN or overflowing violation fails
    the audit.  Each sample makes four calls of ``P`` in O(dim) memory; a
    matrix projector is audited on the same samples, blocked.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(0)
    idem, sym, lin = [], [], []
    for _ in range(samples):
        x = rng.standard_normal(P.dim)
        y = rng.standard_normal(P.dim)
        a = rng.standard_normal()
        Px, Py = P(x), P(y)
        PPx, Pz = P(Px), P(a * x + y)
        with np.errstate(over="ignore", invalid="ignore"):
            idem.append(P.inner.norm(PPx - Px))
            sym.append(abs(P.inner.dot(Px, y) - P.inner.dot(x, Py)))
            lin.append(P.inner.norm(Pz - a * Px - Py))
    worst = [_worst(v) for v in (idem, sym, lin)]
    return ProjectorAudit(all(w <= tol for w in worst), *worst)


@functools.lru_cache(maxsize=8)
def _audit_samples(d):
    """``(X, Y, a, S)``, read-only: row i of ``default_rng(0)``'s 8 x (2d + 1)
    draw holds sample i's ``x``, ``y``, ``a`` as :func:`audit_projector` draws
    them; ``S = [X; Y; a X + Y]``.  Kept for 8 dimensions, 320 d bytes each."""
    Z = np.random.default_rng(0).standard_normal((_MATRIX_AUDIT_SAMPLES, 2 * d + 1))
    Z.flags.writeable = False   # before slicing: the views are read-only too
    X, Y, a = Z[:, :d], Z[:, d:-1], Z[:, -1:]
    S = np.concatenate((X, Y, a * X + Y))
    S.flags.writeable = False
    return X, Y, a, S


def _audit_matrix(M, inner):
    """:func:`audit_projector` of ``x -> M @ x`` under ``inner``, blocked on
    the samples of :func:`_audit_samples`: one product projects every ``x``,
    ``y`` and ``a x + y`` and a second every ``M x``; the violations agree
    to rounding; a non-finite entry of ``M`` makes them NaN or infinite.
    Audits ``_MATRIX_AUDIT_SAMPLES`` samples within ``_AUDIT_TOL``."""
    d, samples = M.shape[0], _MATRIX_AUDIT_SAMPLES
    X, Y, a, S = _audit_samples(d)
    w = np.ones(d) if inner.is_uniform else inner.weights
    with np.errstate(over="ignore", invalid="ignore"):
        B = S @ M.T
        PX, PY, PZ = B[:samples], B[samples:-samples], B[-samples:]
        D, L = PX @ M.T - PX, PZ - a * PX - PY
        idem = np.sqrt((D * D) @ w)
        sym = np.abs((PX * Y - X * PY) @ w)
        lin = np.sqrt((L * L) @ w)
    worst = [float(v.max()) for v in (idem, sym, lin)]  # NaN if any is
    return ProjectorAudit(all(v <= _AUDIT_TOL for v in worst), *worst)


def _worst(values):
    """The largest of ``values`` (0.0 when empty), or NaN when any is NaN."""
    return math.nan if any(v != v for v in values) else max(values, default=0.0)
