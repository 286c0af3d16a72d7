"""Verifiers of the paper's structural results, the oracles of the tests:
the partial-inverse resolvent and its graph-swap test, the closed-form
Step-1 oracle of the forward-partial-inverse routine, sampled inequality
audits on random pairs, the fixed-point characterization of FDR, the
forward term along a traced run, the KM
per-operator decay sums and the weighted product space of the lifted
reference.  No solver path needs any of them."""

from dataclasses import dataclass

import numpy as np

from monosplit import (InnerProduct, ResolventFamily, SubspaceProjector,
                       as_vector, build_S, build_T)
from monosplit.productspace import _check_weights


def partial_inverse_resolvent(A, P, gamma, s):
    """Resolvent of the partial inverse of ``gamma A`` with respect to the
    subspace of ``P`` at ``s``: ``P p + (Id - P)(s - p)`` with
    ``p = J_{gamma A} s``, a ``z`` with ``s - z in (gamma A)_V z``."""
    s = np.asarray(s, dtype=float)
    p = A.resolve(gamma, s)
    return P(p) + P.complement(s - p)


def partial_inverse_residual(A, P, gamma, s, z):
    """How far ``z`` is from satisfying ``s - z in (gamma A)_V z``: with
    ``u = P z + (Id-P)(s - z)`` and ``w = P (s - z) + (Id-P) z`` (the graph
    swap), the residual of ``u = J_{gamma A}(u + w)``."""
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    u = P(z) + P.complement(s - z)
    w = P(s - z) + P.complement(z)
    return P.inner.norm(u - A.resolve(gamma, u + w))


def closed_form_oracle(prob):
    """The Step-1 oracle of ``fpi_solve`` for ``delta = 1``: with
    ``s = x - gamma P_V B x + gamma y``, take ``p = J_{gamma A} s`` and
    ``q = (s - p)/gamma``."""
    A = prob.A

    def oracle(x, y, delta, gamma, PBx):
        if abs(delta - 1.0) > 1e-12:
            raise ValueError("the Step 1 closed form only covers delta = 1")
        s = x - gamma * PBx + gamma * y
        p = A.resolve(gamma, s)
        return p, (s - p) / gamma

    return oracle


@dataclass(frozen=True)
class SampleAudit:
    """Outcome of a sampled inequality check: worst violation over the draws."""
    passed: bool
    worst_violation: float
    samples: int


def _sample_pairs(violations, dim, samples):
    """Worst of ``violation(x, y)`` over ``samples`` random pairs for each
    violation in turn, every pair drawn from one seeded generator; the audit
    passes when the worst violation stays below 1e-9."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for violation in violations:
        for _ in range(samples):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            worst = max(worst, violation(x, y))
    return SampleAudit(worst <= 1e-9, worst, samples * len(violations))


def certify_averaged(T, samples=1000):
    """Sample, at the declared ``alpha``, the averagedness inequality
    ``||Tx - Ty||^2 <= ||x - y||^2 - ((1 - alpha)/alpha) ||(Id-T)x - (Id-T)y||^2``."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    inner = InnerProduct(T.dim)
    ratio = (1.0 - T.alpha) / T.alpha

    def violation(x, y):
        Tx, Ty = T(x), T(y)
        d, r, e = Tx - Ty, (x - Tx) - (y - Ty), x - y
        return inner.dot(d, d) - (inner.dot(e, e) - ratio * inner.dot(r, r))

    return _sample_pairs([violation], T.dim, samples)


def audit_firm_nonexpansiveness(A, samples=334):
    """Sample ``<Jx - Jy, x - y> >= ||Jx - Jy||^2`` on random pairs for
    gamma = 0.5, 1 and 2."""
    inner = InnerProduct(A.dim)

    def at(gamma):
        def violation(x, y):
            d = A.resolve(gamma, x) - A.resolve(gamma, y)
            return inner.dot(d, d) - inner.dot(d, x - y)
        return violation

    return _sample_pairs([at(g) for g in (0.5, 1.0, 2.0)], A.dim, samples)


def audit_cocoercivity(B, samples=300, projector=None, inner=None):
    """Sample ``<x - y, Bx - By> >= beta ||Bx - By||^2`` at the declared beta,
    on pairs projected onto the subspace of ``projector`` when given."""
    if inner is None:
        inner = projector.inner if projector is not None else InnerProduct(B.dim)

    def violation(x, y):
        if projector is not None:
            x, y = projector(x), projector(y)
        d = B(x) - B(y)
        return B.beta * inner.dot(d, d) - inner.dot(x - y, d)

    return _sample_pairs([violation], B.dim, samples)


def translate_operator(A, c):
    """Operator ``x -> A(x - c)``; its resolvent is ``c + J_{gamma A}(x - c)``."""
    c = as_vector(c, A.dim)
    return ResolventFamily(lambda gamma, x: c + A.resolve(gamma, x - c), A.dim,
                           label=f"translated({A.label or 'operator'})")


@dataclass(frozen=True)
class CharacterizationReport:
    fixed_point_residual: float
    inclusion_residual: float
    x: np.ndarray
    y: np.ndarray


def characterization_check(prob, gamma, z):
    """``||T_gamma(S_gamma z) - z||``, the pair ``(x, y) = (P_V z, (x - z) / gamma)``
    and its resolvent residual for ``0 in A x + B x + N_V x``."""
    gamma = prob.check_gamma(gamma)
    A, B, V = prob.A, prob.B, prob.V
    z = as_vector(z, prob.dim)
    fixed_point = V.inner.norm(build_T(A, V, gamma)(build_S(B, V, gamma)(z)) - z)
    x = V(z)
    y = (x - z) / gamma
    s = x - gamma * V(B(x)) + gamma * y
    inclusion = V.inner.norm(x - A.resolve(gamma, s))
    return CharacterizationReport(fixed_point, inclusion, x, y)


def forward_gaps(prob, res):
    """``||P_V B x_n - P_V B x_final||`` under ``V.inner`` along a traced
    primal-dual run, ``x_final`` the returned ``x``: the forward term the
    paper proves convergent."""
    V, B = prob.V, prob.B
    final = V(B(res.x))
    return [V.inner.norm(V(B(x)) - final) for x, _ in res.trace]


def per_operator_decay_diagnostic(ops, result):
    """The sums ``sum_n ||(Id - T_i) C_i z_n - (Id - T_i) C_i zbar||^2``,
    ``C_i = T_{i+1} ... T_m``, over a traced run at unit relaxation, with
    the final iterate for the limit ``zbar``."""
    if result.trace is None:
        raise ValueError("diagnostic requires a run with trace=True")
    ops = list(ops)
    m = len(ops)
    zbar = result.trace[-1]

    def chain_tail(i, z):
        u = z
        for j in range(m - 1, i, -1):
            u = ops[j](u)
        return u

    ref_tail = [chain_tail(i, zbar) for i in range(m)]
    ref_gap = [ref_tail[i] - ops[i](ref_tail[i]) for i in range(m)]
    totals = [0.0] * m
    for z in result.trace:
        for i in range(m):
            t = chain_tail(i, z)
            gap = (t - ops[i](t)) - ref_gap[i]
            totals[i] += float(np.dot(gap, gap))
    return totals


class ProductSpace:
    """m-fold product of R^base_dim with block weights summing to one, its
    vectors flat; the inner product weights every block, so ``lift`` is an
    isometry onto the diagonal.  ``of(prob)`` is a ``ProductProblem``'s space."""

    def __init__(self, m, base_dim, weights=None):
        self.m = int(m)
        self.base_dim = int(base_dim)
        if self.m < 1 or self.base_dim < 1:
            raise ValueError("m and base_dim must be positive")
        self.weights = _check_weights(weights, self.m)
        self.dim = self.m * self.base_dim
        self.inner = InnerProduct(self.dim, np.repeat(self.weights, self.base_dim))

    @classmethod
    def of(cls, prob):
        return cls(prob.m, prob.base_dim, prob.weights)

    def split(self, X):
        return np.asarray(X, dtype=float).reshape(self.m, self.base_dim)

    def lift(self, x):
        return np.tile(as_vector(x, self.base_dim), self.m)

    def diagonal_spread(self, X):
        """Largest deviation of any block from the weighted mean (0 on the diagonal)."""
        blocks = self.split(X)
        return float(np.max(np.abs(blocks - self.weights @ blocks)))

    def unlift(self, X):
        """Base-space point of a diagonal lifted vector; rejects off-diagonal
        input, a block spread above 1e-9 relative."""
        mean = self.weights @ self.split(X)
        spread = self.diagonal_spread(X)
        if spread > 1e-9 * (1.0 + float(np.max(np.abs(mean), initial=0.0))):
            raise ValueError(
                f"lifted vector is not diagonal: block spread {spread:.3e} exceeds tolerance"
            )
        return mean

    def consensus_projector(self):
        """Projector onto the diagonal: every block becomes the weighted mean."""
        def apply(X):
            return np.tile(self.weights @ X.reshape(self.m, self.base_dim), self.m)

        return SubspaceProjector(apply, self.dim, self.inner, label="consensus")
