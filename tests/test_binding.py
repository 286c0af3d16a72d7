"""Each solve applies the library's own objects through their kernels, chosen
once when it starts; wrappers, user-built objects and user arrays keep the
public calls, and the checks taken out of the loop keep their outcomes."""

import re

import numpy as np
import pytest

from monosplit import (ErrorSchedule, InclusionProblem, ProductProblem,
                       SubspaceProjector, affine_gradient, build_S, build_T,
                       fdr_solve, fpi_explicit_solve, km_solve, linear_monotone,
                       normal_cone_box, parallel_dr2, subdifferential_abs,
                       sum_splitting_solve, zero_mean_projector)

D = 5


class Traced:
    """Counts the calls of one entry point and forwards every other
    attribute, the kernels and the library's mark included, as the
    benchmark's tracing proxies do."""

    def __init__(self, target):
        self.target = target
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.target, name)


class TracedMap(Traced):
    def __call__(self, x):
        self.calls += 1
        return self.target(x)


class TracedFamily(Traced):
    def resolve(self, gamma, x):
        self.calls += 1
        return self.target.resolve(gamma, x)


def problem():
    # zero_mean V carries no matrix, so P_V B P_V is not fused
    rng = np.random.default_rng(7)
    G = rng.standard_normal((D, D))
    return InclusionProblem(normal_cone_box(-np.ones(D), np.ones(D)),
                            affine_gradient(G @ G.T / D + np.eye(D), rng.standard_normal(D)),
                            zero_mean_projector(D))


def traced(prob):
    return (InclusionProblem(TracedFamily(prob.A), TracedMap(prob.B), TracedMap(prob.V)),
            prob)


def assert_same_run(a, b):
    assert (a.status, a.iterations, a.history) == (b.status, b.iterations, b.history)
    for name in ("x", "y", "final"):
        if hasattr(a, name):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def calls(prob):
    return prob.A.calls, prob.B.calls, prob.V.calls


@pytest.mark.parametrize("solve", [fdr_solve, fpi_explicit_solve],
                         ids=["fdr", "fpi_explicit"])
def test_traced_primal_dual_runs_see_every_call(solve):
    tprob, prob = traced(problem())
    res = solve(tprob, max_iters=200)
    assert_same_run(res, solve(prob, max_iters=200))
    steps = res.iterations + 1
    # per step: J, B and two projections; the result projects x and y once
    assert calls(tprob) == (steps, steps, 2 * steps + 2)


def test_traced_km_run_sees_every_call():
    tprob, prob = traced(problem())

    def run(p):
        ops = [build_T(p.A, p.V, p.beta), build_S(p.B, p.V, p.beta)]
        return km_solve(ops, inner=p.V.inner, max_iters=200)

    res = run(tprob)
    assert_same_run(res, run(prob))
    steps = res.iterations + 1
    # S calls B and two projections; T reaches V and J through reflect and
    # reflected, which the wrappers forward uncounted
    assert calls(tprob) == (0, steps, 2 * steps)


def test_traced_dr2_run_sees_every_call():
    rng = np.random.default_rng(8)
    G = rng.standard_normal((D, D))
    A1 = normal_cone_box(-np.ones(D), np.ones(D))
    A2 = linear_monotone(np.eye(D) + G - G.T, rng.standard_normal(D))
    T1, T2 = TracedFamily(A1), TracedFamily(A2)
    res = parallel_dr2(T1, T2, max_iters=200)
    assert_same_run(res, parallel_dr2(A1, A2, max_iters=200))
    steps = res.iterations + 1
    # the certificate resolves each block twice, through its own resolve
    assert (T1.calls, T2.calls) == (steps + 2, steps + 2)


def test_traced_sum_run_sees_every_call():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((D, D))
    blocks = [normal_cone_box(-np.ones(D), np.ones(D)), subdifferential_abs(D),
              normal_cone_box(-2 * np.ones(D), np.ones(D)),
              linear_monotone(np.eye(D) + G - G.T, rng.standard_normal(D))]
    B = affine_gradient(G @ G.T / D + np.eye(D), rng.standard_normal(D))
    traced = ProductProblem([TracedFamily(A) for A in blocks], TracedMap(B))
    res = sum_splitting_solve(traced, max_iters=200)
    plain = sum_splitting_solve(ProductProblem(blocks, B), max_iters=200)
    assert_same_run(res, plain)
    assert np.array_equal(res.block_residuals, plain.block_residuals)
    steps = res.iterations + 1
    # per step: B once and every block's resolve once; the certificate
    # applies B once and resolves each block twice
    assert [T.calls for T in traced.blocks] == [steps + 2] * len(blocks)
    assert traced.B.calls == steps + 1


def test_dr2_checks_the_doubled_gamma_before_any_iteration():
    A1 = normal_cone_box(-np.ones(D), np.ones(D))
    A2 = normal_cone_box(-2 * np.ones(D), np.ones(D))
    kernel, seen = A1._resolve, []
    A1._resolve = lambda gamma, x: seen.append(gamma) or kernel(gamma, x)
    with pytest.raises(ValueError, match=re.escape(
            "resolvent parameter must be positive and finite, got inf")):
        parallel_dr2(A1, A2, gamma=1e308)
    assert seen == []


def long_at_call(k):
    """A user-built zero-mean projector whose k-th call returns a vector of
    length D + 1."""
    count = [0]

    def apply(x):
        count[0] += 1
        y = x - x.sum() / D
        return np.append(y, 0.0) if count[0] == k else y

    return SubspaceProjector(apply, D)


def test_user_projector_of_the_wrong_length_fails_as_before():
    prob = problem()
    # fdr projects twice per step: call 11 is the first of n = 5
    bad = InclusionProblem(prob.A, prob.B, long_at_call(11))
    with pytest.raises(ValueError, match=re.escape(
            "operands could not be broadcast together with shapes (6,) (5,) ")):
        fdr_solve(bad, tol=-1.0, max_iters=50)
    # km makes three projections per step (two in S, one in T); the first
    # of n = 5 goes through S to B, whose public call sees its length
    V = long_at_call(16)
    ops = [build_T(prob.A, V, prob.beta), build_S(prob.B, V, prob.beta)]
    with pytest.raises(ValueError, match=re.escape(
            "dimension mismatch: map acts on R^5, got shape (6,)")):
        km_solve(ops, tol=-1.0, max_iters=50)


def wide_after_prefix():
    """A user error schedule that passes the 64-term audit and then returns
    terms of shape (1, D), which broadcast into the state."""
    return ErrorSchedule(lambda n: np.zeros(D) if n < 70 else np.full((1, D), 1e-3),
                         lambda n: 1.0, summable=True, dim=D)


def test_error_terms_of_the_wrong_shape_fail_as_before():
    prob = problem()
    with pytest.raises(ValueError, match=re.escape(
            "dimension mismatch: projector acts on R^5, got shape (1, 5)")):
        fdr_solve(prob, b_errors=wide_after_prefix(), tol=-1.0, max_iters=100)
    ops = [build_T(prob.A, prob.V, prob.beta), build_S(prob.B, prob.V, prob.beta)]
    with pytest.raises(ValueError, match=re.escape(
            "dimension mismatch: operator acts on R^5, got shape (1, 5)")):
        km_solve(ops, errors=[wide_after_prefix(), None], tol=-1.0, max_iters=100)
