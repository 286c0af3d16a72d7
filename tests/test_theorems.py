"""The paper's structural results as properties of randomly drawn problems.

Each example builds ``0 in A x + B x + N_V x`` from a drawn seed: ``A`` the
normal cone of a random box (or ``A = 0``), ``B x = Q x - b`` with ``Q``
from ``random_spd``, ``V`` from ``random_subspace_projector`` (or the whole
space), ``gamma in ]0, 2 beta[`` and a constant relaxation.  The oracles are
the literal recursions of ``conftest`` and the verifiers of ``theory``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from monosplit import (AveragedOperator, InclusionProblem, RelaxationSchedule,
                       StepSchedule, affine_gradient, build_S, build_T,
                       composed_alpha, fdr_solve, fpi_explicit_solve,
                       fpi_solve, identity_projector, km_solve,
                       matrix_projector, normal_cone_box, zero_cocoercive,
                       zero_operator)
from monosplit.fdr import averagedness
from conftest import (fpi_unit_step_reference, kkt_solution, random_spd,
                      random_subspace_projector, trace_deviation)
from theory import certify_averaged, characterization_check, closed_form_oracle

ITERS = 60
RATE_ITERS = 400
RATE_EXAMPLES = 60


@st.composite
def problems(draw, zero_A=False, whole_space=False):
    """``(prob, gamma, Q, b, rng)``; ``rng`` goes on to draw starting points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 6))
    if zero_A:
        A = zero_operator(dim)
    else:
        A = normal_cone_box(-np.abs(rng.standard_normal(dim)) - 0.1,
                            np.abs(rng.standard_normal(dim)) + 0.1)
    Q, b = random_spd(rng, dim), 2.0 * rng.standard_normal(dim)
    V = identity_projector(dim) if whole_space else random_subspace_projector(rng, dim)
    prob = InclusionProblem(A, affine_gradient(Q, b), V)
    gamma = draw(st.floats(0.02, 0.98)) * 2.0 * prob.beta
    return prob, gamma, Q, b, rng


def open_relaxations(prob, gamma):
    """Constant relaxations across ``]0, 1/alpha[``."""
    return st.floats(0.02, 0.98).map(lambda f: f / averagedness(gamma, prob.beta))


def rises(values, floor=1e-9, slack=1e-12):
    """The steps at which ``values`` rose while above ``floor``.  A rise within
    ``slack`` (relative) is round-off: a residual that is constant in exact
    arithmetic, as while every clamp of the box is saturated, moves by about
    1e-14 relative in floats."""
    return [n for n in range(len(values) - 1)
            if values[n] > floor and values[n + 1] > values[n] * (1.0 + slack)]


@given(problems(), st.floats(0.02, 1.0))
def test_fdr_and_fpi_traces_follow_the_unit_step_recursion(case, lam):
    prob, gamma, _, _, rng = case
    x0 = prob.V(rng.standard_normal(prob.dim))
    y0 = prob.V.complement(rng.standard_normal(prob.dim))
    reference = fpi_unit_step_reference(prob, gamma, lam, x0, y0, ITERS)
    kw = dict(gamma=gamma, relaxation=lam, tol=-1.0, max_iters=ITERS, trace=True)
    fdr = fdr_solve(prob, z0=x0 - gamma * y0, **kw)
    fpi = fpi_explicit_solve(prob, x0=x0, y0=y0, **kw)
    assert trace_deviation(fdr.trace, reference) <= 1e-10
    assert trace_deviation(fpi.trace, reference) <= 1e-10


@settings(max_examples=30)
@given(problems())
def test_oracle_run_with_B_zero_is_spingarns_partial_inverse_method(case):
    # with B = 0 and gamma = lambda = delta = 1 the forward-partial-inverse
    # iteration is Spingarn's: p = J_A(x + y), x+ = P_V p, y+ = P_{V^perp}(x + y - p)
    prob, _, _, _, rng = case
    prob = InclusionProblem(prob.A, zero_cocoercive(prob.dim), prob.V)
    V = prob.V
    x, y = V(rng.standard_normal(prob.dim)), V.complement(rng.standard_normal(prob.dim))
    res = fpi_solve(prob, gamma=1.0, oracle=closed_form_oracle(prob), x0=x, y0=y,
                    tol=-1.0, max_iters=ITERS, trace=True)
    reference = [(x, y)]
    for _ in range(ITERS):
        p = prob.A.resolve(1.0, x + y)
        x, y = V(p), V.complement(x + y - p)
        reference.append((x, y))
    assert trace_deviation(res.trace, reference) <= 1e-12


@settings(max_examples=30)
@given(st.data())
def test_oracle_run_applies_the_documented_update_to_the_oracle_pair(data):
    # varying delta_n and lambda_n; V a coordinate subspace, on which the
    # step-1 pair of a box has a closed form for every delta: clamp t on V,
    # delta * clamp(t / delta) off V.  The trace is the update
    # x+ = x + lambda (P_V p - x), y+ = y + lambda ((Id - P_V) q - y)
    # of the recorded pairs, bit for bit.
    _, _, Q, b, rng = data.draw(problems())
    dim = Q.shape[0]
    mask = rng.permutation(dim) < data.draw(st.integers(1, dim - 1))
    V = matrix_projector(np.diag(mask.astype(float)))
    A = normal_cone_box(-np.abs(rng.standard_normal(dim)) - 0.1,
                        np.abs(rng.standard_normal(dim)) + 0.1)
    prob = InclusionProblem(A, affine_gradient(Q, b), V)
    gamma = prob.beta
    steps = StepSchedule(lambda n: 1.0 + 0.5 * math.sin(n))
    relax = RelaxationSchedule(lambda n: 0.6 + 0.3 * math.cos(n))
    pairs = []

    def oracle(x, y, delta, gamma, PBx):
        t = x - delta * gamma * PBx + gamma * y
        p = np.where(mask, A.resolve(gamma * delta, t),
                     delta * A.resolve(gamma / delta, t / delta))
        pairs.append((p, (t - p) / gamma))
        return pairs[-1]

    x, y = V(rng.standard_normal(dim)), V.complement(rng.standard_normal(dim))
    res = fpi_solve(prob, gamma=gamma, steps=steps, relaxation=relax, oracle=oracle,
                    x0=x, y0=y, tol=-1.0, max_iters=ITERS, trace=True)
    assert len(res.trace) == len(pairs) == ITERS + 1
    for n, ((xn, yn), (p, q)) in enumerate(zip(res.trace, pairs)):
        np.testing.assert_array_equal(xn, x)
        np.testing.assert_array_equal(yn, y)
        lam = relax(n)
        x, y = x + lam * (V(p) - x), y + lam * (q - V(q) - y)


@settings(max_examples=200)
@given(st.data())
def test_residuals_never_increase_under_constant_relaxation(data):
    prob, gamma, _, _, rng = data.draw(problems())
    lam = data.draw(open_relaxations(prob, gamma))
    res = fdr_solve(prob, gamma=gamma, relaxation=lam, tol=-1.0,
                    max_iters=3 * ITERS, z0=3.0 * rng.standard_normal(prob.dim))
    assert rises([row.residual for row in res.history]) == []


@settings(max_examples=200)
@given(st.data())
def test_iterates_are_fejer_monotone_toward_the_kkt_solution(data):
    # with A = 0 the only fixed point is z* = x*, the minimizer of
    # x'Qx/2 - b'x over V, and its dual is 0
    prob, gamma, Q, b, rng = data.draw(problems(zero_A=True))
    lam = data.draw(open_relaxations(prob, gamma))
    res = fdr_solve(prob, gamma=gamma, relaxation=lam, tol=-1.0,
                    max_iters=3 * ITERS, z0=3.0 * rng.standard_normal(prob.dim),
                    trace=True)
    z_star = kkt_solution(Q, b, prob.V)
    distances = [float(np.linalg.norm(x - gamma * y - z_star)) for x, y in res.trace]
    assert rises([row.residual for row in res.history]) == []
    assert rises(distances) == []


@pytest.mark.parametrize("zero_A", [True, False], ids=["A=0", "box"])
@settings(max_examples=RATE_EXAMPLES)
@given(data=st.data())
def test_residuals_meet_the_rate_certificate(zero_A, data):
    # for the alpha-averaged T_gamma o S_gamma and a constant lambda in
    # ]0, 1/alpha[, the residual r_n = ||T S z_n - z_n|| never exceeds
    # ||z_0 - z*|| sqrt(alpha / (lambda (1 - alpha lambda) (n + 1)))
    prob, gamma, Q, b, rng = data.draw(problems(zero_A=zero_A))
    lam = data.draw(open_relaxations(prob, gamma))
    if zero_A:
        z_star = kkt_solution(Q, b, prob.V)
    else:
        # a reference stopped by max_iters certifies no z*
        ref = fdr_solve(prob, gamma=gamma, tol=1e-14, max_iters=20_000)
        assume(ref.status == "converged")
        z_star = ref.x - gamma * ref.y
    z0 = 3.0 * rng.standard_normal(prob.dim)
    res = fdr_solve(prob, gamma=gamma, relaxation=lam, tol=-1.0,
                    max_iters=RATE_ITERS, z0=z0)
    alpha = averagedness(gamma, prob.beta)
    scale = np.linalg.norm(z0 - z_star) * math.sqrt(alpha / (lam * (1.0 - alpha * lam)))
    worst = max(row.residual * math.sqrt(row.n + 1) for row in res.history) / scale
    assert worst <= 1.0 + 1e-9


@settings(max_examples=RATE_EXAMPLES)
@given(st.data())
def test_km_residuals_meet_the_rate_certificate(data):
    # km_solve on the composition T_gamma o S_gamma, with alpha from
    # composed_alpha of the declared constants; S is fused when Q is exactly
    # symmetric (V is then a symmetric matrix projector) and unfused when not
    zero_A = data.draw(st.booleans())
    prob, gamma, Q, b, rng = data.draw(problems(zero_A=zero_A))
    if data.draw(st.booleans()):
        Q = 0.5 * (Q + Q.T)
        prob = InclusionProblem(prob.A, affine_gradient(Q, b), prob.V)
        assert prob.B._affine is not None and prob.V._matrix is not None
    T, S = build_T(prob.A, prob.V, gamma), build_S(prob.B, prob.V, gamma)
    alpha = composed_alpha([T.alpha, S.alpha])
    lam = data.draw(st.floats(0.02, 0.98)) / alpha
    if zero_A:
        z_star = kkt_solution(Q, b, prob.V)
    else:
        ref = km_solve([T, S], tol=1e-14, max_iters=20_000)
        assume(ref.status == "converged")
        z_star = ref.final
    z0 = 3.0 * rng.standard_normal(prob.dim)
    res = km_solve([T, S], relaxation=lam, tol=-1.0, max_iters=RATE_ITERS, z0=z0)
    scale = np.linalg.norm(z0 - z_star) * math.sqrt(alpha / (lam * (1.0 - alpha * lam)))
    worst = max(row.residual * math.sqrt(row.n + 1) for row in res.history) / scale
    assert worst <= 1.0 + 1e-9


@given(problems())
def test_fixed_point_characterizes_the_solution(case):
    # z = x - gamma y at the end of a converged run is a fixed point of
    # T_gamma o S_gamma, and (P_V z, (P_V z - z)/gamma) solves the inclusion
    prob, gamma, _, _, _ = case
    res = fdr_solve(prob, gamma=gamma, tol=1e-10)
    assert res.status == "converged"
    report = characterization_check(prob, gamma, res.x - gamma * res.y)
    assert report.fixed_point_residual <= 1e-8
    assert report.inclusion_residual <= 1e-8
    assert np.max(np.abs(report.x - res.x)) <= 1e-12
    assert np.max(np.abs(report.y - res.y)) <= 1e-12


@given(problems())
def test_composition_is_averaged_with_the_declared_constant(case):
    # a constant declared 0.8 times too small fails about every second draw
    prob, gamma, _, _, _ = case
    T = build_T(prob.A, prob.V, gamma)
    S = build_S(prob.B, prob.V, gamma)
    TS = AveragedOperator(lambda z: T(S(z)), averagedness(gamma, prob.beta),
                          prob.dim)
    report = certify_averaged(TS, samples=300)
    assert report.passed, report


@given(st.data())
def test_whole_space_fdr_is_forward_backward(data):
    prob, gamma, _, _, rng = data.draw(problems(whole_space=True))
    lam = data.draw(open_relaxations(prob, gamma))
    x = 3.0 * rng.standard_normal(prob.dim)
    res = fdr_solve(prob, gamma=gamma, relaxation=lam, z0=x, tol=-1.0,
                    max_iters=ITERS, trace=True)
    for xn, _ in res.trace:
        assert np.max(np.abs(xn - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))
        x = x + lam * (prob.A.resolve(gamma, x - gamma * prob.B(x)) - x)
