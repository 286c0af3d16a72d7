import re

import numpy as np
import pytest

import monosplit as ms
from monosplit import (ErrorSchedule, InclusionProblem,
                       affine_gradient, build_S, build_T, fdr_solve,
                       geometric_errors, identity_projector, km_solve,
                       normal_cone_box, normal_cone_of_subspace,
                       span_projector, zero_cocoercive, zero_operator,
                       zero_projector)
from monosplit.fdr import averagedness, check_gamma
from monosplit.operators import ResolventFamily
from monosplit.productspace import (ProductProblem, sum_splitting_pi,
                                    sum_splitting_solve)
from theory import certify_averaged, characterization_check, forward_gaps


def box_identity_problem():
    """0 in N_C x + x + N_V x with C = [1,2]^2 and V the diagonal of R^2."""
    A = normal_cone_box([1.0, 1.0], [2.0, 2.0])
    B = affine_gradient(np.eye(2))
    V = span_projector([1.0, 1.0])
    return InclusionProblem(A, B, V)


def _in_box_normal_cone(u, x, lo, hi, tol=1e-9):
    for ui, xi in zip(u, x):
        if abs(xi - lo) <= tol:
            if ui > tol:
                return False
        elif abs(xi - hi) <= tol:
            if ui < -tol:
                return False
        elif abs(ui) > tol:
            return False
    return True


def box_identity_oracle_solutions():
    """Brute-force solution set of the box/identity problem on the diagonal:
    search for u in N_C(x) and v orthogonal to the diagonal with u + x + v = 0."""
    sols = []
    for t in np.linspace(1.0, 2.0, 101):
        x = np.array([t, t])
        for s in np.linspace(-10.0, 10.0, 4001):
            u = -x - s * np.array([1.0, -1.0])
            if _in_box_normal_cone(u, x, 1.0, 2.0):
                sols.append(t)
                break
    return sols


def test_box_identity_oracle_is_the_corner():
    sols = box_identity_oracle_solutions()
    assert sols == [1.0]


def test_build_T_trivial_cases(rng):
    T = build_T(zero_operator(2), identity_projector(2), 1.0)
    x = rng.standard_normal(2)
    np.testing.assert_allclose(T(x), x)
    T0 = build_T(zero_operator(2), zero_projector(2), 1.0)
    np.testing.assert_allclose(T0(x), np.zeros(2))


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.inf, np.nan])
def test_build_T_rejects_gamma_outside_the_positive_reals(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        build_T(zero_operator(2), identity_projector(2), gamma)


def test_build_T_of_mismatched_dimensions_fails_when_applied():
    T = build_T(zero_operator(3), identity_projector(2), 1.0)
    with pytest.raises(ValueError, match=re.escape(
            "dimension mismatch: operator acts on R^3, got shape (2,)")):
        T(np.ones(2))


def test_inclusion_problem_dimension_mismatch():
    with pytest.raises(ValueError, match=r"A on R\^2, B on R\^3, V on R\^2"):
        InclusionProblem(zero_operator(2), zero_cocoercive(3), identity_projector(2))


def test_build_T_span_case():
    A = normal_cone_of_subspace(span_projector([1.0, 1.0]))
    V = span_projector([1.0, 0.0])
    T = build_T(A, V, 1.0)
    np.testing.assert_allclose(T(np.array([2.0, 0.0])), [1.0, 1.0])
    assert T.alpha == 0.5


def test_build_S_cases(rng):
    x = np.array([2.0, 0.0])
    S0 = build_S(zero_cocoercive(2), identity_projector(2), 1.0)
    np.testing.assert_allclose(S0(x), x)
    Sid = build_S(affine_gradient(np.eye(2)), identity_projector(2), 1.0)
    np.testing.assert_allclose(Sid(x), np.zeros(2))
    Sv = build_S(affine_gradient(np.eye(2)), span_projector([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(Sv(x), [1.0, -1.0])
    assert Sv.alpha == pytest.approx(0.5)


def test_build_S_rejects_gamma_out_of_range():
    with pytest.raises(ValueError, match="]0, 2\\*beta\\["):
        build_S(affine_gradient(np.eye(2)), identity_projector(2), 2.0)


def test_operator_averagedness_certificates(rng):
    prob = box_identity_problem()
    gamma = 0.8
    T = build_T(prob.A, prob.V, gamma)
    S = build_S(prob.B, prob.V, gamma)
    assert certify_averaged(T, samples=300).passed
    assert certify_averaged(S, samples=300).passed
    assert S.alpha == pytest.approx(gamma / 2.0)


def test_alpha_bound_formula():
    prob = box_identity_problem()
    for gamma in (0.2, 1.0, 1.9):
        expected = max(2.0 / 3.0, 2.0 * gamma / (gamma + 2.0))
        assert averagedness(gamma, prob.beta) == pytest.approx(expected)
        assert averagedness(gamma, prob.beta) == pytest.approx(
            ms.composed_alpha([0.5, gamma / 2.0]))


def test_gamma_range_and_alpha_defined_once():
    with pytest.raises(ValueError) as ref:
        check_gamma(2.0, 1.0)
    prob = box_identity_problem()
    product = ProductProblem([zero_operator(2)], prob.B)
    for call in (lambda: build_S(prob.B, prob.V, 2.0),
                 lambda: fdr_solve(prob, gamma=2.0),
                 lambda: sum_splitting_solve(product, gamma=2.0),
                 lambda: sum_splitting_pi(product, gamma=2.0)):
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == str(ref.value)
    assert check_gamma(1, 1.0) == 1.0


def test_fdr_trivial_everything_zero(rng):
    prob = InclusionProblem(zero_operator(3), zero_cocoercive(3),
                            identity_projector(3))
    z0 = rng.standard_normal(3)
    res = fdr_solve(prob, z0=z0)
    assert res.status == ms.CONVERGED
    assert res.iterations == 0
    np.testing.assert_allclose(res.x, z0)


def test_fdr_box_identity_matches_oracle():
    prob = box_identity_problem()
    res = fdr_solve(prob, gamma=1.0, tol=1e-10)
    assert res.status == ms.CONVERGED
    t_star = box_identity_oracle_solutions()[0]
    np.testing.assert_allclose(res.x, [t_star, t_star], atol=1e-8)
    assert res.inclusion_residual <= 1e-10


def test_fdr_summable_errors_same_solution():
    prob = box_identity_problem()
    errs_a = geometric_errors(2, 1.0, 0.5, direction=[1.0, 1.0])
    errs_b = geometric_errors(2, 1.0, 0.5, direction=[1.0, 1.0])
    clean = fdr_solve(prob, gamma=1.0, tol=1e-10)
    dirty = fdr_solve(prob, gamma=1.0, a_errors=errs_a, b_errors=errs_b,
                      tol=1e-10)
    assert dirty.status == ms.CONVERGED
    assert np.linalg.norm(dirty.x - clean.x) <= 1e-6


def test_fdr_gamma_validation():
    prob = box_identity_problem()
    with pytest.raises(ValueError, match="]0, 2\\*beta\\["):
        fdr_solve(prob, gamma=2.0)
    with pytest.raises(ValueError, match="]0, 1/alpha\\["):
        fdr_solve(prob, gamma=1.0, relaxation=1.6)


def test_fdr_nonsummable_errors_rejected_before_iterating():
    prob = box_identity_problem()
    calls = {"n": 0}
    counting = ResolventFamily(
        lambda gamma, x: (calls.__setitem__("n", calls["n"] + 1), np.clip(x, 1, 2))[1], 2)
    bad = ms.harmonic_errors(2, 1.0)
    with pytest.raises(ValueError, match="non-summable"):
        fdr_solve(InclusionProblem(counting, prob.B, prob.V), gamma=1.0,
                  a_errors=bad)
    assert calls["n"] == 0


def test_fdr_memberships_and_sequence_changes(rng):
    # a smooth strongly monotone problem converges asymptotically, so the
    # iterate changes shrink with the residual
    from conftest import random_spd, random_subspace_projector, relative_memberships
    Qf = random_spd(rng, 4)
    Qg = random_spd(rng, 4)
    prob = InclusionProblem(ms.linear_monotone(Qf, b=-rng.standard_normal(4)),
                            affine_gradient(Qg, rng.standard_normal(4)),
                            random_subspace_projector(rng, 4, rank=2))
    res = fdr_solve(prob, z0=rng.standard_normal(4), tol=1e-10, trace=True)
    assert res.status == ms.CONVERGED
    # every iterate: x_n in V, y_n in its complement
    for x, y in res.trace:
        assert max(relative_memberships(prob.V, x, y)) <= 1e-12
    assert res.membership_violation == max(relative_memberships(prob.V, res.x, res.y))
    assert res.history[-1].dx <= 1e-6
    assert res.history[-1].dy <= 1e-6
    # forward term stabilizes: the last two checkpoints essentially agree
    gaps = forward_gaps(prob, res)
    assert gaps[-1] <= 1e-12
    assert gaps[-2] <= 1e-6


def test_fdr_projector_and_forward_call_counts(rng):
    # two projections and one forward evaluation per step, plus the two
    # membership projections of the returned pair
    from conftest import (counting_problem, random_spd,
                          random_subspace_projector)
    base = InclusionProblem(ms.linear_monotone(random_spd(rng, 4)),
                            affine_gradient(random_spd(rng, 4),
                                            rng.standard_normal(4)),
                            random_subspace_projector(rng, 4, rank=2))
    prob, counts = counting_problem(base)
    res = fdr_solve(prob, z0=rng.standard_normal(4), tol=-1.0, max_iters=9,
                    trace=True)
    assert res.iterations == 9 and len(res.trace) == 10
    assert counts == {"V": 2 * 10 + 2, "B": 10}


def test_fdr_matches_km_engine_error_free():
    prob = box_identity_problem()
    gamma = 0.9
    z0 = np.array([2.5, -0.5])
    res = fdr_solve(prob, gamma=gamma, relaxation=0.8, z0=z0, tol=-1.0,
                    max_iters=60, trace=True)
    T = build_T(prob.A, prob.V, gamma)
    S = build_S(prob.B, prob.V, gamma)
    km_res = km_solve([T, S], relaxation=0.8, z0=z0, tol=-1.0, max_iters=60,
                      trace=True)
    for (x, y), z in zip(res.trace, km_res.trace):
        np.testing.assert_allclose(x - gamma * y, z, atol=1e-10)


def test_fdr_matches_km_engine_with_errors():
    prob = box_identity_problem()
    gamma = 1.0
    z0 = np.array([2.5, -0.5])
    a = geometric_errors(2, 0.5, 0.6, direction=[1.0, 0.0])
    b = geometric_errors(2, 0.5, 0.6, direction=[0.0, 1.0])
    res = fdr_solve(prob, gamma=gamma, a_errors=a, b_errors=b, z0=z0,
                    tol=-1.0, max_iters=40, trace=True)
    # in engine terms the forward perturbation enters as -gamma * P_V a_n
    V = prob.V
    c = ErrorSchedule(lambda n: -gamma * V(a(n)),
                      lambda n: gamma * a.bound(n), True, 2)
    T = build_T(prob.A, prob.V, gamma)
    S = build_S(prob.B, prob.V, gamma)
    km_res = km_solve([T, S], errors=[b, c], z0=z0, tol=-1.0, max_iters=40,
                      trace=True)
    for (x, y), z in zip(res.trace, km_res.trace):
        np.testing.assert_allclose(x - gamma * y, z, atol=1e-10)


def test_fdr_divergence_partial_history():
    bad = ResolventFamily(lambda gamma, x: x * 1e160, 2, label="unstable")
    prob = InclusionProblem(bad, zero_cocoercive(2), identity_projector(2))
    res = fdr_solve(prob, gamma=1.0, z0=[1.0, 1.0], max_iters=100)
    assert res.status == ms.DIVERGED
    assert len(res.history) >= 1
    assert np.all(np.isfinite(res.x))


def test_characterization_at_converged_point():
    prob = box_identity_problem()
    res = fdr_solve(prob, gamma=1.0, tol=1e-11)
    z = res.x - 1.0 * res.y
    report = characterization_check(prob, 1.0, z)
    assert report.fixed_point_residual <= 1e-10
    assert report.inclusion_residual <= 1e-10
    np.testing.assert_allclose(report.x, res.x, atol=1e-12)


def test_characterization_trivial_problem(rng):
    prob = InclusionProblem(zero_operator(2), zero_cocoercive(2),
                            identity_projector(2))
    report = characterization_check(prob, 1.0, rng.standard_normal(2))
    assert report.fixed_point_residual == 0.0


def test_characterization_detects_perturbation():
    prob = box_identity_problem()
    res = fdr_solve(prob, gamma=1.0, tol=1e-11)
    z = res.x - 1.0 * res.y + np.array([0.1, 0.0])
    report = characterization_check(prob, 1.0, z)
    assert report.fixed_point_residual > 1e-3


def test_primal_is_projection_of_fixed_point():
    # the solution set is the projection of the fixed points of T o S
    prob = box_identity_problem()
    res = fdr_solve(prob, gamma=1.0, tol=1e-11)
    z = res.x - 1.0 * res.y
    np.testing.assert_allclose(prob.V(z), [1.0, 1.0], atol=1e-8)


def test_fdr_max_iters_zero_single_row():
    prob = box_identity_problem()
    res = fdr_solve(prob, gamma=1.0, z0=[0.0, 5.0], max_iters=0)
    assert res.status == ms.MAX_ITERS
    assert len(res.history) == 1


def test_fdr_objective_logging():
    prob = box_identity_problem()
    res = fdr_solve(prob, gamma=1.0, tol=1e-10,
                    objective=lambda x: float(np.sum(x ** 2)))
    assert res.history[0].objective is not None
    assert res.history[-1].objective == pytest.approx(2.0, abs=1e-6)
