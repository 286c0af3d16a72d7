import numpy as np
import pytest

import monosplit as ms
from monosplit import (InclusionProblem, OracleError,
                       StepSchedule, affine_gradient, constant_steps,
                       fdr_solve, fpi_explicit_solve, fpi_solve,
                       identity_projector, normal_cone_box, span_projector,
                       subdifferential_abs, zero_cocoercive, zero_mean_projector,
                       zero_operator)
from conftest import (counting_problem, fpi_unit_step_reference, random_spd,
                      random_subspace_projector, relative_memberships,
                      trace_deviation)
from theory import closed_form_oracle, forward_gaps, partial_inverse_resolvent


def box_identity_problem():
    A = normal_cone_box([1.0, 1.0], [2.0, 2.0])
    B = affine_gradient(np.eye(2))
    V = span_projector([1.0, 1.0])
    return InclusionProblem(A, B, V)


def test_step_schedule_validation():
    constant_steps(1.0).validate(1.0, 1.0)
    with pytest.raises(ValueError, match="outside admissible range"):
        constant_steps(3.0).validate(1.0, 1.0)  # 2*beta/gamma - eps = 2 - eps


def test_step_range_empty_for_a_large_gamma():
    # 2*beta/gamma - epsilon = 0.0008 - 0.001 < epsilon
    with pytest.raises(ValueError, match=r"^empty step range"):
        constant_steps(1.0).validate(2500.0, 1.0)


def _count_generator_calls(schedule):
    """Wrap the schedule's generator; returns the live one-element call count."""
    calls = [0]
    generator = schedule.generator

    def counted(n):
        calls[0] += 1
        return generator(n)

    schedule.generator = counted
    return calls


def test_constant_steps_audited_on_its_value():
    prob = box_identity_problem()
    steps = constant_steps(1.0)
    calls = _count_generator_calls(steps)
    assert fpi_solve(prob, gamma=1.0, steps=steps).status == ms.CONVERGED
    assert calls == [1]
    # with an oracle the one audited value serves every term
    steps = constant_steps(1.0)
    calls = _count_generator_calls(steps)
    res = fpi_solve(prob, gamma=1.0, steps=steps, oracle=closed_form_oracle(prob),
                    tol=-1.0, max_iters=30)
    assert res.iterations == 30 and calls == [1]
    with pytest.raises(ValueError) as e:
        constant_steps(3.0).validate(1.0, 1.0)
    assert str(e.value) == ("step value 3.0 at n=0 outside admissible range "
                            "[epsilon, 2*beta/gamma - epsilon] = [0.001, 1.999]")
    delta_at = constant_steps(1.5).validate(1.0, 1.0)
    assert [delta_at(n) for n in (0, 1, 10**9)] == [1.5] * 3


def test_custom_steps_keep_prefix_audit():
    prob = box_identity_problem()
    steps = StepSchedule(lambda n: 1.0)
    calls = _count_generator_calls(steps)
    fpi_solve(prob, gamma=1.0, steps=steps, oracle=closed_form_oracle(prob),
              tol=-1.0, max_iters=30)
    assert calls == [64 + 31]  # the audited prefix, then each of the 31 steps
    with pytest.raises(ValueError, match="5.0 at n=63"):
        StepSchedule(lambda n: 1.0 if n < 63 else 5.0).validate(1.0, 1.0)
    delta_at = StepSchedule(lambda n: 1.0 if n < 64 else 5.0).validate(1.0, 1.0)
    with pytest.raises(ValueError, match="5.0 at n=64"):
        delta_at(64)


def test_fpi_solve_one_epsilon_sets_every_range():
    # relaxations in [epsilon, 1] = [0.001, 1.0] reject 0.0005 whether the
    # unit step comes as a float or as a constant schedule
    prob = box_identity_problem()
    messages = []
    for steps in (1.0, constant_steps(1.0)):
        with pytest.raises(ValueError) as e:
            fpi_solve(prob, gamma=1.0, steps=steps, relaxation=0.0005)
        messages.append(str(e.value))
    assert messages == ["relaxation value 0.0005 at n=0 outside admissible range "
                        "[0.001, 1.0]"] * 2
    # with a user oracle the steps lie in [epsilon, 2*beta/gamma - epsilon]
    oracle = closed_form_oracle(prob)
    for steps in (constant_steps(0.0005), StepSchedule(lambda n: 1.9995)):
        with pytest.raises(ValueError) as e:
            fpi_solve(prob, gamma=1.0, steps=steps, oracle=oracle)
        assert str(e.value) == (f"step value {steps(0)} at n=0 outside admissible range "
                                "[epsilon, 2*beta/gamma - epsilon] = [0.001, 1.999]")


def test_every_partial_inverse_form_rejects_a_zero_relaxation():
    # lambda = 0 gives a run that never moves; all three partial-inverse
    # forms refuse it with fpi_solve's message
    prob = box_identity_problem()
    sum_prob = ms.ProductProblem([prob.A, subdifferential_abs(2)], prob.B)
    messages = []
    for solve, p in ((fpi_solve, prob), (fpi_explicit_solve, prob),
                     (ms.sum_splitting_pi, sum_prob)):
        with pytest.raises(ValueError) as e:
            solve(p, gamma=1.0, relaxation=0.0)
        messages.append(str(e.value))
    assert messages == ["relaxation value 0.0 at n=0 outside admissible range "
                        "[0.001, 1.0]"] * 3


def test_step_schedules_are_not_relaxations():
    # a step schedule has no divergence certificate, is not accepted as a
    # relaxation, and its constant marker is set only by constant_steps
    prob = box_identity_problem()
    with pytest.raises(TypeError):
        StepSchedule(lambda n: 1.0, divergent_sum=True)
    with pytest.raises(TypeError):
        fdr_solve(prob, gamma=1.0, relaxation=constant_steps(0.5))
    steps = constant_steps(1.0)
    assert steps.constant_value == 1.0
    assert StepSchedule(lambda n: 1.0).constant_value is None
    with pytest.raises(AttributeError):
        steps.constant_value = 2.0
    with pytest.raises(AttributeError):
        ms.constant_relaxation(1.0).constant_value = 2.0


def test_fpi_l1_over_zero_mean_plane():
    # minimizing |x_1| + |x_2| over the zero-mean line has its only
    # stationary point at the origin
    prob = InclusionProblem(subdifferential_abs(2), zero_cocoercive(2),
                            zero_mean_projector(2))
    res = fpi_solve(prob, gamma=1.0, tol=1e-10)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-9)


def test_fpi_whole_space_is_forward_backward():
    # 0 in N_[0,inf) x + (x - 2) has the unique solution 2
    prob = InclusionProblem(normal_cone_box([0.0], [np.inf]),
                            affine_gradient(np.eye(1), [2.0]),
                            identity_projector(1))
    res = fpi_solve(prob, gamma=1.0, tol=1e-12)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.x, [2.0], atol=1e-10)


def test_fpi_user_oracle_matches_builtin_path():
    prob = box_identity_problem()
    oracle = closed_form_oracle(prob)
    r1 = fpi_solve(prob, gamma=1.0, relaxation=0.7, x0=[2.0, 2.0],
                   y0=[0.5, -0.5], tol=-1.0, max_iters=100, trace=True)
    r2 = fpi_solve(prob, gamma=1.0, relaxation=0.7, x0=[2.0, 2.0],
                   y0=[0.5, -0.5], oracle=oracle, tol=-1.0, max_iters=100,
                   trace=True)
    for (x1, y1), (x2, y2) in zip(r1.trace, r2.trace):
        np.testing.assert_allclose(x1, x2, atol=1e-12)
        np.testing.assert_allclose(y1, y2, atol=1e-12)


def test_fpi_explicit_is_forward_backward_on_partial_inverse(rng):
    # r_n = x_n + gamma y_n follows r_{n+1} = r_n + lambda (J(s_n) - r_n) with
    # J(s) = P_V p + (Id - P_V)(s - p), p = J_{gamma A} s, the resolvent of the
    # partial inverse of gamma A
    V = random_subspace_projector(rng, 4, rank=2)
    A = subdifferential_abs(4)
    B = affine_gradient(random_spd(rng, 4))
    prob = InclusionProblem(A, B, V)
    gamma, lam = 0.8 * B.beta, 0.7
    x0 = V(rng.standard_normal(4))
    y0 = V.complement(rng.standard_normal(4))
    res = fpi_explicit_solve(prob, gamma=gamma, relaxation=lam, x0=x0, y0=y0,
                             tol=-1.0, max_iters=60, trace=True)
    for (x, y), (x_next, y_next) in zip(res.trace, res.trace[1:]):
        s = x - gamma * V(B(x)) + gamma * y
        p = A.resolve(gamma, s)
        r = x + gamma * y
        expected = r + lam * (V(p) + V.complement(s - p) - r)
        drift = np.linalg.norm(x_next + gamma * y_next - expected)
        assert drift <= 1e-9 * (1.0 + np.linalg.norm(r))


def test_fpi_bad_oracle_aborts():
    prob = box_identity_problem()

    def broken(x, y, delta, gamma, PBx):
        p, q = closed_form_oracle(prob)(x, y, delta, gamma, PBx)
        return p + 0.1, q

    with pytest.raises(OracleError, match="Step 1 oracle"):
        fpi_solve(prob, gamma=1.0, oracle=broken,
                  x0=[2.0, 2.0], max_iters=10)


def test_fpi_oracle_is_a_plain_callable():
    prob = box_identity_problem()
    deltas = []

    def oracle(x, y, delta, gamma, PBx):
        deltas.append(delta)
        s = x - gamma * PBx + gamma * y
        p = prob.A.resolve(gamma, s)
        return p, (s - p) / gamma

    res = fpi_solve(prob, gamma=1.0, oracle=oracle, x0=[2.0, 2.0])
    assert res.status == ms.CONVERGED
    assert deltas == [1.0] * (res.iterations + 1)
    ref = fpi_solve(prob, gamma=1.0, oracle=closed_form_oracle(prob), x0=[2.0, 2.0])
    assert res.x.tobytes() == ref.x.tobytes()


def test_fpi_varying_delta_requires_oracle():
    prob = box_identity_problem()
    with pytest.raises(ValueError, match="require a user oracle"):
        fpi_solve(prob, gamma=1.0, steps=0.5)


def test_fpi_delta_oracle_with_nonunit_step():
    # delta != 1: drive Step 1 through the partial-inverse closed form of the
    # rescaled splitting J_{delta (gamma A)_V} to build an admissible pair
    prob = InclusionProblem(ms.linear_monotone(np.diag([1.0, 3.0]), b=[-1.0, 2.0]),
                            affine_gradient(np.eye(2)),
                            span_projector([1.0, 1.0]))
    V = prob.V

    def oracle_fn(x, y, delta, gamma, PBx):
        # find p, q from the defining system using the scaled operator view:
        # with u = P_V p + (Id-P)p/delta required to satisfy w in A u, solve
        # the linear system directly for this affine A
        target = x - delta * gamma * PBx + gamma * y
        M, b = np.diag([1.0, 3.0]), np.array([-1.0, 2.0])
        d = len(target)
        # unknowns p; q = (target - p)/gamma; build the linear equations of
        # the scaled inclusion: Pq/delta + (Id-P)q = A(Pp + (Id-P)p/delta)
        Pm = np.array([V(e) for e in np.eye(d)]).T
        Cm = np.eye(d) - Pm
        lhs = (Pm / delta + Cm) @ (np.eye(d) / gamma)
        rhs_mat = M @ (Pm + Cm / delta)
        # (lhs applied to (target - p)) = rhs_mat p + b
        full = lhs + rhs_mat
        p = np.linalg.solve(full, lhs @ target - b)
        q = (target - p) / gamma
        return p, q

    res = fpi_solve(prob, gamma=0.8, steps=1.5,
                    oracle=oracle_fn,
                    tol=1e-10, max_iters=20000)
    assert res.status == ms.CONVERGED
    # the limit solves the inclusion: cross-check against the unit-step run
    ref = fpi_solve(prob, gamma=0.8, tol=1e-12)
    np.testing.assert_allclose(res.x, ref.x, atol=1e-7)


def test_fpi_explicit_trivial_stationary():
    prob = InclusionProblem(zero_operator(2), zero_cocoercive(2),
                            span_projector([1.0, 0.0]))
    res = fpi_explicit_solve(prob, gamma=1.0, x0=[2.0, 0.0], y0=[0.0, 3.0],
                             tol=1e-12, trace=True)
    assert res.status == ms.CONVERGED
    for x, _ in res.trace:
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.y, [0.0, 0.0], atol=1e-12)


def test_fpi_explicit_box_identity():
    res = fpi_explicit_solve(box_identity_problem(), gamma=1.0, tol=1e-10)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_fpi_explicit_collapses_to_forward_backward(rng):
    # with V the whole space the iterates must match the textbook recursion
    # x <- x + lam (J_{gamma A}(x - gamma B x) - x) coordinatewise
    Q = random_spd(rng, 3)
    b = rng.standard_normal(3)
    A = subdifferential_abs(3)
    B = affine_gradient(Q, b)
    prob = InclusionProblem(A, B, identity_projector(3))
    gamma, lam = 0.6 * B.beta, 0.9
    x0 = rng.standard_normal(3)
    res = fpi_explicit_solve(prob, gamma=gamma, relaxation=lam, x0=x0,
                             tol=-1.0, max_iters=100, trace=True)
    x = x0.copy()
    for n, (xn, yn) in enumerate(res.trace):
        np.testing.assert_allclose(xn, x, atol=1e-12)
        np.testing.assert_allclose(yn, np.zeros(3), atol=1e-12)
        x = x + lam * (A.resolve(gamma, x - gamma * B(x)) - x)


def test_fpi_gamma_and_relaxation_validation():
    prob = box_identity_problem()
    with pytest.raises(ValueError, match="positive"):
        fpi_solve(prob, gamma=-1.0)
    with pytest.raises(ValueError, match="]0, 2\\*beta\\["):
        fpi_explicit_solve(prob, gamma=2.0)
    with pytest.raises(ValueError, match="admissible range \\["):
        fpi_explicit_solve(prob, gamma=1.0, relaxation=1.2)
    # delta = 1 admissibility forces gamma away from the top of the range
    with pytest.raises(ValueError, match="outside admissible range"):
        fpi_solve(prob, gamma=1.9999)


def test_fpi_initial_membership_validation():
    prob = box_identity_problem()
    with pytest.raises(ValueError, match="x0 must lie in the subspace"):
        fpi_solve(prob, gamma=1.0, x0=[1.0, 0.0])
    with pytest.raises(ValueError, match="orthogonal complement"):
        fpi_solve(prob, gamma=1.0, y0=[1.0, 1.0])
    # a violation of 7.07e-7 on the diagonal is far above the 1e-9 tolerance
    with pytest.raises(ValueError, match="x0 must lie in the subspace"):
        fpi_solve(prob, gamma=1.0, x0=[1.0, 1.0 + 1e-6])


def test_fpi_memberships_along_run(rng):
    Qf = random_spd(rng, 5)
    Qg = random_spd(rng, 5)
    prob = InclusionProblem(ms.linear_monotone(Qf, b=rng.standard_normal(5)),
                            affine_gradient(Qg, rng.standard_normal(5)),
                            random_subspace_projector(rng, 5, rank=3))
    res = fpi_solve(prob, tol=1e-10, trace=True)
    assert res.status == ms.CONVERGED
    # every iterate: x_n in V, y_n in its complement
    for x, y in res.trace:
        assert max(relative_memberships(prob.V, x, y)) <= 1e-12
    assert res.membership_violation == max(relative_memberships(prob.V, res.x, res.y))
    # the forward term stabilizes at the end of the run
    assert forward_gaps(prob, res)[-2] <= 1e-6


def test_fpi_projector_and_forward_call_counts(rng):
    # per step: P_V B x and P_V p on the explicit path; on the oracle path
    # P_V B x (handed to the oracle), P_V p and P_V q.  The default start
    # needs no membership check; the returned pair costs two projections.
    base = InclusionProblem(ms.linear_monotone(random_spd(rng, 5)),
                            affine_gradient(random_spd(rng, 5),
                                            rng.standard_normal(5)),
                            random_subspace_projector(rng, 5, rank=3))
    for solve, n_proj, n_fwd in (
            (lambda p: fpi_explicit_solve(p, tol=-1.0, max_iters=9, trace=True),
             2 * 10 + 2, 10),
            (lambda p: fpi_solve(p, oracle=closed_form_oracle(p), tol=-1.0,
                                 max_iters=9, trace=True),
             3 * 10 + 2, 10)):
        prob, counts = counting_problem(base)
        res = solve(prob)
        assert res.iterations == 9 and len(res.trace) == 10
        assert counts == {"V": n_proj, "B": n_fwd}


def test_fpi_step1_certificate_property(rng):
    # on the oracle path every accepted pair satisfies the defining
    # conditions; run with the closed form passed AS a user oracle so the
    # verification executes, and confirm it never trips
    prob = InclusionProblem(subdifferential_abs(3), affine_gradient(np.eye(3)),
                            zero_mean_projector(3))
    res = fpi_solve(prob, gamma=0.5, oracle=closed_form_oracle(prob),
                    x0=prob.V(rng.standard_normal(3)), tol=1e-10)
    assert res.status == ms.CONVERGED


def test_reflected_fixed_point_is_zero_of_partial_inverse_sum():
    # the subspace reflection maps fixed points of the Douglas-Rachford
    # composition onto zeros of the partial-inverse-plus-forward sum: the
    # reflected point is fixed under one forward-backward step
    prob = box_identity_problem()
    gamma = 1.0
    res = ms.fdr_solve(prob, gamma=gamma, tol=1e-12)
    z = res.x - gamma * res.y
    r = prob.V.reflect(z)
    forward = gamma * prob.V(prob.B(prob.V(r)))
    step = partial_inverse_resolvent(prob.A, prob.V, gamma, r - forward)
    assert np.linalg.norm(step - r) <= 1e-10


def _fdr_from(prob, gamma, lam, x0, y0, n_iters):
    """The trace of ``fdr_solve`` started at ``z0 = x0 - gamma * y0``."""
    z0 = np.asarray(x0, float) - gamma * np.asarray(y0, float)
    return fdr_solve(prob, gamma=gamma, relaxation=lam, z0=z0, tol=-1.0,
                     max_iters=n_iters, trace=True).trace


def test_fdr_and_fpi_explicit_match_literal_recursion():
    prob = box_identity_problem()
    kw = dict(gamma=1.0, lam=0.9, x0=[2.0, 2.0], y0=[1.0, -1.0], n_iters=200)
    reference = fpi_unit_step_reference(prob, **kw)
    assert trace_deviation(_fdr_from(prob, **kw), reference) <= 1e-10
    res = fpi_explicit_solve(prob, gamma=1.0, relaxation=0.9, x0=[2.0, 2.0],
                             y0=[1.0, -1.0], tol=-1.0, max_iters=200, trace=True)
    assert trace_deviation(res.trace, reference) <= 1e-10


def test_fdr_matches_literal_recursion_exactly_on_trivial_problem():
    prob = InclusionProblem(zero_operator(2), zero_cocoercive(2),
                            span_projector([1.0, 0.0]))
    kw = dict(gamma=1.0, lam=1.0, x0=[1.0, 0.0], y0=[0.0, 2.0], n_iters=50)
    assert trace_deviation(_fdr_from(prob, **kw),
                           fpi_unit_step_reference(prob, **kw)) == 0.0


def test_mismatched_start_departs_from_literal_recursion():
    # negative control: the DR form started from another dual point
    prob = box_identity_problem()
    kw = dict(gamma=1.0, lam=1.0, x0=[2.0, 2.0], n_iters=30)
    deviation = trace_deviation(_fdr_from(prob, y0=[0.5, -0.5], **kw),
                                fpi_unit_step_reference(prob, y0=[1.0, -1.0], **kw))
    assert deviation > 1e-3
