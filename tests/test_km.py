import numpy as np
import pytest

import monosplit as ms
from monosplit import (AveragedOperator, ErrorSchedule, InclusionProblem,
                       ProductProblem, RelaxationSchedule, composed_alpha,
                       constant_relaxation, fdr_solve, geometric_errors,
                       harmonic_errors, identity_projector, km_solve,
                       linear_monotone, parallel_dr2, polynomial_relaxation,
                       span_projector, sum_splitting_solve, zero_cocoercive,
                       zero_operator)
from theory import per_operator_decay_diagnostic


def proj_op(v):
    P = span_projector(v)
    return AveragedOperator(P, 0.5, P.dim, label="projection")


def test_composed_alpha_single():
    assert composed_alpha([0.5]) == pytest.approx(0.5)


def test_composed_alpha_pair_of_halves():
    # 2*(1/2) / (1 + 1/2) = 2/3
    assert composed_alpha([0.5, 0.5]) == pytest.approx(2.0 / 3.0)


def test_composed_alpha_mixed():
    # 2*(3/4) / (1 + 3/4) = 6/7
    assert composed_alpha([0.5, 0.75]) == pytest.approx(6.0 / 7.0)


def test_composed_alpha_matches_formula(rng):
    for _ in range(20):
        m = int(rng.integers(1, 6))
        alphas = rng.uniform(0.05, 0.95, size=m).tolist()
        expected = m * max(alphas) / (1 + (m - 1) * max(alphas))
        got = composed_alpha(alphas)
        assert got == expected
        assert 0.0 < got < 1.0


def test_composed_alpha_validation():
    with pytest.raises(ValueError, match="nonempty"):
        composed_alpha([])
    with pytest.raises(ValueError, match="]0, 1\\["):
        composed_alpha([0.5, 1.0])


def test_relaxation_open_range():
    constant_relaxation(1.0).validate_open(2.0 / 3.0)
    with pytest.raises(ValueError, match="]0, 1/alpha\\["):
        constant_relaxation(1.5).validate_open(2.0 / 3.0)
    with pytest.raises(ValueError, match="]0, 1/alpha\\["):
        constant_relaxation(0.0).validate_open(0.5)


def test_relaxation_divergence_certificate():
    # summable relaxations are rejected: p > 1 makes the divergence sum finite
    with pytest.raises(ValueError, match="diverge"):
        polynomial_relaxation(1.0, 2.0).validate_open(0.5)
    polynomial_relaxation(1.0, 0.5).validate_open(0.5)


def test_relaxation_partial_sums_grow():
    sched = polynomial_relaxation(1.0, 0.5)
    alpha = 0.5
    terms = [sched(n) * (1 - alpha * sched(n)) for n in range(200)]
    sums = np.cumsum(terms)
    assert np.all(np.diff(sums) >= 0)
    assert sums[-1] > sums[len(sums) // 2]


def test_relaxation_closed_range():
    constant_relaxation(1.0).validate_closed(1e-3, 1.0)
    with pytest.raises(ValueError, match="\\[0.001, 1.0\\]"):
        constant_relaxation(1.2).validate_closed(1e-3, 1.0)


def test_constant_relaxation_audited_on_its_value():
    with pytest.raises(ValueError) as e:
        constant_relaxation(1.5).validate_open(2.0 / 3.0)
    assert str(e.value) == ("relaxation value 1.5 at n=0 outside admissible "
                            "range ]0, 1/alpha[ = ]0, 1.5[")
    with pytest.raises(ValueError) as e:
        constant_relaxation(1.2).validate_closed(1e-3, 1.0)
    assert str(e.value) == ("relaxation value 1.2 at n=0 outside admissible "
                            "range [0.001, 1.0]")
    lam_at = constant_relaxation(1.25).validate_open(0.5)
    assert [lam_at(n) for n in (0, 1, 10**9)] == [1.25] * 3


def test_custom_relaxation_keeps_prefix_audit():
    # the same values as a hand-built schedule are audited term by term
    late = RelaxationSchedule(lambda n: 1.0 if n < 63 else 5.0)
    with pytest.raises(ValueError, match="5.0 at n=63"):
        late.validate_open(0.5)
    with pytest.raises(ValueError, match="5.0 at n=63"):
        late.validate_closed(1e-3, 1.0)
    lam_at = RelaxationSchedule(lambda n: 1.0 if n < 64 else 5.0).validate_open(0.5)
    with pytest.raises(ValueError, match="5.0 at n=64"):
        lam_at(64)


@pytest.mark.parametrize("p, value", [(1e300, "0.0"), (-1e300, "inf")])
def test_polynomial_relaxation_out_of_float_range(p, value):
    sched = polynomial_relaxation(1.0, p)
    assert sched(0) == 1.0
    with pytest.raises(ValueError, match=f"relaxation value {value} at n=1 "
                                         "outside admissible range"):
        sched.validate_closed(1e-3, 1.0)
    assert [polynomial_relaxation(0.9, 0.5)(n) for n in range(3)] == \
        [0.9 / (n + 1) ** 0.5 for n in range(3)]


def test_error_schedule_summable_certificate():
    geometric_errors(2, 1.0, 0.5).validate()
    with pytest.raises(ValueError, match="non-summable"):
        harmonic_errors(2, 1.0).validate()
    with pytest.raises(ValueError, match="non-summable"):
        geometric_errors(2, 1.0, 1.0).validate()


def test_error_schedule_bound_audit():
    lying = ErrorSchedule(lambda n: np.ones(2), lambda n: 0.1, True, 2)
    with pytest.raises(ValueError, match="exceeds the declared bound"):
        lying.validate()


@pytest.mark.parametrize("term, bound", [(np.nan, 1.0), (1.0, np.nan)],
                         ids=["nan-term", "nan-bound"])
def test_error_schedule_audit_refuses_nan(term, bound):
    # a comparison with NaN is false either way round, so the audit asks for
    # the norm to be within the bound rather than for it not to exceed it
    sched = ErrorSchedule(lambda n: np.full(2, term), lambda n: bound, True, 2)
    with pytest.raises(ValueError, match="exceeds the declared bound"):
        sched.validate()


def test_harmonic_errors_reject_zero_direction():
    with pytest.raises(ValueError, match="direction must be nonzero"):
        harmonic_errors(2, 0.1, direction=[0.0, 0.0])
    with pytest.raises(ValueError, match="direction must be nonzero"):
        geometric_errors(2, 0.1, 0.5, direction=[0.0, 0.0])


def test_builtin_error_schedules_audited_on_their_first_term():
    # under weights the unit direction has ||u||_W = sqrt(2) > 1: e_0 breaks
    # the declared bound
    W = ms.InnerProduct(2, weights=[2.0, 2.0])
    with pytest.raises(ValueError, match="at n=0 exceeds the declared bound"):
        geometric_errors(2, 0.1, 0.5).validate(norm=W.norm)
    # a wrong shape is still seen on e_0
    short = geometric_errors(2, 0.1, 0.5)
    short.dim = 3
    with pytest.raises(ValueError, match=r"at n=0 has shape \(2,\), expected \(3,\)"):
        short.validate()


def test_replaced_generator_gets_the_full_prefix_audit():
    sched = geometric_errors(2, 1.0, 0.5, direction=[1.0, 0.0])
    sched.validate()
    clean = sched.generator
    sched.generator = lambda n: clean(n) * (1.0 if n < 10 else 2.0)
    with pytest.raises(ValueError, match="at n=10 exceeds the declared bound"):
        sched.validate()


def test_one_term_audit_gives_the_prefix_verdict(rng):
    # the same schedule with its generator wrapped is audited on 64 terms
    def verdict(sched, norm):
        try:
            sched.validate(norm=norm)
        except ValueError as e:
            return str(e)
        return None

    for _ in range(200):
        d = int(rng.integers(1, 9))
        sched = geometric_errors(d, 10.0 ** rng.uniform(-3, 3), rng.uniform(0.0, 0.99),
                                 direction=rng.standard_normal(d))
        norm = ms.InnerProduct(d, 1.0 + rng.uniform(-1e-8, 1e-8, d)).norm
        full = geometric_errors(d, 1.0, 0.5)
        full.generator, full.bound = (lambda n, g=sched.generator: g(n)), sched.bound
        assert verdict(sched, norm) == verdict(full, norm)


def test_audit_evaluates_one_term_of_builtin_schedules(monkeypatch):
    calls = []
    evaluate = ErrorSchedule.__call__

    def counting(self, n):
        calls.append(n)
        return evaluate(self, n)

    monkeypatch.setattr(ErrorSchedule, "__call__", counting)
    for sched in (geometric_errors(3, 0.1, 0.5), geometric_errors(3, 0.0, 0.5),
                  ms.no_errors(3)):
        calls.clear()
        sched.validate()
        assert calls == [0], sched.label

    calls.clear()
    ErrorSchedule(lambda n: np.full(3, 0.5 ** n), lambda n: 2.0 * 0.5 ** n,
                  True, 3).validate()
    assert calls == list(range(ms.km.VALIDATION_PREFIX))


# each solver's error slots on R^2, fed one schedule
_ERROR_SLOTS = {
    "km": lambda e: km_solve([proj_op([1.0, 1.0])], errors=[e]),
    "fdr": lambda e: fdr_solve(InclusionProblem(zero_operator(2), zero_cocoercive(2),
                                                identity_projector(2)), b_errors=e),
    "sum_splitting-a": lambda e: sum_splitting_solve(
        ProductProblem([zero_operator(2)] * 2), a_errors=e),
    "sum_splitting-b": lambda e: sum_splitting_solve(
        ProductProblem([zero_operator(2)] * 2), b_errors=[None, e]),
    "dr2": lambda e: parallel_dr2(zero_operator(2), zero_operator(2), b2_errors=e),
}


@pytest.mark.parametrize("slot", sorted(_ERROR_SLOTS))
def test_error_schedule_dimension_checked_before_iterating(slot):
    with pytest.raises(ValueError, match="error schedule dimension mismatch"):
        _ERROR_SLOTS[slot](geometric_errors(3, 0.1, 0.5))


def test_km_zero_map_one_iteration():
    T = AveragedOperator(lambda x: np.zeros_like(x), 0.5, 2, label="zero-map")
    res = km_solve([T], z0=[1.0, 1.0])
    assert res.status == ms.CONVERGED
    assert res.iterations == 1
    np.testing.assert_allclose(res.final, [0.0, 0.0])


def test_km_alternating_projections():
    ops = [proj_op([1.0, 1.0]), proj_op([1.0, 0.0])]
    res = km_solve(ops, z0=[0.0, 2.0], tol=1e-10)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.final, [0.0, 0.0], atol=1e-9)


def test_km_summable_errors_still_converge():
    ops = [proj_op([1.0, 1.0]), proj_op([1.0, 0.0])]
    errs = [geometric_errors(2, 1.0, 0.5, direction=[1.0, 0.0]),
            geometric_errors(2, 1.0, 0.5, direction=[1.0, 0.0])]
    res = km_solve(ops, errors=errs, z0=[0.0, 2.0], tol=1e-8)
    assert res.status == ms.CONVERGED
    assert np.linalg.norm(res.final) <= 1e-6


def test_km_rejects_bad_schedule_before_iterating():
    calls = {"n": 0}

    def counting(x):
        calls["n"] += 1
        return x.copy()

    T = AveragedOperator(counting, 0.5, 2)
    with pytest.raises(ValueError, match="]0, 1/alpha\\["):
        km_solve([T], relaxation=5.0, z0=[1.0, 0.0])
    with pytest.raises(ValueError, match="non-summable"):
        km_solve([T], errors=[harmonic_errors(2, 1.0)], z0=[1.0, 0.0])
    assert calls["n"] == 0


def test_km_divergence_detected():
    T = AveragedOperator(lambda x: x * 1e308, 0.5, 2, label="unstable")
    res = km_solve([T], z0=[1.0, 1.0], max_iters=50)
    assert res.status == ms.DIVERGED
    assert np.all(np.isfinite(res.final))
    assert len(res.history) >= 1


def test_km_monitored_decay_and_vanishing_residual():
    ops = [proj_op([1.0, 1.0]), proj_op([1.0, 0.0])]
    lam = 0.9
    res = km_solve(ops, relaxation=lam, z0=[0.0, 2.0], tol=1e-10)
    assert res.status == ms.CONVERGED
    alpha = composed_alpha([0.5, 0.5])
    terms = [r.lam * (1 - alpha * r.lam) * r.residual ** 2 for r in res.history]
    sums = np.cumsum(terms)
    tail_start = int(0.9 * len(sums))
    # the monitored sum is essentially flat over the last 10% of the run
    assert sums[-1] - sums[tail_start] <= 1e-10
    assert res.history[-1].residual <= 1e-10
    assert res.history[-1].dx <= 1e-9


def test_km_fejer_monotone_single_firmly_nonexpansive():
    # resolvent of a rotation field: firmly nonexpansive, unique fixed point 0
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A = linear_monotone(M)
    T = AveragedOperator(lambda x: A.resolve(1.0, x), 0.5, 2)
    res = km_solve([T], relaxation=1.0, z0=[1.0, 1.0], tol=1e-12, trace=True)
    assert res.status == ms.CONVERGED
    dists = [np.linalg.norm(z) for z in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_km_history_schema():
    T = AveragedOperator(lambda x: 0.5 * x, 0.5, 1)
    res = km_solve([T], z0=[1.0], max_iters=10, tol=-1.0, log_every=3)
    ns = [r.n for r in res.history]
    assert ns[0] == 0 and ns[-1] == 10
    assert all(n % 3 == 0 or n == 10 for n in ns)
    assert len(res.history) <= 11


def test_km_max_iters_zero():
    T = AveragedOperator(lambda x: np.zeros_like(x), 0.5, 1)
    res = km_solve([T], z0=[1.0], max_iters=0)
    assert res.status == ms.MAX_ITERS
    assert len(res.history) == 1
    np.testing.assert_allclose(res.final, [1.0])


def test_km_dimension_mismatch():
    with pytest.raises(ValueError, match="same dimension"):
        km_solve([proj_op([1.0, 1.0]), proj_op([1.0, 0.0, 0.0])], z0=[0.0, 0.0])


@pytest.mark.parametrize("weights", [None, [1.0, 2.0, 3.0]])
def test_km_inner_product_must_match_the_operators(weights):
    # a uniform product of the wrong dimension once ran unnoticed, and a
    # weighted one failed mid-run with a broadcasting error
    with pytest.raises(ValueError, match="^inner product dimension does not match"):
        km_solve([proj_op([1.0, 1.0])], z0=[1.0, 0.0], inner=ms.InnerProduct(3, weights))


def test_km_needs_operators_and_one_error_schedule_each():
    with pytest.raises(ValueError, match="ops must be a nonempty list"):
        km_solve([])
    with pytest.raises(ValueError, match="expected 2 error schedules, got 1"):
        km_solve([proj_op([1.0, 1.0]), proj_op([1.0, 0.0])], errors=[None])


def test_per_operator_decay_diagnostic():
    ops = [proj_op([1.0, 1.0]), proj_op([1.0, 0.0])]
    res = km_solve(ops, z0=[0.0, 2.0], tol=1e-12, trace=True)
    totals = per_operator_decay_diagnostic(ops, res)
    assert len(totals) == 2
    assert all(np.isfinite(t) and t >= 0 for t in totals)
    with pytest.raises(ValueError, match="trace"):
        per_operator_decay_diagnostic(ops, km_solve(ops, z0=[0.0, 2.0]))


def _counted(T, counts, key):
    def apply(x):
        counts[key] += 1
        return T(x)

    return AveragedOperator(apply, T.alpha, T.dim)


@pytest.mark.parametrize("where, outer_calls", [("none", 1), ("outer", 1),
                                                ("inner", 2), ("both", 2)])
def test_km_clean_chain_parts_at_the_innermost_error(where, outer_calls):
    # T_1 = outer, T_2 = inner; the error-free chain is evaluated only from
    # the innermost active error on, so T_2 runs once per iteration and T_1
    # twice only when an error enters between them
    d, lam, n_iters = 2, 0.9, 20
    T1 = proj_op([1.0, 1.0])
    T2 = AveragedOperator(lambda x: 0.5 * x + np.array([1.0, -0.5]), 0.5, d)
    e1 = geometric_errors(d, 0.3, 0.7, direction=[1.0, 0.0])
    e2 = geometric_errors(d, 0.2, 0.8, direction=[1.0, 3.0])
    errors = {"none": None, "outer": [e1, None], "inner": [None, e2],
              "both": [e1, e2]}[where]
    counts = {"outer": 0, "inner": 0}
    ops = [_counted(T1, counts, "outer"), _counted(T2, counts, "inner")]
    z0 = np.array([2.0, -1.0])
    res = km_solve(ops, relaxation=lam, errors=errors, z0=z0, tol=-1.0,
                   max_iters=n_iters)
    steps = n_iters + 1
    assert counts == {"outer": outer_calls * steps, "inner": steps}

    # the two-chain recursion: u with the errors, v without them
    e_out, e_in = errors or (None, None)
    norm = ms.spaces.InnerProduct(d).norm
    z, residuals = z0, []
    for n in range(steps):
        final = z
        t = T2(z)
        u = T1(t if e_in is None else t + e_in(n))
        if e_out is not None:
            u = u + e_out(n)
        residuals.append(norm(T1(T2(z)) - z))
        z = z + lam * (u - z)
    assert [row.residual for row in res.history] == residuals
    np.testing.assert_array_equal(res.final, final)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_geometric_errors_reject_negative_or_non_finite_terms(bad):
    for magnitude, rate in ((bad, 0.5), (1.0, bad)):
        with pytest.raises(ValueError, match=r"^magnitude and rate must be nonnegative and finite"):
            geometric_errors(2, magnitude, rate)


def test_zero_error_schedules_are_never_active():
    for sched in (ms.no_errors(2), geometric_errors(2, 0.0, 0.5),
                  geometric_errors(2, -0.0, 0.0)):
        assert not any(sched.active(n) for n in range(100))
    assert [geometric_errors(2, 1.0, 0.0).active(n) for n in range(2)] == [True, False]


@pytest.mark.parametrize("call, message", [
    (lambda: constant_relaxation(1.0).validate_open(1.0), r"^alpha must lie in \]0, 1\[, got 1.0$"),
    (lambda: constant_relaxation(1.0).validate_open(0.0), r"^alpha must lie in \]0, 1\[, got 0.0$"),
    (lambda: km_solve([proj_op([1.0, 1.0])], z0=[1.0, 0.0], max_iters=-1),
     "^max_iters must be nonnegative$"),
    (lambda: km_solve([proj_op([1.0, 1.0])], z0=[1.0, 0.0], log_every=0),
     "^log_every must be at least 1$"),
], ids=["alpha-1", "alpha-0", "max-iters", "log-every"])
def test_library_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
