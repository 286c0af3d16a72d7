"""Contract of the iteration loop shared by the seven solvers: budget, log
thinning, traces, divergence and the per-iteration schedule checks."""

import numpy as np
import pytest

import monosplit as ms
from monosplit import (InclusionProblem, ProductProblem, RelaxationSchedule,
                       StepSchedule, affine_gradient, build_S, build_T,
                       closed_form_oracle, fdr_solve, fpi_explicit_solve,
                       fpi_solve, km_solve, normal_cone_box, parallel_dr2,
                       span_projector, sum_splitting_pi, sum_splitting_solve)
from monosplit.operators import ResolventFamily


def forward():
    # the forward step x - beta B x keeps a part of x, so no run lands on a
    # fixed point after one step by accident
    return affine_gradient(np.diag([1.0, 2.0]), [0.5, -0.25])


def box():
    return normal_cone_box([1.0, 1.0], [2.0, 2.0])


def expanding():
    return ResolventFamily(lambda gamma, x: 1e10 * x + 1.0, 2, label="expanding")


def inclusion(A):
    return InclusionProblem(A, forward(), span_projector([1.0, 1.0]))


def run_km(A, **kw):
    prob = inclusion(A)
    ops = [build_T(prob.A, prob.V, prob.beta), build_S(prob.B, prob.V, prob.beta)]
    res = km_solve(ops, inner=prob.V.inner, **kw)
    return res, res.final


def run_fdr(A, **kw):
    res = fdr_solve(inclusion(A), **kw)
    return res, res.x


def run_fpi(A, **kw):
    res = fpi_solve(inclusion(A), **kw)
    return res, res.x


def run_fpi_explicit(A, **kw):
    res = fpi_explicit_solve(inclusion(A), **kw)
    return res, res.x


def product(A):
    return ProductProblem([A, A], forward())


def run_sum_splitting(A, **kw):
    res = sum_splitting_solve(product(A), **kw)
    return res, res.final


def run_sum_splitting_pi(A, **kw):
    res = sum_splitting_pi(product(A), **kw)
    return res, res.final


def run_dr2(A, **kw):
    res = parallel_dr2(A, A, **kw)
    return res, res.final


SOLVERS = [run_km, run_fdr, run_fpi, run_fpi_explicit, run_sum_splitting,
           run_sum_splitting_pi, run_dr2]


@pytest.mark.parametrize("run", SOLVERS, ids=lambda f: f.__name__[4:])
def test_iteration_contract(run):
    res, _ = run(box(), tol=-1.0, max_iters=0)
    assert res.status == ms.MAX_ITERS
    assert [r.n for r in res.history] == [0]

    res, _ = run(box(), tol=-1.0, max_iters=10, log_every=4, trace=True)
    assert res.status == ms.MAX_ITERS
    assert [r.n for r in res.history] == [0, 4, 8, 10]
    assert len(res.trace) == res.iterations + 1

    res, point = run(expanding(), max_iters=200)
    assert res.status == ms.DIVERGED
    assert np.all(np.isfinite(point))


def late_jump():
    """1 for n < 100, then 5: admissible on the audited prefix only."""
    return RelaxationSchedule(lambda n: 1.0 if n < 100 else 5.0)


@pytest.mark.parametrize("run", SOLVERS, ids=lambda f: f.__name__[4:])
def test_relaxation_checked_on_every_iteration(run):
    with pytest.raises(ValueError, match="at n=100"):
        run(box(), relaxation=late_jump(), tol=-1.0, max_iters=300)


def test_relaxation_range_named_in_late_errors():
    with pytest.raises(ValueError, match=r"5\.0 at n=100 .*\]0, 1/alpha\["):
        run_fdr(box(), relaxation=late_jump(), tol=-1.0, max_iters=300)
    with pytest.raises(ValueError, match=r"5\.0 at n=100 .*\[0\.001, 1\.0\]"):
        run_fpi_explicit(box(), relaxation=late_jump(), tol=-1.0, max_iters=300)
    with pytest.raises(ValueError, match=r"at n=100 .*requires relaxations in \]0, 3/2\["):
        run_dr2(box(), relaxation=late_jump(), tol=-1.0, max_iters=300)


def test_oracle_steps_checked_on_every_iteration():
    prob = inclusion(box())
    steps = StepSchedule(lambda n: 1.0 if n < 100 else 5.0)
    with pytest.raises(ValueError, match="step value 5.0 at n=100"):
        fpi_solve(prob, steps=steps, oracle=closed_form_oracle(prob), tol=-1.0,
                  max_iters=300)
