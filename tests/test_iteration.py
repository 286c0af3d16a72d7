"""Contract of the iteration loop shared by the seven solvers: budget, log
thinning, traces, divergence and the per-iteration schedule checks."""

import numpy as np
import pytest

import monosplit as ms
from monosplit import (InclusionProblem, ProductProblem, RelaxationSchedule,
                       StepSchedule, affine_gradient, build_S, build_T,
                       closed_form_oracle, fdr_solve, fpi_explicit_solve,
                       fpi_solve, geometric_errors, km_solve, l1_function,
                       linear_monotone, min_over_subspace, normal_cone_box,
                       parallel_dr2, quadratic_function, quadratic_smooth,
                       span_projector, sum_splitting_pi, sum_splitting_solve,
                       zero_mean_projector)
from monosplit.km import _iterate
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


def test_growth_bound_is_relative_to_the_start():
    # a start beyond GROWTH_LIMIT is not growth: the run converges; started
    # at 1e20, the expanding map passes GROWTH_LIMIT before it is stopped
    assert fdr_solve(inclusion(box()), z0=[1e150, 1e150]).status == ms.CONVERGED
    res = fdr_solve(inclusion(expanding()), z0=[1e20, 1e20], max_iters=200)
    assert res.status == ms.DIVERGED
    assert ms.km.GROWTH_LIMIT < np.abs(res.x).max() < np.inf


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


def test_state_checked_where_the_residual_cannot_see_it():
    # y turns NaN at n = 3 while x and the residual stay finite: only the
    # per-iteration state check stops the run, at the last finite pair
    def step(n, state):
        x, y = state
        y_next = np.full(2, np.nan) if n == 3 else y + 1.0
        return 1.0, x, y, None, lambda lam: (x + lam, y_next)

    run = _iterate((np.zeros(2), np.zeros(2)), step, lambda n: 1.0, -1.0, 50,
                   1, False, np.linalg.norm, log_dy=True)
    assert run.status == ms.DIVERGED
    assert run.iterations == 4
    np.testing.assert_array_equal(run.x, [3.0, 3.0])
    np.testing.assert_array_equal(run.y, [3.0, 3.0])
    assert [r.n for r in run.history] == [0, 1, 2, 3]


class StrictResolvent:
    """The public face of a resolvent family, with no attribute forwarding."""

    __slots__ = ("dim", "_A")

    def __init__(self, A):
        self.dim, self._A = A.dim, A

    def resolve(self, gamma, x):
        return self._A.resolve(gamma, x)

    def reflected(self, gamma, x):
        return self._A.reflected(gamma, x)


class StrictForward:
    __slots__ = ("dim", "beta", "_B")

    def __init__(self, B):
        self.dim, self.beta, self._B = B.dim, B.beta, B

    def __call__(self, x):
        return self._B(x)


class StrictInner:
    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

    def norm(self, x):
        return self._inner.norm(x)


class StrictProjector:
    __slots__ = ("dim", "inner", "_V")

    def __init__(self, V):
        self.dim, self.inner, self._V = V.dim, StrictInner(V.inner), V

    def __call__(self, x):
        return self._V(x)

    def complement(self, x):
        return self._V.complement(x)

    def reflect(self, x):
        return self._V.reflect(x)


class StrictProx:
    """``f`` or ``g`` of the variational front end, handing out strict maps."""

    __slots__ = ("value", "_f")

    def __init__(self, f):
        self.value, self._f = f.value, f

    def as_resolvent(self):
        return StrictResolvent(self._f.as_resolvent())

    def as_cocoercive(self):
        return StrictForward(self._f.as_cocoercive())


def assert_same_result(a, b):
    assert type(a) is type(b)
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        else:
            assert value == other, name


def contract_problems():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((4, 4))
    Q = G @ G.T + np.eye(4)
    yield InclusionProblem(normal_cone_box([1.0, 1.0], [2.0, 2.0]), forward(),
                           span_projector([1.0, 1.0]))
    yield InclusionProblem(linear_monotone(np.eye(4) + G - G.T, rng.standard_normal(4)),
                           affine_gradient(Q, rng.standard_normal(4)),
                           zero_mean_projector(4))


@pytest.mark.parametrize("prob", list(contract_problems()), ids=["box", "linear"])
def test_solvers_reach_operators_only_through_public_calls(prob):
    # the benchmark's traced run counts calls through proxies of A, B, V and
    # V.inner; a solver that reached past the public methods would make those
    # counts read low, and here it would fail on a missing attribute
    strict = InclusionProblem(StrictResolvent(prob.A), StrictForward(prob.B),
                              StrictProjector(prob.V))
    errs = geometric_errors(prob.dim, 0.1, 0.5)
    runs = [
        lambda p: fdr_solve(p, max_iters=300),
        lambda p: fdr_solve(p, a_errors=errs, b_errors=errs, max_iters=300),
        lambda p: fpi_solve(p, max_iters=300),
        lambda p: fpi_solve(p, oracle=closed_form_oracle(p), max_iters=300),
        lambda p: fpi_explicit_solve(p, relaxation=0.9, max_iters=300),
        lambda p: km_solve([build_T(p.A, p.V, p.beta), build_S(p.B, p.V, p.beta)],
                           inner=p.V.inner, max_iters=300),
    ]
    for solve in runs:
        assert_same_result(solve(strict), solve(prob))

    d = prob.dim
    f, g = l1_function(d), quadratic_smooth(np.diag(np.arange(1.0, d + 1)), np.ones(d))
    assert_same_result(
        min_over_subspace(StrictProx(f), StrictProx(g), StrictProjector(prob.V),
                          max_iters=300),
        min_over_subspace(f, g, prob.V, max_iters=300))
    h = quadratic_function(np.eye(d), np.ones(d))
    assert_same_result(
        min_over_subspace(StrictProx(h), StrictProx(g), StrictProjector(prob.V),
                          max_iters=300),
        min_over_subspace(h, g, prob.V, max_iters=300))


def test_iteration_row_contract():
    row = ms.IterationRow(3, 0.5, 1e-3, 0.25)
    assert ms.IterationRow._fields == ("n", "lam", "residual", "dx", "dy",
                                       "objective")
    assert row.dy is None and row.objective is None
    for name in ms.IterationRow._fields:
        with pytest.raises(AttributeError):
            setattr(row, name, 0.0)
    assert row == ms.IterationRow(3, 0.5, 1e-3, 0.25, None, None)
    assert row != ms.IterationRow(3, 0.5, 2e-3, 0.25)
    assert row._asdict() == {"n": 3, "lam": 0.5, "residual": 1e-3, "dx": 0.25,
                             "dy": None, "objective": None}
