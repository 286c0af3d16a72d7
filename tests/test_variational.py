import numpy as np
import pytest

import monosplit as ms
from monosplit import (CocoerciveMap, InclusionProblem, ResolventFamily,
                       box_function, fdr_solve, geometric_errors,
                       l1_function, min_over_subspace,
                       prox_indicator_box, prox_l1, quadratic_function,
                       quadratic_smooth, zero_function,
                       zero_mean_projector, zero_smooth)
from monosplit.variational import advisory_existence_probe
from conftest import (kkt_solution, matrix_layouts, random_spd,
                      random_subspace_projector)
from theory import audit_firm_nonexpansiveness


def test_prox_l1_golden_values():
    assert prox_l1(1.0, np.array([2.0]))[0] == pytest.approx(1.0)
    assert prox_l1(1.0, np.array([0.5]))[0] == pytest.approx(0.0)
    np.testing.assert_allclose(prox_l1(0.5, np.array([-2.0, 0.3])), [-1.5, 0.0])


def test_prox_l1_optimality_brute_force(rng):
    # the prox minimizes |v| + (v - x)^2 / (2 gamma): check on a fine grid
    for _ in range(10):
        x = float(3 * rng.standard_normal())
        gamma = float(rng.uniform(0.1, 2.0))
        grid = np.linspace(-6.0, 6.0, 240001)
        objective = np.abs(grid) + (grid - x) ** 2 / (2 * gamma)
        best = grid[np.argmin(objective)]
        assert prox_l1(gamma, np.array([x]))[0] == pytest.approx(best, abs=1e-4)


def test_prox_l1_moreau_sanity(rng):
    for _ in range(50):
        x = 5 * rng.standard_normal(4)
        gamma = float(rng.uniform(0.05, 3.0))
        assert np.all(np.abs(x - prox_l1(gamma, x)) <= gamma + 1e-12)


def test_prox_box_golden_values():
    x = np.array([0.5, 0.25])
    np.testing.assert_allclose(prox_indicator_box([0.0, 0.0], [1.0, 1.0], 1.0, x), x)
    np.testing.assert_allclose(
        prox_indicator_box([0.0, 0.0], [1.0, 1.0], 1.0, np.array([5.0, -5.0])),
        [1.0, 0.0])
    np.testing.assert_allclose(
        prox_indicator_box([0.0, 0.0], [1.0, 1.0], 10.0, np.array([5.0, -5.0])),
        [1.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        prox_indicator_box([0.0], [1.0], 0.0, np.array([5.0]))


def test_prox_functions_firmly_nonexpansive(rng):
    for f in (l1_function(3), box_function([-1.0] * 3, [1.0] * 3),
              quadratic_function(random_spd(rng, 3)), zero_function(3)):
        report = audit_firm_nonexpansiveness(f.as_resolvent(), samples=200)
        assert report.passed, (f.label, report)


def test_quadratic_values_take_lists():
    Q, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, -1.0])
    for make in (quadratic_smooth, quadratic_function):
        value = make(Q, b).value
        assert value([1.0, 2.0]) == value(np.array([1.0, 2.0])) == 10.0


def test_quadratic_smooth_lipschitz_examples():
    assert quadratic_smooth(np.eye(2)).lipschitz == pytest.approx(1.0)
    assert quadratic_smooth(np.diag([1.0, 4.0])).lipschitz == pytest.approx(4.0)
    g = quadratic_smooth(np.eye(2))
    np.testing.assert_allclose(g(np.array([1.0, 1.0])), [1.0, 1.0])


@pytest.mark.parametrize("d", [2, 3, 8, 200])
def test_quadratic_value_matches_formula(d):
    # the value applies an exactly symmetric Q with the one-triangle kernel,
    # from every storage layout; a Q symmetric only within the tolerance is
    # applied as given
    rng = np.random.default_rng(d)
    Q = random_spd(rng, d)
    Q = 0.5 * (Q + Q.T)
    assert np.array_equal(Q, Q.T)
    b = rng.standard_normal(d)
    for Ql in matrix_layouts(Q).values():
        for f in (quadratic_smooth(Ql, b), quadratic_function(Ql, b)):
            for _ in range(3):
                x = rng.standard_normal(d)
                quad, lin = 0.5 * x @ Q @ x, b @ x
                assert abs(f.value(x) - (quad - lin)) <= 1e-12 * (1.0 + abs(quad) + abs(lin))
    Q[0, -1] += 1e-13
    x = rng.standard_normal(d)
    for f in (quadratic_smooth(Q, b), quadratic_function(Q, b)):
        assert f.value(x) == float(0.5 * (x @ (Q @ x)) - b @ x)


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    for g in (quadratic_smooth(random_spd(rng, 4), rng.standard_normal(4)),
              zero_smooth(4)):
        for _ in range(10):
            x = rng.standard_normal(4)
            grad = g(x)
            fd = np.empty(4)
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                fd[k] = (g.value(x + e) - g.value(x - e)) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(fd - grad) <= 1e-5 * scale


def test_min_over_subspace_projection_case(rng):
    # with f = 0 the constrained minimizer of |x - c|^2/2 is the projection
    c = rng.standard_normal(4)
    V = random_subspace_projector(rng, 4, rank=2)
    res = min_over_subspace(zero_function(4), quadratic_smooth(np.eye(4), c),
                            V, gamma=1.0, tol=1e-11)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.x, V(c), atol=1e-9)


def _l1_quadratic_oracle():
    # on the zero-mean line x = (t, -t) the objective is 2|t| + (t-3)^2
    grid = np.linspace(-10.0, 10.0, 800001)
    values = 2 * np.abs(grid) + (grid - 3.0) ** 2
    return grid[np.argmin(values)]


def test_min_over_subspace_l1_quadratic():
    t_star = _l1_quadratic_oracle()
    assert t_star == pytest.approx(2.0, abs=1e-4)
    f = l1_function(2)
    g = quadratic_smooth(np.eye(2), np.array([3.0, -3.0]))
    res = min_over_subspace(f, g, zero_mean_projector(2), gamma=1.0, tol=1e-11)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.x, [2.0, -2.0], atol=1e-8)


def test_min_over_subspace_errored_run_close():
    f = l1_function(2)
    g = quadratic_smooth(np.eye(2), np.array([3.0, -3.0]))
    res = min_over_subspace(f, g, zero_mean_projector(2), gamma=1.0, tol=1e-10,
                            a_errors=ms.geometric_errors(2, 1.0, 0.5),
                            b_errors=ms.geometric_errors(2, 1.0, 0.5))
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.x, [2.0, -2.0], atol=1e-6)


def test_objective_endpoint_descent():
    f = l1_function(2)
    g = quadratic_smooth(np.eye(2), np.array([3.0, -3.0]))
    res = min_over_subspace(f, g, zero_mean_projector(2), gamma=1.0,
                            z0=[5.0, 1.0], tol=1e-10)
    objs = [r.objective for r in res.history]
    assert objs[0] is not None
    assert objs[-1] <= objs[0]


def test_kkt_oracle_agreement(rng):
    for _ in range(3):
        dim = 5
        Qf, Qg = random_spd(rng, dim), random_spd(rng, dim)
        bf, bg = rng.standard_normal(dim), rng.standard_normal(dim)
        V = random_subspace_projector(rng, dim)
        x_star = kkt_solution(Qf + Qg, bf + bg, V)
        res = min_over_subspace(quadratic_function(Qf, bf),
                                quadratic_smooth(Qg, bg), V, tol=1e-11)
        assert res.status == ms.CONVERGED
        assert np.linalg.norm(res.x - x_star) <= 1e-7


def test_box_function_value():
    f = box_function([0.0, 0.0], [1.0, 1.0])
    assert f.value(np.array([0.5, 0.5])) == 0.0
    assert f.value(np.array([2.0, 0.5])) == np.inf


def test_quadratic_function_prox_interpolates(rng):
    Q = random_spd(rng, 3)
    b = rng.standard_normal(3)
    f = quadratic_function(Q, b)
    for _ in range(10):
        x = rng.standard_normal(3)
        gamma = rng.uniform(0.1, 5.0)
        z = f.resolve(gamma, x)
        np.testing.assert_allclose(z + gamma * (Q @ z - b), x, atol=1e-10)


def test_existence_probe_flags_linear_descent():
    # f(x) = -x is unbounded below on the whole line
    f = quadratic_function(np.zeros((1, 1)), b=np.array([1.0]))
    g = zero_smooth(1)
    with pytest.warns(RuntimeWarning, match="unbounded"):
        ok = advisory_existence_probe(f, g, ms.identity_projector(1))
    assert not ok


def test_existence_probe_quiet_on_coercive():
    f = l1_function(2)
    g = quadratic_smooth(np.eye(2))
    assert advisory_existence_probe(f, g, zero_mean_projector(2))


def test_probe_hook_in_solver():
    f = quadratic_function(np.zeros((1, 1)), b=np.array([1.0]))
    g = zero_smooth(1)
    with pytest.warns(RuntimeWarning, match="unbounded"):
        advisory_existence_probe(f, g, ms.identity_projector(1))
        min_over_subspace(f, g, ms.identity_projector(1), gamma=1.0,
                          max_iters=3, tol=-1.0)


def test_function_objects_are_the_operators():
    f = l1_function(2)
    g = quadratic_smooth(np.diag([1.0, 4.0]), [3.0, -3.0])
    assert isinstance(f, ResolventFamily) and f.as_resolvent() is f
    assert isinstance(g, CocoerciveMap) and g.as_cocoercive() is g
    assert g.lipschitz == 4.0 and g.beta == 1.0 / g.lipschitz


@pytest.mark.parametrize("make_f", [l1_function, lambda d: quadratic_function(np.eye(d))])
def test_min_over_subspace_is_fdr_on_the_functions(make_f):
    d = 3
    f, g = make_f(d), quadratic_smooth(np.diag([1.0, 2.0, 3.0]), [3.0, -3.0, 1.0])
    V = zero_mean_projector(d)
    kw = dict(gamma=0.4, relaxation=0.9, a_errors=geometric_errors(d, 0.5, 0.5),
              z0=[1.0, -2.0, 0.5], max_iters=200, log_every=3)
    ref = fdr_solve(InclusionProblem(f, g, V),
                    objective=lambda x: float(f.value(x)) + float(g.value(x)), **kw)
    res = min_over_subspace(f, g, V, **kw)
    assert res.history[-1].objective is not None
    for name, value in vars(ref).items():
        other = getattr(res, name)
        if isinstance(value, np.ndarray):
            assert value.tobytes() == other.tobytes(), name
        else:
            assert value == other, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadratic_functions_reject_non_finite_entries(bad):
    Q = np.eye(2)
    Q[1, 0] = bad
    for make in (quadratic_function, quadratic_smooth):
        with pytest.raises(ValueError, match="^Q has non-finite entries$"):
            make(Q)
