import concurrent.futures

import numpy as np
import pytest
import scipy.linalg

from monosplit import (AveragedOperator, CocoerciveMap, affine_gradient,
                       identity_projector, linear_monotone, normal_cone_box,
                       normal_cone_of_subspace, span_projector,
                       quadratic_smooth, subdifferential_abs, zero_cocoercive,
                       zero_operator, zero_projector)
from monosplit.operators import _CachedAffineSolve, _clamp
from conftest import matrix_layouts, random_spd, random_subspace_projector
from theory import (audit_cocoercivity, audit_firm_nonexpansiveness,
                    certify_averaged, partial_inverse_resolvent,
                    partial_inverse_residual, translate_operator)


def test_reflected_resolvent_zero_operator(rng):
    A = zero_operator(3)
    x = rng.standard_normal(3)
    np.testing.assert_allclose(A.reflected(1.0, x), x)


def test_reflected_resolvent_normal_cone_is_subspace_reflection(rng):
    P = random_subspace_projector(rng, 4)
    A = normal_cone_of_subspace(P)
    for gamma in (0.5, 1.0, 3.0):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(A.reflected(gamma, x), P.reflect(x))


def test_reflected_resolvent_soft_threshold():
    A = subdifferential_abs(1)
    # J(3) = 2 at gamma 1, so the reflection is 2*2 - 3 = 1
    np.testing.assert_allclose(A.reflected(1.0, [3.0]), [1.0])


def test_resolvent_validation():
    A = zero_operator(2)
    with pytest.raises(ValueError, match="positive"):
        A.resolve(0.0, np.zeros(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        A.resolve(1.0, np.zeros(3))


def test_partial_inverse_whole_space(rng):
    A = subdifferential_abs(3)
    P = identity_projector(3)
    for _ in range(10):
        s = rng.standard_normal(3)
        gamma = rng.uniform(0.2, 3.0)
        np.testing.assert_allclose(partial_inverse_resolvent(A, P, gamma, s),
                                   A.resolve(gamma, s), atol=1e-12)


def test_partial_inverse_trivial_subspace(rng):
    A = normal_cone_box([-1.0, -1.0], [1.0, 1.0])
    P = zero_projector(2)
    for _ in range(10):
        s = rng.standard_normal(2) * 3
        gamma = rng.uniform(0.2, 3.0)
        np.testing.assert_allclose(partial_inverse_resolvent(A, P, gamma, s),
                                   s - A.resolve(gamma, s), atol=1e-12)


def test_partial_inverse_diagonal_example():
    A = subdifferential_abs(2)
    P = span_projector([1.0, 1.0])
    z = partial_inverse_resolvent(A, P, 1.0, [3.0, 1.0])
    # p = soft((3,1), 1) = (2,0); P p = (1,1); s - p = (1,1) lies in the span
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-14)
    assert partial_inverse_residual(A, P, 1.0, [3.0, 1.0], z) <= 1e-12


def test_partial_inverse_unfolding_random(rng):
    families = [subdifferential_abs(4),
                normal_cone_box(-np.ones(4), np.ones(4)),
                linear_monotone(np.diag([1.0, 2.0, 0.5, 3.0]))]
    for _ in range(30):
        A = families[rng.integers(len(families))]
        P = random_subspace_projector(rng, 4)
        gamma = rng.uniform(0.1, 5.0)
        s = 3 * rng.standard_normal(4)
        z = partial_inverse_resolvent(A, P, gamma, s)
        assert partial_inverse_residual(A, P, gamma, s, z) <= 1e-9


def test_certify_identity_passes():
    T = AveragedOperator(lambda x: x.copy(), 0.5, 3)
    report = certify_averaged(T, samples=200)
    assert report.passed
    assert report.worst_violation <= 0.0


def test_certify_negation_fails():
    # -Id is nonexpansive but not averaged; at x=1, y=0 the inequality reads
    # 1 <= 1 - 1*4, a violation of 4
    T = AveragedOperator(lambda x: -x, 0.5, 1)
    x, y = np.array([1.0]), np.array([0.0])
    lhs = np.dot(-x + y, -x + y)
    rhs = np.dot(x - y, x - y) - 1.0 * np.dot(2 * x - 2 * y, 2 * x - 2 * y)
    assert lhs - rhs == pytest.approx(4.0)
    report = certify_averaged(T, samples=200)
    assert not report.passed
    assert report.worst_violation > 0.0


def test_averagedness_inequality_forms_agree(rng):
    # the norm form ||Tx-Ty||^2 <= ||x-y||^2 - ((1-a)/a)||(Id-T)x-(Id-T)y||^2
    # and the inner-product form 2(1-a)<x-y, Tx-Ty> >= ||Tx-Ty||^2
    # + (1-2a)||x-y||^2 carry the same content: their violations differ
    # exactly by the factor a
    cases = [
        (AveragedOperator(lambda x: subdifferential_abs(2).resolve(1.0, x), 0.5, 2), True),
        (AveragedOperator(lambda x: 0.25 * x, 0.75, 2), True),
        (AveragedOperator(lambda x: -x, 0.5, 2), False),
    ]
    for T, expect_pass in cases:
        a = T.alpha
        for _ in range(50):
            x, y = rng.standard_normal((2, 2))
            e, d = x - y, T(x) - T(y)
            r = e - d
            v2 = np.dot(d, d) - (np.dot(e, e) - (1 - a) / a * np.dot(r, r))
            v3 = np.dot(d, d) + (1 - 2 * a) * np.dot(e, e) - 2 * (1 - a) * np.dot(e, d)
            assert v3 == pytest.approx(a * v2, abs=1e-12)
        report = certify_averaged(T, samples=200)
        assert report.passed == expect_pass


def test_certify_soft_threshold_resolvent_passes():
    A = subdifferential_abs(2)
    T = AveragedOperator(lambda x: A.resolve(1.0, x), 0.5, 2)
    report = certify_averaged(T, samples=500)
    assert report.passed, report


def test_builtins_firmly_nonexpansive(rng):
    P = random_subspace_projector(rng, 3)
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -0.5, 0.0]])
    families = [
        zero_operator(3),
        normal_cone_of_subspace(P),
        subdifferential_abs(3),
        subdifferential_abs(3, center=[1.0, -2.0, 0.5]),
        normal_cone_box([-1.0, 0.0, -np.inf], [1.0, np.inf, 2.0]),
        linear_monotone(np.diag([0.5, 1.0, 4.0]) + skew),
    ]
    for A in families:
        report = audit_firm_nonexpansiveness(A, samples=334)
        assert report.passed, (A, report)
        assert report.samples >= 1000


def test_full_domain(rng):
    for A in (subdifferential_abs(3), normal_cone_box(-np.ones(3), np.ones(3)),
              linear_monotone(np.eye(3))):
        for _ in range(20):
            out = A.resolve(rng.uniform(1e-3, 1e3), 1e3 * rng.standard_normal(3))
            assert np.all(np.isfinite(out))


def test_linear_monotone_residual(rng):
    M = np.array([[2.0, 1.0], [-1.0, 3.0]])
    A = linear_monotone(M)
    for gamma in (0.1, 1.0, 10.0):
        for _ in range(20):
            x = 10 * rng.standard_normal(2)
            z = A.resolve(gamma, x)
            assert np.linalg.norm(z + gamma * M @ z - x) <= 1e-10 * np.linalg.norm(x)


def test_linear_monotone_offset_zero():
    # A x = x - 4 has its zero at 4: the resolvent fixed point
    A = linear_monotone(np.eye(1), b=[-4.0])
    z = A.resolve(1.0, np.array([4.0]))
    np.testing.assert_allclose(z, [4.0])


def test_linear_monotone_rejects_nonmonotone():
    with pytest.raises(ValueError, match="not monotone"):
        linear_monotone([[-1.0, 0.0], [0.0, 1.0]])


def test_linear_monotone_threadsafe_cache(rng):
    A = linear_monotone(np.diag([1.0, 2.0, 3.0]))
    x = rng.standard_normal(3)
    expected = A.resolve(0.7, x)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: A.resolve(0.7, x), range(32)))
    for r in results:
        np.testing.assert_array_equal(r, expected)


@pytest.mark.parametrize("d", [1, 2, 8, 32, 200])
def test_cached_affine_solve_matches_lu_solve(rng, d):
    M = rng.standard_normal((d, d))
    solver = _CachedAffineSolve(M)
    for gamma in (0.3, 1.0, 0.3):  # the second 0.3 reads the cached factors
        lu = scipy.linalg.lu_factor(np.eye(d) + gamma * M)
        for _ in range(5):
            rhs = 10.0 * rng.standard_normal(d)
            assert np.array_equal(solver.solve(gamma, rhs),
                                  scipy.linalg.lu_solve(lu, rhs))
    for bad in (np.nan, np.inf, -np.inf):
        rhs = np.ones(d)
        rhs[-1] = bad
        with pytest.raises(ValueError) as ours:
            solver.solve(1.0, rhs)
        with pytest.raises(ValueError) as ref:
            scipy.linalg.lu_solve(lu, rhs)
        assert str(ours.value) == str(ref.value)


def test_clamp_matches_clip_bytes():
    special = [np.nan, -np.inf, np.inf, -0.0, 0.0, -1.5, 1.5, 2.0, 5e-324]
    bounds = [-np.inf, np.inf, -0.0, 0.0, -1.0, 1.0, 2.0]
    grid = np.array([(x, lo, hi) for x in special for lo in bounds
                     for hi in bounds if not lo > hi])
    x, lo, hi = grid.T
    assert _clamp(1.0, x, lo, hi).tobytes() == np.clip(x, lo, hi).tobytes()
    # stacked blocks: bounds of shape (k, d) against points of shape (k, d)
    k = 4
    X = np.resize(x, (k, x.size))
    L, H = np.resize(lo, (k, lo.size)), np.resize(hi, (k, hi.size))
    assert _clamp(1.0, X, L, H).tobytes() == np.clip(X, L, H).tobytes()


def test_affine_gradient_beta(rng):
    Q = np.diag([1.0, 4.0])
    B = affine_gradient(Q)
    assert B.beta == pytest.approx(0.25)
    # sampled cocoercivity at the certified constant
    for _ in range(100):
        x, y = rng.standard_normal((2, 2))
        d = B(x) - B(y)
        assert np.dot(x - y, d) >= B.beta * np.dot(d, d) - 1e-10


def test_affine_gradient_validation():
    with pytest.raises(ValueError, match="symmetric"):
        affine_gradient([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="positive semidefinite"):
        affine_gradient([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="zero_cocoercive"):
        affine_gradient(np.zeros((2, 2)))


def test_audit_cocoercivity_on_subspace(rng):
    # a map that is cocoercive on a subspace but not globally: double the
    # off-subspace component, identity on the subspace
    P = random_subspace_projector(rng, 4, rank=2)
    B = CocoerciveMap(lambda x: P(x) + 2.0 * (x - P(x)), 1.0, 4)
    on_subspace = audit_cocoercivity(B, projector=P, samples=200)
    assert on_subspace.passed, on_subspace
    # at beta = 1 the global claim fails off the subspace
    everywhere = audit_cocoercivity(B, samples=200)
    assert not everywhere.passed


def test_audit_cocoercivity_affine(rng):
    B = affine_gradient(np.diag([1.0, 4.0]))
    assert audit_cocoercivity(B, samples=300).passed


def test_cocoercive_map_validation():
    with pytest.raises(ValueError, match="positive finite"):
        CocoerciveMap(lambda x: x, 0.0, 2)
    with pytest.raises(ValueError, match="positive finite"):
        CocoerciveMap(lambda x: x, np.inf, 2)
    B = zero_cocoercive(2, beta=5.0)
    np.testing.assert_allclose(B(np.ones(2)), np.zeros(2))


def test_translate_operator():
    A = translate_operator(subdifferential_abs(1), [2.0])
    # prox of |. - 2| at 4 with gamma 1 shrinks toward 2 by 1
    np.testing.assert_allclose(A.resolve(1.0, [4.0]), [3.0])
    np.testing.assert_allclose(A.resolve(1.0, [2.5]), [2.0])


def test_averaged_operator_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        AveragedOperator(lambda x: x, 1.0, 2)
    with pytest.raises(ValueError, match="alpha"):
        AveragedOperator(lambda x: x, 0.0, 2)


def _symmetric_maps(Q, b):
    """The two constructors whose matrix goes through the symmetric kernel."""
    return {"affine_gradient": affine_gradient(Q, b),
            "quadratic_smooth": quadratic_smooth(Q, b).as_cocoercive(),
            "gradient": CocoerciveMap(quadratic_smooth(Q, b), 1.0, Q.shape[0])}


@pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 1000])
def test_symmetric_q_matches_matmul(d):
    rng = np.random.default_rng(d)
    Q = random_spd(rng, d)
    Q = 0.5 * (Q + Q.T)
    assert np.array_equal(Q, Q.T)
    b = rng.standard_normal(d)
    xs = [rng.standard_normal(d) for _ in range(4)]
    for layout, Ql in matrix_layouts(Q).items():
        b_in = b.copy()
        for name, B in _symmetric_maps(Ql, b_in).items():
            for x in xs:
                expected = Q @ x - b
                got = B(x)
                assert (np.abs(got - expected).max()
                        <= 1e-13 * np.abs(expected).max()), (layout, name)
        assert np.array_equal(b_in, b) and np.array_equal(Ql, Q)


def test_nearly_symmetric_q_applied_as_given(rng):
    # symmetric within the tolerance but not exactly: the bits of Q @ x - b
    Q = random_spd(rng, 6)
    Q[0, 1] += 1e-13
    assert not np.array_equal(Q, Q.T)
    b = rng.standard_normal(6)
    maps = _symmetric_maps(Q, b)
    for _ in range(5):
        x = rng.standard_normal(6)
        for B in maps.values():
            assert np.array_equal(B(x), Q @ x - b)


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)])
def test_symmetric_q_maps_reject_wrong_length(shape):
    # the one-triangle kernel would read the first n entries of a longer vector
    Q = np.diag([1.0, 2.0, 3.0, 4.0])
    b = np.ones(4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        affine_gradient(Q, b)(np.ones(shape))
    with pytest.raises(ValueError, match="dimension mismatch"):
        quadratic_smooth(Q, b)(np.ones(shape))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_operators_reject_non_finite_entries(bad):
    Q = np.eye(2)
    Q[0, 1] = bad
    with pytest.raises(ValueError, match="^M has non-finite entries$"):
        linear_monotone(Q)
    with pytest.raises(ValueError, match="^Q has non-finite entries$"):
        affine_gradient(Q)
