import concurrent.futures
import mmap
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from monosplit import (AveragedOperator, CocoerciveMap, affine_gradient,
                       box_function, identity_projector, linear_monotone, matrix_projector,
                       normal_cone_box, normal_cone_of_subspace, span_projector,
                       quadratic_function, quadratic_smooth,
                       subdifferential_abs, zero_cocoercive, zero_operator,
                       zero_projector)
from monosplit import operators
from monosplit.operators import _CachedAffineSolve, _clamp, _symmetric_psd
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


@pytest.mark.parametrize("A", [linear_monotone(np.eye(1)),
                               normal_cone_box([0.0], [1.0]),
                               subdifferential_abs(1)],
                         ids=["linear", "box", "abs"])
def test_resolvent_parameter_must_be_finite(A):
    with pytest.raises(ValueError, match="resolvent parameter must be positive and finite"):
        A.resolve(np.inf, np.array([2.0]))


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


@pytest.mark.parametrize("build, name", [
    (affine_gradient, "Q"), (quadratic_function, "Q"), (linear_monotone, "M"),
    (matrix_projector, "projector matrix"),
], ids=["affine-gradient", "quadratic-function", "linear-monotone", "matrix-projector"])
def test_empty_matrices_are_refused(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonempty$"):
        build(np.zeros((0, 0)))


@pytest.mark.parametrize("call, message", [
    (lambda: AveragedOperator(lambda x: x, 0.5, 2)(np.zeros(3)),
     r"^dimension mismatch: operator acts on R\^2, got shape \(3,\)$"),
    (lambda: normal_cone_box([0.0, 0.0], [1.0, 1.0, 1.0]),
     r"^bound shapes differ: \(2,\) vs \(3,\)$"),
], ids=["averaged-shape", "box-shapes"])
def test_operator_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


NAN = np.nan
INF = np.inf


@pytest.mark.parametrize("build", [normal_cone_box, box_function],
                         ids=["normal-cone-box", "box-function"])
@pytest.mark.parametrize("lo, hi, message", [
    ([NAN, 0.0], [1.0, 1.0], "^box bounds must not be NaN$"),
    ([0.0, 0.0], [1.0, NAN], "^box bounds must not be NaN$"),
    # a NaN in one coordinate outranks lo > hi in another
    ([NAN, 2.0], [1.0, 1.0], "^box bounds must not be NaN$"),
    ([2.0, 2.0], [1.0, NAN], "^box bounds must not be NaN$"),
    ([0.0, 2.0], [1.0, 1.0], "^empty box: lo > hi in some coordinate$"),
    (INF, -INF, "^empty box: lo > hi in some coordinate$"),
    ([0.0, 0.0], [1.0, 1.0, 1.0], r"^bound shapes differ: \(2,\) vs \(3,\)$"),
    ([[0.0, 0.0]], [[1.0, 1.0]], r"^bound shapes differ: \(1, 2\) vs \(1, 2\)$"),
    (0.0, [1.0, 1.0], r"^bound shapes differ: \(1,\) vs \(2,\)$"),
], ids=["nan-lo", "nan-hi", "nan-and-empty", "empty-and-nan-hi", "empty",
        "empty-infinite", "shapes", "2-d", "scalar-vs-vector"])
def test_box_refusals_keep_their_messages_and_order(build, lo, hi, message):
    with pytest.raises(ValueError, match=message):
        build(lo, hi)


@pytest.mark.parametrize("build", [normal_cone_box, box_function],
                         ids=["normal-cone-box", "box-function"])
def test_valid_boxes_take_one_comparison_and_keep_their_bounds(build, monkeypatch):
    lo, hi = np.array([1.0, -INF, 0.0]), np.array([1.0, 2.0, INF])
    # a valid box never reaches the NaN diagnosis
    monkeypatch.setattr(np, "isnan", lambda *a, **k: pytest.fail("isnan called"))
    A = build(lo, hi)
    np.testing.assert_array_equal(A.resolve(1.0, np.array([5.0, 5.0, -5.0])),
                                  [1.0, 2.0, 0.0])
    kept_lo, kept_hi = operators._box_bounds(lo, hi)
    assert kept_lo is lo and kept_hi is hi
    # scalar bounds become shape (1,), equal ones included
    for a, b in ((0.5, 0.5), (-INF, INF), (np.float64(0.0), 1)):
        A = build(a, b)
        assert A.dim == 1
        assert [x.shape for x in operators._box_bounds(a, b)] == [(1,), (1,)]


# ---------------------------------------------------------------------------
# the certified slot: one eigendecomposition per symmetric Q content
# ---------------------------------------------------------------------------

def _fresh_slot(mp):
    """Empty the certified slot and count the matrices ``eigvalsh`` is called
    on, through the monkeypatch ``mp``; returns the list of calls."""
    mp.setattr(operators, "_last", None)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    mp.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return _fresh_slot(monkeypatch)


def test_maps_of_one_q_take_one_eigendecomposition(eigvalsh_calls, rng):
    Q = random_spd(rng, 12)
    beta = 1.0 / np.linalg.eigvalsh(Q).max()
    eigvalsh_calls.clear()
    maps = [affine_gradient(Q, rng.standard_normal(12)) for _ in range(6)]
    assert len(eigvalsh_calls) == 1
    assert all(B.beta == beta for B in maps)
    # equal entries in another layout hit as well
    for Ql in matrix_layouts(Q).values():
        assert affine_gradient(Ql).beta == beta
    assert len(eigvalsh_calls) == 1


def test_gradient_smooth_and_quadratic_function_share_the_slot(eigvalsh_calls, rng):
    Q = random_spd(rng, 8)
    b = rng.standard_normal(8)
    B = affine_gradient(Q, b)
    g = quadratic_smooth(Q, b)
    f = quadratic_function(Q, b)
    assert len(eigvalsh_calls) == 1
    assert g.beta == B.beta
    x = rng.standard_normal(8)
    np.testing.assert_allclose(f.resolve(0.5, x),
                               np.linalg.solve(np.eye(8) + 0.5 * Q, x + 0.5 * b))


def test_q_changed_in_place_is_checked_again(eigvalsh_calls, rng):
    Q = random_spd(rng, 6)
    B1 = affine_gradient(Q)
    beta = B1.beta
    Q *= 4.0
    B2 = affine_gradient(Q)
    assert len(eigvalsh_calls) == 2
    assert B2.beta == pytest.approx(B1.beta / 4.0, rel=1e-12)
    Q[0, 0] = -1.0          # still symmetric, no longer semidefinite
    with pytest.raises(ValueError, match="positive semidefinite"):
        affine_gradient(Q)
    with pytest.raises(ValueError, match="positive semidefinite"):
        quadratic_smooth(Q)
    assert B1.beta == beta      # a map keeps the constant it was built with


@pytest.mark.parametrize("bad, message", [
    ([[1.0, 2.0], [0.0, 1.0]], "symmetric"),
    ([[-1.0, 0.0], [0.0, 1.0]], "positive semidefinite"),
    ([[1.0, 2.0], [2.0, 1.0]], "positive semidefinite"),
], ids=["asymmetric", "negative-diagonal", "indefinite"])
def test_refused_q_raises_on_every_call(eigvalsh_calls, bad, message):
    good = np.diag([1.0, 2.0])
    beta = affine_gradient(good).beta
    for build in (affine_gradient, quadratic_smooth, quadratic_function) * 2:
        with pytest.raises(ValueError, match=message):
            build(np.array(bad))
    # the refused matrix never took the slot from the one that passed
    calls = len(eigvalsh_calls)
    assert affine_gradient(good).beta == beta
    assert len(eigvalsh_calls) == calls


def test_zero_q_is_refused_on_every_call(eigvalsh_calls):
    for _ in range(3):
        with pytest.raises(ValueError, match="zero_cocoercive"):
            affine_gradient(np.zeros((3, 3)))


def test_certified_eigenvalues_are_read_only(eigvalsh_calls, rng):
    Q = random_spd(rng, 5)
    for _ in range(2):       # a miss, then a hit
        eigs = _symmetric_psd(Q).eigs
        assert not eigs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            eigs[0] = 0.0
    assert len(eigvalsh_calls) == 1


def test_threads_alternating_two_q_get_their_own_beta(eigvalsh_calls, rng):
    Qs = [random_spd(rng, 100, lo=0.5, hi=2.0), random_spd(rng, 100, lo=3.0, hi=5.0)]
    expected = [1.0 / np.linalg.eigvalsh(Q).max() for Q in Qs]
    start_together = threading.Barrier(4)

    def worker(start):
        start_together.wait(timeout=60)
        return [(k % 2, affine_gradient(Qs[k % 2]).beta)
                for k in range(start, start + 50)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    for built in results:
        assert all(beta == expected[i] for i, beta in built)


@settings(max_examples=40)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["C", "F", "strided"]))
def test_beta_from_a_hit_equals_a_cold_build(d, seed, low_rank, layout):
    rng = np.random.default_rng(seed)
    if low_rank:
        G = rng.standard_normal((d, max(1, d // 2)))
        Q = G @ G.T
    else:
        Q = random_spd(rng, d)
    Ql = matrix_layouts(Q)[layout]
    with pytest.MonkeyPatch.context() as mp:
        _fresh_slot(mp)
        cold = affine_gradient(Ql).beta
    with pytest.MonkeyPatch.context() as mp:
        calls = _fresh_slot(mp)
        affine_gradient(Q.copy())
        hit = affine_gradient(Ql).beta
        assert len(calls) == 1
    assert hit == cold


# ---------------------------------------------------------------------------
# the snapshot: a read-only copy of each certified Q, matched by exact bits
# ---------------------------------------------------------------------------

# the largest d whose snapshot is a plain copy, and the smallest whose
# snapshot has a mapping of its own
BELOW, ABOVE = 362, 363


def test_split_dimensions_straddle_the_split_size():
    assert 8 * BELOW**2 < operators._MAPPED_BYTES <= 8 * ABOVE**2


@pytest.mark.parametrize("d", [BELOW, ABOVE])
def test_equal_entries_share_a_record_either_side_of_the_split(eigvalsh_calls, rng, d):
    Q = random_spd(rng, d)
    record = _symmetric_psd(Q)
    for layout, Ql in matrix_layouts(Q).items():
        assert _symmetric_psd(Ql) is record, layout
    assert len(eigvalsh_calls) == 1


@pytest.mark.parametrize("d", [BELOW, ABOVE])
@pytest.mark.parametrize("where", ["first half", "second half", "last entry"])
def test_a_one_entry_change_misses_the_record(eigvalsh_calls, rng, d, where):
    Q = random_spd(rng, d)
    record = _symmetric_psd(Q)
    # a diagonal entry one ulp larger keeps Q symmetric and definite
    k = {"first half": 1, "second half": d - 2, "last entry": d - 1}[where]
    Q[k, k] = np.nextafter(Q[k, k], np.inf)
    changed = _symmetric_psd(Q)
    assert changed is not record
    assert changed.Q[k, k] == Q[k, k] != record.Q[k, k]
    assert len(eigvalsh_calls) == 2


def test_a_negative_zero_misses_the_record(eigvalsh_calls):
    # -0.0 == 0.0 as values, but the match is by bits
    Q = np.diag([1.0, 2.0, 3.0])
    record = _symmetric_psd(Q)
    Q[0, 1] = Q[1, 0] = -0.0
    changed = _symmetric_psd(Q)
    assert changed is not record
    assert np.signbit(changed.Q[0, 1]) and not np.signbit(record.Q[0, 1])
    assert len(eigvalsh_calls) == 2


# the largest d whose Q is matched by its bytes, and the smallest matched
# through int64 views
BYTES, VIEWS = 64, 65


def test_match_dimensions_straddle_the_switch():
    assert BYTES**2 <= operators._BYTES_MATCH < VIEWS**2


@pytest.mark.parametrize("d", [BYTES, VIEWS])
def test_byte_and_view_matches_follow_one_rule(eigvalsh_calls, rng, d):
    # equal bits hit in any layout; -0.0 for 0.0, or one ulp, misses
    Q = random_spd(rng, d)
    Q[0, 1] = Q[1, 0] = 0.0
    Q += np.diag(np.abs(Q).sum(1))   # diagonally dominant: still definite
    for layout, Ql in matrix_layouts(Q).items():
        record = _symmetric_psd(Q)
        assert _symmetric_psd(Ql) is record, layout
        for change in ("-0.0", "ulp"):
            other = matrix_layouts(Q.copy())[layout]
            if change == "-0.0":
                other[0, 1] = other[1, 0] = -0.0
            else:
                other[d - 1, d - 1] = np.nextafter(other[d - 1, d - 1], np.inf)
            assert _symmetric_psd(other) is not record, (layout, change)


@pytest.mark.parametrize("d", [2, ABOVE])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_q_of_the_certified_shape_is_refused(eigvalsh_calls, rng, d, bad):
    Q = random_spd(rng, d)
    affine_gradient(Q)
    Q[d - 1, d - 1] = bad
    for build in (affine_gradient, quadratic_smooth, quadratic_function):
        with pytest.raises(ValueError, match="^Q has non-finite entries$"):
            build(Q)
    with pytest.raises(ValueError, match=r"^Q must be square, got shape \(2, 3\)$"):
        affine_gradient(np.ones((2, 3)))
    assert len(eigvalsh_calls) == 1


@pytest.mark.parametrize("d", [8, ABOVE])
def test_each_build_copies_q_on_a_miss_only(eigvalsh_calls, monkeypatch, rng, d):
    copies = []
    snapshot = operators._snapshot

    def counted(M):
        copies.append(M)
        return snapshot(M)

    monkeypatch.setattr(operators, "_snapshot", counted)
    Q = random_spd(rng, d)
    for build in (affine_gradient, quadratic_smooth, quadratic_function):
        monkeypatch.setattr(operators, "_last", None)
        for copied in (1, 0):      # a miss, then a hit
            copies.clear()
            build(Q)
            assert len(copies) == copied, build.__name__
    assert len(eigvalsh_calls) == 3     # one miss per builder


@pytest.mark.parametrize("d", [BELOW, ABOVE])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_the_snapshot_is_read_only_in_the_callers_order(eigvalsh_calls, rng, d, layout):
    Q = random_spd(rng, d)
    Ql = matrix_layouts(Q)[layout]
    snap = _symmetric_psd(Ql).Q
    assert snap is not Ql and not np.shares_memory(snap, Ql)
    assert not snap.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        snap[0, 0] = 0.0
    np.testing.assert_array_equal(snap, Q)
    # F stays F; C and a C-ordered strided view become C-contiguous
    assert snap.flags.f_contiguous if layout == "F" else snap.flags.c_contiguous
    assert isinstance(snap.base, mmap.mmap) == (d == ABOVE)


@pytest.mark.parametrize("d", [BELOW, ABOVE])
def test_a_build_starts_no_thread(eigvalsh_calls, monkeypatch, rng, d):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    Q = random_spd(rng, d)
    before = threading.active_count()
    for build in (affine_gradient, quadratic_smooth, quadratic_function) * 2:
        build(Q)                # a miss, then hits
    assert started == []
    assert threading.active_count() == before


@pytest.mark.parametrize("d", [1, 2, 8, 33])
def test_eigenvalue_ends_are_the_extremes(d, rng):
    # eigvalsh returns ascending eigenvalues: the ends are min() and max(),
    # and beta keeps the bits of 1 / max()
    G = rng.standard_normal((d, max(1, d // 2)))
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    repeated = (U * np.repeat([3.0, 1.0], [d // 2, d - d // 2])) @ U.T
    for Q in (G @ G.T + np.eye(d), repeated, G @ G.T):
        Q = (Q + Q.T) / 2.0
        eigs = _symmetric_psd(Q).eigs
        assert eigs[0] == eigs.min() and eigs[-1] == eigs.max()
        assert affine_gradient(Q).beta == 1.0 / eigs.max()
        g = quadratic_smooth(Q)
        assert g.lipschitz == eigs.max() and g.beta == 1.0 / eigs.max()
