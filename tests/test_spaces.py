import concurrent.futures
import math
import sys
import threading

import numpy as np
import pytest

import monosplit as ms
from monosplit import (InnerProduct, SubspaceProjector, as_vector, audit_projector,
                       identity_projector, matrix_projector, span_projector,
                       zero_mean_projector, zero_projector)
from monosplit.spaces import ProjectorAudit
from conftest import (matrix_layouts, random_subspace_matrix,
                      random_subspace_projector)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="1-d"):
        as_vector([[1.0, 2.0]])
    assert as_vector(3.0).shape == (1,)


def test_inner_product_weights_validation():
    with pytest.raises(ValueError, match="strictly positive"):
        InnerProduct(2, [1.0, 0.0])
    with pytest.raises(ValueError, match="^inner product weights must be strictly positive$"):
        InnerProduct(2, [1.0, np.nan])
    for bad in (np.inf, -np.inf):   # -inf is not positive: refused as such
        message = "finite" if bad > 0 else "strictly positive"
        with pytest.raises(ValueError, match=f"^inner product weights must be {message}$"):
            InnerProduct(2, [1.0, bad])
    w = InnerProduct(2, [2.0, 3.0])
    assert w.dot([1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)
    assert InnerProduct(2).is_uniform


def test_uniform_norm_bits(rng):
    inner = InnerProduct(3)
    points = [rng.standard_normal(3), np.zeros(3), np.array([-0.0, 0.0, -0.0]),
              np.array([5e-324, -5e-324, 1e-160]), np.array([1e200, 1.0, 0.0]),
              np.array([np.nan, 1.0, 0.0]), np.array([-np.inf, 1.0, 0.0])]
    points += list(1e3 * rng.standard_normal((20, 3)))
    for x in points:
        with np.errstate(over="ignore"):
            expected = math.sqrt(max(float(np.dot(x, x)), 0.0))
            got = inner.norm(x)
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_norm_and_dot_accept_lists():
    for inner in (InnerProduct(2), InnerProduct(2, [1.0, 1.0])):
        assert inner.norm([3.0, 4.0]) == 5.0
        assert inner.dot([1.0, 2.0], [3.0, 4.0]) == 11.0
        assert inner.dot(np.array([1.0, 2.0]), [3.0, 4.0]) == 11.0


def test_inner_product_bilinear_symmetric_positive(rng):
    inner = InnerProduct(4, rng.uniform(0.5, 2.0, 4))
    for _ in range(20):
        x, y, z = rng.standard_normal((3, 4))
        a = rng.standard_normal()
        assert inner.dot(x, y) == pytest.approx(inner.dot(y, x))
        assert inner.dot(a * x + z, y) == pytest.approx(
            a * inner.dot(x, y) + inner.dot(z, y), abs=1e-12)
        if np.any(x != 0):
            assert inner.dot(x, x) > 0


def test_project_identity():
    P = identity_projector(2)
    np.testing.assert_allclose(P([3.0, -1.0]), [3.0, -1.0])


def test_project_span_diagonal():
    P = span_projector([1.0, 1.0])
    np.testing.assert_allclose(P([3.0, -1.0]), [1.0, 1.0])


def test_project_zero_mean():
    P = zero_mean_projector(3)
    np.testing.assert_allclose(P([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])


def test_zero_mean_projector_matches_mean_subtraction(rng):
    # subtracting sum/dim is bit-identical to subtracting the mean
    for dim in (1, 2, 8, 33, 1000, 4097):
        P = zero_mean_projector(dim)
        for scale in (1e-5, 1.0, 1e5):
            x = scale * rng.standard_normal(dim)
            assert np.array_equal(P(x), x - x.mean())


def test_project_complement_examples():
    Pz = zero_mean_projector(3)
    np.testing.assert_allclose(Pz.complement([1.0, 2.0, 3.0]),
                               [2.0, 2.0, 2.0])
    np.testing.assert_allclose(identity_projector(2).complement([1.0, 2.0]),
                               [0.0, 0.0])
    np.testing.assert_allclose(zero_projector(2).complement([1.0, 2.0]),
                               [1.0, 2.0])


def test_reflect_examples():
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(identity_projector(2).reflect(x), x)
    np.testing.assert_allclose(zero_projector(2).reflect(x), [-1.0, -2.0])
    # 2*(-1, 0, 1) - (1, 2, 3)
    np.testing.assert_allclose(
        zero_mean_projector(3).reflect([1.0, 2.0, 3.0]),
        [-3.0, -2.0, -1.0])


def test_projection_idempotent_on_result(rng):
    P = random_subspace_projector(rng, 6)
    for _ in range(10):
        r = P(rng.standard_normal(6))
        assert np.linalg.norm(P(r) - r) <= 1e-12 * (1 + np.linalg.norm(r))


def test_complement_annihilated_by_projection(rng):
    P = random_subspace_projector(rng, 5)
    for _ in range(10):
        c = P.complement(rng.standard_normal(5))
        assert np.linalg.norm(P(c)) <= 1e-12 * (1 + np.linalg.norm(c))


def test_pythagoras(rng):
    for P in (random_subspace_projector(rng, 7),
              zero_mean_projector(7),
              span_projector(rng.standard_normal(7))):
        for _ in range(50):
            x = rng.standard_normal(7)
            nx2 = P.inner.dot(x, x)
            a = P(x)
            b = P.complement(x)
            lhs = P.inner.dot(a, a) + P.inner.dot(b, b)
            assert abs(lhs - nx2) <= 1e-10 * max(nx2, 1.0)


def test_pythagoras_weighted(rng):
    inner = InnerProduct(4, [0.1, 0.2, 0.3, 0.4])
    P = span_projector([1.0, 1.0, 1.0, 1.0], inner=inner)
    for _ in range(50):
        x = rng.standard_normal(4)
        lhs = inner.dot(P(x), P(x)) + inner.dot(P.complement(x), P.complement(x))
        assert abs(lhs - inner.dot(x, x)) <= 1e-10 * max(inner.dot(x, x), 1.0)


def test_reflection_involution_and_isometry(rng):
    P = random_subspace_projector(rng, 6)
    for _ in range(50):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        twice = P.reflect(P.reflect(x))
        assert np.linalg.norm(twice - x) <= 1e-10
        assert abs(np.linalg.norm(P.reflect(x) - P.reflect(y))
                   - np.linalg.norm(x - y)) <= 1e-10


def test_projection_firmly_nonexpansive(rng):
    P = random_subspace_projector(rng, 6)
    for _ in range(100):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        d = P(x) - P(y)
        assert np.dot(d, x - y) >= np.dot(d, d) - 1e-10


def test_dimension_mismatch_raises():
    P = zero_mean_projector(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        P(np.zeros(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        P.reflect(np.zeros(2))


def test_audit_passes_structured_projectors(rng):
    for P in (identity_projector(5), zero_projector(5), zero_mean_projector(5),
              span_projector(rng.standard_normal(5)),
              random_subspace_projector(rng, 5)):
        audit = audit_projector(P, samples=32, tol=1e-8)
        assert audit.passed, audit


def test_audit_weighted_self_adjointness(rng):
    inner = InnerProduct(3, [0.2, 0.3, 0.5])
    P = span_projector([1.0, 1.0, 1.0], inner=inner)
    audit = audit_projector(P, samples=32, tol=1e-10)
    assert audit.passed, audit


def test_matrix_projector_rejects_non_projector():
    with pytest.raises(ValueError, match="not an orthogonal projector"):
        matrix_projector([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        matrix_projector([[1.0, 0.0, 0.0]])


def test_matrix_projector_accepts_valid(rng):
    M = random_subspace_matrix(rng, 5, 2)
    P = matrix_projector(M)
    x = rng.standard_normal(5)
    np.testing.assert_allclose(P(x), M @ x)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 1000])
def test_symmetric_matrix_projector_matches_matmul(d):
    rng = np.random.default_rng(d)
    M = random_subspace_matrix(rng, d, max(1, d // 2))
    M = 0.5 * (M + M.T)
    assert np.array_equal(M, M.T)
    xs = [rng.standard_normal(d) for _ in range(4)]
    layouts = matrix_layouts(M)
    if d > 1:
        assert layouts["F"].flags.f_contiguous and not layouts["F"].flags.c_contiguous
        assert not (layouts["strided"].flags.c_contiguous
                    or layouts["strided"].flags.f_contiguous)
    for layout, Ml in layouts.items():
        P = matrix_projector(Ml)
        for x in xs:
            expected = M @ x
            got = P(x)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), layout
        assert np.array_equal(Ml, M)


def test_weighted_matrix_projector_applied_as_given(rng):
    # self-adjoint under a weighted inner product only, so not symmetric
    w = np.array([1.0, 2.0, 4.0])
    v = np.array([1.0, -1.0, 0.5])
    M = np.outer(v, w * v) / np.dot(w * v, v)
    assert not np.array_equal(M, M.T)
    P = matrix_projector(M, inner=InnerProduct(3, w))
    for _ in range(5):
        x = rng.standard_normal(3)
        assert np.array_equal(P(x), M @ x)


@pytest.mark.parametrize("shape", [(3,), (7,), (5, 1)])
def test_matrix_projector_rejects_wrong_length(shape):
    # the one-triangle kernel would read the first n entries of a longer vector
    P = matrix_projector(np.eye(5) - np.ones((5, 5)) / 5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        P(np.ones(shape))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_projector_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^projector matrix has non-finite entries$"):
        matrix_projector([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 1), (0, 2)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_a_non_finite_entry_fails_the_audit_and_keeps_its_message(bad, where, weighted):
    # finiteness is not checked before the audit: a non-finite entry fails it
    # and is then diagnosed with the message it had when checked first
    rng = np.random.default_rng(5)
    M, inner = (weighted_projector(rng, 4) if weighted
                else (random_subspace_matrix(rng, 4, 2), InnerProduct(4)))
    M[where] = bad
    assert not ms.spaces._audit_matrix(M, inner).passed
    with pytest.raises(ValueError, match="^projector matrix has non-finite entries$"):
        matrix_projector(M, inner)


@pytest.mark.parametrize("finite, message", [
    (False, "^projector matrix has non-finite entries$"),
    (True, "^inner product dimension does not match the projector$")])
def test_two_faults_are_refused_in_the_order_of_the_checks(rng, finite, message):
    M = random_subspace_matrix(rng, 3, 1)
    if not finite:
        M[0, 0] = np.nan
    with pytest.raises(ValueError, match=message):
        matrix_projector(M, InnerProduct(4))


def test_audit_fails_on_a_nan_violation():
    # max(worst, nan) would keep worst: a NaN must fail the audit instead
    P = ms.SubspaceProjector(lambda x: np.where(x > 0.0, np.nan, x), 3)
    audit = audit_projector(P, samples=4)
    assert not audit.passed
    assert math.isnan(audit.worst_idempotency)
    assert audit_projector(identity_projector(3)).passed


@pytest.mark.parametrize("call, message", [
    (lambda: InnerProduct(0), "^dim must be positive$"),
    (lambda: InnerProduct(2, [1.0]), r"^weights must have shape \(2,\), got \(1,\)$"),
    (lambda: identity_projector(2, InnerProduct(3)),
     "^inner product dimension does not match the projector$"),
    (lambda: span_projector([0.0, 0.0]), "^span vector must be nonzero$"),
], ids=["dim-0", "weights-shape", "inner-dim", "zero-span"])
def test_space_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160, 1e-310, 1e308])
def test_span_projector_holds_at_extreme_scales(scale):
    # <v, v> overflows at 1e200, underflows to 0 at 1e-200 and is subnormal
    # at 1e-160 when taken unscaled
    P = span_projector([scale, scale])
    np.testing.assert_allclose(P(np.ones(2)), [1.0, 1.0], rtol=4e-16, atol=0.0)
    np.testing.assert_array_equal(P(np.array([1.0, -1.0])), [0.0, 0.0])


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_span_projector_keeps_the_bits_of_the_unscaled_formula(rng, weighted):
    # scaling by a power of two is exact in the normal range
    for _ in range(200):
        d = int(rng.integers(1, 9))
        v = rng.standard_normal(d) * 10.0 ** rng.uniform(-30, 30, size=d)
        inner = InnerProduct(d, rng.uniform(0.5, 2.0, size=d)) if weighted else None
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-5, 5)
        ip = InnerProduct(d) if inner is None else inner
        want = v * (ip.dot(v, x) / ip.dot(v, v))
        assert np.array_equal(span_projector(v, inner)(x), want)


def test_audit_projects_each_sample_four_times(rng):
    # one call each for x, y, Px and a x + y; the fields are those of the
    # formula that projected y twice
    M = random_subspace_matrix(rng, 6, 3)
    P = matrix_projector(M)
    calls = [0]

    def counted(x):
        calls[0] += 1
        return P(x)

    samples = 5
    audit = audit_projector(SubspaceProjector(counted, 6), samples=samples)
    assert calls[0] == 4 * samples
    draws = np.random.default_rng(0)
    idem, sym, lin = [], [], []
    for _ in range(samples):
        x, y = draws.standard_normal(6), draws.standard_normal(6)
        a = draws.standard_normal()
        Px = P(x)
        idem.append(P.inner.norm(P(Px) - Px))
        sym.append(abs(P.inner.dot(Px, y) - P.inner.dot(x, P(y))))
        lin.append(P.inner.norm(P(a * x + y) - a * Px - P(y)))
    assert audit == ProjectorAudit(True, max(idem), max(sym), max(lin))


@pytest.mark.parametrize("d", [1, 2, 8, 33])
def test_matrix_audit_block_rows_are_the_per_sample_draws(d):
    samples = ms.spaces._MATRIX_AUDIT_SAMPLES
    Z = np.random.default_rng(0).standard_normal((samples, 2 * d + 1))
    draws = np.random.default_rng(0)
    for row in Z:
        x, y = draws.standard_normal(d), draws.standard_normal(d)
        a = draws.standard_normal()
        assert np.array_equal(row[:d], x) and np.array_equal(row[d:2 * d], y)
        assert row[2 * d] == a


@pytest.mark.parametrize("d", [1, 2, 8, 33])
def test_audit_samples_are_one_read_only_fresh_draw(d):
    samples = ms.spaces._MATRIX_AUDIT_SAMPLES
    Z = np.random.default_rng(0).standard_normal((samples, 2 * d + 1))
    X, Y, a, S = ms.spaces._audit_samples(d)
    assert np.array_equal(X, Z[:, :d]) and np.array_equal(Y, Z[:, d:-1])
    assert np.array_equal(a, Z[:, -1:])
    assert np.array_equal(S, np.concatenate((Z[:, :d], Z[:, d:-1],
                                             Z[:, -1:] * Z[:, :d] + Z[:, d:-1])))
    for block in (X, Y, a, S):
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1.0
    # a zero entry would not matter (an infinite entry times it is NaN), but
    # none occurs
    assert (Z != 0.0).all() and (S != 0.0).all()
    assert ms.spaces._audit_samples(d) is ms.spaces._audit_samples(d)


@pytest.fixture
def draws(monkeypatch):
    """Empty the audit-sample cache and count the draws of ``default_rng``
    made while the test runs; returns the list of seeds drawn."""
    ms.spaces._audit_samples.cache_clear()
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    yield seeds
    ms.spaces._audit_samples.cache_clear()


def test_projectors_of_one_dimension_draw_the_samples_once(rng, draws):
    for _ in range(50):
        matrix_projector(random_subspace_matrix(rng, 5, 2))
    assert draws == [0]
    # the cache is bounded: 8 more dimensions push the first out
    for d in range(6, 14):
        ms.spaces._audit_samples(d)
    assert ms.spaces._audit_samples.cache_info().currsize == 8
    ms.spaces._audit_samples(5)
    assert len(draws) == 10


def test_projectors_built_from_threads_get_the_same_audit(rng, draws):
    M = random_subspace_matrix(rng, 7, 3)
    inner = InnerProduct(7)
    start_together = threading.Barrier(4)

    def worker(_):
        start_together.wait(timeout=60)
        matrix_projector(M)
        return [ms.spaces._audit_matrix(M, inner) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert set(draws) == {0} and len(draws) <= 4   # at most one draw per thread
    assert len(results) == 4
    ms.spaces._audit_samples.cache_clear()
    fresh = ms.spaces._audit_matrix(M, inner)
    assert fresh.passed
    assert all(audit == fresh for audits in results for audit in audits)


def weighted_projector(rng, d):
    """A projector self-adjoint under random weights only, with its inner
    product: ``U (U^T W U)^{-1} U^T W``."""
    w = rng.uniform(0.5, 2.0, d)
    U = rng.standard_normal((d, max(1, d // 2)))
    return U @ np.linalg.solve(U.T @ (w[:, None] * U), U.T * w), InnerProduct(d, w)


def audit_cases():
    """``(id, M, inner, is_projector)``: projectors, and the same plus noise."""
    rng = np.random.default_rng(26)
    for d in (1, 2, 8, 33, 200):
        M = random_subspace_matrix(rng, d, max(1, d // 2))
        yield f"uniform-{d}", M, InnerProduct(d), True
        yield f"weighted-{d}", *weighted_projector(rng, d), True
        yield f"perturbed-{d}", M + 1e-6 * rng.standard_normal((d, d)), InnerProduct(d), False
    yield "shear", np.array([[1.0, 1.0], [0.0, 1.0]]), InnerProduct(2), False


AUDIT_CASES = list(audit_cases())


@pytest.mark.parametrize("M, inner, projector", [case[1:] for case in AUDIT_CASES],
                         ids=[case[0] for case in AUDIT_CASES])
def test_matrix_audit_agrees_with_the_per_sample_audit(M, inner, projector):
    blocked = ms.spaces._audit_matrix(M, inner)
    sampled = audit_projector(SubspaceProjector(lambda x: M @ x, M.shape[0], inner),
                              samples=ms.spaces._MATRIX_AUDIT_SAMPLES)
    assert blocked.passed == sampled.passed == projector
    for field in ("worst_idempotency", "worst_self_adjointness", "worst_linearity"):
        got, want = getattr(blocked, field), getattr(sampled, field)
        assert abs(got - want) <= max(1e-12, 1e-9 * abs(want)), field
    if projector:
        matrix_projector(M, inner)
    else:
        with pytest.raises(ValueError, match="not an orthogonal projector"):
            matrix_projector(M, inner)


def test_matrix_projector_does_not_call_audit_projector(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("audit_projector called")

    monkeypatch.setattr(ms.spaces, "audit_projector", refuse)
    matrix_projector(random_subspace_matrix(rng, 6, 3))
    with pytest.raises(ValueError, match="not an orthogonal projector"):
        matrix_projector([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_audit_refuses_the_projector():
    with pytest.raises(ValueError, match="not an orthogonal projector"):
        matrix_projector([[1e200, 0.0], [0.0, 1.0]])
    # the residual of linearity, about 1e200, overflows its squared norm
    audit = audit_projector(SubspaceProjector(lambda x: np.full(2, 1e200), 2))
    assert not audit.passed
    assert audit.worst_linearity == math.inf


@pytest.mark.parametrize("samples", [0, -3])
def test_audit_projector_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
        audit_projector(SubspaceProjector(lambda x: 3 * x, 2), samples=samples)
