import math

import numpy as np
import pytest

import monosplit as ms
from monosplit import (InnerProduct, as_vector, audit_projector,
                       identity_projector, matrix_projector, span_projector,
                       zero_mean_projector, zero_projector)
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
