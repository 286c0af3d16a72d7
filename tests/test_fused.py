"""The fused forward step.

When ``B x = Q x - b`` has an exactly symmetric ``Q`` and ``V`` is given by an
exactly symmetric matrix ``P``, the solvers apply ``P_V B P_V`` as
``K x - P b`` with ``K = P Q P`` kept in one slot on the certified record of
``Q``'s content, which maps of equal matrices share.  The reference is the
same ``V`` wrapped so that its matrix is hidden, which runs the unfused path:
``V(B(V(z)))``.
"""

import concurrent.futures
import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monosplit import (InclusionProblem, InnerProduct, SubspaceProjector,
                       affine_gradient, build_S, fdr_solve, fpi_explicit_solve,
                       l1_function, linear_monotone, matrix_projector,
                       min_over_subspace, normal_cone_box, quadratic_smooth,
                       subdifferential_abs, zero_operator)
from monosplit import operators
from conftest import kkt_solution, random_spd, random_subspace_matrix


def symmetric_spd(rng, dim):
    """``random_spd`` made exactly symmetric: ``(Q + Q')/2`` adds the same two
    entries on both sides of the diagonal."""
    Q = random_spd(rng, dim)
    return 0.5 * (Q + Q.T)


def hidden(V):
    """``V`` behind a projector that exposes no matrix, so never fused."""
    return SubspaceProjector(V, V.dim, V.inner, label=V.label)


class Counted:
    """Counts the calls of a map and forwards every other attribute, as the
    benchmark's tracing proxies do."""

    def __init__(self, target):
        self.target = target
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.target(x)

    def __getattr__(self, name):
        return getattr(self.target, name)


def random_operator(rng, kind, dim):
    if kind == "box":
        return normal_cone_box(-np.abs(rng.standard_normal(dim)) - 0.1,
                               np.abs(rng.standard_normal(dim)) + 0.1)
    if kind == "abs":
        return subdifferential_abs(dim, rng.standard_normal(dim))
    S = rng.standard_normal((dim, dim))
    return linear_monotone(symmetric_spd(rng, dim) + 0.5 * (S - S.T),
                           rng.standard_normal(dim))


def relative_gap(u, v):
    return float(np.max(np.abs(u - v)) / (1.0 + np.max(np.abs(v))))


@st.composite
def fused_cases(draw):
    """``(Q, b, V, rng)``: an exactly symmetric SPD ``Q`` and a matrix
    projector of random rank on R^d, d in [2, 12]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 12))
    rank = draw(st.integers(1, dim - 1))
    V = matrix_projector(random_subspace_matrix(rng, dim, rank))
    assert V._matrix is not None
    return symmetric_spd(rng, dim), 3.0 * rng.standard_normal(dim), V, rng


@settings(max_examples=60)
@given(fused_cases(), st.sampled_from(["box", "abs", "linear"]),
       st.sampled_from(["fdr", "fpi_explicit", "variational"]))
def test_fused_runs_match_the_unfused_path(case, kind, solver):
    Q, b, V, rng = case
    A = random_operator(rng, kind, V.dim)

    def solve(V, B):
        if solver == "variational":
            f = l1_function(V.dim)
            return min_over_subspace(f, B, V, tol=1e-10)
        prob = InclusionProblem(A, B, V)
        run = fdr_solve if solver == "fdr" else fpi_explicit_solve
        return run(prob, tol=1e-10)

    make = quadratic_smooth if solver == "variational" else affine_gradient
    counted = Counted(V)
    fused = solve(counted, make(Q, b))
    plain = solve(hidden(V), make(Q, b))
    # one projection per iteration, where the unfused step makes two
    assert counted.calls <= fused.iterations + 4
    assert fused.status == plain.status == "converged"
    assert fused.iterations == plain.iterations
    assert relative_gap(fused.x, plain.x) <= 1e-12
    assert relative_gap(fused.y, plain.y) <= 1e-12


@given(fused_cases(), st.floats(0.02, 1.98))
def test_fused_forward_operator_matches_its_definition_off_the_subspace(case, f):
    # z is drawn outside V, where K = P Q alone would differ from P Q P
    Q, b, V, rng = case
    B = Counted(affine_gradient(Q, b))
    gamma = f * B.beta
    counted_V = Counted(V)
    S = build_S(B, counted_V, gamma)
    assert counted_V.calls == 1     # P_V b, once
    z = 2.0 * rng.standard_normal(V.dim)
    assert relative_gap(V(z), z) > 1e-3
    expected = z - gamma * V(B.target(V(z)))
    got = S(z)
    assert B.calls == 0 and counted_V.calls == 1
    assert relative_gap(got, expected) <= 1e-12


def product(B):
    """The ``K`` that ``B``'s certified record holds, or None."""
    return B._affine.certified._slot[1]


def test_forward_maps_of_equal_matrices_share_one_product():
    rng = np.random.default_rng(5)
    dim = 9
    V = matrix_projector(random_subspace_matrix(rng, dim, 4))
    Q = symmetric_spd(rng, dim)
    maps = [affine_gradient(Q, rng.standard_normal(dim)) for _ in range(3)]
    maps += [affine_gradient(Q.copy(), rng.standard_normal(dim)),
             affine_gradient(np.asfortranarray(Q), rng.standard_normal(dim)),
             quadratic_smooth(Q.copy(), rng.standard_normal(dim))]
    assert len({id(B._affine.certified) for B in maps}) == 1
    assert product(maps[0]) is None     # no product before the first solve
    A = normal_cone_box(-np.ones(dim), np.ones(dim))
    products = set()
    for B in maps:
        assert fdr_solve(InclusionProblem(A, B, V), tol=1e-10).status == "converged"
        products.add(id(product(B)))
    assert len(products) == 1
    K = product(maps[0])
    # another Q has a record of its own and leaves this one's product alone
    build_S(affine_gradient(symmetric_spd(rng, dim)), V, 0.1)
    assert product(maps[0]) is K
    # a projector built anew from the same matrix takes the one slot; V then
    # rebuilds the same product
    build_S(maps[0], matrix_projector(V._matrix), 0.1)
    assert product(maps[0]) is not K
    build_S(maps[0], V, 0.1)
    assert product(maps[0]) is not K
    np.testing.assert_array_equal(product(maps[0]), K)


def test_a_matrix_changed_in_place_gets_its_own_product():
    # the record is keyed by content: after Q is overwritten and B rebuilt,
    # the solve reaches the new problem's solution, not the old one's
    rng = np.random.default_rng(11)
    dim = 7
    V = matrix_projector(random_subspace_matrix(rng, dim, 3))
    Q, b = symmetric_spd(rng, dim), rng.standard_normal(dim)
    A = zero_operator(dim)
    B = affine_gradient(Q, b)
    first = fdr_solve(InclusionProblem(A, B, V), tol=1e-12)
    np.testing.assert_allclose(first.x, kkt_solution(Q, b, V), atol=1e-9)
    Q[...] = symmetric_spd(rng, dim)
    C = affine_gradient(Q, b)
    second = fdr_solve(InclusionProblem(A, C, V), tol=1e-12)
    assert second.status == "converged"
    np.testing.assert_allclose(second.x, kkt_solution(Q, b, V), atol=1e-9)
    assert np.max(np.abs(second.x - first.x)) > 1e-3
    assert C._affine.certified is not B._affine.certified


@pytest.mark.parametrize("when", ["before", "after"])
def test_q_changed_in_place_after_its_map_is_built_changes_nothing(when):
    # B applies the snapshot of Q taken when it was built: beta, B(x) and the
    # fused step keep the content beta was certified for, and the fused path
    # and the unfused one solve the same problem, before or after the first
    # fused solve
    rng = np.random.default_rng(13)
    dim = 7
    V = matrix_projector(random_subspace_matrix(rng, dim, 3))
    Q, b = symmetric_spd(rng, dim), rng.standard_normal(dim)
    old = Q.copy()
    A = zero_operator(dim)
    B = affine_gradient(Q, b)
    beta, x = B.beta, rng.standard_normal(dim)
    Bx, S0 = B(x), build_S(B, V, B.beta)(x)
    if when == "after":
        fdr_solve(InclusionProblem(A, B, V), tol=1e-12)
    Q[...] = symmetric_spd(rng, dim)
    assert B.beta == beta
    np.testing.assert_array_equal(B(x), Bx)
    np.testing.assert_array_equal(build_S(B, V, B.beta)(x), S0)
    fused, plain = (fdr_solve(InclusionProblem(A, B, W), tol=1e-12)
                    for W in (V, hidden(V)))
    assert fused.status == plain.status == "converged"
    assert relative_gap(fused.x, plain.x) <= 1e-10
    np.testing.assert_allclose(fused.x, kkt_solution(old, b, V), atol=1e-9)
    # a map built anew reads the new content
    rebuilt = fdr_solve(InclusionProblem(A, affine_gradient(Q, b), V), tol=1e-12)
    np.testing.assert_allclose(rebuilt.x, kkt_solution(Q, b, V), atol=1e-9)


@pytest.mark.parametrize("dim", [362, 363])     # either side of the mapping size
@pytest.mark.parametrize("where", ["first half", "second half", "last entry"])
def test_another_projector_fuses_the_certified_content(dim, where):
    # Q changed after a fused solve: the K built for another projector comes
    # from the snapshot, not from the changed array
    rng = np.random.default_rng(23)
    Q, b = symmetric_spd(rng, dim), rng.standard_normal(dim)
    old = Q.copy()
    V, W = (matrix_projector(random_subspace_matrix(rng, dim, rank))
            for rank in (dim // 3, dim // 2))
    B = affine_gradient(Q, b)
    fdr_solve(InclusionProblem(zero_operator(dim), B, V), max_iters=3)
    assert product(B) is not None
    k = {"first half": 1, "second half": dim - 2, "last entry": dim - 1}[where]
    Q[k, k] = np.nextafter(Q[k, k], np.inf)
    build_S(B, W, B.beta)
    P = W._matrix
    K = P @ (old @ P)
    np.testing.assert_array_equal(product(B), 0.5 * (K + K.T))
    # the old bits still name B's record; the new ones another
    assert affine_gradient(old, b)._affine.certified is B._affine.certified
    assert affine_gradient(Q, b)._affine.certified is not B._affine.certified


def test_a_record_drops_its_product_with_the_projector():
    rng = np.random.default_rng(19)
    dim = 30
    B = affine_gradient(symmetric_spd(rng, dim), rng.standard_normal(dim))
    V = matrix_projector(random_subspace_matrix(rng, dim, 10))
    A = normal_cone_box(-np.ones(dim), np.ones(dim))
    assert fdr_solve(InclusionProblem(A, B, V), tol=1e-10).status == "converged"
    K, P = weakref.ref(product(B)), weakref.ref(V._matrix)
    del V
    gc.collect()
    assert P() is None and K() is None
    assert B._affine.certified._slot == (None, None)
    # the next projector builds a product of its own
    W = matrix_projector(random_subspace_matrix(rng, dim, 10))
    assert fdr_solve(InclusionProblem(A, B, W), tol=1e-10).status == "converged"
    assert product(B) is not None


def test_concurrent_fused_solves_build_each_product_once(monkeypatch):
    # six threads start each round together on maps that share one record,
    # all with the first projector, then all with the second: each round
    # builds K once, under the module lock, and every result has the bits of
    # a serial run
    rng = np.random.default_rng(17)
    dim, threads = 40, 6
    Q = symmetric_spd(rng, dim)
    maps = [affine_gradient(Q, rng.standard_normal(dim)) for _ in range(threads)]
    assert len({id(B._affine.certified) for B in maps}) == 1
    projectors = [matrix_projector(random_subspace_matrix(rng, dim, rank))
                  for rank in (10, 25)]
    A = normal_cone_box(-np.ones(dim), np.ones(dim))
    products = []       # each K returned, held so that ids stay distinct
    sandwich = operators._Certified.sandwich

    def counted(record, P):
        K = sandwich(record, P)
        products.append(K)
        return K

    monkeypatch.setattr(operators._Certified, "sandwich", counted)
    start_together = threading.Barrier(threads)

    def solve(V, B):
        return fdr_solve(InclusionProblem(A, B, V), tol=1e-10)

    def worker(V, B):
        start_together.wait(timeout=60)
        return solve(V, B)

    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            for k, V in enumerate(projectors):
                futures = [pool.submit(worker, V, B) for B in maps]
                runs.append([f.result(timeout=120) for f in futures])
                # one K per (record, projector)
                assert len({id(K) for K in products}) == k + 1
    finally:
        sys.setswitchinterval(interval)
    for V, round_runs in zip(projectors, runs):
        for B, run in zip(maps, round_runs):
            serial = solve(V, B)
            assert run.status == serial.status == "converged"
            assert run.iterations == serial.iterations
            np.testing.assert_array_equal(run.x, serial.x)
            np.testing.assert_array_equal(run.y, serial.y)


@pytest.mark.parametrize("case", ["Q within tolerance", "weighted projector"])
def test_other_inputs_run_unfused_with_the_same_bits(case):
    rng = np.random.default_rng(3)
    dim = 6
    Q = symmetric_spd(rng, dim)
    if case == "Q within tolerance":
        Q[0, 1] += 1e-14
        V = matrix_projector(random_subspace_matrix(rng, dim, 3))
    else:
        # a projector self-adjoint under weights w = D^2 has the matrix
        # D^-1 S D for an orthogonal projector S: not symmetric
        w = rng.uniform(0.5, 2.0, dim)
        D = np.sqrt(w)
        M = random_subspace_matrix(rng, dim, 3) * D[None, :] / D[:, None]
        V = matrix_projector(M, InnerProduct(dim, w))
    B = affine_gradient(Q, rng.standard_normal(dim))
    assert (B._affine is None) != (V._matrix is None)
    A = normal_cone_box(-np.ones(dim), np.ones(dim))
    runs = [fdr_solve(InclusionProblem(A, B, W), tol=1e-10, max_iters=300,
                      z0=np.ones(dim)) for W in (V, hidden(V))]
    assert runs[0].iterations == runs[1].iterations
    np.testing.assert_array_equal(runs[0].x, runs[1].x)
    np.testing.assert_array_equal(runs[0].y, runs[1].y)
    assert [r.residual for r in runs[0].history] == [r.residual for r in runs[1].history]
