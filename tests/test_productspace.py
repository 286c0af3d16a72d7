from collections import Counter
from itertools import groupby

import numpy as np
import pytest

import monosplit as ms
from monosplit import (InclusionProblem, ProductProblem, ResolventFamily,
                       affine_gradient, audit_projector, fdr_solve,
                       identity_projector, linear_monotone, normal_cone_box,
                       parallel_dr2, subdifferential_abs, sum_splitting_pi,
                       sum_splitting_solve, zero_cocoercive, zero_operator)
from conftest import (lifted_errors, lifted_problem, lifted_trace,
                      pi_sum_reference)
from theory import ProductSpace, audit_cocoercivity, translate_operator


def test_lift_unlift_roundtrip():
    space = ProductSpace(3, 2)
    X = space.lift([1.0, 2.0])
    np.testing.assert_allclose(X, [1, 2, 1, 2, 1, 2])
    np.testing.assert_allclose(space.unlift(X), [1.0, 2.0])


def test_unlift_rejects_nondiagonal():
    space = ProductSpace(2, 2)
    with pytest.raises(ValueError, match="not diagonal"):
        space.unlift(np.array([1.0, 2.0, 1.0, 2.5]))
    assert space.diagonal_spread(np.array([1.0, 2.0, 1.0, 2.5])) > 0.2
    assert space.diagonal_spread(space.lift([1.0, 2.0])) == 0.0


def test_lift_isometry_weighted(rng):
    space = ProductSpace(3, 2, weights=[0.2, 0.3, 0.5])
    for _ in range(20):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        assert space.inner.norm(space.lift(x)) == pytest.approx(
            np.linalg.norm(x), abs=1e-12)
        assert space.inner.norm(space.lift(x) - space.lift(y)) == pytest.approx(
            np.linalg.norm(x - y), abs=1e-12)


def test_consensus_projector_uniform_mean():
    P = ProductSpace(2, 2, [0.5, 0.5]).consensus_projector()
    out = P(np.array([2.0, 0.0, 0.0, 2.0]))
    np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0])


def test_consensus_projector_degenerate_weights_rejected():
    with pytest.raises(ValueError, match="]0, 1\\["):
        ProductSpace(2, 1, [1.0, 0.0]).consensus_projector()
    with pytest.raises(ValueError, match="sum to 1"):
        ProductSpace(2, 1, [0.5, 0.4]).consensus_projector()


def test_consensus_projector_weighted_average():
    P = ProductSpace(2, 1, [0.25, 0.75]).consensus_projector()
    np.testing.assert_allclose(P(np.array([4.0, 0.0])), [1.0, 1.0])


def test_consensus_projector_invariants_weighted():
    P = ProductSpace(3, 2, [0.2, 0.3, 0.5]).consensus_projector()
    audit = audit_projector(P, samples=64, tol=1e-10)
    assert audit.passed, audit


def test_block_resolvent_rule(rng):
    # the product step resolves each block with parameter gamma / w_i
    blocks = [subdifferential_abs(2),
              normal_cone_box([-1.0, -1.0], [1.0, 1.0]),
              linear_monotone(np.diag([1.0, 2.0]))]
    w = np.array([0.2, 0.3, 0.5])
    prob = ProductProblem(blocks, weights=w)
    for _ in range(10):
        S = rng.standard_normal((3, 2))
        gamma = rng.uniform(0.1, 2.0)
        got = prob.resolve_blocks(gamma / w, S)
        for i in range(3):
            np.testing.assert_allclose(
                got[i], blocks[i].resolve(gamma / w[i], S[i]), atol=1e-14)


class _CountingBlock:
    """Forwards attribute access to a block and counts its ``resolve`` calls."""

    def __init__(self, target):
        self.target = target
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.target, name)

    def resolve(self, gamma, x):
        self.calls += 1
        return self.target.resolve(gamma, x)


# the row kernel of each block kind that carries one
ROW_KERNELS = {"box": "_clamp", "abs": "_soft_threshold",
               "abs_c": "_soft_threshold_centered"}


def _count_stacked_calls(blocks):
    """Give each block's row kernel a counting stand-in, shared by the blocks
    of one kernel, so that runs are grouped as before; only the stacked path
    calls it, since a block's own ``resolve`` keeps the kernel it was built
    with.  Returns the calls per kernel name."""
    calls, counting = Counter(), {}

    def counted(kernel):
        def count(*args):
            calls[kernel.__name__] += 1
            return kernel(*args)
        return count

    for A in blocks:
        if A._kernel is not None:
            kernel, params = A._kernel
            if kernel not in counting:
                counting[kernel] = counted(kernel)
            A._kernel = (counting[kernel], params)
    return calls


def _block_of_kind(rng, kind, d):
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, d)
        return normal_cone_box(lo, lo + rng.uniform(0.5, 3.0, d))
    if kind == "abs":
        return subdifferential_abs(d)
    if kind == "abs_c":
        return subdifferential_abs(d, center=rng.standard_normal(d))
    if kind == "linear":
        return linear_monotone(np.diag(rng.uniform(0.5, 2.0, d)),
                               b=rng.standard_normal(d))
    if kind == "translated":
        return translate_operator(subdifferential_abs(d), rng.standard_normal(d))
    return ResolventFamily(lambda gamma, x: x / (1.0 + gamma), d, label="user")


_MIXED_50 = (["box"] * 20 + ["abs"] * 8 + ["abs_c"] * 10 + ["linear"] * 5
             + ["translated"] * 4 + ["user"] * 3)
BLOCK_LAYOUTS = {
    "m1-box": ["box"],
    "m1-abs": ["abs"],
    "m1-abs_c": ["abs_c"],
    "m1-linear": ["linear"],
    "m3-consecutive": ["box", "box", "abs_c"],
    "m3-interleaved": ["abs", "box", "abs"],
    "m3-kernel-less": ["user", "linear", "translated"],
    "m3-mixed": ["abs_c", "translated", "abs_c"],
    "m50-consecutive": _MIXED_50,
    "m50-interleaved": [k for pair in zip(_MIXED_50[:25], _MIXED_50[25:])
                        for k in pair],
}


@pytest.mark.parametrize("layout", sorted(BLOCK_LAYOUTS))
def test_resolve_blocks_matches_per_block(layout, rng):
    # runs of consecutive built-in blocks are resolved in one stacked call
    # that must agree exactly with resolving every block on its own at
    # gamma / w_i; the same blocks behind wrappers are each resolved through
    # the wrapper's resolve, with the same result
    kinds = BLOCK_LAYOUTS[layout]
    m, d = len(kinds), 3
    blocks = [_block_of_kind(rng, k, d) for k in kinds]
    stacked = _count_stacked_calls(blocks)
    w = rng.dirichlet(np.ones(m)) if m > 1 else np.ones(1)
    plain = ProductProblem(blocks, weights=w)
    wrapped = ProductProblem([_CountingBlock(A) for A in blocks], weights=w)
    draws = 5
    for _ in range(draws):
        gamma = rng.uniform(0.1, 2.0)
        S = 3.0 * rng.standard_normal((m, d))
        want = np.array([A.resolve(gamma / w[i], S[i])
                         for i, A in enumerate(blocks)])
        for prob in (plain, wrapped):
            assert np.array_equal(prob.resolve_blocks(gamma / prob.weights, S), want)
    # each run of built-in blocks of one kind is one stacked kernel call per
    # draw, made for the plain problem alone; no wrapper is bypassed
    runs = Counter(ROW_KERNELS[k] for k, _ in groupby(kinds) if k in ROW_KERNELS)
    assert stacked == Counter({name: n * draws for name, n in runs.items()})
    assert [A.calls for A in wrapped.blocks] == [draws] * m


class _ShiftedBlock:
    """Forwards attribute access to a block, and resolves through its own
    ``resolve``, which moves the block's result by 0.25."""

    def __init__(self, target):
        self.target = target

    def __getattr__(self, name):
        return getattr(self.target, name)

    def resolve(self, gamma, x):
        return self.target.resolve(gamma, x) + 0.25


class _ShiftedKernelLessBlock(_ShiftedBlock):
    _kernel = None


@pytest.mark.parametrize("wrapper", [_ShiftedBlock, _ShiftedKernelLessBlock],
                         ids=["forwards-kernel", "hides-kernel"])
def test_a_wrapper_is_resolved_through_its_own_resolve(wrapper):
    # a block is stacked only where _bind would take its kernel, so a
    # wrapper's resolve is called whether it forwards _kernel or hides it: in
    # the sum loop, its partial-inverse form and dr2, and in dr2's certificate
    W = wrapper(normal_cone_box(np.zeros(2), np.ones(2)))
    prob = ProductProblem([W, W])
    S = np.array([[2.0, -1.0], [0.5, 0.5]])
    np.testing.assert_array_equal(prob.resolve_blocks(np.ones(2), S),
                                  np.clip(S, 0.0, 1.0) + 0.25)
    runs = [sum_splitting_solve(prob, tol=1e-12), sum_splitting_pi(prob, tol=1e-12),
            parallel_dr2(W, W, tol=1e-12)]
    for run in runs:
        assert run.status == "converged"
        np.testing.assert_allclose(run.final, [1.25, 1.25], atol=1e-12)
    assert runs[-1].certificate_residual == 0.0


def test_lifted_forward_map_preserves_diagonal(rng):
    # applying the lifted map to a lifted point lifts the base image, so the
    # diagonal is invariant and the cocoercivity constant carries over
    B = affine_gradient(np.diag([1.0, 2.0]), np.array([0.5, -0.5]))
    prob = ProductProblem([zero_operator(2)] * 3, B, weights=[0.2, 0.3, 0.5])
    space, lifted = ProductSpace.of(prob), lifted_problem(prob).B
    assert lifted.beta == B.beta
    for _ in range(10):
        x = rng.standard_normal(2)
        np.testing.assert_allclose(lifted(space.lift(x)), space.lift(B(x)),
                                   atol=1e-14)
    assert audit_cocoercivity(lifted, samples=200, inner=space.inner).passed


def test_single_block_collapses_to_fdr(rng):
    A = subdifferential_abs(2)
    B = affine_gradient(np.eye(2), np.array([1.0, -2.0]))
    prob = ProductProblem([A], B, weights=[1.0])
    z0 = rng.standard_normal(2)
    direct = sum_splitting_solve(prob, gamma=0.7, relaxation=0.9, z0=[z0],
                                 tol=-1.0, max_iters=80, trace=True)
    base = fdr_solve(InclusionProblem(A, B, identity_projector(2)), gamma=0.7,
                     relaxation=0.9, z0=z0, tol=-1.0, max_iters=80, trace=True)
    for (x_d, _), (x_f, _) in zip(direct.trace, base.trace):
        np.testing.assert_allclose(x_d, x_f, atol=1e-12)


def _box_abs_problem(m, d, seed):
    """m - 2 boxes around a common point and two centred soft thresholds,
    random weights and a diagonal forward map."""
    rng = np.random.default_rng(seed)
    mid = rng.standard_normal(d)
    blocks = [normal_cone_box(mid - rng.uniform(1.0, 3.0, d),
                              mid + rng.uniform(1.0, 3.0, d))
              for _ in range(m - 2)]
    blocks += [subdifferential_abs(d, center=rng.standard_normal(d))
               for _ in range(2)]
    B = affine_gradient(np.diag(rng.uniform(0.5, 1.5, d)), rng.standard_normal(d))
    return ProductProblem(blocks, B, weights=rng.dirichlet(np.ones(m)))


def test_lifted_fdr_matches_direct_loop(rng):
    blocks = [subdifferential_abs(2),
              translate_operator(normal_cone_box([-2.0, -2.0], [2.0, 2.0]), [0.5, 0.5]),
              linear_monotone(np.diag([1.0, 3.0]), b=[0.5, -0.5])]
    B = affine_gradient(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
    small = ProductProblem(blocks, B, weights=[0.25, 0.25, 0.5])
    # the lifted reference resolves block by block, the direct loop stacks
    # runs of built-in blocks (all 50 of the second problem)
    for prob in (small, _box_abs_problem(50, 2, seed=50)):
        Z0 = rng.standard_normal((prob.m, prob.base_dim))
        kw = dict(gamma=0.4, relaxation=0.8, tol=-1.0, max_iters=200,
                  trace=True)
        direct = sum_splitting_solve(prob, z0=Z0, **kw)
        lifted = fdr_solve(lifted_problem(prob), z0=Z0.reshape(-1), **kw)
        reference = lifted_trace(ProductSpace.of(prob), 0.4, lifted.trace)
        assert len(direct.trace) == len(reference)
        for (x_d, Z_d), (x_l, Z_l) in zip(direct.trace, reference):
            np.testing.assert_allclose(x_d, x_l, atol=1e-12)
            np.testing.assert_allclose(Z_d, Z_l, atol=1e-12)


@pytest.mark.parametrize("solver", ["sum", "pi", "dr2"])
@pytest.mark.parametrize("m, d", [(50, 4), (3, 64)])
def test_product_step_norm_is_the_euclidean_norm(solver, m, d):
    # dx is logged with the uniform norm, bit for bit np.linalg.norm
    prob = _box_abs_problem(m, d, seed=m + d)
    kw = dict(tol=-1.0, max_iters=60, trace=True)
    if solver == "sum":
        res = sum_splitting_solve(prob, gamma=0.4, **kw)
    elif solver == "pi":
        res = sum_splitting_pi(prob, gamma=0.4, **kw)
    else:
        res = parallel_dr2(prob.blocks[0], prob.blocks[-1], gamma=0.7, **kw)
    xs = [x for x, _ in res.trace]
    assert [row.n for row in res.history] == list(range(61))
    assert res.history[0].dx == 0.0
    for row in res.history[1:]:
        assert row.dx == np.linalg.norm(xs[row.n] - xs[row.n - 1])


def test_lifted_fdr_matches_direct_with_errors(rng):
    blocks = [subdifferential_abs(1), subdifferential_abs(1, center=[1.0])]
    prob = ProductProblem(blocks, affine_gradient(np.eye(1)))
    a = ms.geometric_errors(1, 0.3, 0.5)
    bs = [ms.geometric_errors(1, 0.2, 0.4), ms.geometric_errors(1, 0.1, 0.6)]
    kw = dict(gamma=0.5, tol=-1.0, max_iters=100, trace=True)
    direct = sum_splitting_solve(prob, a_errors=a, b_errors=bs, **kw)
    a_lift, b_lift = lifted_errors(ProductSpace.of(prob), a, bs)
    lifted = fdr_solve(lifted_problem(prob), a_errors=a_lift, b_errors=b_lift,
                       **kw)
    reference = lifted_trace(ProductSpace.of(prob), 0.5, lifted.trace)
    assert len(direct.trace) == len(reference)
    for (x_d, Z_d), (x_l, Z_l) in zip(direct.trace, reference):
        np.testing.assert_allclose(x_d, x_l, atol=1e-12)
        np.testing.assert_allclose(Z_d, Z_l, atol=1e-12)


def _two_box_oracle():
    """Brute-force solutions of 0 in N_[1,2] x + N_[0,1.5] x + x on a grid."""
    sols = []
    for t in np.linspace(1.0, 1.5, 51):
        # need -t in N_[1,2](t) + N_[0,1.5](t)
        n1_lo, n1_hi = ((-np.inf, 0.0) if t <= 1.0 else
                        (0.0, np.inf) if t >= 2.0 else (0.0, 0.0))
        n2_lo, n2_hi = ((-np.inf, 0.0) if t <= 0.0 else
                        (0.0, np.inf) if t >= 1.5 else (0.0, 0.0))
        if n1_lo + n2_lo <= -t <= n1_hi + n2_hi:
            sols.append(t)
    return sols


def test_two_box_oracle_unique_solution():
    assert _two_box_oracle() == [1.0]


def test_sum_splitting_two_boxes_identity():
    blocks = [normal_cone_box([1.0], [2.0]), normal_cone_box([0.0], [1.5])]
    prob = ProductProblem(blocks, affine_gradient(np.eye(1)))
    res = sum_splitting_solve(prob, gamma=1.0, tol=1e-10)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.final, [1.0], atol=1e-7)
    assert res.certificate_residual <= 1e-7


def test_sum_splitting_median():
    blocks = [subdifferential_abs(1, center=[c]) for c in (0.0, 1.0, 2.0)]
    prob = ProductProblem(blocks)
    res = sum_splitting_solve(prob, gamma=1.0, tol=1e-10)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.final, [1.0], atol=1e-6)


def test_sum_splitting_weight_validation():
    blocks = [zero_operator(1), zero_operator(1)]
    with pytest.raises(ValueError, match="]0, 1\\["):
        ProductProblem(blocks, weights=[1.0, 0.0])
    # NaN fails the range check, for one block and for two
    for weights in ([np.nan], [np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="]0, 1\\["):
            ProductProblem(blocks[:len(weights)], weights=weights)
    # the sum must be 1 within 1e-12, so 1e-9 off is refused
    with pytest.raises(ValueError, match="sum to 1"):
        ProductProblem(blocks, weights=[0.5, 0.5 + 1e-9])


RANGE = r"^each weight must lie in \]0, 1\[$"


@pytest.mark.parametrize("weights, message", [
    ([0.5], r"^expected 2 weights, got shape \(1,\)$"),
    ([[0.5, 0.5]], r"^expected 2 weights, got shape \(1, 2\)$"),
    ([0.0, 1.0], RANGE),
    ([1.5, -0.5], RANGE),           # sums to 1: the range is checked first
    ([1.0, 1e-300], RANGE),
    ([np.nan, 0.5], RANGE),
    ([0.5, np.nan], RANGE),
    ([np.inf, 0.5], RANGE),
    ([0.5, 0.25], r"^weights must sum to 1 within 1e-12, got 0.75$"),
], ids=["length", "2-d", "zero", "negative", "one", "nan-first", "nan-last", "inf",
        "sum"])
def test_weight_refusals_keep_their_messages(weights, message):
    with pytest.raises(ValueError, match=message):
        ProductProblem([zero_operator(1)] * 2, weights=weights)


def test_one_block_takes_weight_one_only():
    assert ProductProblem([zero_operator(1)], weights=[1.0]).weights.tolist() == [1.0]
    with pytest.raises(ValueError, match=RANGE):
        ProductProblem([zero_operator(1)], weights=[np.nan])
    with pytest.raises(ValueError, match=r"^weights must sum to 1 within 1e-12, got 0.5$"):
        ProductProblem([zero_operator(1)], weights=[0.5])


@pytest.mark.parametrize("gamma", [0.0, np.inf, np.nan])
def test_parallel_dr2_rejects_gamma_outside_the_positive_reals(gamma):
    # a linear block would fail inside the run, in lu_factor, on gamma = inf
    A = linear_monotone(np.eye(1), b=[-4.0])
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        parallel_dr2(A, A, gamma=gamma)


def test_parallel_dr2_trivial_stationary():
    A = zero_operator(1)
    res = parallel_dr2(A, A, gamma=1.0, z0=([3.0], [1.0]), tol=-1.0,
                       max_iters=200, trace=True)
    xs = [x for x, _ in res.trace]
    for x in xs:
        np.testing.assert_allclose(x, xs[0], atol=1e-12)


def test_parallel_dr2_interval_subgradients():
    # any point of [-1, 1] solves 0 in d|x-1| + d|x+1|
    A1 = subdifferential_abs(1, center=[1.0])
    A2 = subdifferential_abs(1, center=[-1.0])
    res = parallel_dr2(A1, A2, gamma=1.0, z0=([4.0], [-6.0]), tol=1e-10)
    assert res.status == ms.CONVERGED
    assert -1.0 - 1e-6 <= res.final[0] <= 1.0 + 1e-6
    assert res.certificate_residual <= 1e-7


def test_parallel_dr2_shifted_linear_pair():
    A1 = linear_monotone(np.eye(1), b=[-4.0])  # x - 4
    A2 = linear_monotone(np.eye(1), b=[2.0])   # x + 2
    res = parallel_dr2(A1, A2, gamma=1.0, tol=1e-12)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.final, [1.0], atol=1e-8)


def test_parallel_dr2_certificate_before_convergence(rng):
    # away from a solution every certificate field is the product formula
    # with each block resolved on the other one: s_1 = z_2, s_2 = z_1
    d, gamma = 3, 0.7
    A1 = normal_cone_box(-np.ones(d), np.ones(d))
    A2 = subdifferential_abs(d, center=rng.standard_normal(d))
    res = parallel_dr2(A1, A2, gamma=gamma, tol=-1.0, max_iters=5, trace=True,
                       z0=(3.0 * rng.standard_normal(d), 3.0 * rng.standard_normal(d)))
    x, (z1, z2) = res.trace[-1]
    p1, p2 = A1.resolve(2.0 * gamma, z2), A2.resolve(2.0 * gamma, z1)
    u1, u2 = (z2 - p1) / (2.0 * gamma), (z1 - p2) / (2.0 * gamma)
    block = [np.linalg.norm(x - A1.resolve(1.0, x + u1)),
             np.linalg.norm(x - A2.resolve(1.0, x + u2))]
    total = np.linalg.norm(u1 + u2)
    np.testing.assert_allclose(res.block_residuals, block, rtol=1e-12)
    assert res.sum_residual == pytest.approx(total, rel=1e-12)
    assert res.spread == pytest.approx(
        max(np.linalg.norm(p1 - x), np.linalg.norm(p2 - x)), rel=1e-12)
    assert res.certificate_residual == pytest.approx(max(*block, total), rel=1e-12)
    assert res.certificate_residual > 1e-3


def test_parallel_dr2_relaxation_range():
    A = zero_operator(1)
    with pytest.raises(ValueError, match="]0, 3/2\\["):
        parallel_dr2(A, A, relaxation=1.6)
    # 1.4 < 3/2 is admissible
    parallel_dr2(A, A, relaxation=1.4, max_iters=1)


def test_parallel_dr2_with_errors():
    A1 = linear_monotone(np.eye(1), b=[-4.0])
    A2 = linear_monotone(np.eye(1), b=[2.0])
    res = parallel_dr2(A1, A2, gamma=1.0,
                       b1_errors=ms.geometric_errors(1, 0.5, 0.5),
                       b2_errors=ms.geometric_errors(1, 0.5, 0.5),
                       tol=1e-11)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.final, [1.0], atol=1e-6)


def test_pi_sum_dual_feasibility():
    blocks = [zero_operator(1), zero_operator(1)]
    prob = ProductProblem(blocks)
    sum_splitting_pi(prob, gamma=1.0, y0=[[1.0], [-1.0]], max_iters=1)
    with pytest.raises(ValueError, match="sum_i w_i y_i = 0"):
        sum_splitting_pi(prob, gamma=1.0, y0=[[1.0], [1.0]], max_iters=1)


def test_pi_sum_median():
    blocks = [subdifferential_abs(1, center=[c]) for c in (0.0, 1.0, 2.0)]
    res = sum_splitting_pi(ProductProblem(blocks), gamma=1.0, tol=1e-10)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(res.final, [1.0], atol=1e-6)


def test_pi_sum_matches_dr_form(rng):
    # matched starts: z_{i,0} = x_0 - gamma * y_{i,0}
    blocks = [subdifferential_abs(2),
              normal_cone_box([-1.0, -1.0], [3.0, 3.0])]
    prob = ProductProblem(blocks, affine_gradient(np.eye(2), [1.0, 2.0]))
    gamma = 0.8
    x0 = rng.standard_normal(2)
    y0 = rng.standard_normal(2)
    Y0 = np.stack([y0, -y0])  # uniform weights: sum w_i y_i = 0
    Z0 = np.stack([x0 - gamma * Y0[0], x0 - gamma * Y0[1]])
    r_dr = sum_splitting_solve(prob, gamma=gamma, relaxation=0.9, z0=Z0,
                               tol=-1.0, max_iters=200, trace=True)
    reference = pi_sum_reference(prob, gamma, 0.9, x0, Y0, 200)
    dev = max(np.linalg.norm(xr - xd)
              for (xr, _), (xd, _) in zip(reference, r_dr.trace))
    assert dev <= 1e-10


def test_pi_sum_two_block_antisymmetric_duals():
    # with uniform weights and opposite initial duals the two dual tracks
    # stay opposite: y_{1,n} = -y_{2,n} for every n
    blocks = [subdifferential_abs(1, center=[1.0]),
              subdifferential_abs(1, center=[-1.0])]
    prob = ProductProblem(blocks)
    res = sum_splitting_pi(prob, gamma=1.0, x0=[3.0],
                           y0=[[0.7], [-0.7]], tol=-1.0, max_iters=100,
                           trace=True)
    for _, Y in res.trace:
        np.testing.assert_allclose(Y[0], -Y[1], atol=1e-12)


def test_pi_sum_matches_blockwise_recursion(rng):
    blocks = [subdifferential_abs(2), linear_monotone(np.diag([2.0, 1.0]))]
    small = ProductProblem(blocks, affine_gradient(np.eye(2)), weights=[0.4, 0.6])
    for prob in (small, _box_abs_problem(50, 2, seed=51)):
        x0 = rng.standard_normal(2)
        res = sum_splitting_pi(prob, gamma=0.5, relaxation=0.85, x0=x0,
                               tol=-1.0, max_iters=150, trace=True)
        reference = pi_sum_reference(prob, 0.5, 0.85, x0,
                                     np.zeros((prob.m, 2)), 150)
        assert len(res.trace) == len(reference)
        for (x_d, Y_d), (x_r, Y_r) in zip(res.trace, reference):
            np.testing.assert_allclose(x_d, x_r, atol=1e-11)
            np.testing.assert_allclose(Y_d, Y_r, atol=1e-11)


def test_solution_transfer_from_lifted_run():
    blocks = [subdifferential_abs(1, center=[c]) for c in (0.0, 1.0, 2.0)]
    prob = ProductProblem(blocks)
    res = fdr_solve(lifted_problem(prob), gamma=1.0, tol=1e-10)
    assert res.status == ms.CONVERGED
    np.testing.assert_allclose(ProductSpace.of(prob).unlift(res.x), [1.0], atol=1e-6)
    # the final lifted blocks z = x - gamma y, handed to the direct loop with
    # no iteration budget, carry the base-space certificate
    cert = sum_splitting_solve(prob, gamma=1.0, z0=res.x - res.y, max_iters=0)
    assert cert.certificate_residual <= 1e-6


def test_scaled_gamma_cap_warning():
    blocks = [zero_operator(1), zero_operator(1)]
    prob = ProductProblem(blocks, zero_cocoercive(1, beta=1e14),
                          weights=[1e-13, 1.0 - 1e-13])
    with pytest.warns(RuntimeWarning, match="cap"):
        sum_splitting_solve(prob, gamma=1.0, max_iters=1)


def test_sum_splitting_rejects_bad_start():
    prob = ProductProblem([zero_operator(2), zero_operator(2)])
    with pytest.raises(ValueError, match="non-finite"):
        sum_splitting_solve(prob, z0=[[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        sum_splitting_solve(prob, z0=np.zeros(3))
    # blocks given flat are accepted
    assert sum_splitting_solve(prob, z0=np.ones(4),
                               tol=1e-10).status == ms.CONVERGED


def test_parallel_dr2_rejects_bad_start():
    A = zero_operator(2)
    with pytest.raises(ValueError, match="non-finite"):
        parallel_dr2(A, A, z0=[[np.nan, 0.0], [0.0, 0.0]])
    # a third block is refused, not ignored
    with pytest.raises(ValueError, match="dimension mismatch: expected 2 blocks of length 2"):
        parallel_dr2(A, A, z0=np.zeros((3, 2)))
    assert parallel_dr2(A, A, z0=np.ones(4), tol=1e-10).status == ms.CONVERGED


@pytest.mark.parametrize("build, message", [
    (lambda: ProductProblem([]), "at least one operator block is required"),
    (lambda: ProductProblem([zero_operator(1), zero_operator(2)]),
     "all operator blocks must share the base dimension"),
    (lambda: ProductProblem([zero_operator(2)], B=zero_cocoercive(3)),
     "forward map dimension mismatch"),
    (lambda: ProductProblem([zero_operator(0)]), "m and base_dim must be positive"),
    (lambda: parallel_dr2(zero_operator(1), zero_operator(2)), "operator dimensions differ"),
    (lambda: parallel_dr2(zero_operator(1), zero_operator(1),
                          relaxation=ms.RelaxationSchedule(lambda n: 0.5, divergent_sum=False)),
     r"declares a convergent sum; .* \(two-operator parallel splitting requires"),
    (lambda: ProductProblem([zero_operator(1)] * 2, weights=[1.0]),
     r"^expected 2 weights, got shape \(1,\)$"),
    (lambda: sum_splitting_solve(ProductProblem([zero_operator(1)] * 2), b_errors=[None]),
     "^expected 2 per-block error schedules, got 1$"),
], ids=["no-blocks", "block-dims", "B-dim", "base-dim-0", "dr2-dims", "dr2-convergent-sum",
        "weights-length", "block-error-count"])
def test_product_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_pi_sum_rejects_bad_start():
    prob = ProductProblem([zero_operator(2), zero_operator(2)])
    with pytest.raises(ValueError, match="non-finite"):
        sum_splitting_pi(prob, y0=[[np.inf, 0.0], [-np.inf, 0.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        sum_splitting_pi(prob, y0=np.zeros((2, 3)))
    assert sum_splitting_pi(prob, y0=[1.0, 0.0, -1.0, 0.0],
                            tol=1e-10).status == ms.CONVERGED


def test_gamma_range_validation():
    prob = ProductProblem([zero_operator(1)], affine_gradient(np.eye(1)),
                          weights=[1.0])
    with pytest.raises(ValueError, match="]0, 2\\*beta\\["):
        sum_splitting_solve(prob, gamma=2.0)
    with pytest.raises(ValueError, match="]0, 2\\*beta\\["):
        sum_splitting_pi(prob, gamma=2.0)


def test_block_errors_on_a_subset_of_blocks(rng):
    # one schedule on the middle block of three: it perturbs that block only,
    # as the lifted FDR run with zero schedules on the other blocks shows
    d = 2
    prob = _box_abs_problem(3, d, seed=3)
    e = ms.geometric_errors(d, 0.5, 0.9, direction=[1.0, -2.0])
    kw = dict(gamma=0.4, relaxation=0.8, tol=-1.0, max_iters=120, trace=True)
    Z0 = rng.standard_normal((prob.m, d))
    direct = sum_splitting_solve(prob, b_errors=[None, e, None], z0=Z0, **kw)
    a_lift, b_lift = lifted_errors(ProductSpace.of(prob), ms.no_errors(d),
                                   [ms.no_errors(d), e, ms.no_errors(d)])
    lifted = fdr_solve(lifted_problem(prob), a_errors=a_lift, b_errors=b_lift,
                       z0=Z0.reshape(-1), **kw)
    reference = lifted_trace(ProductSpace.of(prob), 0.4, lifted.trace)
    assert len(direct.trace) == len(reference)
    for (x_d, Z_d), (x_l, Z_l) in zip(direct.trace, reference):
        np.testing.assert_allclose(x_d, x_l, atol=1e-12)
        np.testing.assert_allclose(Z_d, Z_l, atol=1e-12)
    clean = sum_splitting_solve(prob, z0=Z0, **kw)
    assert np.abs(clean.trace[1][1] - direct.trace[1][1]).max() > 0.1


def test_parallel_dr2_errors_on_the_second_block_only():
    # the literal recursion with b_{1,n} = 0, each residual taken before
    # the error is added
    d, gamma, lam = 3, 0.7, 0.9
    A1 = normal_cone_box(-np.ones(d), np.ones(d))
    A2 = subdifferential_abs(d, center=[2.0, -0.5, 0.25])
    e = ms.geometric_errors(d, 0.4, 0.8, direction=[1.0, 2.0, -1.0])
    z0 = (np.array([0.3, -1.2, 2.0]), np.array([1.5, 0.1, -0.7]))
    res = parallel_dr2(A1, A2, gamma=gamma, relaxation=lam, b2_errors=e,
                       z0=z0, tol=-1.0, max_iters=40, trace=True)
    z1, z2 = z0
    for n, (x_n, Z_n) in enumerate(res.trace):
        x = 0.5 * (z1 + z2)
        np.testing.assert_array_equal(x_n, x)
        np.testing.assert_array_equal(Z_n, np.stack([z1, z2]))
        p1 = A1.resolve(2.0 * gamma, z2)
        p2 = A2.resolve(2.0 * gamma, z1)
        assert res.history[n].residual == np.sqrt(0.5 * np.dot(p1 - x, p1 - x)
                                                  + 0.5 * np.dot(p2 - x, p2 - x))
        p2 = p2 + e(n)
        z1, z2 = z1 + lam * (p1 - x), z2 + lam * (p2 - x)


def test_sum_splitting_residual_is_weighted():
    # each logged residual is sqrt(sum_i w_i ||p_i - x_n||^2) with the block
    # points p_i recomputed from the traced (x_n, Z_n); the unweighted mean
    # sqrt(sum_i ||p_i - x_n||^2 / m) differs at these weights
    blocks = [normal_cone_box([-1.0, -1.0], [1.0, 2.0]),
              subdifferential_abs(2, center=[3.0, -1.0]),
              linear_monotone(np.diag([1.0, 4.0]), b=[0.5, -2.0])]
    B = affine_gradient(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    w, gamma = np.array([0.2, 0.3, 0.5]), 0.4
    prob = ProductProblem(blocks, B, weights=w)
    res = sum_splitting_solve(prob, gamma=gamma, tol=-1.0, max_iters=40, trace=True)
    assert [row.n for row in res.history] == list(range(41))
    for row, (x, Z) in zip(res.history, res.trace):
        S = 2.0 * x - gamma * B(x) - Z
        P = np.stack([A.resolve(gamma / wi, s) for A, wi, s in zip(blocks, w, S)])
        sq = np.sum((P - x) ** 2, axis=1)
        assert row.residual == pytest.approx(np.sqrt(w @ sq), rel=1e-12, abs=1e-15)
        assert abs(row.residual - np.sqrt(sq.mean())) > 1e-3 * row.residual
