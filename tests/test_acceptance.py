"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np

import monosplit as ms
from monosplit import (InclusionProblem, ProductProblem, affine_gradient,
                       audit_projector, build_S, build_T, composed_alpha,
                       fdr_solve, fpi_explicit_solve, geometric_errors,
                       harmonic_errors, identity_projector, l1_function,
                       linear_monotone, min_over_subspace, normal_cone_box,
                       parallel_dr2, quadratic_function, quadratic_smooth,
                       span_projector, subdifferential_abs,
                       sum_splitting_solve, zero_mean_projector,
                       zero_operator)
from monosplit.cli import EXIT_INVALID, main
from conftest import (fpi_unit_step_reference, kkt_solution, lifted_problem,
                      lifted_trace, random_spd, random_subspace_projector,
                      relative_memberships, trace_deviation)
from theory import (ProductSpace, certify_averaged, partial_inverse_resolvent,
                    partial_inverse_residual)


def _report(criterion, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d} [{tag}] {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def _random_operator(rng, dim):
    kind = rng.integers(3)
    if kind == 0:
        return subdifferential_abs(dim, center=rng.standard_normal(dim))
    if kind == 1:
        lo = -np.abs(rng.standard_normal(dim)) - 0.1
        hi = np.abs(rng.standard_normal(dim)) + 0.1
        return normal_cone_box(lo, hi)
    sym = random_spd(rng, dim, lo=0.1, hi=2.0)
    skew = rng.standard_normal((dim, dim))
    skew = 0.5 * (skew - skew.T)
    return linear_monotone(sym + skew, b=rng.standard_normal(dim))


def _random_problem(rng, max_dim=20):
    dim = int(rng.integers(2, max_dim + 1))
    A = _random_operator(rng, dim)
    B = affine_gradient(random_spd(rng, dim, lo=0.3, hi=2.5),
                        rng.standard_normal(dim))
    V = random_subspace_projector(rng, dim)
    return InclusionProblem(A, B, V)


def test_criterion_1_fdr_fpi_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        prob = _random_problem(rng)
        gamma = float(rng.uniform(0.05, 0.95)) * 2.0 * prob.beta
        lam = float(rng.uniform(0.1, 1.0))
        x0 = prob.V(rng.standard_normal(prob.dim))
        y0 = prob.V.complement(rng.standard_normal(prob.dim))
        reference = fpi_unit_step_reference(prob, gamma, lam, x0, y0, 200)
        r1 = fdr_solve(prob, gamma=gamma, relaxation=lam, z0=x0 - gamma * y0,
                       tol=-1.0, max_iters=200, trace=True)
        r2 = fpi_explicit_solve(prob, gamma=gamma, relaxation=lam, x0=x0,
                                y0=y0, tol=-1.0, max_iters=200, trace=True)
        worst = max(worst, trace_deviation(r1.trace, reference),
                    trace_deviation(r2.trace, reference))
    elapsed = time.perf_counter() - start
    _report(1, "forward-DR and forward-partial-inverse agree",
            worst <= 1e-10 and elapsed < 1.0,
            f"max deviation {worst:.3e} over 5 problems in {elapsed:.2f}s")


def test_criterion_2_forward_backward_reduction():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(3):
        dim = int(rng.integers(2, 8))
        A = _random_operator(rng, dim)
        B = affine_gradient(random_spd(rng, dim), rng.standard_normal(dim))
        prob = InclusionProblem(A, B, identity_projector(dim))
        gamma = 0.8 * prob.beta
        lam = float(rng.uniform(0.2, 1.0))
        x0 = rng.standard_normal(dim)
        res = fpi_explicit_solve(prob, gamma=gamma, relaxation=lam, x0=x0,
                                 tol=-1.0, max_iters=100, trace=True)
        x = x0.copy()
        for xn, _ in res.trace:
            worst = max(worst, float(np.max(np.abs(xn - x))))
            x = x + lam * (A.resolve(gamma, x - gamma * B(x)) - x)
    elapsed = time.perf_counter() - start
    _report(2, "whole-space runs collapse to forward-backward",
            worst <= 1e-12 and elapsed < 1.0,
            f"max coordinate gap {worst:.3e} over 3 problems in {elapsed:.2f}s")


def test_criterion_3_partial_inverse_resolvent():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 8))
        A = _random_operator(rng, dim)
        V = random_subspace_projector(rng, dim)
        gamma = float(rng.uniform(0.05, 5.0))
        s = 3.0 * rng.standard_normal(dim)
        z = partial_inverse_resolvent(A, V, gamma, s)
        worst = max(worst, partial_inverse_residual(A, V, gamma, s, z))
    # trivial limits: whole space and {0}
    worst_limits = 0.0
    for _ in range(20):
        dim = 4
        A = _random_operator(rng, dim)
        gamma = float(rng.uniform(0.1, 3.0))
        s = 2.0 * rng.standard_normal(dim)
        whole = partial_inverse_resolvent(A, identity_projector(dim), gamma, s)
        worst_limits = max(worst_limits,
                           float(np.max(np.abs(whole - A.resolve(gamma, s)))))
        trivial = partial_inverse_resolvent(A, ms.zero_projector(dim), gamma, s)
        worst_limits = max(worst_limits,
                           float(np.max(np.abs(trivial - (s - A.resolve(gamma, s))))))
    _report(3, "partial-inverse resolvent satisfies its graph-swap contract",
            worst <= 1e-9 and worst_limits <= 1e-12,
            f"worst unfolding residual {worst:.3e}, worst limit gap {worst_limits:.3e}")


def test_criterion_4_kkt_oracle_agreement():
    rng = np.random.default_rng(404)
    worst = {"fdr": 0.0, "fpi": 0.0, "variational": 0.0}
    worst_time = 0.0
    max_iterations = 0
    for _ in range(10):
        dim = int(rng.integers(2, 11))
        Qf = random_spd(rng, dim)
        Qg = random_spd(rng, dim)
        bf = rng.standard_normal(dim)
        bg = rng.standard_normal(dim)
        V = random_subspace_projector(rng, dim)
        x_star = kkt_solution(Qf + Qg, bf + bg, V)
        A = linear_monotone(Qf, b=-bf)
        B = affine_gradient(Qg, bg)
        prob = InclusionProblem(A, B, V)

        start = time.perf_counter()
        r1 = fdr_solve(prob, tol=1e-11, max_iters=50_000)
        r2 = fpi_explicit_solve(prob, tol=1e-11, max_iters=50_000)
        r3 = min_over_subspace(quadratic_function(Qf, bf),
                               quadratic_smooth(Qg, bg), V, tol=1e-11,
                               max_iters=50_000)
        worst_time = max(worst_time, time.perf_counter() - start)
        for key, res in (("fdr", r1), ("fpi", r2), ("variational", r3)):
            assert res.status == ms.CONVERGED
            max_iterations = max(max_iterations, res.iterations)
            worst[key] = max(worst[key],
                             float(np.linalg.norm(res.x - x_star)))
    ok = max(worst.values()) <= 1e-7 and worst_time < 5.0 and max_iterations <= 50_000
    _report(4, "all three solvers match the closed-form KKT solution",
            ok, f"worst gaps {worst}, slowest problem {worst_time:.2f}s, "
                f"most iterations {max_iterations}")


def test_criterion_5_product_space_fidelity():
    rng = np.random.default_rng(505)
    blocks = [subdifferential_abs(2),
              normal_cone_box([-2.0, -2.0], [2.0, 2.0]),
              linear_monotone(np.diag([1.0, 2.0]), b=[0.3, -0.2])]
    prob = ProductProblem(blocks, affine_gradient(np.eye(2), [1.0, -1.0]),
                          weights=[0.25, 0.25, 0.5])
    Z0 = rng.standard_normal((3, 2))
    kw = dict(gamma=0.5, relaxation=0.8, tol=-1.0, max_iters=200, trace=True)
    direct = sum_splitting_solve(prob, z0=Z0, **kw)
    lifted = fdr_solve(lifted_problem(prob), z0=Z0.reshape(-1), **kw)
    reference = lifted_trace(ProductSpace.of(prob), 0.5, lifted.trace)
    dev = max(max(np.max(np.abs(xd - xl)), np.max(np.abs(Zd - Zl)))
              for (xd, Zd), (xl, Zl) in zip(direct.trace, reference))

    P = ProductSpace(3, 4, [0.2, 0.3, 0.5]).consensus_projector()
    audit = audit_projector(P, samples=64, tol=1e-10)

    # solution transfer: run the lifted reduction on the m=3 median problem,
    # check the converged lifted point is diagonal, read the base solution
    # off it, and certify it from the final lifted blocks z = x - gamma y
    median_blocks = [subdifferential_abs(1, center=[c]) for c in (0.0, 1.0, 2.0)]
    median_prob = ProductProblem(median_blocks)
    med = sum_splitting_solve(median_prob, gamma=1.0, tol=1e-10)
    lifted_run = fdr_solve(lifted_problem(median_prob), gamma=1.0, tol=1e-10)
    xbar = ProductSpace.of(median_prob).unlift(lifted_run.x)  # raises if off-diagonal
    cert = sum_splitting_solve(median_prob, gamma=1.0, max_iters=0,
                               z0=lifted_run.x - lifted_run.y)
    median_gap = max(abs(med.final[0] - 1.0), abs(xbar[0] - 1.0))

    ok = dev <= 1e-12 and audit.passed and med.status == ms.CONVERGED \
        and lifted_run.status == ms.CONVERGED and median_gap <= 1e-6 \
        and max(med.certificate_residual, cert.certificate_residual) <= 1e-6
    _report(5, "product-space reduction is faithful",
            ok, f"lifted FDR/direct deviation {dev:.3e}, weighted projector audit "
                f"passed={audit.passed}, median transfer gap {median_gap:.3e}")


def test_criterion_6_parallel_dr():
    A1 = linear_monotone(np.eye(1), b=[-4.0])
    A2 = linear_monotone(np.eye(1), b=[2.0])
    res = parallel_dr2(A1, A2, gamma=1.0, tol=1e-12)
    gap = abs(res.final[0] - 1.0)

    Z = zero_operator(1)
    stat = parallel_dr2(Z, Z, gamma=1.0, z0=([3.0], [1.0]), tol=-1.0,
                        max_iters=200, trace=True)
    drift = max(abs(x[0] - stat.trace[0][0][0]) for x, _ in stat.trace)

    ok = res.status == ms.CONVERGED and gap <= 1e-8 and drift <= 1e-12
    _report(6, "two-operator parallel splitting",
            ok, f"shifted-linear gap {gap:.3e}, stationary drift {drift:.3e}")


def _standard_runs(a_errors=None, b_errors=None):
    """Final points of the standard test set under a given error scheme."""
    outs = []
    box_prob = InclusionProblem(normal_cone_box([1.0, 1.0], [2.0, 2.0]),
                                affine_gradient(np.eye(2)),
                                span_projector([1.0, 1.0]))
    outs.append(fdr_solve(box_prob, gamma=1.0, a_errors=a_errors,
                          b_errors=b_errors, tol=1e-10).x)
    outs.append(min_over_subspace(l1_function(2),
                                  quadratic_smooth(np.eye(2), np.array([3.0, -3.0])),
                                  zero_mean_projector(2), gamma=1.0,
                                  a_errors=a_errors, b_errors=b_errors,
                                  tol=1e-10).x)
    median_blocks = [subdifferential_abs(1, center=[c]) for c in (0.0, 1.0, 2.0)]
    b_list = None if b_errors is None else [ms.geometric_errors(1, 1.0, 0.5)] * 3
    a_base = None if a_errors is None else ms.geometric_errors(1, 1.0, 0.5)
    outs.append(sum_splitting_solve(ProductProblem(median_blocks,
                                                   affine_gradient(np.eye(1))),
                                    gamma=1.0, a_errors=a_base,
                                    b_errors=b_list, tol=1e-10).final)
    return outs


def test_criterion_7_errored_km_robustness():
    clean = _standard_runs()
    dirty = _standard_runs(a_errors=geometric_errors(2, 1.0, 0.5),
                           b_errors=geometric_errors(2, 1.0, 0.5))
    dev = max(float(np.linalg.norm(c - d)) for c, d in zip(clean, dirty))

    # a non-summable schedule is rejected before any iteration
    box_prob = InclusionProblem(normal_cone_box([1.0, 1.0], [2.0, 2.0]),
                                affine_gradient(np.eye(2)),
                                span_projector([1.0, 1.0]))
    rejected = False
    try:
        fdr_solve(box_prob, gamma=1.0, a_errors=harmonic_errors(2, 1.0))
    except ValueError as e:
        rejected = "non-summable" in str(e)
    _report(7, "summable errors leave solutions in place, non-summable rejected",
            dev <= 1e-6 and rejected,
            f"errored-vs-clean deviation {dev:.3e}, harmonic schedule rejected={rejected}")


def test_criterion_8_averagedness_certificates():
    rng = np.random.default_rng(808)
    exact = True
    for _ in range(20):
        m = int(rng.integers(1, 7))
        alphas = rng.uniform(0.05, 0.95, size=m).tolist()
        expected = m * max(alphas) / (1.0 + (m - 1) * max(alphas))
        exact = exact and composed_alpha(alphas) == expected

    prob = _random_problem(rng, max_dim=6)
    gamma = 1.2 * prob.beta  # inside ]0, 2 beta[, beyond the midpoint
    T = build_T(prob.A, prob.V, gamma)
    S = build_S(prob.B, prob.V, gamma)
    rT = certify_averaged(T, samples=1000)
    rS = certify_averaged(S, samples=1000)
    ok = exact and rT.passed and rS.passed and T.alpha == 0.5 \
        and S.alpha == gamma / (2.0 * prob.beta)
    _report(8, "averagedness constants and sampled certificates",
            ok, f"composition formula exact={exact}, worst violations "
                f"T {rT.worst_violation:.3e}, S {rS.worst_violation:.3e}")


def test_criterion_9_membership_invariants():
    rng = np.random.default_rng(909)
    worst = 0.0
    statuses = []
    diagnostic_at_pair = True
    for _ in range(4):
        prob = _random_problem(rng, max_dim=8)
        r1 = fdr_solve(prob, tol=1e-9, z0=rng.standard_normal(prob.dim),
                       trace=True)
        r2 = fpi_explicit_solve(prob, tol=1e-9,
                                x0=prob.V(rng.standard_normal(prob.dim)),
                                y0=prob.V.complement(rng.standard_normal(prob.dim)),
                                trace=True)
        r3 = ms.fpi_solve(prob, tol=1e-9, trace=True)
        for r in (r1, r2, r3):
            statuses.append(r.status)
            # every iterate, so every logged step too
            for x, y in r.trace:
                worst = max(worst, *relative_memberships(prob.V, x, y))
            diagnostic_at_pair &= r.membership_violation == max(
                relative_memberships(prob.V, r.x, r.y))
    ok = (worst <= 1e-12 and diagnostic_at_pair
          and all(s == ms.CONVERGED for s in statuses))
    _report(9, "primal stays in V, dual in its complement, at every logged step",
            ok, f"worst relative violation {worst:.3e} over {len(statuses)} runs, "
                f"diagnostic taken at the returned pair: {diagnostic_at_pair}")


def test_criterion_10_cli_determinism_and_validation(tmp_path, capsys):
    spec = {
        "schema_version": 1,
        "algorithm": "fdr",
        "dim": 2,
        "gamma": 1.0,
        "subspace": {"kind": "span", "vector": [1, 1]},
        "A": {"kind": "box", "lo": [1, 1], "hi": [2, 2]},
        "B": {"kind": "identity"},
        "init": {"kind": "random", "scale": 2.0},
        "seed": 11,
        "stop": {"tol": 1e-9, "max_iters": 5000},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    c1 = main([str(path), "-o", str(out1)])
    c2 = main([str(path), "-o", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    rejects = []
    bad_gamma = dict(spec, gamma=2.0)
    p1 = tmp_path / "bad_gamma.json"
    p1.write_text(json.dumps(bad_gamma))
    rejects.append((main([str(p1)]), "]0, 2*beta["))
    bad_dr2 = {"schema_version": 1, "algorithm": "dr2", "dim": 1,
               "A1": {"kind": "zero"}, "A2": {"kind": "zero"},
               "lambda": {"kind": "constant", "value": 1.6}}
    p2 = tmp_path / "bad_dr2.json"
    p2.write_text(json.dumps(bad_dr2))
    rejects.append((main([str(p2)]), "]0, 3/2["))
    bad_op = dict(spec, A={"kind": "frobnicate"})
    p3 = tmp_path / "bad_op.json"
    p3.write_text(json.dumps(bad_op))
    rejects.append((main([str(p3)]), "unknown operator kind"))

    err = capsys.readouterr().err
    codes_ok = all(code == EXIT_INVALID for code, _ in rejects)
    cites_ok = all(needle in err for _, needle in rejects)
    ok = c1 == 0 and c2 == 0 and identical and codes_ok and cites_ok
    _report(10, "CLI is deterministic and rejects with the admissible range",
            ok, f"byte-identical={identical}, rejection codes ok={codes_ok}, "
                f"ranges cited={cites_ok}")
