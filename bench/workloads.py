"""The four benchmark workloads: seeded generators, library builders, solve
jobs, and the independent checks of every solve.

Generation draws plain numpy arrays (and, for ``cli_batch``, JSON specs)
from the seed and is kept out of every timed phase.  ``build`` turns the
arrays into library objects through the public constructors; that is the
set-up the benchmark times.  ``solve`` runs one job through a public entry
point.  ``check`` recomputes the solve's certificate from the generated
arrays with the benchmark's own numpy code, never from the result's
diagnostic fields.

Instances come from classes with unique solutions (strongly monotone B,
boxes with a common interior point) and are never filtered by outcome.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import monosplit as ms  # noqa: E402
from monosplit import cli  # noqa: E402

if Path(ms.__file__).resolve().parent.parent != SRC.resolve():
    raise ImportError(f"monosplit was imported from {ms.__file__}, not from {SRC}")

import tracing  # noqa: E402

TOL = ms.km.DEFAULT_TOL          # every solve runs to the library's default tol
CERT_MULT = 10.0                 # certificate bound: CERT_MULT * TOL
MEMBERSHIP_TOL = 1e-8            # relative bound on dist(x, V) and |P_V y|
AGREE_TOL = 1e-6                 # relative bound on |x_fdr - x_other|
REFERENCE_TOL = 1e-6             # |x - x_exact| bound on the product workload
SETUP_REPS = 5                   # set-up is repeated, and its median reported


@dataclass(frozen=True)
class Job:
    pid: int       # problem index within the workload
    solver: str    # solver key, see each workload's SPANS
    span: str      # "<module>.<entry point>", the span around the call


def _order(rng, jobs):
    return [jobs[i] for i in rng.permutation(len(jobs))]


def fingerprint(res):
    """Everything the traced run must reproduce exactly."""
    parts = [res.status, res.iterations]
    for attr in ("x", "y", "final", "duals"):
        v = getattr(res, attr, None)
        if v is not None:
            parts.append(np.asarray(v).tobytes())
    return tuple(parts)


# ---------------------------------------------------------------------------
# inclusion problems 0 in Ax + Bx + N_V x: generator, builder, certificate
# ---------------------------------------------------------------------------

def _pd_matrix(rng, d, lo, hi):
    """Symmetric matrix with eigenvalues drawn from [lo, hi]; returns (Q, max eig)."""
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = rng.uniform(lo, hi, d)
    Q = (U * lam) @ U.T
    return 0.5 * (Q + Q.T), float(lam.max())


def _range_projector(rng, d, rank):
    W, _ = np.linalg.qr(rng.standard_normal((d, rank)))
    M = W @ W.T
    return 0.5 * (M + M.T)


def gen_inclusion(rng, d, akind, vkind):
    """Arrays of one small inclusion problem with a planted solution.

    A point ``x_star`` of V and a point of the complement of V are drawn, and
    ``b`` is set so that ``x_star`` solves ``0 in A x + Q x - b + N_V x``; Q
    is positive definite, so it is the only solution.  ``x_star`` lies at
    least 0.2 inside the box and at least 0.5 away from every soft-threshold
    kink.  ``b_var`` plants the minimizer ``x_var`` of the variational
    problem (l1 + quadratic over V) at least 0.5 away from the l1 kinks.
    Without these margins about one instance in a thousand sits next to a
    degenerate face or kink and takes 1e3 to 1e5 iterations, and the
    figures of one seed then differ from another's by more than the bounds."""
    Q, qmax = _pd_matrix(rng, d, 0.5, 1.5)
    if vkind == "zero_mean":
        vdata = None
    elif vkind == "span":
        vdata = rng.standard_normal(d)
    else:
        vdata = _range_projector(rng, d, max(1, d // 2))
    vspec = (vkind, vdata)

    def complement_point():
        u = rng.standard_normal(d)
        return u - ref_project(vspec, u)

    x_star = ref_project(vspec, rng.standard_normal(d))
    if akind == "box":
        adata = (x_star - rng.uniform(0.2, 1.0, d), x_star + rng.uniform(0.2, 1.0, d))
        a = np.zeros(d)
    elif akind == "abs":
        a = rng.choice([-1.0, 1.0], d)
        adata = x_star - a * rng.uniform(0.5, 1.5, d)
    else:
        # monotone: PSD symmetric part with eigenvalues in [0, 1] plus a skew
        # part whose size does not grow with d
        M, _ = _pd_matrix(rng, d, 0.0, 1.0)
        S = rng.standard_normal((d, d)) / np.sqrt(d)
        adata = (M + 0.5 * (S - S.T), rng.standard_normal(d))
        a = adata[0] @ x_star + adata[1]
    x_var = ref_project(vspec, rng.standard_normal(d))
    x_var *= max(1.0, 0.5 / np.min(np.abs(x_var)))
    return {"d": d, "Q": Q, "qmax": qmax, "V": vspec, "A": (akind, adata),
            "b": a + Q @ x_star + complement_point(), "x_star": x_star,
            "b_var": np.sign(x_var) + Q @ x_var + complement_point(), "x_var": x_var}


def build_subspace(vspec, d):
    kind, data = vspec
    if kind == "zero_mean":
        return ms.zero_mean_projector(d)
    if kind == "span":
        return ms.span_projector(data)
    return ms.matrix_projector(data)


def build_operator(aspec, d):
    kind, data = aspec
    if kind == "box":
        return ms.normal_cone_box(*data)
    if kind == "abs":
        return ms.subdifferential_abs(d, center=data)
    return ms.linear_monotone(*data)


def project_bytes(vspec, d):
    """Computed bytes one projector application reads and writes."""
    kind = vspec[0]
    if kind == "matrix":
        return 8 * (d * d + 2 * d)
    return 8 * (3 * d if kind == "zero_mean" else 4 * d)


def forward_bytes(d):
    """Computed bytes of one ``Q x - b`` evaluation."""
    return 8 * (d * d + 3 * d)


def ref_project(vspec, x):
    kind, data = vspec
    if kind == "zero_mean":
        return x - np.sum(x) / x.shape[0]
    if kind == "span":
        return data * (np.dot(data, x) / np.dot(data, data))
    return data @ x


def ref_resolvent(aspec, gamma, s):
    kind, data = aspec
    if kind == "box":
        return np.minimum(np.maximum(s, data[0]), data[1])
    if kind in ("abs", "l1"):
        c = 0.0 if kind == "l1" else data
        r = s - c
        return c + np.sign(r) * np.maximum(np.abs(r) - gamma, 0.0)
    M, bA = data
    return np.linalg.solve(np.eye(s.shape[0]) + gamma * M, s - gamma * bA)


def certificate_error(p, aspec, b, x, y):
    """Checks x in V, y in V-perp and |x - J(x - g P_V (Qx - b) + g y)| <=
    CERT_MULT*TOL with g = 1/lambda_max(Q), the solvers' default step; None
    when all hold."""
    gamma = 1.0 / p["qmax"]
    V = p["V"]
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    gap_x = np.linalg.norm(x - ref_project(V, x)) / (1.0 + nx)
    gap_y = np.linalg.norm(ref_project(V, y)) / (1.0 + ny)
    if not (gap_x <= MEMBERSHIP_TOL and gap_y <= MEMBERSHIP_TOL):
        return f"membership x {gap_x:.2e}, y {gap_y:.2e}"
    s = x - gamma * ref_project(V, p["Q"] @ x - b) + gamma * y
    cert = np.linalg.norm(x - ref_resolvent(aspec, gamma, s))
    if not cert <= CERT_MULT * TOL:
        return f"certificate {cert:.2e} > {CERT_MULT * TOL:.0e}"
    return None


class _InclusionWorkload:
    """Shared parts of the two workloads built from inclusion problems."""

    SPANS = {"fdr": "fdr.fdr_solve", "fpi": "fpi.fpi_solve",
             "fpi_explicit": "fpi.fpi_explicit_solve", "km": "km.km_solve",
             "variational": "variational.min_over_subspace"}
    # solvers whose primal point must agree with fdr's on the same problem
    AGREE = ("fpi", "fpi_explicit", "km")

    def _jobs(self, rng, solvers):
        jobs = [Job(pid, s, self.SPANS[s])
                for pid in range(len(self.problems)) for s in solvers]
        return _order(rng, jobs)

    @contextlib.contextmanager
    def traced(self, built, tracer):
        wrapped = []
        for p, o in zip(self.problems, built):
            d = p["d"]
            A = tracing.ResolventProxy(o["A"], tracer)
            B = tracing.ForwardProxy(o["B"], tracer, forward_bytes(d))
            V = tracing.ProjectorProxy(o["V"], tracer, project_bytes(p["V"], d))
            w = dict(o, A=A, B=B, V=V, prob=ms.InclusionProblem(A, B, V))
            if "f" in o:
                w["f"] = tracing.ProxFunctionProxy(o["f"], tracer)
                w["g"] = tracing.SmoothFunctionProxy(o["g"], tracer, forward_bytes(d))
            wrapped.append(w)
        yield wrapped

    def solve(self, built, job):
        o = built[job.pid]
        s = job.solver
        if s == "fdr":
            return ms.fdr_solve(o["prob"], a_errors=o.get("err"))
        if s == "fpi":
            return ms.fpi_solve(o["prob"])
        if s == "fpi_explicit":
            return ms.fpi_explicit_solve(o["prob"])
        if s == "km":
            gamma = o["B"].beta
            err = o.get("err")
            ops = [ms.build_T(o["A"], o["V"], gamma), ms.build_S(o["B"], o["V"], gamma)]
            return ms.km_solve(ops, errors=None if err is None else [err, None],
                               inner=o["V"].inner)
        return ms.min_over_subspace(o["f"], o["g"], o["V"], a_errors=o.get("err"))

    def primal(self, job, res):
        if job.solver == "km":
            return ref_project(self.problems[job.pid]["V"], res.final)
        return res.x

    def check(self, job, res):
        if res.status != ms.CONVERGED:
            return f"status {res.status}"
        p = self.problems[job.pid]
        if job.solver == "variational":
            aspec, b, x_ref = ("l1", None), p["b_var"], p["x_var"]
        else:
            aspec, b, x_ref = p["A"], p["b"], p["x_star"]
        if job.solver == "km":
            x = ref_project(p["V"], res.final)
            y = (x - res.final) * p["qmax"]
        else:
            x, y = res.x, res.y
        err = certificate_error(p, aspec, b, x, y)
        if err is None:
            dist = np.linalg.norm(x - x_ref) / (1.0 + np.linalg.norm(x_ref))
            if not dist <= AGREE_TOL:
                err = f"relative distance {dist:.2e} to the planted solution"
        return err

    def agreement(self, primal):
        """Jobs whose primal point differs from fdr's on the same problem."""
        bad = []
        for job, x in primal.items():
            if job.solver not in self.AGREE:
                continue
            ref = primal.get(Job(job.pid, "fdr", self.SPANS["fdr"]))
            if ref is None:
                continue
            if np.linalg.norm(x - ref) > AGREE_TOL * (1.0 + np.linalg.norm(ref)):
                bad.append(job)
        return bad

    def iterations(self, res):
        return res.iterations

    fingerprint = staticmethod(fingerprint)


class SmallMixed(_InclusionWorkload):
    """Many small problems through every inclusion solver at library defaults."""

    name = "small_mixed"
    CALIBRATION = ("python", "python")   # kernels for the solves and the set-up
    DIMS = (2, 8, 32)
    A_KINDS = ("box", "abs", "linear")
    V_KINDS = ("zero_mean", "span", "matrix")
    REPEATS = 32         # problems per (d, A, V) cell
    ERROR_EVERY = 4      # every 4th problem carries summable geometric errors
    SOLVERS = ("fdr", "fpi", "fpi_explicit", "km", "variational")

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        cells = [(d, a, v) for d in self.DIMS for a in self.A_KINDS for v in self.V_KINDS]
        self.problems = [gen_inclusion(rng, d, a, v) for d, a, v in cells * self.REPEATS]
        self.jobs = self._jobs(rng, self.SOLVERS)
        self.sizes = {"problems": len(self.problems), "dims": list(self.DIMS),
                      "errored_share": 1.0 / self.ERROR_EVERY}

    def build(self):
        built = []
        for i, p in enumerate(self.problems):
            d = p["d"]
            A = build_operator(p["A"], d)
            B = ms.affine_gradient(p["Q"], p["b"])
            V = build_subspace(p["V"], d)
            o = {"A": A, "B": B, "V": V, "prob": ms.InclusionProblem(A, B, V),
                 "f": ms.l1_function(d), "g": ms.quadratic_smooth(p["Q"], p["b_var"])}
            if i % self.ERROR_EVERY == 0:
                o["err"] = ms.geometric_errors(d, 0.1, 0.5)
            built.append(o)
        return built


class DenseLarge(_InclusionWorkload):
    """One dense d x d problem family solved for several right-hand sides."""

    name = "dense_large"
    CALIBRATION = ("matvec", "lapack")
    D = 1000
    RHS = 6
    SOLVERS = ("fdr", "fpi_explicit")

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        d = self.D
        Q, qmax = _pd_matrix(rng, d, 1.0, 2.0)
        V = ("matrix", _range_projector(rng, d, d // 2))
        half = rng.uniform(2.0, 3.0, d)
        A = ("box", (-half, half))
        self.problems = []
        for _ in range(self.RHS):
            # planted solution well inside the box: every right-hand side
            # then needs about the same number of iterations
            x_star = ref_project(V, 0.3 * rng.standard_normal(d))
            u = rng.standard_normal(d)
            b = Q @ x_star + u - ref_project(V, u)
            self.problems.append({"d": d, "Q": Q, "qmax": qmax, "b": b, "V": V,
                                  "A": A, "x_star": x_star})
        self.jobs = self._jobs(rng, self.SOLVERS)
        self.sizes = {"d": d, "rank_V": d // 2, "rhs": self.RHS,
                      "matrix_mb": 8 * d * d / 2**20}

    def build(self):
        p0 = self.problems[0]
        A = build_operator(p0["A"], self.D)
        V = build_subspace(p0["V"], self.D)
        built = []
        for p in self.problems:
            B = ms.affine_gradient(p["Q"], p["b"])
            built.append({"A": A, "B": B, "V": V, "prob": ms.InclusionProblem(A, B, V)})
        return built


# ---------------------------------------------------------------------------
# product_blocks: 0 in sum_i A_i x + Bx with separable data and an exact answer
# ---------------------------------------------------------------------------

def gen_product(rng, m, d, n_abs, abs_weight):
    """m - n_abs boxes around a common interior point, n_abs soft-thresholds,
    a diagonal strongly monotone B, and the abs blocks carrying ``abs_weight``.

    The solution is planted: ``b`` is set so that a drawn point solves the
    inclusion strictly inside every box and at distance >= 0.5 from every
    soft-threshold kink.  Such instances are nondegenerate, which keeps the
    iteration counts of one seed close to those of another."""
    n_box = m - n_abs
    x_star = rng.standard_normal(d)
    centre = x_star + rng.uniform(-1.0, 1.0, d)
    boxes = [(centre - rng.uniform(3.0, 6.0, d), centre + rng.uniform(3.0, 6.0, d))
             for _ in range(n_box)]
    centers = [x_star + rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 2.0, d)
               for _ in range(n_abs)]
    q = rng.uniform(0.5, 1.5, d)
    b = q * x_star + sum(np.sign(x_star - c) for c in centers)
    weights = np.r_[np.full(n_box, (1.0 - abs_weight) / n_box),
                    np.full(n_abs, abs_weight / n_abs)]
    return {"m": m, "d": d, "boxes": boxes, "centers": centers,
            "weights": weights / weights.sum(), "q": q, "b": b}


def exact_sum_solution(p):
    """Unique zero of sum_i A_i + B, coordinate by coordinate: the minimizer of
    q t^2/2 - b t + sum_j |t - c_j| over the intersection of the boxes."""
    C = np.array(p["centers"])
    lo = np.max([bx[0] for bx in p["boxes"]], axis=0)
    hi = np.min([bx[1] for bx in p["boxes"]], axis=0)
    n_abs = C.shape[0]
    x = np.empty(p["d"])
    for k in range(p["d"]):
        q, b, c = p["q"][k], p["b"][k], C[:, k]
        cand = np.r_[c, (b - np.arange(-n_abs, n_abs + 1)) / q]
        vals = 0.5 * q * cand**2 - b * cand + np.abs(cand[:, None] - c[None, :]).sum(axis=1)
        x[k] = min(max(cand[np.argmin(vals)], lo[k]), hi[k])
    return x


class ProductBlocks:
    """Product-space reductions at m = 3 and m = 50 blocks of dimension 4."""

    name = "product_blocks"
    CALIBRATION = ("python", "python")
    M_SIZES = (3, 50)
    BASE_DIM = 4
    INSTANCES = 64       # per block count
    N_ABS = 2
    ABS_WEIGHT = 0.8
    SOLVERS = ("sum_splitting", "sum_splitting_pi", "dr2")
    SPANS = {"sum_splitting": "productspace.sum_splitting_solve",
             "sum_splitting_pi": "productspace.sum_splitting_pi",
             "dr2": "productspace.parallel_dr2"}

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.problems = [gen_product(rng, m, self.BASE_DIM, min(self.N_ABS, m - 1),
                                     self.ABS_WEIGHT)
                         for m in self.M_SIZES for _ in range(self.INSTANCES)]
        self.exact = [exact_sum_solution(p) for p in self.problems]
        self.jobs = _order(rng, [Job(pid, s, self.SPANS[s])
                                 for pid in range(len(self.problems))
                                 for s in self.SOLVERS])
        self.sizes = {"m": list(self.M_SIZES), "base_dim": self.BASE_DIM,
                      "instances_per_m": self.INSTANCES}

    def build(self):
        built = []
        for p in self.problems:
            blocks = [ms.normal_cone_box(lo, hi) for lo, hi in p["boxes"]]
            blocks += [ms.subdifferential_abs(p["d"], center=c) for c in p["centers"]]
            B = ms.affine_gradient(np.diag(p["q"]), p["b"])
            built.append({"blocks": blocks, "B": B,
                          "prob": ms.ProductProblem(blocks, B, p["weights"])})
        return built

    @contextlib.contextmanager
    def traced(self, built, tracer):
        wrapped = []
        for p, o in zip(self.problems, built):
            blocks = [tracing.ResolventProxy(A, tracer) for A in o["blocks"]]
            B = tracing.ForwardProxy(o["B"], tracer, forward_bytes(p["d"]))
            wrapped.append({"blocks": blocks, "B": B,
                            "prob": ms.ProductProblem(blocks, B, p["weights"])})
        yield wrapped

    def solve(self, built, job):
        o = built[job.pid]
        if job.solver == "sum_splitting":
            return ms.sum_splitting_solve(o["prob"])
        if job.solver == "sum_splitting_pi":
            return ms.sum_splitting_pi(o["prob"])
        return ms.parallel_dr2(o["blocks"][0], o["blocks"][-1])

    def _exact(self, job):
        p = self.problems[job.pid]
        if job.solver == "dr2":
            # 0 in N_box(x) + d|x - c|: the point of the first box nearest c
            lo, hi = p["boxes"][0]
            return np.clip(p["centers"][-1], lo, hi)
        return self.exact[job.pid]

    def primal(self, job, res):
        return res.final

    def check(self, job, res):
        if res.status != ms.CONVERGED:
            return f"status {res.status}"
        err = float(np.max(np.abs(res.final - self._exact(job))))
        if not err <= REFERENCE_TOL:
            return f"distance to the exact solution {err:.2e} > {REFERENCE_TOL:.0e}"
        return None

    def agreement(self, primal):
        return []

    def iterations(self, res):
        return res.iterations

    fingerprint = staticmethod(fingerprint)


# ---------------------------------------------------------------------------
# cli_batch: generated JSON specs through cli.main
# ---------------------------------------------------------------------------

@dataclass
class CliOutcome:
    status: int          # exit code
    iterations: int      # from the summary line, -1 when absent
    csv: bytes
    stdout: str
    stderr: str


_ITER_RE = re.compile(r"iterations=(\d+)")


def _vec(a):
    return [float(v) for v in a]


def _mat(a):
    return [[float(v) for v in row] for row in a]


def _inclusion_fields(p):
    vkind, vdata = p["V"]
    if vkind == "zero_mean":
        sub = {"kind": "zero_mean"}
    elif vkind == "span":
        sub = {"kind": "span", "vector": _vec(vdata)}
    else:
        sub = {"kind": "matrix", "rows": _mat(vdata)}
    akind, adata = p["A"]
    if akind == "box":
        A = {"kind": "box", "lo": _vec(adata[0]), "hi": _vec(adata[1])}
    elif akind == "abs":
        A = {"kind": "abs", "center": _vec(adata)}
    else:
        A = {"kind": "linear", "M": _mat(adata[0]), "b": _vec(adata[1])}
    B = {"kind": "affine_gradient", "Q": _mat(p["Q"]), "b": _vec(p["b"])}
    return sub, A, B


def _spec(algorithm, d, seed, **fields):
    spec = {"schema_version": 1, "algorithm": algorithm, "dim": d,
            "stop": {"tol": TOL, "max_iters": 100000}, "seed": seed}
    spec.update(fields)
    return spec


class CliBatch:
    """Generated specs run in-process through ``cli.main`` with default flags."""

    name = "cli_batch"
    CALIBRATION = ("io", "python")
    ALGORITHMS = ("fdr", "fpi-explicit", "variational", "km", "product", "dr2")
    PER_ALGORITHM = 40
    INVALID = ("gamma", "subspace", "errors", "weights")
    DIMS = (2, 4, 8)
    KINDS = [(a, v) for a in ("box", "abs", "linear") for v in ("zero_mean", "span", "matrix")]

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        self.workdir = Path(workdir)
        specs = []   # (spec dict, valid)
        for i in range(self.PER_ALGORITHM):
            for alg in self.ALGORITHMS:
                specs.append((self._valid_spec(rng, alg, i, seed), True))
        for kind in self.INVALID:
            specs.append((self._invalid_spec(rng, kind, seed), False))
        self.specs = specs
        self.texts = [json.dumps(s, indent=1) for s, _ in specs]
        self.paths = [self.workdir / "specs" / f"spec{i:03d}.json" for i in range(len(specs))]
        self.out_dir = self.workdir / "out"
        self.jobs = _order(rng, [Job(i, "cli", "cli.main") for i in range(len(specs))])
        self.sizes = {"specs": len(specs), "invalid": len(self.INVALID),
                      "dims": list(self.DIMS)}

    def _valid_spec(self, rng, alg, i, seed):
        d = self.DIMS[i % len(self.DIMS)]
        if alg in ("fdr", "fpi-explicit", "variational"):
            akind, vkind = self.KINDS[(i * 5 + len(alg)) % len(self.KINDS)]
            p = gen_inclusion(rng, d, akind, vkind)
            sub, A, B = _inclusion_fields(p)
            if alg == "variational":
                return _spec(alg, d, seed, subspace=sub, f={"kind": "l1"},
                             g={"kind": "quadratic", "Q": B["Q"], "b": _vec(p["b_var"])})
            fields = {"subspace": sub, "A": A, "B": B}
            if alg == "fdr" and i % 2 == 0:
                fields["errors"] = {"a": {"kind": "geometric", "magnitude": 0.1, "rate": 0.5}}
            return _spec(alg, d, seed, **fields)
        if alg == "km":
            # P_V o J_{A}: J of a strongly monotone affine A is a contraction,
            # so the composition has exactly one fixed point
            M, _ = _pd_matrix(rng, d, 0.5, 1.5)
            S = rng.standard_normal((d, d))
            ops = [{"type": "projector", "kind": "zero_mean"},
                   {"type": "resolvent", "gamma": 1.0, "kind": "linear",
                    "M": _mat(M + 0.5 * (S - S.T)), "b": _vec(rng.standard_normal(d))}]
            return _spec(alg, d, seed, ops=ops)
        p = gen_product(rng, 3, d, 1, 0.5)
        boxes = [{"kind": "box", "lo": _vec(lo), "hi": _vec(hi)} for lo, hi in p["boxes"]]
        absb = [{"kind": "abs", "center": _vec(c)} for c in p["centers"]]
        if alg == "dr2":
            return _spec(alg, d, seed, A1=boxes[0], A2=absb[0])
        B = {"kind": "affine_gradient", "Q": _mat(np.diag(p["q"])), "b": _vec(p["b"])}
        return _spec(alg, d, seed, blocks=boxes + absb, B=B, weights=_vec(p["weights"]))

    def _invalid_spec(self, rng, kind, seed):
        d = 4
        p = gen_inclusion(rng, d, "box", "zero_mean")
        sub, A, B = _inclusion_fields(p)
        if kind == "gamma":
            return _spec("fdr", d, seed, subspace=sub, A=A, B=B, gamma=3.0 / p["qmax"])
        if kind == "subspace":
            return _spec("fdr", d, seed, subspace={"kind": "hyperplane"}, A=A, B=B)
        if kind == "errors":
            return _spec("fdr", d, seed, subspace=sub, A=A, B=B,
                         errors={"a": {"kind": "harmonic", "magnitude": 0.1}})
        return _spec("product", d, seed, blocks=[A, A], B=B, weights=[0.7, 0.7])

    def write_specs(self):
        (self.workdir / "specs").mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for path, text in zip(self.paths, self.texts):
            path.write_text(text)

    def build(self):
        for text in self.texts:
            try:
                cli.parse_spec(text)
            except cli.SpecValidationError:
                pass
        return self.paths

    @contextlib.contextmanager
    def traced(self, built, tracer):
        names = ("parse_spec", "run", "emit_csv")
        saved = {n: getattr(cli, n) for n in names}

        def wrap(name, fn):
            return lambda *args: tracer.call(f"cli.{name}", 0, fn, *args)

        try:
            for n in names:
                setattr(cli, n, wrap(n, saved[n]))
            yield built
        finally:
            for n in names:
                setattr(cli, n, saved[n])

    def solve(self, built, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(built[job.pid]), "-o", str(self.out_dir)])
        m = _ITER_RE.search(out.getvalue())
        return CliOutcome(code, int(m.group(1)) if m else -1, b"",
                          out.getvalue(), err.getvalue())

    def check(self, job, res):
        """Reads the CSV into ``res.csv`` (and removes the file, so the next
        run of the spec must write it again), then checks the outcome."""
        csv_path = self.out_dir / (self.paths[job.pid].stem + ".csv")
        if csv_path.exists():
            res.csv = csv_path.read_bytes()
            csv_path.unlink()
        spec, valid = self.specs[job.pid]
        if not valid:
            if res.status != cli.EXIT_INVALID or res.csv or not res.stderr:
                return f"invalid spec exited {res.status}, expected {cli.EXIT_INVALID}"
            return None
        if res.status != cli.EXIT_CONVERGED:
            return f"exit {res.status}"
        rows = list(csv.reader(io.StringIO(res.csv.decode())))
        if not rows or rows[0] != ["n", "lambda", "residual", "dx", "dy", "objective"]:
            return "bad CSV header"
        ns = [int(r[0]) for r in rows[1:]]
        if ns != list(range(len(ns))) or not ns or ns[-1] != res.iterations:
            return "CSV rows do not match the iteration count"
        if not float(rows[-1][2]) <= spec["stop"]["tol"]:
            return f"final residual {rows[-1][2]} above tol"
        return None

    def primal(self, job, res):
        return None

    def agreement(self, primal):
        return []

    def iterations(self, res):
        return max(res.iterations, 0)

    def fingerprint(self, res):
        return (res.status, res.iterations, res.csv)

    def cli_counts(self, results):
        valid = [r for job, r in results if self.specs[job.pid][1]]
        rejected = sum(1 for _, r in results if r.status == cli.EXIT_INVALID)
        return len(results), len(valid), rejected, sum(len(r.csv) for r in valid)


WORKLOADS = {"small_mixed": SmallMixed, "dense_large": DenseLarge,
             "product_blocks": ProductBlocks, "cli_batch": CliBatch}
