"""Batch harness: parse a JSON problem spec, run a solver, emit CSV.

The input is a JSON document with ``schema_version: 1`` selecting one of the
algorithms {fdr, fpi, fpi-explicit, km, product, dr2, variational, pi-sum}
and describing the operators, schedules, initialization and stopping rule
from the built-in constructors (field-by-field schema in the README).  Every
descriptor is read through one vocabulary table (family -> kind ->
constructor and fields), and every admissible range is checked by the
library's own validators.  All validation errors are collected and reported
together, each citing the admissible range it violates, before any
iteration runs.

Output: a CSV with the fixed columns ``n,lambda,residual,dx,dy,objective``
(one row per logged iteration) and a summary line on stdout.  Sequential
runs of the same spec and seed produce byte-identical CSV.

Exit codes: 0 converged, 2 iteration budget exhausted, 3 diverged,
64 invalid spec, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import fdr, fpi, km, operators, productspace, spaces, variational

__all__ = [
    "SCHEMA_VERSION",
    "EXIT_CONVERGED",
    "EXIT_MAX_ITERS",
    "EXIT_DIVERGED",
    "EXIT_INVALID",
    "SpecValidationError",
    "ProblemSpec",
    "RunRecord",
    "parse_spec",
    "run",
    "emit_csv",
    "main",
]

SCHEMA_VERSION = 1
EXIT_CONVERGED = 0
EXIT_MAX_ITERS = 2
EXIT_DIVERGED = 3
EXIT_INVALID = 64
EXIT_ERROR = 1

_STATUS_CODES = {km.CONVERGED: EXIT_CONVERGED,
                 km.MAX_ITERS: EXIT_MAX_ITERS,
                 km.DIVERGED: EXIT_DIVERGED}

class SpecValidationError(ValueError):
    """Carries every validation error found in a problem spec."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ProblemSpec:
    """A fully validated problem description ready to run."""
    algorithm: str
    tol: float
    max_iters: int
    seed: int
    log_every: int
    launch: object


@dataclass
class RunRecord:
    rows: list
    summary: dict


# ---------------------------------------------------------------------------
# field readers (collect all errors, never raise until the end)
# ---------------------------------------------------------------------------

def _num(data, key, errors, path, default=None, required=False):
    if key not in data:
        if required:
            errors.append(f"{path}{key}: required field is missing")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
        errors.append(f"{path}{key}: expected a number, got {v!r}")
        return default
    return float(v)


def _intval(data, key, errors, path, default=None, required=False, minimum=None):
    if key not in data:
        if required:
            errors.append(f"{path}{key}: required field is missing")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        errors.append(f"{path}{key}: expected an integer, got {v!r}")
        return default
    if minimum is not None and v < minimum:
        errors.append(f"{path}{key}: must be >= {minimum}, got {v}")
        return default
    return v


def _vec(value, dim, errors, path, finite=True):
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{path}: expected a numeric vector")
        return None
    if dim is not None:
        v = np.broadcast_to(v, (dim,)).astype(float) if v.ndim == 0 else v
    if v.ndim != 1 or (dim is not None and v.shape[0] != dim):
        errors.append(f"{path}: expected a vector of length {dim}, got shape {v.shape}")
        return None
    if finite and not np.all(np.isfinite(v)):
        errors.append(f"{path}: vector has non-finite entries")
        return None
    return v


def _mat(value, dim, errors, path):
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{path}: expected a numeric matrix")
        return None
    if M.ndim != 2 or M.shape != (dim, dim):
        errors.append(f"{path}: expected a {dim}x{dim} matrix, got shape {M.shape}")
        return None
    return M


def _check(errors, path, fn, *args):
    """``fn(*args)``, a library constructor or range check; its ``ValueError``
    (or an overflow or division by zero while checking) is recorded under
    ``path`` and gives None."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as e:
        errors.append(f"{path}: {e}")
        return None


def _is_object(value, errors, path, what="an object with a 'kind' field"):
    if isinstance(value, dict):
        return True
    errors.append(f"{path}: expected {what}")
    return False


def _section(data, key, errors):
    """The object ``data[key]`` of named fields; absent or empty reads as {}."""
    value = data.get(key) or {}
    return value if _is_object(value, errors, key, "an object") else {}


# ---------------------------------------------------------------------------
# descriptor vocabularies: family -> kind -> (constructor, fields)
# ---------------------------------------------------------------------------

def _unstable(dim, factor):
    # fault-injection hook: an expansive pseudo-resolvent that violates
    # nonexpansiveness so runs blow up and exercise divergence handling
    return operators.ResolventFamily(lambda gamma, x: factor * x, dim,
                                     label="unstable")


def _identity_map(dim):
    return operators.CocoerciveMap(lambda x: x.copy(), 1.0, dim, label="identity")


# A field is ``(key, how)``; the constructor receives the fields in order.
# ``how`` is "dim" (the spec's dimension), "vec" or "mat" (a vector or square
# matrix of that dimension), "vec?" (a vector, None when the key is absent),
# "bound" (a vector whose entries may be infinite, a box bound: the
# constructor rejects NaN), "num" (a required number), a float (a number
# defaulting to it) or a family name (a nested descriptor).
_DIM = (None, "dim")

_VOCABULARY = {
    "subspace": {
        "identity": (spaces.identity_projector, [_DIM]),
        "zero": (spaces.zero_projector, [_DIM]),
        "zero_mean": (spaces.zero_mean_projector, [_DIM]),
        "span": (spaces.span_projector, [("vector", "vec")]),
        "matrix": (spaces.matrix_projector, [("rows", "mat")]),
    },
    "operator": {
        "zero": (operators.zero_operator, [_DIM]),
        "abs": (operators.subdifferential_abs, [_DIM, ("center", "vec?")]),
        "box": (operators.normal_cone_box, [("lo", "bound"), ("hi", "bound")]),
        "linear": (operators.linear_monotone, [("M", "mat"), ("b", "vec?")]),
        "normal_cone": (operators.normal_cone_of_subspace, [("subspace", "subspace")]),
        "unstable": (_unstable, [_DIM, ("factor", 1e6)]),
    },
    "forward-map": {
        "zero": (operators.zero_cocoercive, [_DIM, ("beta", 1.0)]),
        "identity": (_identity_map, [_DIM]),
        "affine_gradient": (operators.affine_gradient, [("Q", "mat"), ("b", "vec?")]),
    },
    "prox": {
        "l1": (variational.l1_function, [_DIM]),
        "box": (variational.box_function, [("lo", "bound"), ("hi", "bound")]),
        "quadratic": (variational.quadratic_function, [("Q", "mat"), ("b", "vec?")]),
        "zero": (variational.zero_function, [_DIM]),
    },
    "smooth": {
        "quadratic": (variational.quadratic_smooth, [("Q", "mat"), ("b", "vec?")]),
        "zero": (variational.zero_smooth, [_DIM, ("lipschitz", 1.0)]),
    },
    "relaxation": {
        "constant": (km.constant_relaxation, [("value", "num")]),
        "polynomial": (km.polynomial_relaxation, [("c", "num"), ("p", "num")]),
    },
    "step": {
        "constant": (fpi.constant_steps, [("value", "num")]),
    },
    "error-schedule": {
        "zero": (km.no_errors, [_DIM]),
        "geometric": (km.geometric_errors, [_DIM, ("magnitude", "num"),
                                            ("rate", "num"), ("direction", "vec?")]),
        "harmonic": (km.harmonic_errors, [_DIM, ("magnitude", "num"),
                                          ("direction", "vec?")]),
    },
}

_ZERO_B = {"kind": "zero", "beta": 1.0}
_UNIT_LAMBDA = km.constant_relaxation(1.0)
_UNIT_DELTA = fpi.constant_steps(1.0)


def _field(desc, key, how, dim, errors, path):
    if how == "dim":
        return dim
    if how == "vec?":
        return _vec(desc[key], dim, errors, f"{path}.{key}") if key in desc else None
    if how in ("vec", "bound"):
        return _vec(desc.get(key), dim, errors, f"{path}.{key}",
                    finite=how == "vec")
    if how == "mat":
        return _mat(desc.get(key), dim, errors, f"{path}.{key}")
    if how == "num":
        return _num(desc, key, errors, f"{path}.", required=True)
    if isinstance(how, float):
        return _num(desc, key, errors, f"{path}.", default=how)
    return _required(desc, key, how, dim, errors, f"{path}.{key}")


def _build(family, desc, dim, errors, path):
    """Construct the ``family`` descriptor ``desc`` found at ``path``.

    Reads the fields its kind declares, then calls the kind's constructor;
    None once any problem with the descriptor is recorded in ``errors``.
    """
    if not _is_object(desc, errors, path):
        return None
    kinds = _VOCABULARY[family]
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        errors.append(f"{path}.kind: unknown {family} kind {kind!r}; "
                      f"known kinds: {', '.join(kinds)}")
        return None
    make, fields = kinds[kind]
    before = len(errors)
    args = [_field(desc, key, how, dim, errors, path) for key, how in fields]
    if len(errors) > before:
        return None
    return _check(errors, path, make, *args)


def _required(data, key, family, dim, errors, path=None):
    path = key if path is None else path
    if key not in data:
        errors.append(f"{path}: required field is missing")
        return None
    return _build(family, data[key], dim, errors, path)


def _optional(data, key, family, errors, default):
    """``data[key]`` built as a ``family`` descriptor; missing or null is ``default``."""
    desc = data.get(key)
    return default if desc is None else _build(family, desc, None, errors, key)


def _schedule(desc, dim, errors, path):
    """Error schedule (None when absent), audited for summability."""
    if desc is None:
        return None
    sched = _build("error-schedule", desc, dim, errors, path)
    if sched is not None:
        _check(errors, path, sched.validate)
    return sched


def _schedules(descs, n, dim, errors, path):
    """One error schedule (or null) per operator block."""
    if not isinstance(descs, list) or len(descs) != n:
        errors.append(f"{path}: expected a list of {n} schedules")
        return None
    return [_schedule(d, dim, errors, f"{path}[{i}]") for i, d in enumerate(descs)]


def _no_errors(data, algorithm, errors):
    """Reject ``errors`` on an algorithm whose solver takes no error schedules,
    rather than run without them."""
    if data.get("errors") is not None:
        errors.append(f"errors: algorithm {algorithm!r} takes no error schedules")


def _init(desc, shape, keys, errors):
    """Start point ``rng -> array`` of ``shape`` from an ``init`` descriptor.

    Kinds: ``zeros`` (also for an absent descriptor); ``random``, ``scale``
    times standard normals; ``value``, the vectors under ``keys`` stacked,
    or, for one key and a two-dimensional ``shape``, any array of that many
    numbers.  Every key of a ``value`` is required.
    """
    if desc is None:
        return lambda rng: np.zeros(shape)
    if not _is_object(desc, errors, "init"):
        return None
    kind = desc.get("kind")
    if kind == "zeros":
        return lambda rng: np.zeros(shape)
    if kind == "random":
        scale = _num(desc, "scale", errors, "init.", default=1.0)
        if not np.isfinite(scale):
            errors.append(f"init.scale: must be finite, got {scale}")
            return None
        return lambda rng: scale * rng.standard_normal(shape)
    if kind != "value":
        errors.append(f"init.kind: unknown init kind {kind!r}; "
                      "known kinds: zeros, random, value")
        return None
    missing = [f"init.{k}: required field is missing" for k in keys if k not in desc]
    if missing:
        errors.extend(missing)
        return None
    if len(keys) == 1 and len(shape) == 2:
        try:
            v = np.asarray(desc[keys[0]], dtype=float).reshape(shape)
        except (TypeError, ValueError):
            errors.append(f"init.{keys[0]}: expected {shape[0]} vectors "
                          f"of length {shape[1]}")
            return None
        if not np.isfinite(v).all():
            errors.append(f"init.{keys[0]}: vectors have non-finite entries")
            return None
    else:
        rows = [_vec(desc[k], shape[-1], errors, f"init.{k}") for k in keys]
        if any(r is None for r in rows):
            return None
        v = np.array(rows).reshape(shape)
    return lambda rng: v.copy()


def _forward_ranges(B, gamma, relax, errors, closed=False):
    """``gamma`` in ]0, 2 beta[ (default beta), then the relaxations in
    ]0, 1/alpha[, or in [epsilon, 1] for the partial-inverse forms."""
    if B is None:
        return
    g = B.beta if gamma is None else gamma
    if _check(errors, "gamma", fdr.check_gamma, g, B.beta) is None or relax is None:
        return
    if closed:
        _check(errors, "lambda", relax.validate_closed, fpi.DEFAULT_EPSILON, 1.0)
    else:
        _check(errors, "lambda", relax.validate_open, fdr.averagedness(g, B.beta))


# ---------------------------------------------------------------------------
# per-algorithm builders: fields, range check and solver call
# ---------------------------------------------------------------------------

def _build_fdr(data, dim, errors, variational_mode=False):
    V = _required(data, "subspace", "subspace", dim, errors)
    if variational_mode:
        f = _required(data, "f", "prox", dim, errors)
        g = _required(data, "g", "smooth", dim, errors)
        B = None if g is None else g.as_cocoercive()
    else:
        A = _required(data, "A", "operator", dim, errors)
        B = _build("forward-map", data.get("B", _ZERO_B), dim, errors, "B")
    gamma = _num(data, "gamma", errors, "")
    relax = _optional(data, "lambda", "relaxation", errors, _UNIT_LAMBDA)
    errs = _section(data, "errors", errors)
    a_errors = _schedule(errs.get("a"), dim, errors, "errors.a")
    b_errors = _schedule(errs.get("b"), dim, errors, "errors.b")
    start = _init(data.get("init"), (dim,), ("z",), errors)
    _forward_ranges(B, gamma, relax, errors)
    if errors:
        return None
    if variational_mode:
        solve = partial(variational.min_over_subspace, f, g, V)
    else:
        solve = partial(fdr.fdr_solve, fdr.InclusionProblem(A, B, V))
    return lambda rng, tol, max_iters, log_every: solve(
        gamma=gamma, relaxation=relax, a_errors=a_errors, b_errors=b_errors,
        z0=start(rng), tol=tol, max_iters=max_iters, log_every=log_every)


def _build_fpi(data, dim, errors, explicit=False):
    V = _required(data, "subspace", "subspace", dim, errors)
    A = _required(data, "A", "operator", dim, errors)
    B = _build("forward-map", data.get("B", _ZERO_B), dim, errors, "B")
    gamma = _num(data, "gamma", errors, "")
    relax = _optional(data, "lambda", "relaxation", errors, _UNIT_LAMBDA)
    steps = None if explicit else _optional(data, "delta", "step", errors, _UNIT_DELTA)
    _no_errors(data, "fpi-explicit" if explicit else "fpi", errors)
    init = data.get("init") or None
    x_start = _init(init, (dim,), ("x",), errors)
    kind = init.get("kind") if isinstance(init, dict) else None
    y0 = np.zeros(dim)
    if kind == "value" and "y" in init:
        y0 = _vec(init["y"], dim, errors, "init.y")
    if kind == "random" and V is not None and x_start is not None:
        draw = x_start  # a random start must still lie in the subspace
        x_start = lambda rng: V(draw(rng))
    if kind == "value" and V is not None:
        x0 = None if x_start is None else x_start(None)  # a value ignores the rng
        _check(errors, "init.x", fpi._start, V, x0, None)
        _check(errors, "init.y", fpi._start, V, None, y0)

    if explicit:
        _forward_ranges(B, gamma, relax, errors, closed=True)
    else:
        gamma_ok = gamma is None or _check(errors, "gamma", fdr._check_finite_gamma, gamma)
        if relax is not None:
            _check(errors, "lambda", relax.validate_closed, fpi.DEFAULT_EPSILON, 1.0)
        if steps is not None and B is not None and gamma_ok:
            g = B.beta if gamma is None else gamma
            _check(errors, "delta", steps.validate, g, B.beta)
            if steps.constant_value != 1.0:
                errors.append("delta: the harness only runs the built-in delta = 1 "
                              "closed form; varying steps need the library oracle API")
    if errors:
        return None
    prob = fdr.InclusionProblem(A, B, V)
    solve = (partial(fpi.fpi_explicit_solve, prob) if explicit
             else partial(fpi.fpi_solve, prob, steps=steps))
    return lambda rng, tol, max_iters, log_every: solve(
        gamma=gamma, relaxation=relax, x0=x_start(rng), y0=y0, tol=tol,
        max_iters=max_iters, log_every=log_every)


def _build_km(data, dim, errors):
    descs = data.get("ops")
    if not isinstance(descs, list) or not descs:
        errors.append("ops: expected a nonempty list of operator descriptors")
        return None
    ops = []
    for i, desc in enumerate(descs):
        path = f"ops[{i}]"
        if not _is_object(desc, errors, path):
            continue
        ref = desc.get("type")
        if ref == "projector":
            P = _build("subspace", desc, dim, errors, path)
            if P is not None:
                ops.append(operators.AveragedOperator(P, 0.5, dim, label="projection"))
        elif ref == "resolvent":
            g = _num(desc, "gamma", errors, f"{path}.", default=1.0)
            A = _build("operator", desc, dim, errors, path)
            if A is not None and _check(errors, f"{path}.gamma", fdr._check_finite_gamma, g):
                ops.append(operators.AveragedOperator(
                    lambda x, A=A, g=g: A.resolve(g, x), 0.5, dim,
                    label="resolvent"))
        else:
            errors.append(f"{path}.type: unknown operator type {ref!r}; "
                          "known types: projector, resolvent")
    relax = _optional(data, "lambda", "relaxation", errors, _UNIT_LAMBDA)
    schedules = None
    if data.get("errors") is not None:
        schedules = _schedules(data["errors"], len(descs), dim, errors, "errors")
    start = _init(data.get("init"), (dim,), ("z",), errors)
    if len(ops) == len(descs) and relax is not None:
        alpha = km.composed_alpha([T.alpha for T in ops])
        _check(errors, "lambda", relax.validate_open, alpha)
    if errors:
        return None
    return lambda rng, tol, max_iters, log_every: km.km_solve(
        ops, relaxation=relax, errors=schedules, z0=start(rng), tol=tol,
        max_iters=max_iters, log_every=log_every)


def _build_product(data, dim, errors, pi_form=False):
    descs = data.get("blocks")
    if not isinstance(descs, list) or not descs:
        errors.append("blocks: expected a nonempty list of operator descriptors")
        return None
    m = len(descs)
    blocks = [_build("operator", d, dim, errors, f"blocks[{i}]")
              for i, d in enumerate(descs)]
    B = _build("forward-map", data.get("B", _ZERO_B), dim, errors, "B")
    weights = _vec(data["weights"], m, errors, "weights") if "weights" in data else None
    gamma = _num(data, "gamma", errors, "")
    relax = _optional(data, "lambda", "relaxation", errors, _UNIT_LAMBDA)
    a_errors = b_errors = None
    if pi_form:
        _no_errors(data, "pi-sum", errors)
    else:
        errs = _section(data, "errors", errors)
        a_errors = _schedule(errs.get("a"), dim, errors, "errors.a")
        if errs.get("b") is not None:
            b_errors = _schedules(errs["b"], m, dim, errors, "errors.b")
    _forward_ranges(B, gamma, relax, errors, closed=pi_form)
    if pi_form:
        start = _init(data.get("init") or None, (dim,), ("x",), errors)
    else:
        start = _init(data.get("init") or None, (m, dim), ("z",), errors)
    if errors:
        return None
    prob = _check(errors, "weights", productspace.ProductProblem, blocks, B, weights)
    if prob is None:
        return None
    if pi_form:
        return lambda rng, tol, max_iters, log_every: productspace.sum_splitting_pi(
            prob, gamma=gamma, relaxation=relax, x0=start(rng), tol=tol,
            max_iters=max_iters, log_every=log_every)
    return lambda rng, tol, max_iters, log_every: productspace.sum_splitting_solve(
        prob, gamma=gamma, relaxation=relax, a_errors=a_errors, b_errors=b_errors,
        z0=start(rng), tol=tol, max_iters=max_iters, log_every=log_every)


def _build_dr2(data, dim, errors):
    A1 = _required(data, "A1", "operator", dim, errors)
    A2 = _required(data, "A2", "operator", dim, errors)
    gamma = _num(data, "gamma", errors, "", default=1.0)
    relax = _optional(data, "lambda", "relaxation", errors, _UNIT_LAMBDA)
    errs = _section(data, "errors", errors)
    b1 = _schedule(errs.get("b1"), dim, errors, "errors.b1")
    b2 = _schedule(errs.get("b2"), dim, errors, "errors.b2")
    start = _init(data.get("init") or None, (2, dim), ("z1", "z2"), errors)
    _check(errors, "gamma", fdr._check_finite_gamma, gamma)
    if relax is not None:
        _check(errors, "lambda", productspace.dr2_relaxation, relax)
    if errors:
        return None
    return lambda rng, tol, max_iters, log_every: productspace.parallel_dr2(
        A1, A2, gamma=gamma, relaxation=relax, b1_errors=b1, b2_errors=b2,
        z0=start(rng), tol=tol, max_iters=max_iters, log_every=log_every)


_BUILDERS = {
    "fdr": _build_fdr,
    "fpi": _build_fpi,
    "fpi-explicit": partial(_build_fpi, explicit=True),
    "km": _build_km,
    "product": _build_product,
    "dr2": _build_dr2,
    "variational": partial(_build_fdr, variational_mode=True),
    "pi-sum": partial(_build_product, pi_form=True),
}
ALGORITHMS = tuple(_BUILDERS)


def parse_spec(text, overrides=None):
    """Parse and fully validate a JSON problem spec.

    Returns a :class:`ProblemSpec` or raises :class:`SpecValidationError`
    carrying the complete list of validation errors (not just the first).
    ``overrides`` may replace the algorithm, tolerance, iteration budget,
    seed or logging stride before validation.
    """
    errors = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecValidationError([f"invalid JSON: {e}"]) from None
    if not isinstance(data, dict):
        raise SpecValidationError(["spec must be a JSON object"])
    data = dict(data)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key in ("tol", "max_iters"):
                stop = data.get("stop") or {}
                if isinstance(stop, dict):
                    data["stop"] = {**stop, key: value}
            else:
                data[key] = value

    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    algorithm = data.get("algorithm")
    if algorithm not in ALGORITHMS:
        errors.append(f"algorithm: unknown algorithm {algorithm!r}; "
                      f"known algorithms: {', '.join(ALGORITHMS)}")
        raise SpecValidationError(errors)

    stop = _section(data, "stop", errors)
    tol = _num(stop, "tol", errors, "stop.", default=km.DEFAULT_TOL)
    max_iters = _intval(stop, "max_iters", errors, "stop.",
                        default=km.DEFAULT_MAX_ITERS, minimum=0)
    seed = _intval(data, "seed", errors, "", default=0)
    log_every = _intval(data, "log_every", errors, "", default=1, minimum=1)
    dim = _intval(data, "dim", errors, "", required=True, minimum=1)

    launch = None if dim is None else _BUILDERS[algorithm](data, dim, errors)
    if errors:
        raise SpecValidationError(errors)
    return ProblemSpec(algorithm=algorithm, tol=tol, max_iters=max_iters,
                       seed=seed, log_every=log_every, launch=launch)


def run(spec):
    """Execute a validated spec and return its :class:`RunRecord`."""
    rng = np.random.default_rng(spec.seed)
    start = time.perf_counter()
    result = spec.launch(rng, spec.tol, spec.max_iters, spec.log_every)
    wall = time.perf_counter() - start
    summary = {
        "algorithm": spec.algorithm,
        "status": result.status,
        "iterations": result.iterations,
        "residual": result.history[-1].residual if result.history else float("nan"),
        "wall_time": wall,
    }
    return RunRecord(rows=list(result.history), summary=summary)


def _fmt(value):
    return "" if value is None else repr(float(value))


def emit_csv(record, path):
    """Write the run history: header plus one row per logged iteration."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "lambda", "residual", "dx", "dy", "objective"])
            for row in record.rows:
                writer.writerow([str(row.n), _fmt(row.lam), _fmt(row.residual),
                                 _fmt(row.dx), _fmt(row.dy), _fmt(row.objective)])
    except OSError as e:
        raise OSError(f"cannot write CSV to {path}: {e}") from e


def _output_path(spec_path, output, multiple):
    if output is None:
        return Path(spec_path).with_suffix(".csv")
    out = Path(output)
    if multiple or out.is_dir():
        return out / (Path(spec_path).stem + ".csv")
    return out


def _process(spec_path, args, multiple):
    try:
        text = Path(spec_path).read_text()
    except OSError as e:
        print(f"{spec_path}: cannot read spec: {e}", file=sys.stderr)
        return EXIT_INVALID
    overrides = {"algorithm": args.algorithm, "tol": args.tol,
                 "max_iters": args.max_iters, "seed": args.seed,
                 "log_every": args.log_every}
    try:
        spec = parse_spec(text, overrides)
    except SpecValidationError as e:
        for msg in e.errors:
            print(f"{spec_path}: {msg}", file=sys.stderr)
        return EXIT_INVALID
    try:
        record = run(spec)
        out = _output_path(spec_path, args.output, multiple)
        emit_csv(record, out)
    except Exception as e:  # noqa: BLE001 - surfaced as a clean exit code
        print(f"{spec_path}: run failed: {e}", file=sys.stderr)
        return EXIT_ERROR
    s = record.summary
    print(f"{spec_path}: status={s['status']} iterations={s['iterations']} "
          f"residual={s['residual']:.6e} csv={out} time={s['wall_time']:.3f}s")
    return _STATUS_CODES.get(s["status"], EXIT_ERROR)


@cache
def _parser():
    """The command-line parser, built once per process: each
    ``add_argument`` call formats help text, which reads the terminal size."""
    parser = argparse.ArgumentParser(
        prog="monosplit",
        description="Run a splitting solver from a JSON problem spec and "
                    "emit the residual history as CSV.")
    parser.add_argument("specs", nargs="+", help="problem spec files (JSON)")
    parser.add_argument("--algorithm", choices=ALGORITHMS,
                        help="override the spec's algorithm")
    parser.add_argument("--tol", type=float, help="override stop.tol")
    parser.add_argument("--max-iters", dest="max_iters", type=int,
                        help="override stop.max_iters")
    parser.add_argument("--seed", type=int, help="override the spec seed")
    parser.add_argument("--log-every", dest="log_every", type=int,
                        help="log every k-th iteration (default 1)")
    parser.add_argument("-o", "--output",
                        help="CSV output file (directory when several specs "
                             "are given); defaults to the spec path with a "
                             ".csv suffix")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    multiple = len(args.specs) > 1
    if multiple and args.output:
        Path(args.output).mkdir(parents=True, exist_ok=True)
    return max(_process(p, args, multiple) for p in args.specs)


if __name__ == "__main__":
    sys.exit(main())
