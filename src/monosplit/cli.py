"""Batch harness: parse a JSON problem spec, run a solver, emit CSV.

The input is a JSON document with ``schema_version: 1`` selecting one of the
algorithms {fdr, fpi, fpi-explicit, km, product, dr2, variational, pi-sum}
and describing the operators, schedules, initialization and stopping rule
from the built-in constructors (field-by-field schema in the README).  One
row per algorithm (``_ALGORITHMS``) declares its top-level fields, and one
vocabulary table (family -> kind -> constructor and fields) those of every
descriptor.  Each field is checked by its constructor as it is read; the
ranges that cross fields come from the private plan of the algorithm's
solver, which checks what the solver itself checks and collects every
refusal, each reported under its spec field (``_FIELDS``), and a valid
spec's launch runs that plan with no second check.  A field set to JSON
null is a missing field: an optional one takes its default and a required
one is reported missing.  A key that no row or kind declares is an unknown
field and makes the spec invalid (exit 64), unless it is null: a null key
is a missing one, known or not.  All validation errors are collected and
reported together, each citing the admissible range it violates, before
any iteration runs.

Output: a CSV with the fixed columns ``n,lambda,residual,dx,dy,objective``
(one row per logged iteration) and a summary line on stdout.  Sequential
runs of the same spec and seed produce byte-identical CSV.

Exit codes: 0 converged, 2 iteration budget exhausted, 3 diverged,
64 invalid spec, 1 internal error.
"""

from __future__ import annotations

import argparse
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

def _num(value, dim, errors, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        errors.append(f"{path}: expected a number, got {value!r}")
        return None
    return float(value)


def _integer(minimum):
    """Reader of an integer field that must be at least ``minimum``."""
    def read(value, dim, errors, path):
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{path}: expected an integer, got {value!r}")
        elif value < minimum:
            errors.append(f"{path}: must be >= {minimum}, got {value}")
        else:
            return value
    return read


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
    if finite and not np.isfinite(v).all():
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


# ---------------------------------------------------------------------------
# descriptor vocabularies: family -> kind -> (constructor, fields)
# ---------------------------------------------------------------------------

def _unstable(dim, factor):
    # fault-injection hook: an expansive pseudo-resolvent that violates
    # nonexpansiveness so runs blow up and exercise divergence handling
    return spaces._mark_built(operators.ResolventFamily(lambda gamma, x: factor * x,
                                                        dim, label="unstable"))


def _identity_map(dim):
    return spaces._mark_built(operators.CocoerciveMap(lambda x: x.copy(), 1.0, dim,
                                                      label="identity"))


# A field is ``(key, how)``; the constructor receives the fields in order.
# ``how`` is "dim" (the spec's dimension), or a required field: "vec" or "mat"
# (a vector or square matrix of that dimension), "bound" (a vector whose
# entries may be infinite, a box bound: the constructor rejects NaN), "num",
# a family name (a nested descriptor), a reader ``how(value, dim, errors,
# path)`` or a list of fields (an object of named fields, read as a dict); or
# an optional one: "vec?" or "num?" (None when missing), a float (a number
# defaulting to it) or ``(how, default)``, read as ``how`` and ``default``
# when missing: a dict default is read as the field's value would be, any
# other default is the value itself.
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


def _field(data, key, how, dim, errors, path=""):
    """The field ``key`` of the object ``data`` at ``path`` (the spec itself
    when empty), read as ``how`` declares; None once an error is recorded."""
    if how == "dim":
        return dim
    value = data.get(key)
    if isinstance(how, tuple):
        how, default = how
        if value is None and not isinstance(default, dict):
            return default
        value = default if value is None else value
    where = f"{path}.{key}" if path else key
    if value is None:
        if how not in ("vec?", "num?") and not isinstance(how, float):
            errors.append(f"{where}: required field is missing")
        return how if isinstance(how, float) else None
    if callable(how):
        return how(value, dim, errors, where)
    if isinstance(how, list):
        if not _is_object(value, errors, where, "an object"):
            value = {}
        return _read(value, how, dim, errors, where)
    if how in ("vec", "vec?", "bound"):
        return _vec(value, dim, errors, where, finite=how != "bound")
    if how == "mat":
        return _mat(value, dim, errors, where)
    if how in ("num", "num?") or isinstance(how, float):
        return _num(value, dim, errors, where)
    return _build(how, value, dim, errors, where)


def _read(data, fields, dim, errors, path="", known=()):
    """``{key: value}`` of the ``fields`` of the object ``data`` at ``path``.

    Any other key but those in ``known`` is an unknown field, and an error
    unless its value is null (a missing field, known or not)."""
    values = {key: _field(data, key, how, dim, errors, path) for key, how in fields}
    for key, value in data.items():
        if value is not None and key not in values and key not in known:
            names = [*known, *(k for k, _ in fields if k is not None)]
            errors.append(f"{f'{path}.{key}' if path else key}: unknown field; "
                          f"known fields: {', '.join(names)}")
    return values


def _build(family, desc, dim, errors, path, known=()):
    """Construct the ``family`` descriptor ``desc`` found at ``path``.

    Reads the fields its kind declares, then calls the kind's constructor;
    None once any problem with the descriptor is recorded in ``errors``.
    ``desc`` may also hold the keys in ``known``, which the caller reads.
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
    args = _read(desc, fields, dim, errors, path, ("kind", *known))
    if len(errors) > before:
        return None
    return _check(errors, path, make, *args.values())


def _list_of(read, what):
    """Reader of a nonempty list of ``what``, each entry read by ``read``."""
    def read_list(value, dim, errors, path):
        if not isinstance(value, list) or not value:
            errors.append(f"{path}: expected a nonempty list of {what}")
            return None
        return [read(v, dim, errors, f"{path}[{i}]") for i, v in enumerate(value)]
    return read_list


def _schedule(desc, dim, errors, path):
    """Error schedule, None when null; the solver's plan audits it."""
    return None if desc is None else _build("error-schedule", desc, dim, errors, path)


def _km_operator(desc, dim, errors, path):
    """A 1/2-averaged km operator: the ``projector`` of a subspace descriptor
    or the ``resolvent`` of an operator descriptor with step ``gamma``."""
    if not _is_object(desc, errors, path):
        return None
    ref = desc.get("type")
    if ref == "projector":
        P = _build("subspace", desc, dim, errors, path, ("type",))
        return None if P is None else spaces._mark_built(operators.AveragedOperator(
            P, 0.5, dim, label="projection"))
    if ref != "resolvent":
        errors.append(f"{path}.type: unknown operator type {ref!r}; "
                      "known types: projector, resolvent")
        return None
    g = _field(desc, "gamma", 1.0, dim, errors, path)
    A = _build("operator", desc, dim, errors, path, ("type", "gamma"))
    if A is None or g is None or not _check(
            errors, f"{path}.gamma", fdr._check_finite_gamma, g):
        return None
    return spaces._mark_built(operators.AveragedOperator(lambda x: A.resolve(g, x),
                                                         0.5, dim, label="resolvent"))


def _init(desc, shape, keys, errors, extra=()):
    """Start point ``seed -> array`` of ``shape`` from an ``init`` descriptor.

    Kinds: ``zeros`` (also for a missing or null descriptor); ``random``,
    ``scale`` times standard normals drawn from a Generator seeded with
    ``seed``, the only kind that reads it; ``value``, the vectors under ``keys``
    stacked, or, for one key and a two-dimensional ``shape``, any array of
    that many numbers.  Every key of a ``value`` is required; it may also
    hold the keys in ``extra``, which the caller reads.
    """
    if desc is None:
        return lambda seed: np.zeros(shape)
    if not _is_object(desc, errors, "init"):
        return None
    kind = desc.get("kind")
    if kind not in ("zeros", "random", "value"):
        errors.append(f"init.kind: unknown init kind {kind!r}; "
                      "known kinds: zeros, random, value")
        return None
    blocks = len(keys) == 1 and len(shape) == 2
    fields = {"zeros": [], "random": [("scale", 1.0)],
              "value": [(k, _blocks if blocks else "vec") for k in keys]}[kind]
    before = len(errors)
    v = _read(desc, fields, shape if blocks else shape[-1], errors, "init",
              ("kind", *(extra if kind == "value" else ())))
    if len(errors) > before:
        return None
    if kind == "zeros":
        return lambda seed: np.zeros(shape)
    if kind == "random":
        scale = v["scale"]
        if not np.isfinite(scale):
            errors.append(f"init.scale: must be finite, got {scale}")
            return None
        return lambda seed: scale * np.random.default_rng(seed).standard_normal(shape)
    x = np.array(list(v.values())).reshape(shape)
    return lambda seed: x.copy()


def _blocks(value, shape, errors, path):
    """``value``, any array of ``shape[0] * shape[1]`` finite numbers, in ``shape``."""
    try:
        v = np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        errors.append(f"{path}: expected {shape[0]} vectors of length {shape[1]}")
        return None
    if not np.isfinite(v).all():
        errors.append(f"{path}: vectors have non-finite entries")
        return None
    return v


# ---------------------------------------------------------------------------
# algorithms: a builder takes the row's fields ``v`` (a dict), the ``init``
# descriptor, the dimension and the error list; it reads the start, plans
# its solver on the fields, each refusal of the plan recorded under its
# field, and returns ``launch(seed, **stop)``, which runs the plan
# ---------------------------------------------------------------------------

# the spec field of each parameter that a plan refuses, where the two names
# differ; an indexed parameter, such as ``b_errors[1]``, keeps its index
_FIELDS = {"relaxation": "lambda", "steps": "delta", "a_errors": "errors.a",
           "b_errors": "errors.b", "b1_errors": "errors.b1", "b2_errors": "errors.b2",
           "x0": "init.x", "y0": "init.y"}


def _plan(plan, errors):
    """The run of a solver's ``plan``, a ``(run, refusals)`` pair, with each
    refusal recorded in ``errors`` under its spec field."""
    run, refusals = plan
    for parameter, e in refusals:
        name, bracket, index = parameter.partition("[")
        errors.append(f"{_FIELDS.get(name, name)}{bracket}{index}: {e}")
    return run


def _build_fdr(v, init, dim, errors):
    """fdr, and variational: FDR on the prox of ``f`` and the gradient of ``g``."""
    V, g = v["subspace"], v.get("g")
    B = v["B"] if "B" in v else (None if g is None else g.as_cocoercive())
    start = _init(init, (dim,), ("z",), errors)
    run = _plan(fdr._fdr_plan(B, v["gamma"], v["lambda"], v["errors"]["a"],
                              v["errors"]["b"], dim, None if V is None else V.inner.norm),
                errors)
    if errors:
        return None
    prob, objective = (variational._problem(v["f"], g, V) if "g" in v
                       else (fdr.InclusionProblem(v["A"], B, V), None))
    return lambda seed, **stop: run(prob, start(seed), objective=objective, **stop)


def _build_fpi(v, init, dim, errors):
    """fpi, which declares ``delta``, and fpi-explicit, its closed form for
    delta = 1.  The plan checks a ``value`` start, which it then runs from."""
    V, B = v["subspace"], v["B"]
    start = _init(init, (dim,), ("x",), errors, ("y",))
    kind = init.get("kind") if isinstance(init, dict) else None
    x0 = y0 = None
    if kind == "value":
        y0 = _field(init, "y", "vec?", dim, errors, "init")
        x0 = None if start is None else start(None)  # a value ignores the seed
    run = _plan(fpi._fpi_plan(B, v["gamma"], v.get("delta"), v["lambda"], None, V, x0, y0,
                              explicit="delta" not in v), errors)
    if errors:
        return None
    prob = fdr.InclusionProblem(v["A"], B, V)
    if kind != "random":
        return lambda seed, **stop: run(prob, **stop)
    # a random start must still lie in the subspace
    return lambda seed, **stop: run(prob, x=V(start(seed)), **stop)


def _build_km(v, init, dim, errors):
    ops = v["ops"]
    start = _init(init, (dim,), ("z",), errors)
    alphas = None if ops is None or None in ops else [T.alpha for T in ops]
    run = _plan(km._km_plan(alphas, v["lambda"], v["errors"], dim), errors)
    if errors:
        return None
    return lambda seed, **stop: run(ops, start(seed), **stop)


def _build_product(v, init, dim, errors):
    """product, which declares ``errors`` and runs on one block per operator,
    and pi-sum, its partial-inverse form on the base space."""
    blocks, B, weights, lifted = v["blocks"], v["B"], v["weights"], "errors" in v
    # the block count is missing to the plan while any weight is
    m = None if blocks is None or weights is not None and None in weights else len(blocks)
    schedules = v.get("errors", {})
    run = _plan(productspace._sum_plan(
        B, m, weights, v["gamma"], v["lambda"], schedules.get("a"),
        schedules.get("b"), dim, closed=not lifted), errors)
    if blocks is None:
        return None
    start = _init(init, (len(blocks), dim) if lifted else (dim,),
                  ("z",) if lifted else ("x",), errors)
    if errors:
        return None
    prob = productspace.ProductProblem(blocks, B, weights)
    if lifted:
        return lambda seed, **stop: run(prob, start(seed), **stop)
    return lambda seed, **stop: run(prob, start(seed), np.zeros((prob.m, dim)), **stop)


def _build_dr2(v, init, dim, errors):
    start = _init(init, (2, dim), ("z1", "z2"), errors)
    run = _plan(productspace._dr2_plan(v["gamma"], v["lambda"], v["errors"]["b1"],
                                       v["errors"]["b2"], dim), errors)
    if errors:
        return None
    return lambda seed, **stop: run(v["A1"], v["A2"], start(seed), **stop)


_B = ("B", ("forward-map", {"kind": "zero", "beta": 1.0}))
_GAMMA = ("gamma", "num?")
_LAMBDA = ("lambda", ("relaxation", km.constant_relaxation(1.0)))
_INCLUSION = [("subspace", "subspace"), ("A", "operator"), _B, _GAMMA, _LAMBDA]
_SCHEDULE = (_schedule, None)
_SCHEDULES = (_list_of(_schedule, "schedules"), None)
_ERRORS = ("errors", ([("a", _SCHEDULE), ("b", _SCHEDULE)], {}))
_BLOCKS = ("blocks", _list_of(partial(_build, "operator"), "operator descriptors"))
_WEIGHTS = ("weights", (_list_of(_num, "weights"), None))  # counted by the plan

# One row per algorithm: its top-level fields and its builder.
# Every algorithm also takes the fields of ``_COMMON`` and an ``init``, which
# its builder reads; a spec may hold no other top-level key.
_ALGORITHMS = {
    "fdr": (_INCLUSION + [_ERRORS], _build_fdr),
    "fpi": (_INCLUSION + [("delta", ("step", fpi.constant_steps(1.0)))], _build_fpi),
    "fpi-explicit": (_INCLUSION, _build_fpi),
    "km": ([("ops", _list_of(_km_operator, "operator descriptors")), _LAMBDA,
            ("errors", _SCHEDULES)], _build_km),
    "product": ([_BLOCKS, _B, _WEIGHTS, _GAMMA, _LAMBDA,
                 ("errors", ([("a", _SCHEDULE), ("b", _SCHEDULES)], {}))], _build_product),
    "dr2": ([("A1", "operator"), ("A2", "operator"), ("gamma", 1.0), _LAMBDA,
             ("errors", ([("b1", _SCHEDULE), ("b2", _SCHEDULE)], {}))], _build_dr2),
    "variational": ([("subspace", "subspace"), ("f", "prox"), ("g", "smooth"), _GAMMA,
                     _LAMBDA, _ERRORS], _build_fdr),
    "pi-sum": ([_BLOCKS, _B, _WEIGHTS, _GAMMA, _LAMBDA], _build_product),
}
ALGORITHMS = tuple(_ALGORITHMS)
_COMMON = [("stop", ([("tol", km.DEFAULT_TOL),
                      ("max_iters", (_integer(0), km.DEFAULT_MAX_ITERS))], {})),
           ("seed", (_integer(0), 0)), ("log_every", (_integer(1), 1)),
           ("dim", _integer(1))]


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
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in ("tol", "max_iters"):
            stop = {} if data.get("stop") is None else data["stop"]
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

    fields, build = _ALGORITHMS[algorithm]
    common = _read(data, _COMMON, None, errors, known=(
        "schema_version", "algorithm", *(key for key, _ in fields), "init"))
    dim = common["dim"]
    launch = None if dim is None else build(
        {key: _field(data, key, how, dim, errors) for key, how in fields},
        data.get("init"), dim, errors)
    if errors:
        raise SpecValidationError(errors)
    stop = common["stop"]
    return ProblemSpec(algorithm=algorithm, tol=stop["tol"], max_iters=stop["max_iters"],
                       seed=common["seed"], log_every=common["log_every"], launch=launch)


def run(spec):
    """Execute a validated spec and return its :class:`RunRecord`."""
    start = time.perf_counter()
    result = spec.launch(spec.seed, tol=spec.tol, max_iters=spec.max_iters,
                         log_every=spec.log_every)
    wall = time.perf_counter() - start
    summary = {
        "algorithm": spec.algorithm,
        "status": result.status,
        "iterations": result.iterations,
        "residual": result.history[-1].residual if result.history else float("nan"),
        "wall_time": wall,
    }
    return RunRecord(rows=list(result.history), summary=summary)


def emit_csv(record, path):
    """Write the run history: header plus one row per logged iteration.

    The bytes are those of ``csv.writer``'s default dialect: CRLF line ends,
    each float as its ``repr``, which reads back to the same bits, and an
    empty cell for a missing ``dy`` or ``objective``.  The file is formatted
    whole and written in one call.
    """
    text = "n,lambda,residual,dx,dy,objective\r\n" + "".join([
        f"{r.n},{float(r.lam)!r},{float(r.residual)!r},{float(r.dx)!r},"
        f"{'' if r.dy is None else repr(float(r.dy))},"
        f"{'' if r.objective is None else repr(float(r.objective))}\r\n"
        for r in record.rows])
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
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
