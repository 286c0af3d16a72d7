"""Relaxed fixed-point engine for compositions of averaged operators.

Iterates ``z_{n+1} = z_n + lambda_n (T_1(T_2(... T_m z_n + e_{m,n} ...)
+ e_{2,n}) + e_{1,n} - z_n)`` with per-operator error injection.  The
relaxation parameters may range over ``]0, 1/alpha[`` where ``alpha`` is the
averagedness constant of the composition, provided the relaxation sum
diverges and the errors are summable against the relaxations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .operators import AveragedOperator, CocoerciveMap, ResolventFamily
from .spaces import InnerProduct, SubspaceProjector, as_vector

__all__ = [
    "CONVERGED",
    "MAX_ITERS",
    "DIVERGED",
    "IterationRow",
    "SolveResult",
    "ScalarSchedule",
    "RelaxationSchedule",
    "ErrorSchedule",
    "composed_alpha",
    "constant_relaxation",
    "polynomial_relaxation",
    "as_relaxation",
    "no_errors",
    "geometric_errors",
    "harmonic_errors",
    "km_solve",
]

CONVERGED = "converged"
MAX_ITERS = "max-iters"
DIVERGED = "diverged"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 100_000
VALIDATION_PREFIX = 64
# a run whose state outgrows GROWTH_LIMIT * (1 + max|state_0|) in norm stops as
# diverged: one more step of even a 1e10-fold expansion then keeps every
# squared norm far below the float range
GROWTH_LIMIT = 1e100


def composed_alpha(alphas):
    """Averagedness constant of a composition of averaged operators.

    For operators with constants ``a_1, ..., a_m`` in (0, 1) the composition
    is ``alpha``-averaged with

        alpha = m * max(a_i) / (1 + (m - 1) * max(a_i)),

    which again lies in (0, 1).
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas must be a nonempty list")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ValueError(f"every averagedness constant must lie in ]0, 1[, got {a}")
    m = len(alphas)
    amax = max(alphas)
    return m * amax / (1.0 + (m - 1) * amax)


class ScalarSchedule:
    """Sequence of scalar parameters ``n -> value``, checked against an
    admissible range by :meth:`checked`.  ``constant_value`` is the value of
    a schedule made by a constant constructor, and None for any other."""

    __slots__ = ("generator", "label", "_constant")

    def __init__(self, generator, label=""):
        self.generator = generator
        self.label = label
        self._constant = None

    def __call__(self, n):
        return float(self.generator(n))

    @property
    def constant_value(self):
        return self._constant

    def checked(self, admissible, message):
        """The sequence ``n -> value``, raising ``ValueError(message(value, n))``
        at a term that fails ``admissible(value)``.  The first
        ``VALIDATION_PREFIX`` terms are audited here, or the one value of a
        constant schedule, which then serves every term."""
        def value_at(n):
            value = self(n)
            if not admissible(value):
                raise ValueError(message(value, n))
            return value

        if self._constant is not None:
            value = value_at(0)
            return lambda n: value
        for n in range(VALIDATION_PREFIX):
            value_at(n)
        return value_at


def _constant_schedule(cls, value):
    """A ``cls`` schedule with every term ``value``, marked constant."""
    value = float(value)
    schedule = cls(lambda n: value, label=f"constant({value})")
    schedule._constant = value
    return schedule


class RelaxationSchedule(ScalarSchedule):
    """Sequence of relaxation parameters ``lambda_n``.

    ``divergent_sum`` certifies ``sum_n lambda_n (1 - alpha lambda_n) = +inf``
    for every admissible ``alpha``; the built-in constructors set it from the
    closed form of the schedule.
    """

    __slots__ = ("divergent_sum",)

    def __init__(self, generator, divergent_sum=True, label=""):
        super().__init__(generator, label)
        self.divergent_sum = bool(divergent_sum)

    def open_range(self, alpha):
        """The test and message of ``lambda_n in ]0, 1/alpha[`` for :meth:`checked`,
        once ``alpha in ]0, 1[`` and the divergence certificate hold."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in ]0, 1[, got {alpha}")
        if not self.divergent_sum:
            raise ValueError(
                f"relaxation schedule '{self.label or 'custom'}' declares a convergent "
                "sum; sum_n lambda_n*(1 - alpha*lambda_n) must diverge"
            )
        hi = 1.0 / alpha
        return (lambda lam: 0.0 < lam < hi,
                lambda lam, n: (f"relaxation value {lam} at n={n} outside "
                                f"admissible range ]0, 1/alpha[ = ]0, {hi}["))

    def validate_open(self, alpha):
        """Reject unless ``lambda_n in ]0, 1/alpha[`` on the prefix and the
        divergence certificate holds; returns ``n -> lambda_n`` checked
        against the same range on every later term (see :meth:`open_range`)."""
        return self.checked(*self.open_range(alpha))

    def validate_closed(self, lo, hi):
        """Reject unless ``lambda_n in [lo, hi]`` on the prefix; returns
        ``n -> lambda_n`` checked against the same range on every term."""
        return self.checked(
            lambda lam: lo <= lam <= hi,
            lambda lam, n: (f"relaxation value {lam} at n={n} outside "
                            f"admissible range [{lo}, {hi}]"))


def constant_relaxation(value):
    """Constant schedule ``lambda_n = value``."""
    return _constant_schedule(RelaxationSchedule, value)


def polynomial_relaxation(c, p):
    """Schedule ``lambda_n = c / (n + 1)^p``; the relaxation sum diverges iff p <= 1.

    Where ``(n + 1)^p`` leaves the float range the term is the IEEE quotient
    (``c/inf`` or ``c/0``), which the range checks then reject.
    """
    c = float(c)
    p = float(p)

    def term(n):
        try:
            return c / (n + 1) ** p
        except OverflowError:
            return 0.0 * c
        except ZeroDivisionError:
            return math.inf * c

    return RelaxationSchedule(term, divergent_sum=(p <= 1.0),
                              label=f"polynomial(c={c}, p={p})")


def as_relaxation(value):
    """Coerce a float into a constant schedule; pass schedules through."""
    return value if isinstance(value, RelaxationSchedule) else constant_relaxation(value)


class ErrorSchedule:
    """Error sequence ``e_n`` with a declared norm bound and summability certificate.

    ``bound(n)`` must dominate ``||e_n||``; ``summable`` certifies that
    ``sum_n lambda_n * bound(n)`` is finite for the relaxations the schedule
    will be paired with.  The certificate is declared, and the bound is
    audited on a prefix before any iteration.  A schedule made by
    :func:`geometric_errors` or :func:`no_errors` is audited on ``e_0`` alone
    while its ``generator`` and ``bound`` are the ones it was made with: it
    is then built in, and every term has the shape of ``e_0``.
    """

    __slots__ = ("generator", "bound", "summable", "dim", "label", "_scaled")

    def __init__(self, generator, bound, summable, dim, label=""):
        self.generator = generator
        self.bound = bound
        self.summable = bool(summable)
        self.dim = int(dim)
        self.label = label
        self._scaled = None

    def __call__(self, n):
        return np.asarray(self.generator(n), dtype=float)

    def active(self, n):
        """Whether the error at iteration ``n`` can be nonzero."""
        return self.bound(n) != 0.0

    def validate(self, norm=None):
        if norm is None:
            norm = np.linalg.norm
        if not self.summable:
            raise ValueError(
                f"error schedule '{self.label or 'custom'}' declares a non-summable "
                "pairing; sum_n lambda_n*||e_n|| must be finite"
            )
        one_term = self._scaled == (self.generator, self.bound)
        for n in range(1 if one_term else VALIDATION_PREFIX):
            e = self(n)
            if e.shape != (self.dim,):
                raise ValueError(
                    f"error term at n={n} has shape {e.shape}, expected ({self.dim},)"
                )
            if not norm(e) <= self.bound(n) * (1.0 + 1e-9) + 1e-15:  # NaN fails
                raise ValueError(
                    f"error norm {norm(e):.3e} at n={n} exceeds the declared bound "
                    f"{self.bound(n):.3e}"
                )


def _refuse(refusals, parameter, check, *args):
    """``check(*args)``, or None once its ``ValueError`` (or an arithmetic
    error) is kept in ``refusals`` as ``(parameter, error)``.  A solver's plan
    checks its parameters so, in the order the solver refuses them, and
    skips a check whose input is refused or missing (None): the solver
    raises the first refusal (:func:`_planned`), the CLI reports them all."""
    try:
        return check(*args)
    except (ValueError, ArithmeticError) as e:
        refusals.append((parameter, e))


def _planned(run, refusals):
    """A plan's ``run``, unless it met a refusal: then the first is raised."""
    if refusals:
        raise refusals[0][1]
    return run


def _check_schedule(e, dim, norm=None):
    """Reject an error schedule ``e`` (None passes) that does not live in
    ``R^dim`` or fails :meth:`ErrorSchedule.validate` under ``norm``."""
    if e is not None and e.dim != dim:
        raise ValueError("error schedule dimension mismatch")
    if e is not None:
        e.validate(norm=norm)


def _mark_scaled(schedule):
    """Mark ``schedule`` for the audit of ``e_0`` alone.

    Its terms are ``e_n = c_n u`` with ``bound(n) = c_n``, the same float, so
    every term has the shape of ``u``, and ``norm(e_n)`` is ``c_n norm(u)``
    up to rounding far below the audit's 1e-9 relative slack: the test of
    ``e_0`` gives the verdict of every term.  The mark lapses once
    ``generator`` or ``bound`` is replaced.
    """
    schedule._scaled = (schedule.generator, schedule.bound)
    return schedule


def no_errors(dim):
    """Error-free schedule."""
    z = np.zeros(dim)
    return _mark_scaled(ErrorSchedule(lambda n: z, lambda n: 0.0, True, dim,
                                      label="zero"))


def _unit(direction, dim):
    """``direction`` scaled to unit norm; the normalized ones vector if None."""
    if direction is None:
        return np.ones(dim) / np.sqrt(dim)
    u = as_vector(direction, dim)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise ValueError("direction must be nonzero")
    return u / nu


def geometric_errors(dim, magnitude, rate, direction=None):
    """Errors ``e_n = magnitude * rate^n * u`` with ``||u|| = 1``.

    Summable against bounded relaxations iff ``0 <= rate < 1``.
    """
    magnitude = float(magnitude)
    rate = float(rate)
    if not (0.0 <= magnitude < math.inf and 0.0 <= rate < math.inf):
        raise ValueError("magnitude and rate must be nonnegative and finite, "
                         f"got {magnitude} and {rate}")
    u = _unit(direction, dim)
    return _mark_scaled(ErrorSchedule(lambda n: magnitude * rate ** n * u,
                                      lambda n: magnitude * rate ** n,
                                      summable=rate < 1.0, dim=dim,
                                      label=f"geometric(r={rate})"))


def harmonic_errors(dim, magnitude, direction=None):
    """Errors ``e_n = magnitude / (n + 1) * u``: not summable against
    relaxations bounded away from zero, so the audit rejects the pairing."""
    magnitude = float(magnitude)
    u = _unit(direction, dim)
    return ErrorSchedule(lambda n: magnitude / (n + 1) * u,
                         lambda n: magnitude / (n + 1),
                         summable=False, dim=dim, label="harmonic")


class IterationRow(NamedTuple):
    """One logged iteration, an immutable tuple.

    ``residual`` is the error-free fixed-point gap at iterate n; ``dx`` and
    ``dy`` measure the change from the previous iterate (0.0 at n = 0, and
    ``dy`` is None for single-variable runs).
    """
    n: int
    lam: float
    residual: float
    dx: float
    dy: float | None = None
    objective: float | None = None


@dataclass
class SolveResult:
    final: np.ndarray
    status: str
    iterations: int
    history: list = field(default_factory=list)
    trace: list | None = None


class _Run(NamedTuple):
    status: str
    iterations: int
    history: list
    trace: list | None
    residual: float     # at the last reported iterate
    x: np.ndarray       # last reported (finite) point
    y: object           # second reported point, or None


def _growth_bound(state):
    """Squared-norm bound ``(GROWTH_LIMIT * (1 + max|state|))^2`` for the
    state of a run started at ``state``, capped below the float range so
    that an infinite entry exceeds it."""
    scale = GROWTH_LIMIT * (1.0 + float(np.abs(state).max(initial=0.0)))
    return min(scale * scale, sys.float_info.max)


_KERNELS = {SubspaceProjector.__call__: "_apply", CocoerciveMap.__call__: "_func",
            AveragedOperator.__call__: "_func", ResolventFamily.resolve: "_resolve"}


def _bind(entries, errors=()):
    """What a solve calls for ``entries``, the public entry points of its
    objects (a map, or a family's ``resolve``), each found on the class.
    If each is a library class's own, on an object the library built (see
    :func:`monosplit.spaces._mark_built`), and each of ``errors`` is None or
    built in, every argument comes from the loop, of the right shape, and
    every resolvent parameter was checked by the solver's plan: the entries
    give way to their unchecked kernels (``_KERNELS``).  Otherwise they
    stay."""
    objs = [getattr(f, "__self__", f) for f in entries]
    names = [_KERNELS.get(getattr(f, "__func__", None) or type(f).__call__)
             for f in entries]
    if not (all(names) and all(getattr(obj, "_built", False) for obj in objs)
            and all(e is None or type(e) is ErrorSchedule
                    and e._scaled == (e.generator, e.bound) for e in errors)):
        return list(entries)
    return [getattr(obj, name) for obj, name in zip(objs, names)]


def _iterate(state, step, lam_at, tol, max_iters, log_every, trace, norm,
             objective=None, log_dy=False):
    """The relaxed fixed-point loop shared by every solver.

    ``state`` is an array, finite at the start.  ``step(n, state)`` returns
    ``(residual, x, y, d)``: the error-free fixed-point gap at ``state``, the
    point ``x`` to report (and a second point ``y``, or None) and the
    direction ``d`` of the state's shape; the next state is
    ``state + lambda_n * d``.  ``lam_at(n)`` is the checked relaxation
    schedule.

    Iteration n first checks that the state has not outgrown
    ``GROWTH_LIMIT * (1 + max|state_0|)`` in norm, which also rejects a NaN or
    infinite entry; otherwise the run stops as diverged at the last reported
    point.  It then takes the step and stops when the residual is at most
    ``tol`` (converged), is not finite (diverged) or when ``n == max_iters``.
    Rows ``(n, lambda_n, residual, dx, dy, objective)`` are logged every
    ``log_every`` iterations and at the stop; ``dx`` (and ``dy`` with
    ``log_dy``) is the ``norm`` of the change from the previous point and
    ``objective`` is taken at ``x``.  ``trace`` records ``x`` (or ``(x, y)``)
    at every iteration.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    if math.isnan(tol):
        raise ValueError("tol must not be NaN; a negative tol disables the test")
    if log_every < 1:
        raise ValueError("log_every must be at least 1")
    rows = []
    points = [] if trace else None
    residual = float("inf")
    x = y = None
    bound2 = _growth_bound(state)
    for n in range(max_iters + 1):
        r = state.ravel()
        if not r.dot(r) <= bound2:
            status = DIVERGED
            break
        prev_x, prev_y = x, y
        residual, x, y, d = step(n, state)
        lam = lam_at(n)
        finite = math.isfinite(residual)
        converged = finite and residual <= tol
        terminal = converged or n == max_iters or not finite
        if trace:
            points.append(x.copy() if y is None else (x.copy(), y.copy()))
        if n % log_every == 0 or terminal:
            dx = 0.0 if prev_x is None else float(norm(x - prev_x))
            dy = None
            if log_dy:
                dy = 0.0 if prev_y is None else float(norm(y - prev_y))
            obj = None if objective is None else float(objective(x))
            rows.append(IterationRow(n, lam, residual, dx, dy, obj))
        if terminal:
            status = CONVERGED if converged else MAX_ITERS if finite else DIVERGED
            break
        state = state + lam * d
    return _Run(status, n, rows, points, residual, x, y)


def km_solve(ops, relaxation=1.0, errors=None, z0=None, tol=DEFAULT_TOL,
             max_iters=DEFAULT_MAX_ITERS, log_every=1, trace=False, inner=None):
    """Run the errored relaxed fixed-point iteration on a composition.

    Parameters
    ----------
    ops : sequence of AveragedOperator
        Operators ``T_1, ..., T_m``; the iteration applies ``T_m`` first.
        All must share the same dimension.
    relaxation : float or RelaxationSchedule
        Relaxations ``lambda_n``; validated against ``]0, 1/alpha[`` where
        ``alpha`` is the composed averagedness constant.
    errors : sequence of (ErrorSchedule or None), optional
        Per-operator error sequences ``e_{i,n}``, outermost operator first.
        Every schedule must certify summability against the relaxations.
    z0 : array_like, optional
        Starting point (defaults to the origin).
    tol : float
        Stop when the error-free residual ``||T_1 ... T_m z_n - z_n||`` drops
        to ``tol``; a negative value disables the convergence test.
    max_iters : int
        Iteration budget; the history then holds at most ``max_iters + 1`` rows.
    log_every : int
        Thin the history to every k-th iteration (terminal rows always kept).
    trace : bool
        Record every iterate in ``result.trace``.
    inner : InnerProduct, optional
        Ambient inner product for all norms (uniform by default).

    Returns
    -------
    SolveResult
        Final point, status (converged / max-iters / diverged), and the
        logged history of (n, lambda_n, residual, step) rows.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("ops must be a nonempty list of averaged operators")
    dim = ops[0].dim
    for T in ops:
        if T.dim != dim:
            raise ValueError("all operators must share the same dimension")
    run = _planned(*_km_plan([T.alpha for T in ops], relaxation, errors, dim, inner))
    z = np.zeros(dim) if z0 is None else as_vector(z0, dim).copy()
    return run(ops, z, tol, max_iters, log_every, trace)


def _km_plan(alphas, relaxation=1.0, errors=None, dim=None, inner=None):
    """:func:`km_solve`'s plan on operators of averagedness ``alphas``:
    ``(run, refusals)`` with ``run(ops, z, tol, max_iters, log_every, trace)``
    (see :func:`_refuse`)."""
    refusals, lam_at = [], None
    alpha = None if alphas is None else _refuse(refusals, "ops", composed_alpha, alphas)
    if alpha is not None and relaxation is not None:
        lam_at = _refuse(refusals, "relaxation",
                         lambda: as_relaxation(relaxation).validate_open(alpha))
    errors = [None] * len(alphas or ()) if errors is None else list(errors)
    if alphas is not None and len(errors) != len(alphas):
        refusals.append(("errors", ValueError(
            f"expected {len(alphas)} error schedules, got {len(errors)}")))
    inner = InnerProduct(dim) if inner is None else inner
    if getattr(inner, "dim", dim) != dim:  # a duck-typed product may omit dim
        refusals.append(("inner", ValueError(
            "inner product dimension does not match the operators")))
    for i, e in enumerate(errors):
        _refuse(refusals, f"errors[{i}]", _check_schedule, e, dim, inner.norm)
    return partial(_km_run, lam_at=lam_at, errors=errors, inner=inner), refusals


def _km_run(ops, z, tol, max_iters, log_every, trace=False, *, lam_at, errors, inner):
    """:func:`km_solve`'s iteration from ``z`` on checked parameters."""
    m = len(ops)
    apply = _bind(ops, errors=errors)

    def step(n, z):
        # u = T_1(...T_m z) with the errors of iteration n; the error-free
        # chain v parts from u at the innermost active error
        u, v = z, None
        for i in range(m - 1, -1, -1):
            u = apply[i](u)
            if v is not None:
                v = apply[i](v)
            e = errors[i]
            if e is not None and e.active(n):
                if v is None:
                    v = u
                u = u + e(n)
        d = u - z
        d_clean = d if v is None else v - z
        return inner.norm(d_clean), z, None, d

    run = _iterate(z, step, lam_at, tol, max_iters, log_every, trace, inner.norm)
    return SolveResult(final=run.x, status=run.status, iterations=run.iterations,
                       history=run.history, trace=run.trace)
