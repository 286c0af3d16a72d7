"""Spans and the timing/counting proxies of the traced run.

The traced run hands the unchanged solvers proxies in place of the built
``A``, ``B`` and ``V`` objects (and ``V.inner``).  The solvers duck-type, so
a proxy only has to offer the methods they call; everything else is
forwarded to the wrapped object.  Every proxied call records one span whose
parent is the solver span the benchmark opened around the call into the
library, so a solver's self time is its span minus its child spans.

Span totals and the first solves' spans stay in memory and are written
once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time

_now = time.perf_counter

# span names of the layers below the solvers
RESOLVE = "operators.resolve"
FORWARD = "operators.forward"
PROJECT = "spaces.project"
NORM = "spaces.norm"
OBJECTIVE = "variational.objective"

SOLVER_MODULES = ("fdr", "fpi", "km", "productspace", "variational")


class Tracer:
    """Span recorder for one thread.

    Every span adds to per-name totals (calls, busy time, computed bytes);
    a top-level span also records how much of it its child spans cover.
    The spans of the first ``KEEP_SOLVES`` solves are kept whole, as
    ``[name, solve_id, parent, start, end, nbytes]`` with ``parent`` the index
    of the enclosing span or -1, for the span file; keeping every span of a
    long pass would take hundreds of megabytes.
    """

    KEEP_SOLVES = 100

    def __init__(self):
        self.calls = {}
        self.busy = {}
        self.nbytes = {}
        self.child_busy = {}     # top-level span name -> time covered by children
        self.spans = []
        self.solve_id = -1
        self._open = []          # [name, start, nbytes, child time, kept index]

    def begin(self, name, nbytes=0):
        start = _now()
        idx = -1
        if self.solve_id < self.KEEP_SOLVES:
            idx = len(self.spans)
            parent = self._open[-1][4] if self._open else -1
            self.spans.append([name, self.solve_id, parent, start, 0.0, nbytes])
        self._open.append([name, start, nbytes, 0.0, idx])

    def end(self):
        end = _now()
        name, start, nbytes, child, idx = self._open.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy[name] = self.busy.get(name, 0.0) + dur
        self.nbytes[name] = self.nbytes.get(name, 0) + nbytes
        if self._open:
            self._open[-1][3] += dur
        else:
            self.child_busy[name] = self.child_busy.get(name, 0.0) + child
        if idx >= 0:
            self.spans[idx][4] = end

    def call(self, name, nbytes, fn, *args):
        self.begin(name, nbytes)
        try:
            return fn(*args)
        finally:
            self.end()

    def write(self, path):
        """Write the kept spans as gzipped JSON (times in seconds from the first)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [[n, sid, par, s - t0, e - t0, b] for n, sid, par, s, e, b in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "solve_id", "parent", "start_s", "end_s",
                                  "nbytes_computed"], "spans": rows}, fh)


class _Proxy:
    __slots__ = ("_target", "_tracer")

    def __init__(self, target, tracer):
        self._target = target
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._target, name)


class ResolventProxy(_Proxy):
    """Counts ``resolve`` and ``reflected`` as resolvent calls."""

    __slots__ = ()

    def resolve(self, gamma, x):
        return self._tracer.call(RESOLVE, 0, self._target.resolve, gamma, x)

    def reflected(self, gamma, x):
        return self._tracer.call(RESOLVE, 0, self._target.reflected, gamma, x)


class ForwardProxy(_Proxy):
    """Counts calls of a cocoercive map; ``nbytes`` is the computed traffic per call."""

    __slots__ = ("_nbytes",)

    def __init__(self, target, tracer, nbytes):
        super().__init__(target, tracer)
        self._nbytes = nbytes

    def __call__(self, x):
        return self._tracer.call(FORWARD, self._nbytes, self._target, x)


class InnerProxy(_Proxy):
    """Counts ``norm`` calls of an inner product; ``dot`` is forwarded."""

    __slots__ = ()

    def norm(self, x):
        return self._tracer.call(NORM, 0, self._target.norm, x)


class ProjectorProxy(_Proxy):
    """Counts every ``V(.)``, ``V.complement`` and ``V.reflect`` call."""

    __slots__ = ("_nbytes", "inner")

    def __init__(self, target, tracer, nbytes):
        super().__init__(target, tracer)
        self._nbytes = nbytes
        self.inner = InnerProxy(target.inner, tracer)

    def __call__(self, x):
        return self._tracer.call(PROJECT, self._nbytes, self._target, x)

    def complement(self, x):
        return self._tracer.call(PROJECT, self._nbytes, self._target.complement, x)

    def reflect(self, x):
        return self._tracer.call(PROJECT, self._nbytes, self._target.reflect, x)


class ProxFunctionProxy(_Proxy):
    """A ``ProxFunction`` whose resolvent and objective evaluations are traced."""

    __slots__ = ()

    def as_resolvent(self):
        return ResolventProxy(self._target.as_resolvent(), self._tracer)

    @property
    def value(self):
        fn = self._target.value
        if fn is None:
            return None
        tracer = self._tracer
        return lambda x: tracer.call(OBJECTIVE, 0, fn, x)


class SmoothFunctionProxy(_Proxy):
    """A ``SmoothFunction`` whose gradient map is traced as the forward operator."""

    __slots__ = ("_nbytes",)

    def __init__(self, target, tracer, nbytes):
        super().__init__(target, tracer)
        self._nbytes = nbytes

    def as_cocoercive(self):
        return ForwardProxy(self._target.as_cocoercive(), self._tracer, self._nbytes)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, iters_by_module):
    """Per-layer metrics of the solver spans (the top-level spans that are
    not ``cli.*``).  ``iters_by_module`` maps a solver module to the total
    iterations its solves reported.  A layer the workload never reaches
    reads 0."""
    total_iters = sum(iters_by_module.values())
    solver_time = dict.fromkeys(SOLVER_MODULES, 0.0)
    child_time = dict.fromkeys(SOLVER_MODULES, 0.0)
    for name, child in tracer.child_busy.items():
        module = name.split(".", 1)[0]
        if module in solver_time:
            solver_time[module] += tracer.busy[name]
            child_time[module] += child
    all_solver = sum(solver_time.values())
    calls = {k: tracer.calls.get(k, 0) for k in (RESOLVE, FORWARD, PROJECT, NORM, OBJECTIVE)}
    busy = {k: tracer.busy.get(k, 0.0) for k in calls}
    nbytes = {k: tracer.nbytes.get(k, 0) for k in calls}
    out = {}
    for m in SOLVER_MODULES:
        out[f"{m}.iters"] = iters_by_module.get(m, 0)
    for m in ("fdr", "fpi", "km"):
        out[f"{m}.self_share"] = _ratio(solver_time[m] - child_time[m], solver_time[m])
    for key, layer in (("operators.resolve", RESOLVE), ("operators.forward", FORWARD),
                       ("spaces.project", PROJECT)):
        out[f"{key}_calls_per_iter"] = _ratio(calls[layer], total_iters)
        out[f"{key}_us_per_call"] = 1e6 * _ratio(busy[layer], calls[layer])
        out[f"{key}_share"] = _ratio(busy[layer], all_solver)
    out["operators.forward_bytes_per_iter"] = _ratio(nbytes[FORWARD], total_iters)
    out["spaces.project_bytes_per_iter"] = _ratio(nbytes[PROJECT], total_iters)
    out["spaces.norm_calls_per_iter"] = _ratio(calls[NORM], total_iters)
    out["spaces.norm_share"] = _ratio(busy[NORM], all_solver)
    out["variational.objective_calls_per_iter"] = _ratio(
        calls[OBJECTIVE], iters_by_module.get("variational", 0))
    return out


def cli_metrics(tracer, specs, valid_specs, rejected, csv_bytes):
    """Per-layer metrics of the ``cli.main`` spans and their children."""
    busy = {k: tracer.busy.get(k, 0.0)
            for k in ("cli.main", "cli.parse_spec", "cli.run", "cli.emit_csv")}
    return {
        "cli.parse_ms_per_spec": 1e3 * _ratio(busy["cli.parse_spec"], specs),
        "cli.run_share": _ratio(busy["cli.run"], busy["cli.main"]),
        "cli.csv_ms_per_spec": 1e3 * _ratio(busy["cli.emit_csv"], valid_specs),
        "cli.csv_bytes_per_spec": _ratio(csv_bytes, valid_specs),
        "cli.rejected_specs": rejected,
    }
