#!/usr/bin/env python3
"""monosplit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed``, builds the problems through
the library constructors (the timed set-up, repeated and reported as a
median), then solves in a closed loop, one solve at a time, for ``--seconds``
of solve time.  Every solve is checked independently (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same job list and prints the per-layer
metrics; it also checks that both kinds of pass return identical results and
that every count repeats exactly from pass to pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report, with provenance.  Reports and span dumps are also
written under ``.bench_out/`` in the checkout.  The library is imported from
``src/`` of the checkout and nowhere else; without it the run exits with
code 2 and prints no result.
"""

import os

# BLAS threads are fixed (and recorded) before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

try:
    import tracing
    import workloads
except ImportError as e:
    _IMPORT_ERROR = e
else:
    _IMPORT_ERROR = None

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MAX_ERRORS_SHOWN = 10
WINDOW_S = 1.0
WINDOW_SOLVES = 20
CALIBRATE_S = 0.25

COUNT_UNITS = ("count", "calls/iter", "B/iter", "B")
E2E_UNITS = {"setup_s": "s", "solves_per_s": "1/s", "solve_ms_p50": "ms",
             "solve_ms_p90": "ms", "verified_frac": "frac", "peak_rss_mb": "MiB"}


def layer_unit(name):
    if name.endswith(".iters") or name == "cli.rejected_specs":
        return "count"
    if name.endswith("_calls_per_iter"):
        return "calls/iter"
    if name.endswith("_bytes_per_iter"):
        return "B/iter"
    if name.endswith("_bytes_per_spec"):
        return "B"
    if name.endswith("us_per_iter") or name.endswith("us_per_call"):
        return "us"
    if name.endswith("ms_per_spec"):
        return "ms"
    if name == "trace_overhead_frac":
        return "ratio"
    return "frac"


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def provenance():
    import numpy as np
    import scipy

    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # noqa: BLE001 - provenance is best effort
        pass
    return {"commit": _commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "caches": _cache_sizes(),
            "bytes_note": "all byte figures are computed from array sizes, not measured"}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Tally:
    """Solves attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(msg)


def solve_once(wl, built, job, tally, primal, tracer=None):
    """Run and check one job.  Returns (seconds, result or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = wl.solve(built, job)
        else:
            tracer.solve_id += 1
            tracer.begin(job.span)
            try:
                res = wl.solve(built, job)
            finally:
                tracer.end()
        err = None
    except Exception as e:  # noqa: BLE001 - a raising solve is a counted failure
        res, err = None, f"raised {e!r}"
    dt = time.perf_counter() - t0
    tally.attempted += 1
    if err is None:
        err = wl.check(job, res)
    if err is not None:
        tally.fail(f"{job.solver} problem {job.pid}: {err}")
    elif job not in primal:
        primal[job] = wl.primal(job, res)
    return dt, res


def run_pass(wl, built, tally, primal, tracer=None):
    """One pass over the job list: [(job, seconds, result)]."""
    out = []
    for job in wl.jobs:
        dt, res = solve_once(wl, built, job, tally, primal, tracer)
        out.append((job, dt, res))
    return out


def check_agreement(wl, primal, tally):
    for job in wl.agreement(primal):
        tally.fail(f"{job.solver} problem {job.pid}: primal point disagrees with fdr")


class Calibration:
    """A fixed kernel of the benchmark's own code, timed next to the program.

    On a shared host the speed of interpreter-bound code swings by up to about
    1.9x over tens of seconds, and BLAS and LAPACK code by less (see
    README.md).  Timings are therefore reported scaled by
    ``REFERENCE_MS / kernel time``, measured right before and after the
    timings they scale: a figure reads as the time the program would take
    at the machine speed where the kernel takes ``REFERENCE_MS``.  The
    kernel does not call the library, so a change to the library moves the
    scaled figures exactly as it moves the raw ones; raw figures are in the
    report too."""

    REFERENCE_MS = {"python": 8.0, "io": 5.5, "matvec": 3.7, "lapack": 4.3}

    def __init__(self, kind, workdir):
        self.kind = kind
        rng = np.random.default_rng(0)
        self._a = np.linspace(-1.0, 1.0, 8)
        if kind == "io":
            # the CLI's own mix: spec files read and parsed, CSV files written
            self._path = Path(workdir) / "calibration.json"
            self._text = json.dumps({"rows": rng.standard_normal((16, 16)).tolist()})
        elif kind == "matvec":
            self._M = rng.standard_normal((1000, 1000))
            self._v = np.ones(1000)
        else:
            S = rng.standard_normal((300, 300))
            self._S = S + S.T

    def _python(self, n):
        s = 0.0
        for i in range(n):
            s += (i & 7) * 0.5
            np.clip(self._a, -0.5, 0.5)

    def _kernel(self):
        if self.kind == "python":
            self._python(3000)
        elif self.kind == "io":
            self._python(1500)
            for _ in range(10):
                self._path.write_text(self._text)
                json.loads(self._path.read_text())
                self._path.unlink()
        elif self.kind == "matvec":
            for _ in range(10):
                self._M @ self._v
        else:
            np.linalg.eigvalsh(self._S)

    def factor(self):
        """REFERENCE / measured kernel time: multiply a raw time by it."""
        t0 = time.perf_counter()
        self._kernel()
        return 1e-3 * self.REFERENCE_MS[self.kind] / (time.perf_counter() - t0)


def setup_phase(wl, calib):
    """Build SETUP_REPS times; returns the median scaled time, the raw times
    and the last build."""
    raw, scaled = [], []
    built = None
    for _ in range(workloads.SETUP_REPS):
        gc.collect()
        before = calib.factor()
        t0 = time.perf_counter()
        built = wl.build()
        dt = time.perf_counter() - t0
        raw.append(dt)
        scaled.append(dt * 0.5 * (before + calib.factor()))
    return statistics.median(scaled), raw, built


def window_stats(windows):
    """Median over windows of the scaled throughput, p50 and p90."""
    rate, p50, p90 = [], [], []
    for times, f in windows:
        ms_w = sorted(1e3 * t * f for t in times)
        rate.append(len(times) / (sum(times) * f))
        p50.append(statistics.median(ms_w))
        p90.append(statistics.quantiles(ms_w, n=10, method="inclusive")[8])
    return statistics.median(rate), statistics.median(p50), statistics.median(p90)


def end_to_end(wl, built, seconds, tally, primal, calib):
    """Closed loop over the job list for ``seconds`` of solve time, split into
    windows of at least WINDOW_S seconds and WINDOW_SOLVES solves.  The
    calibration kernel runs every CALIBRATE_S seconds of solve time and at
    each window's ends; a window is scaled by the mean of its samples."""
    windows = []
    times = []
    cur = []
    elapsed = since = cur_s = 0.0
    gc.collect()
    samples = [calib.factor()]
    while elapsed < seconds:
        for job in wl.jobs:
            dt, _ = solve_once(wl, built, job, tally, primal)
            cur.append(dt)
            times.append(dt)
            elapsed += dt
            since += dt
            cur_s += dt
            closing = elapsed >= seconds or (cur_s >= WINDOW_S
                                             and len(cur) >= WINDOW_SOLVES)
            if closing or since >= CALIBRATE_S:
                samples.append(calib.factor())
                since = 0.0
            if closing:
                if len(cur) < WINDOW_SOLVES and windows:
                    windows[-1][0].extend(cur)
                else:
                    windows.append((cur, statistics.fmean(samples)))
                samples, cur, cur_s = samples[-1:], [], 0.0
            if elapsed >= seconds:
                break
    check_agreement(wl, primal, tally)
    ok = tally.attempted - tally.failed
    rate, p50, p90 = window_stats(windows)
    metrics = {"solves_per_s": rate * ok / tally.attempted, "solve_ms_p50": p50,
               "solve_ms_p90": p90, "verified_frac": ok / tally.attempted}
    ms_times = sorted(1e3 * t for t in times)
    detail = {"timed_s": elapsed, "samples": len(times), "windows": len(windows),
              "calibration": calib.kind,
              "scale_factors": [round(f, 4) for _, f in windows],
              "raw_solves_per_s": ok / elapsed,
              "raw_solve_ms_p50": statistics.median(ms_times),
              "raw_solve_ms_p90": statistics.quantiles(ms_times, n=10, method="inclusive")[8]}
    return metrics, detail


def _pass_counts(wl, results):
    iters = {m: 0 for m in tracing.SOLVER_MODULES}
    times = {m: 0.0 for m in tracing.SOLVER_MODULES}
    for job, dt, res in results:
        module = job.span.split(".", 1)[0]
        if module in iters and res is not None:
            iters[module] += wl.iterations(res)
            times[module] += dt
    return iters, times


def traced_run(wl, built, seconds, tally, primal):
    """Alternate untraced and traced passes; per-layer metrics from the spans."""
    gc.collect()
    per_pass = []
    plain_s = traced_s = 0.0
    iters_total = {m: 0 for m in tracing.SOLVER_MODULES}
    plain_time = {m: 0.0 for m in tracing.SOLVER_MODULES}
    mismatches = []
    reference = None
    first_tracer = None
    while not per_pass or plain_s + traced_s < seconds:
        plain = run_pass(wl, built, tally, primal)
        tracer = tracing.Tracer()
        with wl.traced(built, tracer) as wrapped:
            traced = run_pass(wl, wrapped, tally, primal, tracer)
        plain_s += sum(dt for _, dt, _ in plain)
        traced_s += sum(dt for _, dt, _ in traced)
        iters, times = _pass_counts(wl, plain)
        for m in iters:
            iters_total[m] += iters[m]
            plain_time[m] += times[m]
        prints = [[wl.fingerprint(r) if r is not None else None for _, _, r in rs]
                  for rs in (plain, traced)]
        if reference is None:
            reference = prints[0]
        for kind, fp in zip(("untraced", "traced"), prints):
            if fp != reference:
                bad = sum(1 for a, b in zip(fp, reference) if a != b)
                mismatches.append(f"pass {len(per_pass)} {kind}: {bad} results differ")
        t_iters, _ = _pass_counts(wl, traced)
        layer = tracing.layer_metrics(tracer, t_iters)
        specs, valid, rejected, csv_bytes = (
            wl.cli_counts([(j, r) for j, _, r in traced]) if hasattr(wl, "cli_counts")
            else (0, 0, 0, 0))
        layer.update(tracing.cli_metrics(tracer, specs, valid, rejected, csv_bytes))
        per_pass.append(layer)
        if first_tracer is None:
            first_tracer = tracer
    check_agreement(wl, primal, tally)
    metrics = {}
    for k, first in per_pass[0].items():
        if layer_unit(k) in COUNT_UNITS:
            metrics[k] = first
            if any(p[k] != first for p in per_pass):
                mismatches.append(f"count {k} differs between traced passes")
        else:
            metrics[k] = statistics.median(p[k] for p in per_pass)
    for m in tracing.SOLVER_MODULES:
        metrics[f"{m}.us_per_iter"] = (1e6 * plain_time[m] / iters_total[m]
                                       if iters_total[m] else 0.0)
    metrics["trace_overhead_frac"] = traced_s / plain_s
    for msg in mismatches:
        tally.fail(f"traced run differs from untraced: {msg}")
    detail = {"pairs": len(per_pass), "untraced_s": plain_s, "traced_s": traced_s,
              "spans_kept": len(first_tracer.spans), "identity_mismatches": mismatches}
    return metrics, detail, first_tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _IMPORT_ERROR is not None:
        print(f"cannot import the monosplit library from {ROOT / 'src'}: "
              f"{_IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if cls is workloads.CliBatch:
            wl = cls(args.seed, workdir)
            wl.write_specs()
        else:
            wl = cls(args.seed)
        solve_kernel, setup_kernel = wl.CALIBRATION
        workdir.mkdir(parents=True, exist_ok=True)
        setup_s, setup_times, built = setup_phase(wl, Calibration(setup_kernel, workdir))
        tally, primal = Tally(), {}
        tracer = None
        if args.trace:
            metrics, detail, tracer = traced_run(wl, built, args.seconds, tally, primal)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics, detail = end_to_end(wl, built, args.seconds, tally, primal,
                                         Calibration(solve_kernel, workdir))
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tol": workloads.TOL, "sizes": wl.sizes,
              "jobs_per_pass": len(wl.jobs), "setup_raw_s": setup_times,
              "detail": detail, "errors": tally.errors, "provenance": provenance()}
    if tracer is not None:
        spans_path = OUT / f"spans-{tag}.json.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    report["result"] = result
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
