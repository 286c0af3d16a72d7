#!/usr/bin/env python3
"""Bit-for-bit comparison of two checkouts on one benchmark workload.

    python3 tools/bitreport.py BASE CHANGE --workload W --seed N [--limit K]

Runs every job of workload ``W`` drawn from seed ``N`` (the first ``K`` with
``--limit``) once through each checkout.  Each checkout runs in its own
spawned process, which imports that checkout's ``bench/workloads.py`` (and
through it the checkout's ``src/``) and writes no file into the checkout.
The report lists every job whose outcome differs:

- library workloads: status, iterations, the result arrays, the
  certificate fields and every history row, compared as exact bytes, plus
  the benchmark's own check of the solve;
- ``cli_batch``: the exit code, the CSV bytes, standard output without its
  ``time=`` field, and standard error.

The last line reads ``<workload> seed <N>: <jobs> jobs, <k> differ``.  The
exit status is 0 when no job differs and 1 otherwise.
"""

import argparse
import dataclasses
import hashlib
import multiprocessing
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

DIGEST = 8          # bytes per history-row digest
SHOWN = 20          # differing jobs listed in full
_TIME_RE = re.compile(r"time=\S+")


def _canon(v):
    """Exact bytes of a result value: arrays with dtype and shape, floats by
    their bit pattern, rows and results field by field under their names
    (so a dataclass row and a NamedTuple row with equal fields agree)."""
    if v is None:
        return b"N"
    if hasattr(v, "_fields"):
        return b"R" + _canon([(f, getattr(v, f)) for f in v._fields])
    if dataclasses.is_dataclass(v):
        return b"R" + _canon([(f.name, getattr(v, f.name))
                              for f in dataclasses.fields(v)])
    if isinstance(v, (list, tuple)):
        return b"L%d:" % len(v) + b"".join(_canon(e) + b";" for e in v)
    if isinstance(v, str):
        v = v.encode()
        return b"S%d:" % len(v) + v
    if isinstance(v, bytes):
        return b"B%d:" % len(v) + v
    if isinstance(v, int):
        return b"I%d" % v
    if isinstance(v, float):
        return b"F" + struct.pack("<d", v)
    if hasattr(v, "tobytes"):
        return b"A" + f"{v.dtype.str}{v.shape}".encode() + v.tobytes()
    raise TypeError(f"cannot compare a value of type {type(v).__name__}")


def _digest(v):
    return hashlib.blake2b(_canon(v), digest_size=16).digest()


def _history(rows):
    """The digests of history rows, ``DIGEST`` bytes each."""
    return b"".join(hashlib.blake2b(_canon(row), digest_size=DIGEST).digest()
                    for row in rows)


def _record(res, workdir, check):
    """Field name -> digest of one outcome; a history is kept row by row."""
    if hasattr(res, "csv"):        # a CLI outcome
        def clean(text):
            return text.replace(str(workdir), "<workdir>")
        fields = {"exit": res.status, "csv": res.csv,
                  "stdout": clean(_TIME_RE.sub("time=", res.stdout)),
                  "stderr": clean(res.stderr)}
    else:
        fields = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    rec = {name: _digest(v) for name, v in fields.items() if name != "history"}
    if "history" in fields:
        rec["history"] = _history(fields["history"])
    rec["check"] = _digest(check)
    return rec


def outcomes(checkout, workload, seed, limit):
    """``[(job, record)]`` for the first ``limit`` jobs of ``workload`` run
    through ``checkout``; meant to run in a fresh process."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(checkout).resolve() / "bench"))
    import workloads   # the checkout's own, which imports its src/

    cls = workloads.WORKLOADS[workload]
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        if cls is workloads.CliBatch:
            wl = cls(seed, workdir)
            wl.write_specs()
        else:
            wl = cls(seed)
        built = wl.build()
        for job in wl.jobs[:limit]:
            key = (job.pid, job.solver)
            try:
                res = wl.solve(built, job)
            except Exception as e:  # noqa: BLE001 - a raise is an outcome to compare
                out.append((key, {"raised": _digest(repr(e))}))
                continue
            # check() also moves a CLI run's CSV into res.csv
            out.append((key, _record(res, workdir, wl.check(job, res))))
    return out


def differences(base, change):
    """``(job, [what differs])`` for every job whose records differ."""
    a, b = dict(base), dict(change)
    diff = []
    for key in list(a) + [k for k in b if k not in a]:
        ra, rb = a.get(key), b.get(key)
        if ra is None or rb is None:
            diff.append((key, ["missing in " + ("base" if ra is None else "change")]))
            continue
        what = []
        for name in list(ra) + [n for n in rb if n not in ra]:
            va, vb = ra.get(name), rb.get(name)
            if va == vb:
                continue
            if name == "history" and va is not None and vb is not None:
                rows = min(len(va), len(vb)) // DIGEST
                first = next((i for i in range(rows)
                              if va[i * DIGEST:(i + 1) * DIGEST]
                              != vb[i * DIGEST:(i + 1) * DIGEST]), rows)
                what.append(f"history (rows {len(va) // DIGEST} vs "
                            f"{len(vb) // DIGEST}, first differing row {first})")
            else:
                what.append(name)
        if what:
            diff.append((key, what))
    return diff


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "bench" / "workloads.py").is_file():
            parser.error(f"{checkout} has no bench/workloads.py")

    # one fresh process per checkout: each imports its own monosplit, with
    # BLAS on one thread as in bench/run.py
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2, maxtasksperchild=1) as pool:
        pending = [pool.apply_async(outcomes, (str(c), args.workload, args.seed,
                                               args.limit))
                   for c in (args.base, args.change)]
        base, change = (p.get() for p in pending)

    diff = differences(base, change)
    for (pid, solver), what in diff[:SHOWN]:
        print(f"{solver} problem {pid}: {', '.join(what)}")
    if len(diff) > SHOWN:
        print(f"... and {len(diff) - SHOWN} more")
    print(f"{args.workload} seed {args.seed}: {len(base)} jobs, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
