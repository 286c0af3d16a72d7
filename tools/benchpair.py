#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts on one workload.

    python3 tools/benchpair.py BASE CHANGE --workload W --seeds A-B --seconds S --out FILE [--trace 0|1]

For each seed from A to B (one pair per seed) runs each checkout's own
``bench/run.py --workload W --seed N --seconds S --trace T`` in a fresh
process, one run at a time; BASE goes first in the first pair and the order
alternates from pair to pair, so a drift of the host's speed weighs on both
sides alike.  ``--trace 0`` (the default) compares the end-to-end metrics
of BASE's ``BENCHMARK.json``, each against its bound; ``--trace 1`` compares
its per-layer metrics, which have no bounds.  ``FILE`` holds one JSON
object keyed by workload, with traced pairs under ``W.traced``; the run
writes the entry of ``W`` (or ``W.traced``) and keeps the others.  Each
entry holds:

- ``pairs``: per pair the seed, which side ran first, and each side's
  metrics, ``correct``, ``attempted``, ``failed`` and ``setup_raw_s``, the
  raw times of its report's builds in the order they ran;
- ``metrics``: per compared metric its unit and direction, each side's
  median and quartiles over the pairs, the change's relative move of the
  median (positive is better), the number of pairs the change wins
  (strictly better than BASE in the same pair) and ``gain_resolved``: whether
  at least 10 pairs ran, the change won at least 9 of every 10 of them and
  its median is better than BASE's by more than BASE's quartile distance
  (the distance between BASE's quartiles); an end-to-end metric also
  carries its bound and ``within_bound``: whether the change's median is
  worse than BASE's by no more than the bound;
- ``cold_setup_s``: per side the median and quartiles over the pairs of
  the first build's raw time, which no cache of an earlier build in the
  same process can shorten; it has no bound;
- ``failures_within``: whether the change's runs failed no larger share of
  their solves than BASE's;
- ``provenance``: both checkouts' report provenance (commit, source digest,
  versions, host), from their first run.

The last line of standard output sums up each metric and the medians of
``cold_setup_s``.  The exit status is 0 when every metric with a bound is
within it and the change failed no larger share of solves, and 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    """``"A-B"`` -> ``[A, ..., B]``; ``"A"`` -> ``[A]``."""
    lo, _, hi = text.partition("-")
    lo = int(lo)
    hi = int(hi) if hi else lo
    if hi < lo:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def run_bench(checkout, workload, seed, seconds, trace=0):
    """One run of ``checkout``'s own benchmark: ``(result, report)``, the last
    two lines of its standard output."""
    cmd = [sys.executable, str(Path(checkout) / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def spread(values):
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs, specs):
    """Per-metric spreads and wins for the ``pairs`` of runs, over a metric
    list of a ``BENCHMARK.json``; a metric with a ``bound`` is also checked
    against it."""
    out = {}
    for spec in specs:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sb, sc = spread(base), spread(change)
        sign = 1.0 if higher else -1.0
        move = sign * (sc["median"] - sb["median"]) / sb["median"] if sb["median"] else 0.0
        wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
        resolved = (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                    and sign * (sc["median"] - sb["median"]) > sb["q3"] - sb["q1"])
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "base": sb, "change": sc, "relative_gain": move,
                     "change_wins": wins, "pairs": len(pairs),
                     "gain_resolved": resolved}
        if "bound" in spec:
            out[name].update(bound=spec["bound"], within_bound=move >= -spec["bound"])
    return out


def cold_setup(pairs):
    """Per side the spread of the first build's raw time over the pairs."""
    return {side: spread([p[side]["setup_raw_s"][0] for p in pairs])
            for side in ("base", "change")}


def failed_share(pairs, side):
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B or A")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{checkout} has no bench/run.py")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(str(e))
    config = json.loads((args.base / "BENCHMARK.json").read_text())
    specs = config["per_layer" if args.trace else "end_to_end"]
    headline = "trace_overhead_frac" if args.trace else "solves_per_s"

    sides = {"base": args.base, "change": args.change}
    pairs, provenance = [], {}
    for i, seed in enumerate(seeds):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result, report = run_bench(sides[side], args.workload, seed,
                                       args.seconds, args.trace)
            pair[side] = {"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {k: v["value"]
                                      for k, v in result["metrics"].items()},
                          "setup_raw_s": report["setup_raw_s"]}
            provenance.setdefault(side, report["provenance"])
        pairs.append(pair)
        print(f"seed {seed}: " + ", ".join(
            f"{s} {pair[s]['metrics'][headline]:.4g}" for s in order)
            + f" {headline}", flush=True)

    metrics = summarize(pairs, specs)
    cold = cold_setup(pairs)
    failures_within = failed_share(pairs, "change") <= failed_share(pairs, "base")
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = f"{args.workload}.traced" if args.trace else args.workload
    record[key] = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
                   "pairs": pairs, "metrics": metrics,
                   "cold_setup_s": cold,
                   "failures_within": failures_within, "provenance": provenance}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = failures_within and all(m.get("within_bound", True) for m in metrics.values())
    summary = {}
    for name, m in metrics.items():
        summary[name] = {"base": m["base"]["median"], "change": m["change"]["median"],
                         "wins": m["change_wins"], "gain_resolved": m["gain_resolved"]}
        if "within_bound" in m:
            summary[name]["within_bound"] = m["within_bound"]
    summary["cold_setup_s"] = {side: s["median"] for side, s in cold.items()}
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
