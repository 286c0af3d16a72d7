#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of two checkouts on one workload.

    python3 tools/benchpair.py BASE CHANGE --workload W --seeds A-B --seconds S --out FILE

For each seed from A to B (one pair per seed) runs each checkout's own
``bench/run.py --workload W --seed N --seconds S --trace 0`` in a fresh
process, one run at a time; BASE goes first in the first pair and the order
alternates from pair to pair, so a drift of the host's speed weighs on both
sides alike.  ``FILE`` holds one JSON object keyed by workload; the run
writes the entry of ``W`` and keeps the others.  Each entry holds:

- ``pairs``: per pair the seed, which side ran first, and each side's
  end-to-end metrics, ``correct``, ``attempted`` and ``failed``;
- ``metrics``: per end-to-end metric of BASE's ``BENCHMARK.json`` its unit,
  direction and bound, each side's median and quartiles over the pairs, the
  change's relative move of the median (positive is better), the number of
  pairs the change wins (strictly better than BASE in the same pair), and
  ``within_bound``: whether the change's median is worse than BASE's by no
  more than the bound;
- ``failures_within``: whether the change's runs failed no larger share of
  their solves than BASE's;
- ``provenance``: both checkouts' report provenance (commit, source digest,
  versions, host), from their first run.

The last line of standard output sums up each metric.  The exit status is 0
when every metric is within its bound and the change failed no larger share
of solves, and 1 otherwise.
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


def run_bench(checkout, workload, seed, seconds):
    """One untraced run of ``checkout``'s own benchmark: ``(result, report)``,
    the last two lines of its standard output."""
    cmd = [sys.executable, str(Path(checkout) / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
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


def summarize(pairs, end_to_end):
    """Per-metric spreads, wins and bound checks for the ``pairs`` of runs,
    against the ``end_to_end`` metric list of a ``BENCHMARK.json``."""
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sb, sc = spread(base), spread(change)
        sign = 1.0 if higher else -1.0
        move = sign * (sc["median"] - sb["median"]) / sb["median"] if sb["median"] else 0.0
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "bound": spec["bound"], "base": sb, "change": sc,
                     "relative_gain": move,
                     "change_wins": sum(sign * (c - b) > 0.0
                                        for b, c in zip(base, change)),
                     "pairs": len(pairs), "within_bound": move >= -spec["bound"]}
    return out


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
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{checkout} has no bench/run.py")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(str(e))
    config = json.loads((args.base / "BENCHMARK.json").read_text())

    sides = {"base": args.base, "change": args.change}
    pairs, provenance = [], {}
    for i, seed in enumerate(seeds):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result, report = run_bench(sides[side], args.workload, seed, args.seconds)
            pair[side] = {"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {k: v["value"]
                                      for k, v in result["metrics"].items()}}
            provenance.setdefault(side, report["provenance"])
        pairs.append(pair)
        print(f"seed {seed}: " + ", ".join(
            f"{s} {pair[s]['metrics']['solves_per_s']:.1f}" for s in order)
            + " solves/s", flush=True)

    metrics = summarize(pairs, config["end_to_end"])
    failures_within = failed_share(pairs, "change") <= failed_share(pairs, "base")
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.workload] = {"seeds": seeds, "seconds": args.seconds,
                             "pairs": pairs, "metrics": metrics,
                             "failures_within": failures_within,
                             "provenance": provenance}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = failures_within and all(m["within_bound"] for m in metrics.values())
    print(json.dumps({name: {"base": m["base"]["median"],
                             "change": m["change"]["median"],
                             "wins": m["change_wins"],
                             "within_bound": m["within_bound"]}
                      for name, m in metrics.items()}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
