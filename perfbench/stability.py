#!/usr/bin/env python3
"""Runs perfbench/run.py repeatedly and summarises the spread.

    python3 perfbench/stability.py --workloads ch2_tpdf --repeat 5
    python3 perfbench/stability.py --seeds 0-9
    python3 perfbench/stability.py --repeat 10 --seeds 0-9 --traced 2 \\
        --record perfbench/baseline.json

Two views per workload. --repeat N runs one fixed input (--seed, default 0)
N times: the run-to-run noise of the same code on the same input, which is
what a metric's bound has to cover. --seeds runs each listed seed once: the
noise plus how much the work itself varies with the input. For every
end-to-end metric each view prints the median with its unit, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json. --traced N adds N traced runs per
workload (seeds taken from the front of --seeds, else --seed) and prints the
median per-layer metrics with each leaf layer's share of the traced row
time. --record writes all of it as JSON (the baseline record).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Layer spans that together make up the traced row time (fault.grade_s is
# carved out of construction), and the leaf layers whose shares are reported
# (the atpg.* phases split atpg.tpdf_s).
ROW_PARTS = ("netlist.load_s", "fault.collapse_s", "bist.calibrate_s",
             "bist.construct_s", "fault.grade_s", "fault.reduce_s",
             "bist.hold_s", "bist.cost_s", "paths.enumerate_s", "atpg.tpdf_s",
             "flow.unattributed_s")
LEAF_LAYERS = tuple(m for m in ROW_PARTS if m != "atpg.tpdf_s") + (
    "atpg.tf_atpg_s", "atpg.preprocess_s", "atpg.fsim_s",
    "atpg.heuristic_s", "atpg.bnb_s")


def parse_seeds(text):
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect result: %s %d: %s" % (workload, seed, result))
    return result["metrics"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def view(label, runs, bounds):
    """Summarises one set of untraced runs and prints it."""
    e2e = {m: summary([r[m]["value"] for r in runs]) for m in bounds}
    print(label)
    for m, s in e2e.items():
        s["unit"] = runs[0][m]["unit"]
        print("  %-20s median %12.6g %-5s  q1 %12.6g  q3 %12.6g  "
              "spread %6.3f  bound %.2f%s" %
              (m, s["median"], s["unit"], s["q1"], s["q3"], s["spread"],
               bounds[m],
               "" if s["spread"] <= bounds[m] / 3 else "  <-- wide"))
    sys.stdout.flush()
    return e2e


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--record", default="")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    record = {"build_type": "RelWithDebInfo", "run_seconds": seconds,
              "workloads": {}}
    for w in args.workloads:
        entry = {"why": why.get(w, "")}
        if args.repeat:
            runs = [run(w, args.seed, seconds, 0) for _ in range(args.repeat)]
            entry["repeat"] = {
                "seed": args.seed,
                "end_to_end": view("%s (seed %d, %d runs)" %
                                   (w, args.seed, args.repeat), runs, bounds)}
        if seeds:
            runs = [run(w, s, seconds, 0) for s in seeds]
            entry["seeds"] = {
                "seeds": seeds,
                "end_to_end": view("%s (%d seeds, one run each)" %
                                   (w, len(seeds)), runs, bounds)}
        if args.traced:
            traced_seeds = (seeds or [args.seed] * args.traced)[:args.traced]
            traced = [run(w, s, seconds, 1) for s in traced_seeds]
            layers = {m: statistics.median([t[m]["value"] for t in traced])
                      for m in traced[0]}
            total = sum(layers[m] for m in ROW_PARTS)
            shares = {m: layers[m] / total for m in LEAF_LAYERS
                      if layers[m] > 0}
            for m, share in sorted(shares.items(), key=lambda kv: -kv[1]):
                print("  layer %-20s %9.3f s  %5.1f%%" %
                      (m, layers[m], 100 * share))
            entry.update({"traced_seeds": traced_seeds,
                          "per_layer_median": layers,
                          "layer_share": shares})
        record["workloads"][w] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
