"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload suite --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 11-20 --out FILE

The spread is (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4).  A metric is marked steady when its
spread is below a third of its bound.  Runs are made one after another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=200, check=False)
    lines = proc.stdout.strip().splitlines() or ["{}"]
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else {}
    result["exit"] = proc.returncode
    result["context"] = [ln[2:] for ln in lines if ln.startswith("# context")
                         or ln.startswith("# loadavg_end")]
    return result


def summarize(metric, values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"metric": metric, "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] \
        if args.workload == "all" else [args.workload]

    summary = {"seconds": seconds, "workloads": {}}
    for workload in names:
        runs = []
        for seed in _seeds(args.seeds):
            res = run_once(workload, seed, seconds)
            runs.append({"seed": seed, **res})
            print("%s seed %d exit %d correct %s attempted %s failed %s"
                  % (workload, seed, res["exit"], res.get("correct"),
                     res.get("attempted"), res.get("failed")), flush=True)
        rows = []
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs
                      if metric in r.get("metrics", {})]
            if len(values) < 2:
                continue
            row = summarize(metric, values, bound)
            rows.append(row)
            print("  %-13s median %11.4f  q1 %11.4f  q3 %11.4f  "
                  "spread %.4f  bound %.2f  %s"
                  % (metric, row["median"], row["q1"], row["q3"],
                     row["spread"], bound,
                     "steady" if row["steady"] else "NOT STEADY"),
                  flush=True)
        summary["workloads"][workload] = {"runs": runs, "summary": rows}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
