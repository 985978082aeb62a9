"""Benchmark entry point for sgk: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh interpreters importing sgk), then one time-bounded run of the workload
in a fresh single-threaded interpreter.  --trace 1 runs a fixed number of
items three times in fresh interpreters (untraced, traced, traced again),
checks that all three give the same outputs and that the two traced runs
give the same counts, and reports the per-layer metrics.  Every item's
answer is checked; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the exit code is
non-zero when any answer or self-check is wrong.

The program is imported from ./src of the checkout the script sits in;
nothing is built or installed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calib
from workloads import WORKLOADS as WORKLOAD_CLASSES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = tuple(WORKLOAD_CLASSES)
# Untraced items per second on a 2-core x86 box; used only to size the
# fixed item count of a traced run so that its three passes fit --seconds.
NOMINAL_RATE = {"suite": 6.4, "orbit-n8": 3.7, "script-t": 2.6}
SETUP_REPEATS = 11
TOTAL_LIMIT_S = 170.0
TAIL_BEYOND = 10

# The child reports when `import sgk` finished, then times the calibration
# kernel (median of three) so that the launch can be calibrated.
SETUP_CODE = ("import sys, time; sys.path.insert(0, %r); import sgk; "
              "done = time.monotonic(); sys.path.insert(0, %r); "
              "import calib; "
              "k = sorted(calib.time_kernel() for _ in range(3))[1]; "
              "sys.stdout.write('%%r %%r' %% (done, k))")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run(cmd, deadline):
    """Run a child to completion within the deadline; return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before %s" % cmd[1:3])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out: %s" % " ".join(cmd[1:4]))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("child exited with %d: %s"
                         % (proc.returncode, " ".join(cmd[1:4])))
    return out


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def context():
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }


def measure_setup(deadline):
    """Median seconds from launching a fresh interpreter to `import sgk`
    having finished, over SETUP_REPEATS launches after one warm-up.  Each
    launch is calibrated with the kernel timed in the same child right after
    the import.  Returns the calibrated median and the raw launch times."""
    cmd = [sys.executable, "-c", SETUP_CODE % (SRC, HERE)]
    _run(cmd, deadline)  # writes the bytecode cache on a fresh checkout
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done, kernel = map(float, _run(cmd, deadline).split())
        raw.append(done - t0)
        scaled.append(raw[-1] * calib.REFERENCE_S / kernel)
    return statistics.median(scaled), raw


def run_worker(workload, seed, deadline, seconds=None, items=None,
               trace=False, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        wall = max(1.0, deadline - time.monotonic() - 15.0)
        cmd += ["--seconds", str(seconds), "--wall-limit", "%.1f" % wall]
    else:
        cmd += ["--items", str(items)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    lines = _run(cmd, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def tail_stat(times):
    """(percentile, value, items beyond): the highest whole percentile that
    has at least TAIL_BEYOND items above it, by nearest rank."""
    n = len(times)
    ordered = sorted(times)
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def trace_items(workload, seconds):
    """Fixed item count for a traced run: whole cycles, about a quarter of
    --seconds per untraced pass, so three passes fit in the budget."""
    cycle = WORKLOAD_CLASSES[workload].cycle
    cycles = round(seconds * NOMINAL_RATE[workload] / (4 * cycle))
    return cycle * max(1, cycles)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def bench_plain(workload, seed, seconds, deadline, say):
    setup_s, setup_values = measure_setup(deadline)
    res = run_worker(workload, seed, deadline, seconds=seconds)
    times = res["times"]
    n = len(times)
    failed = len(res["wrong"])
    pct, tail, beyond = tail_stat(times)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "items_per_s": _metric(n / sum(times), "1/s"),
        "item_p50_ms": _metric(statistics.median(times) * 1000, "ms"),
        "item_tail_ms": _metric(tail * 1000, "ms"),
        "peak_rss_mb": _metric(res["rss_kb"] / 1024, "MB"),
    }
    say("setup launches, raw s: %s"
        % ", ".join("%.4f" % v for v in setup_values))
    say("items %d in %.2f s timed raw, %.2f s calibrated (factor %.4f); "
        "%.2f s wall in the worker"
        % (n, res["raw_busy_s"], sum(times), res["scale"], res["wall_s"]))
    for name, m in metrics.items():
        say("%-14s %12.4f %s" % (name, m["value"], m["unit"]))
    say("item_tail_ms is p%d of %d items, %d items beyond it"
        % (pct, n, beyond))
    say("fail_share     %12.4f (%d of %d items wrong or raised)"
        % (failed / n if n else 1.0, failed, n))
    for i, text in res["wrong"][:5]:
        say("wrong item %d: %s" % (i, text))
    return {"correct": failed == 0 and n > 0, "attempted": n,
            "failed": failed, "metrics": metrics}


def bench_trace(workload, seed, seconds, deadline, say):
    items = trace_items(workload, seconds)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s" % workload)
    plain = run_worker(workload, seed, deadline, items=items)
    first = run_worker(workload, seed, deadline, items=items, trace=True,
                       spans=spans)
    second = run_worker(workload, seed, deadline, items=items, trace=True)
    runs = (plain, first, second)

    problems = []
    if not plain["digests"] == first["digests"] == second["digests"]:
        problems.append("item outputs differ between traced and untraced "
                        "runs")
    for name, (value, unit) in first["metrics"].items():
        if unit != "s" and second["metrics"][name][0] != value:
            problems.append("%s differs between two traced runs: %r vs %r"
                            % (name, value, second["metrics"][name][0]))
    failed = sum(len(r["wrong"]) for r in runs)
    attempted = sum(r["items"] for r in runs)

    metrics = {}
    for name, (value, unit) in first["metrics"].items():
        if unit == "s":
            value = (value + second["metrics"][name][0]) / 2
        metrics[name] = _metric(value, unit)
    plain_rate = items / sum(plain["times"])
    traced_time = (sum(first["times"]) + sum(second["times"])) / 2
    traced_rate = items / traced_time
    metrics["bench.untraced_items_per_s"] = _metric(plain_rate, "1/s")
    metrics["bench.traced_items_per_s"] = _metric(traced_rate, "1/s")
    metrics["bench.trace_overhead"] = _metric(plain_rate / traced_rate,
                                              "ratio")
    metrics["bench.item_s"] = _metric(traced_time, "s")

    say("traced run: %d items x 3 passes; %d spans written to %s.bin"
        % (items, first.get("spans", 0), os.path.relpath(spans, ROOT)))
    say("tracing overhead: %.3f (untraced %.3f items/s, traced %.3f items/s)"
        % (plain_rate / traced_rate, plain_rate, traced_rate))
    selfs = sorted(((m["value"], k) for k, m in metrics.items()
                    if k.endswith(".self_s")), reverse=True)
    say("largest self times over %.3f s of traced item time:" % traced_time)
    for value, name in selfs[:6]:
        say("  %-40s %9.4f s  %5.1f%%" % (name, value,
                                          100 * value / traced_time))
    ratt = metrics["grassmann.ratt_ops.self_s"]["value"] + \
        metrics["grassmann.qipoly_gcd.self_s"]["value"]
    say("RatT self time (ratt_ops + qipoly_gcd): %.4f s, %.1f%% of item time"
        % (ratt, 100 * ratt / traced_time))
    for key in ("grassmann.sn_mul.useful_ratio",
                "scgroup.decompose.repeat_share", "grassmann.ratt_share"):
        say("input property %-32s %.4f" % (key, metrics[key]["value"]))
    if first.get("check_calls"):
        say("built-in checks traced: %s" % json.dumps(first["check_calls"]))
    for text in problems:
        say("SELF-TEST FAILED: " + text)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sgk", "__init__.py")):
        sys.stderr.write("error: no sgk package under %s\n" % SRC)
        return 2

    def say(text):
        sys.stdout.write("# " + text + "\n")

    ctx = context()
    say("context " + json.dumps(ctx))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TOTAL_LIMIT_S * len(names)
    bench = bench_trace if args.trace else bench_plain
    results = []
    try:
        for name in names:
            say("workload %s, seed %d, %d s, trace %d"
                % (name, args.seed, args.seconds, args.trace))
            results.append(bench(name, args.seed, args.seconds, deadline,
                                 say))
            if len(names) > 1:
                say("result %s %s" % (name, json.dumps(results[-1])))
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    say("loadavg_end %s" % _loadavg())
    if len(names) == 1:
        sys.stdout.write(json.dumps(results[0]) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
