"""One workload run in a fresh interpreter; prints one JSON result line.

    python3 perfbench/worker.py --workload W --seed S --seconds T
    python3 perfbench/worker.py --workload W --seed S --items M [--trace]

With --seconds the closed loop runs whole item cycles until the timed calls
add up to T seconds.  With --items it runs exactly M items, so that counts
taken with --trace repeat exactly for a given seed.  Only the calls into sgk
are timed; making inputs and checking answers between items are not.
The calibration kernel is timed between items, and each item's time is
calibrated with the kernel times right before and after it (see calib.py).
"""

import argparse
import json
import os
import resource
import sys
import time


def _import_sgk(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sgk
    where = os.path.dirname(os.path.abspath(sgk.__file__))
    if where != os.path.join(src, "sgk"):
        raise SystemExit("sgk imported from %s, not from %s" % (where, src))
    return sgk


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--items", type=int)
    ap.add_argument("--wall-limit", type=float, default=150.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="path prefix for the span dump")
    args = ap.parse_args(argv)
    if (args.seconds is None) == (args.items is None):
        ap.error("give exactly one of --seconds and --items")

    here = os.path.dirname(os.path.abspath(__file__))
    _import_sgk(os.path.dirname(here))
    from workloads import WORKLOADS
    import calib
    import tracer as tracing

    wall0 = time.perf_counter()
    work = WORKLOADS[args.workload](args.seed)
    tr = tracing.Tracer()
    if args.trace:
        tracing.install(tr)

    times, kernel_times, digests, wrong, errors = [], [], [], [], []
    busy = 0.0
    i = 0
    clock = time.perf_counter
    while True:
        kernel_times.append(calib.time_kernel())
        if args.items is not None:
            if i >= args.items:
                break
        elif i % work.cycle == 0 and (
                busy >= args.seconds
                or clock() - wall0 >= args.wall_limit):
            break
        inp = work.make(i)
        tr.item = i
        tr.active = args.trace
        t0 = clock()
        try:
            out = work.run(inp)
        except Exception as exc:  # a raised exception is a failed item
            out, exc_text = None, "%s: %s" % (type(exc).__name__, exc)
        else:
            exc_text = None
        dt = clock() - t0
        tr.active = False
        busy += dt
        times.append(dt)
        if out is None:
            ok, digest = False, "raised " + exc_text
            errors.append([i, exc_text])
        else:
            try:
                ok, digest = work.check(inp, out)
            except (ValueError, KeyError, TypeError) as exc:  # malformed
                ok, digest = False, "unreadable output: %r" % (exc,)
        digests.append(digest)
        if not ok:
            wrong.append([i, digest[:500]])
        i += 1

    calibrated = [calib.calibrated(t, kernel_times[j], kernel_times[j + 1])
                  for j, t in enumerate(times)]
    factor = sum(calibrated) / busy if busy else 1.0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "items": len(times),
        "scale": factor,
        "raw_busy_s": busy,
        "times": calibrated,
        "wrong": wrong,
        "errors": errors[:20],
        "digests": digests,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wall_s": clock() - wall0,
    }
    if args.trace:
        result["metrics"] = {
            name: (value * factor if unit == "s" else value, unit)
            for name, (value, unit) in tr.metrics().items()}
        result["check_calls"] = tr.check_calls
        if args.spans:
            tr.write_spans(args.spans)
            result["spans"] = len(tr.span_start)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
