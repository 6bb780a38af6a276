"""One cold round of a workload, in a fresh interpreter.

Started by run.py, never imported by it: each measured round pays the
imports, the store load and every in-process cache fill (``arith.add``'s
exhaustive check, the ``lru_cache``d relation builders, the oracle
tables) exactly as one ``fibdecide`` command-line invocation does.

    python3 perfbench/worker.py --workload NAME --seed N --out FILE
        [--store DIR] [--items 0|1] [--trace 0|1] [--spans FILE]
    python3 perfbench/worker.py --build-store DIR

Writes one JSON object to FILE.  Times are the process's CPU time
(``time.process_time``: user plus system, counted from the fork that
started it).  The kernel leaves out of it the time the host gave the core
to another guest (steal), which wall time counts; for this single-threaded
program it is otherwise the wall time.
``cpu_ready`` is the CPU time spent from the fork to ready (interpreter
start, imports and the store load); ``t_ready`` is the wall-clock instant,
read from the system-wide monotonic clock, so the parent can subtract its
own spawn time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _import_package():
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fibdecide", "__init__.py")):
        sys.exit(f"worker: no fibdecide package under {src}")
    sys.path.insert(0, src)
    import fibdecide
    import fibdecide.cli  # noqa: F401  (imports every layer module)

    if not os.path.abspath(fibdecide.__file__).startswith(src + os.sep):
        sys.exit(f"worker: imported fibdecide from {fibdecide.__file__}, not {src}")
    return fibdecide


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--store")
    p.add_argument("--items", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans")
    p.add_argument("--build-store")
    args = p.parse_args(argv)

    fd = _import_package()
    import numpy as np
    import workloads

    if args.build_store:
        workloads.build_store(fd, args.build_store)
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer(fd)
        tracer.install()
    setup, items = workloads.RUNNERS[args.workload]
    state = setup(fd, args.store)
    cpu_ready = time.process_time()
    t_ready = time.monotonic()
    out = {"t_ready": t_ready, "cpu_ready": cpu_ready, "numpy": np.__version__}
    if not args.items:
        _write(args.out, out)
        return 0

    done = []
    wall_first = time.perf_counter()
    cpu_first = time.process_time()
    for name, run, check in items(fd, state, args.seed):
        rec = tracer.item(name) if tracer else None
        t0 = time.process_time()
        try:
            answer, error = run(), None
        except Exception as exc:  # a crashed item is a failed item
            answer, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        t1 = time.process_time()
        if rec is not None:
            tracer.end_item(rec)
        done.append((name, t1 - t0, answer, check, error))
    run_s = time.process_time() - cpu_first
    run_wall_s = time.perf_counter() - wall_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = []
    for name, secs, answer, check, error in done:
        why = error
        if why is None:
            try:
                why = check(answer)
            except Exception as exc:  # an answer the gate cannot read is wrong
                why = f"unreadable answer: {type(exc).__name__}: {exc}"
        rows.append({"name": name, "s": secs, "ok": why is None, "why": why})
    out.update(run_s=run_s, run_wall_s=run_wall_s, peak_rss_mb=peak_rss_mb, items=rows)
    if tracer is not None:
        metrics, queries = tracer.summary()
        out["layers"] = {k: [v, u] for k, (v, u) in metrics.items()}
        out["queries"] = queries
        if args.spans:
            tracer.dump(args.spans)
    _write(args.out, out)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
