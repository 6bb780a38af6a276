"""fibdecide benchmark: cold-process workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``./src``.  Scratch files (the store, round results, spans) go to
``.perfbench-work/`` in the checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Why every round is a fresh interpreter: ``arith.add()`` re-runs its
exhaustive 2000x2000 check in every new process (about 4 s and 265 MB of
peak RSS at the seed), and the compiler calls it for every ``+``/``-``
term instead of the stored ``add`` automaton.  Every ``fibdecide``
invocation pays that, so a benchmark that warmed caches in-process would
hide it.  Each round therefore starts with cold ``arith._ADD_CACHE``,
``lru_cache``d ``const_mul``/``const_div`` and ``seqs._CACHE``.  The store
that ``walnut_script`` and ``oracle_checks`` read (the catalog and six
synthesized relations) is built once per invocation, before any measured
process, in the benchmark's own directory (never ``./store``).

All three workloads run fixed paper inputs, the same for every seed;
``--seed`` is accepted and recorded but changes nothing.

Rounds run one at a time (the program is single-threaded, so there is no
queueing or waiting to measure).  An invocation does a fixed number of
rounds, enough of the workload's nominal round length ``ROUND_S`` to fill
``--seconds``, so both sides of a comparison do the same work.

Every end-to-end time is CPU time of the round's process (user plus
system), not wall time.  The two agree for this single-threaded program
on an idle machine, but on a shared host the guest kernel leaves out of
CPU time the time the host gave the core to another guest (steal), which
wall time counts.  The wall times are kept in ``result.json``.

End-to-end metrics (``--trace 0``):
  setup_s        fork to ready (interpreter start, imports, plus the store
                 load where the workload reads one); median of setup-only
                 probes and rounds
  run_s          time of one round until every item has its answer;
                 median over rounds
  verdict_p50_s  median time to an item's answer, pooled over rounds
  verdict_tail_s highest percentile of the pooled item times with at least
                 ten samples beyond it (percentile and sample count printed)
  peak_rss_mb    peak resident memory of a round's process; median
  correct_share  items answered correctly / items attempted (1 - the
                 failed share; a share that is never 0)

With ``--trace 1`` an untraced round and a traced round run back to back;
the metrics are the per-layer figures of the traced round (span times are
wall time) plus the tracing overhead (traced minus untraced ``run_s``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import STORE_WORKLOADS, WORKLOADS  # noqa: E402

# Nominal seconds of one round: rounds = ceil(--seconds / ROUND_S).
# Measured on a shared 2-core machine (Python 3.11.7, numpy 2.4.6), where a
# round takes 6-11 s; at --seconds 30 a whole invocation (store build,
# probes, 3-4 rounds) takes about 40 s there.
ROUND_S = {
    "walnut_script": 10.0,
    "oracle_checks": 7.5,
    "cold_start": 9.0,
}
PROBES = 5
DEADLINE_S = 170.0
WORK_DIR = ".perfbench-work"


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, root, workload, seed, work):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.t0 = time.monotonic()
        self.count = 0
        # One BLAS thread: the program never calls BLAS, and a second thread
        # only spins at numpy import, which CPU time would count.
        self.env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
        self.env.pop("PYTHONPATH", None)

    def worker(self, items=1, trace=0, store=None, spans=None):
        """Run one worker round; return its JSON result with setup_s added."""
        self.count += 1
        out = os.path.join(self.work, f"w{self.count:03d}.json")
        args = ["--workload", self.workload, "--seed", str(self.seed), "--out", out,
                "--items", str(items), "--trace", str(trace)]
        for flag, value in (("--store", store), ("--spans", spans)):
            if value:
                args += [flag, value]
        t_spawn = time.monotonic()
        self.call(args)
        with open(out) as fh:
            res = json.load(fh)
        res["setup_s"] = res["cpu_ready"]
        res["setup_wall_s"] = res["t_ready"] - t_spawn
        return res

    def call(self, args):
        cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
        left = DEADLINE_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise BenchError("out of time before a worker could start")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=left,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            raise BenchError("a worker exceeded the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n" + proc.stderr[-2000:])


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples beyond."""
    s = sorted(samples)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def machine_facts():
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def bench(root, workload, seed, seconds, traced):
    work = os.path.join(root, WORK_DIR, f"{workload}-trace{int(traced)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    facts = machine_facts()
    r = Runner(root, workload, seed, work)

    store = None
    if workload in STORE_WORKLOADS:
        store = os.path.join(work, "store")
        r.call(["--build-store", store])
    else:
        r.worker(items=0)  # compiles bytecode; not measured
    setups = [r.worker(items=0, store=store)["setup_s"] for _ in range(PROBES)]

    if traced:
        rounds = [r.worker(store=store),
                  r.worker(store=store, trace=1, spans=os.path.join(work, "spans.jsonl"))]
    else:
        n = max(1, math.ceil(seconds / ROUND_S[workload]))
        rounds = [r.worker(store=store) for _ in range(n)]
    facts["numpy"] = rounds[0]["numpy"]
    setups += [x["setup_s"] for x in rounds]

    items = [i for x in rounds for i in x["items"]]
    failed = [i for i in items if not i["ok"]]
    for i in failed:
        print(f"# FAILED {i['name']}: {i['why']}")
    summary = {"workload": workload, "seed": seed, "machine": facts,
               "rounds": len(rounds), "probes": PROBES, "items": len(items)}

    if traced:
        layers = rounds[1]["layers"]
        overhead = rounds[1]["run_s"] - rounds[0]["run_s"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        with open(os.path.join(work, "queries.json"), "w") as fh:
            json.dump(rounds[1]["queries"], fh, indent=1)
        summary["untraced_run_s"] = rounds[0]["run_s"]
        summary["traced_run_s"] = rounds[1]["run_s"]
    else:
        times = [i["s"] for i in items]
        tail_s, pct = tail(times)
        summary["tail_percentile"] = pct
        summary["verdict_samples"] = len(times)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(x["run_s"] for x in rounds), "unit": "s"},
            "verdict_p50_s": {"value": statistics.median(times), "unit": "s"},
            "verdict_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(x["peak_rss_mb"] for x in rounds),
                            "unit": "MB"},
            "correct_share": {"value": (len(items) - len(failed)) / len(items),
                              "unit": "ratio"},
        }
    summary["metrics"] = metrics
    summary["setup_samples"] = setups
    summary["round_setup_wall_s"] = [x["setup_wall_s"] for x in rounds]
    summary["round_run_s"] = [x["run_s"] for x in rounds]
    summary["round_run_wall_s"] = [x["run_wall_s"] for x in rounds]
    summary["round_item_s"] = [[i["s"] for i in x["items"]] for x in rounds]
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"# machine: {json.dumps(facts)}")
    print(f"# {workload} seed={seed} rounds={len(rounds)} probes={PROBES} "
          f"items={len(items)} failed={len(failed)}")
    if not traced:
        print(f"# verdict_tail_s is p{summary['tail_percentile']:.1f} of "
              f"{summary['verdict_samples']} samples")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": len(items), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fibdecide", "__init__.py")):
        print("run.py: no fibdecide sources under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        result = bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
