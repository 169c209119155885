"""Benchmark of the multilink simulator: one command, three workloads.

    python3 perfbench/run.py --workload speedup-pinned --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from the seed, runs one untimed warm-up round
whose outputs are checked in full, then repeats the round for ``--seconds``
seconds and requires every repeat to reproduce the warm-up outputs bit for
bit.  With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and prints the per-layer metrics.
The last line of standard output is the result object.  See README.md.
"""

import os

# One thread for every numerical library: the workloads are single-threaded
# and their timings must not depend on how many cores a BLAS call grabs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
# Calibration probe: a fixed loop of plain-float arithmetic and small numpy
# operations (the mix of the stepper), timed between items.  Every duration is
# scaled by PROBE_REF_S / (probe time measured next to it).  That takes out
# the swings in core speed that other tenants of a shared machine cause, up
# to 2x within a minute, and leaves the program's own cost: the probe runs no
# code of the program.  PROBE_REF_S is about the probe's time on a quiet core
# of a 2-core 2.0 GHz x86 VM under Python 3.11 and numpy 2.4, so there the
# scaled times are close to wall-clock times.
PROBE_REF_S = 0.002
PROBE_WINDOW = 3


def probe() -> float:
    import numpy as np

    a = np.full((6, 7), 0.1)
    k = np.ones((7, 4))
    y = np.ones(4)
    xs = [0.5] * 16
    t0 = perf_counter()
    s = 0.0
    for i in range(80):
        for j in range(6):
            z = y + 0.1 * (a[j, : j + 1] @ k[: j + 1])
        s += float(np.max(np.abs(z) / (1e-8 + np.abs(y))))
        for j in range(25):
            x = xs[j & 15] * 0.5 + math.sin(i * 1e-3 + j)
            xs[j & 15] = x
            s += x
    return perf_counter() - t0


def speed_scale(probes) -> float:
    return PROBE_REF_S / statistics.median(probes)


def setup_once(args, work_dir) -> int:
    """Child-process mode: time imports plus input set-up once, print it."""
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, work_dir)
    elapsed = perf_counter() - t0
    print(json.dumps({"setup_s": elapsed * speed_scale([probe() for _ in range(5)])}))
    return 0


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreters, so imports count too."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def attempt(fn, *args):
    """Call fn; an exception (a failed request, or output too malformed to
    check) is returned as a failure message."""
    try:
        return fn(*args), None
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(e).__name__}: {e}"


def benchmark(args, work_dir) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_s = None if args.trace else measure_setup(args)

    import numpy
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    setup_stats = {}
    if tracer:
        setup_stats = tracer.take_stats()
        tracer.uninstall()
    items = wl.items

    failures = {}
    attempted = 0
    first, reference = {}, []
    for i, item in enumerate(items):          # warm-up round, checked in full
        result, err = attempt(item.run, None)
        attempted += 1
        fingerprint = None
        if err is None:
            first[i] = result
            problem, err = attempt(wl.check, i, result)
            fingerprint, fp_err = attempt(wl.fingerprint, i, result)
            err = err or problem or fp_err
        reference.append(fingerprint)
        if err:
            failures[(0, i)] = err

    probes = [probe()]
    records = []                               # (round, item, traced, seconds)
    round_stats = {}
    deadline = perf_counter() + args.seconds
    completed = {False: 0, True: 0 if tracer else 1}    # rounds, by traced

    def finished():
        # Past the deadline, and at least one complete round of each kind.
        return perf_counter() >= deadline and all(completed.values())

    rnd = 0
    while not finished():
        rnd += 1
        traced = tracer is not None and rnd % 2 == 0
        if traced:
            tracer.install()
        try:
            for i, item in enumerate(items):
                if finished():
                    break
                if traced:
                    tracer.item = (rnd, i)
                t0 = perf_counter()
                result, err = attempt(item.run, tracer if traced else None)
                records.append((rnd, i, traced, perf_counter() - t0))
                probes.append(probe())
                attempted += 1
                if err is None:
                    fingerprint, err = attempt(wl.fingerprint, i, result)
                    if err is None and fingerprint != reference[i]:
                        err = "output differs from the warm-up round"
                if err:
                    failures[(rnd, i)] = err
            else:
                completed[traced] += 1
        finally:
            if traced:
                round_stats[rnd] = tracer.take_stats()
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, err = attempt(wl.check_after, first)
    for i, problem in ({"reference": err} if err else problems).items():
        failures[(0, i)] = problem

    # Scale each item by the probes around it: probes[k] ran just before
    # record k and probes[k + 1] just after it.
    scaled = {}
    for k, (r, i, traced, dur) in enumerate(records):
        window = probes[max(0, k + 1 - PROBE_WINDOW): k + 1 + PROBE_WINDOW]
        scaled[(r, i)] = dur * speed_scale(window)
    rounds = {}                                # round -> [traced, items, scaled, raw]
    for r, i, traced, dur in records:
        tally = rounds.setdefault(r, [traced, 0, 0.0, 0.0])
        tally[1] += 1
        tally[2] += scaled[(r, i)]
        tally[3] += dur
    complete = {r: v for r, v in rounds.items() if v[1] == len(items)}
    plain = [r for r, v in complete.items() if not v[0]]
    traced_rounds = [r for r, v in complete.items() if v[0]]

    def item_latencies(round_ids):
        # An item's latency is its median over the rounds, and a round's
        # wall time the sum of those: single latencies follow the bursts of
        # other tenants more than the program.
        return [statistics.median(scaled[(r, i)] for r in round_ids)
                for i in range(len(items))]

    latencies = item_latencies(plain)
    wall = sum(latencies)

    info = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "items_per_round": len(items), "complete_rounds": len(complete),
            "items_timed": len(records),
            "raw_wall_s": statistics.median(complete[r][3] for r in plain),
            "speed_scale": statistics.median(speed_scale([p]) for p in probes),
            # Equal for every run of the same code and seed.
            "outputs_digest": hashlib.sha256(repr(reference).encode()).hexdigest()}
    if tracer:
        per_round = [tracing.layer_metrics(round_stats[r], setup_stats,
                                           complete[r][2] / complete[r][3])
                     for r in traced_rounds]
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name in per_round[0]}
        traced_wall = sum(item_latencies(traced_rounds))
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        counts = {name: metrics[name] for name in tracing.COUNT_METRICS}
        for m in per_round:
            if any(m[name] != counts[name] for name in counts):
                failures[("counts", len(failures))] = "count metrics differ between rounds"
        info["counts"] = counts
        covered = metrics["integrator.self_s"] + metrics["dynamics.rhs_busy_s"]
        info["stepper_and_rhs_share_of_traced_wall"] = covered / traced_wall
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as f:
            json.dump({"info": info, "fields": ["name", "start", "end", "parent", "item", "child_s"],
                       "spans": tracer.spans}, f)
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall,
                   "sim_time_per_s": sum(item.sim_time for item in items) / wall,
                   "item_p50_ms": 1e3 * statistics.median(latencies),
                   "item_p90_ms": 1e3 * statistics.quantiles(
                       latencies, n=10, method="inclusive")[8],
                   "peak_rss_mb": peak_rss_mb}
    for key, err in sorted(failures.items(), key=str):
        print(f"FAILED {key}: {err}", file=sys.stderr)
    info["failures"] = [f"{k}: {v}" for k, v in list(failures.items())[:10]]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("speedup-pinned", "conservation-sweep", "scenario-pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "multilink", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.setup_only:
            return setup_once(args, work_dir)
        return benchmark(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
