"""Run one pego benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload audit --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; pego is imported from ``src/`` there.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``audit``,
``spectral-su2`` and ``verify``.  Each is one client in a closed loop.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up
(import, rules, inputs, one warm-up pass) is timed in this process and in
``SETUP_RUNS - 1`` fresh child processes, and the median is reported; each
set-up needs a fresh process because pego's stack caches live in it.  The
timed window then runs whole rounds of ops until ``--seconds`` have passed
and at least ``MIN_OPS`` ops are done, so the 90th percentile has
``BEYOND`` samples beyond it.

``--trace 1`` reports the per-layer metrics instead and ignores
``--seconds``.  Set-up runs traced, then ``TRACE_ROUNDS`` untraced rounds
alternate with as many traced ones; the ratio of their throughputs is the
tracing overhead.  The traced work is fixed, so counts repeat exactly from
run to run.  The full per-function table is written to
``.bench_out/trace-<workload>-s<seed>.json``.

Every op's output is checked as soon as the op returns, with tracing off;
check time counts neither in the op's latency nor in the timed window.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
MIN_OPS = 100
BEYOND = 10  # samples a reported percentile must have beyond it
TRACE_ROUNDS = 2
MAX_LOOP_S = 120.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_STATS = ("calls", "s", "self_s", "computed_bytes", "points", "bytes",
               "nonzero_exits", "hit_ratio", "bytes_built")


def percentile(samples, pct):
    """Nearest-rank ``pct``-th percentile, refused unless ``BEYOND`` samples exceed its rank."""
    xs = sorted(samples)
    rank = max(1, -(-pct * len(xs) // 100))
    if len(xs) - rank < BEYOND:
        raise ValueError(
            f"p{pct} of {len(xs)} samples has {len(xs) - rank} beyond it, need {BEYOND}")
    return xs[rank - 1]


def cap_blas_threads():
    """Cap the BLAS/OpenMP thread variables at the usable core count (before numpy loads)."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(min(max(wanted, 1), cores))
    return cores


def last_level_cache_bytes():
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10, check=False).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def set_up(name, seed, workdir, tracer=None):
    """Import pego, build the workload's rules and inputs, run one checked warm-up pass."""
    start = time.perf_counter()
    import workloads

    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[name](seed, str(workdir))
    wl.setup()
    for op in wl.warmup():
        problem = op.check(op.run())
        if problem:
            raise RuntimeError(f"warm-up {op.kind}: {problem}")
    return wl, time.perf_counter() - start


def set_up_in_child(args):
    """Set-up seconds measured in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check(op, out, tracer):
    """``op.check(out)`` with tracing off: None if right, else a failure message."""
    if tracer is not None:
        tracer.uninstall()
    try:
        return op.check(out)
    except Exception:  # a check that cannot read the output is a failed op
        return traceback.format_exc(limit=4)
    finally:
        if tracer is not None:
            tracer.install()


def closed_loop(wl, seconds, first_round=0, rounds=None, tracer=None):
    """Run whole rounds of ops back to back; return (records, elapsed, next round).

    A record is (kind, latency, failure message or None).  Each output is
    checked as the op returns and then dropped, so memory does not grow with
    the number of ops; check time is left out of ``elapsed``.  Stops after
    ``rounds`` rounds, or else once ``seconds`` have passed and ``MIN_OPS``
    ops are done (or ``MAX_LOOP_S`` has passed).
    """
    records = []
    c = first_round
    checking = 0.0
    start = time.perf_counter()
    while True:
        for op in wl.cycle(c):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    out = tracer.run_op(len(records), "bench." + op.kind, op.run)
                err = None
            except Exception:  # an op that raises counts as failed, the loop goes on
                out, err = None, traceback.format_exc(limit=4)
            t1 = time.perf_counter()
            if err is None:
                err = check(op, out, tracer)
            if err:
                print(f"FAILED {op.kind}: {err}", file=sys.stderr)
            records.append((op.kind, t1 - t0, err))
            checking += time.perf_counter() - t1
        c += 1
        elapsed = time.perf_counter() - start - checking
        if rounds is not None:
            if c - first_round >= rounds:
                break
        elif (elapsed >= seconds and len(records) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
    return records, elapsed, c


def count_failures(records):
    return sum(1 for _, _, err in records if err)


def environment(args, cores, wl):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": cores,
        "blas_threads": {var: int(os.environ[var]) for var in BLAS_VARS},
        "last_level_cache_bytes": last_level_cache_bytes(),
        "stack_working_set_bytes": wl.working_set_bytes(),
    }


def emit(declared, values, attempted, failed, env):
    print(json.dumps({"environment": env}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(args, spec, workdir, cores):
    setup_times = [set_up_in_child(args) for _ in range(SETUP_RUNS - 1)]
    wl, setup_s = set_up(args.workload, args.seed, workdir)
    setup_times.append(setup_s)
    records, elapsed, rounds = closed_loop(wl, args.seconds)
    failed = count_failures(records)
    n = len(records)
    latencies = [r[1] for r in records]
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": n / elapsed,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (n - failed) / n,
    }
    summary = dict(values, fail_ratio=failed / n, ops=n, rounds=rounds, seconds=elapsed,
                   setup_runs_s=setup_times)
    print(json.dumps({"summary": summary}))
    emit(spec["end_to_end"], values, n, failed, environment(args, cores, wl))
    return 0


def run_traced(args, spec, workdir, cores):
    from tracer import Tracer

    tracer = Tracer()
    wl, _ = set_up(args.workload, args.seed, workdir, tracer)
    tracer.uninstall()
    # alternate untraced and traced rounds so drift falls on both sides alike
    records, seconds = {False: [], True: []}, {False: 0.0, True: 0.0}
    for c in range(2 * TRACE_ROUNDS):
        traced = c % 2 == 1
        if traced:
            tracer.install()
        recs, elapsed, _ = closed_loop(wl, 0, first_round=c, rounds=1,
                                       tracer=tracer if traced else None)
        tracer.uninstall()
        records[traced] += recs
        seconds[traced] += elapsed
    failed = count_failures(records[False] + records[True])
    values = tracer.metrics()
    values["bench.trace_overhead_ratio"] = (
        (len(records[True]) / seconds[True]) / (len(records[False]) / seconds[False]))
    for m in spec["per_layer"]:
        base, _, stat = m["name"].rpartition(".")
        if m["name"] not in values:
            if base not in tracer.names or stat not in TRACE_STATS:
                raise KeyError(f"per-layer metric {m['name']} is not traced")
            values[m["name"]] = 0
    env = environment(args, cores, wl)
    out = ROOT / ".bench_out" / f"trace-{args.workload}-s{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "table": tracer.table(),
                   "counters": dict(tracer.counters)}, fh, indent=1, sort_keys=True)
    print(f"trace table: {out.relative_to(ROOT)}")
    emit(spec["per_layer"], values, len(records[False]) + len(records[True]), failed, env)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up median)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pego" / "__init__.py").is_file():
        print(f"error: no pego sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cores = cap_blas_threads()
    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            _, setup_s = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return run_traced(args, spec, workdir, cores)
        return run_untraced(args, spec, workdir, cores)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
