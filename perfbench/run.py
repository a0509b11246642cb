"""bsdelab benchmark: five seeded acceptance-sized workloads.

    python3 perfbench/run.py --workload oracle_solve --seed 1 --seconds 20 --trace 0

Workloads run in fresh worker processes (``worker.py``) with the BLAS
pinned to BLAS_THREADS threads in their environment before numpy loads.
The load is a closed loop with one client: a single process makes the
workload's library calls one after another.

With ``--trace 0`` SETUP_PROBES processes set the workload up and exit, then
one worker sets it up and repeats the measured calls for ``--seconds``. The
result holds the end-to-end metrics: the median wall time over those
repetitions, the median set-up time over every process of the run, and the
worker's peak RSS. With ``--trace 1`` each cycle runs three workers of one
repetition each: untraced, traced for self times, calls and counts, and
traced with tracemalloc on for peak memory (tracemalloc doubles run time,
so its times are not used); cycles repeat until ``--seconds`` have passed.

Every repetition's key outputs must digest to the same value, and to the
value an earlier run of the same seed on the same source recorded under
``.perfbench/``; the last repetition of the first worker also checks the
outputs against the acceptance tolerances. The last line of standard
output is the result object; the lines before it describe the environment
and every check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".perfbench", "digests.json")

# One BLAS thread: on the two-core machine the benchmark was written on, two
# threads made oracle_solve and merton_calibrate no faster, and a second
# busy core only adds contention with whatever else the machine runs.
BLAS_THREADS = 1
WORKLOADS = ("oracle_solve", "train_entropic", "net_gradient", "meanfield_clt",
             "merton_calibrate")
WORKER_TIMEOUT_S = 150
# Set-up-only processes per untraced run; with the worker's own set-up they
# give the median of five. Set-up is mostly interpreter start and imports,
# about half a second that swings by a third from one process to the next.
SETUP_PROBES = 4

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit, field, key): field is "self_s", "calls" or "peak_mb" of
# the span named key, or "counter" for a count the tracer kept.
PER_LAYER = (
    ("stochastic.sample_s", "s", "self_s", "stochastic.sample"),
    ("stochastic.sample_calls", "count", "calls", "stochastic.sample"),
    ("stochastic.euler_s", "s", "self_s", "stochastic.euler"),
    ("stochastic.euler_calls", "count", "calls", "stochastic.euler"),
    ("drivers.value_s", "s", "self_s", "drivers.value"),
    ("drivers.value_calls", "count", "calls", "drivers.value"),
    ("drivers.grad_s", "s", "self_s", "drivers.grad"),
    ("drivers.grad_calls", "count", "calls", "drivers.grad"),
    ("nets.value_s", "s", "self_s", "nets.value"),
    ("nets.value_calls", "count", "calls", "nets.value"),
    ("nets.grad_s", "s", "self_s", "nets.grad"),
    ("nets.grad_calls", "count", "calls", "nets.grad"),
    ("engine.solve_s", "s", "self_s", "engine.solve"),
    ("engine.solve_calls", "count", "calls", "engine.solve"),
    ("engine.design_s", "s", "self_s", "engine.design"),
    ("engine.design_builds", "count", "calls", "engine.design"),
    ("engine.design_distinct", "count", "counter", "engine.design_distinct"),
    ("engine.design_reuse", "ratio", "reuse", None),
    ("engine.lstsq_s", "s", "self_s", "engine.lstsq"),
    ("engine.lstsq_calls", "count", "calls", "engine.lstsq"),
    ("engine.lstsq_rhs_cols", "count", "counter", "engine.lstsq_rhs_cols"),
    ("engine.solve_peak_mb", "MB", "peak_mb", "engine.solve"),
    ("learning.loss_grad_s", "s", "self_s", "learning.loss_grad"),
    ("learning.loss_grad_calls", "count", "calls", "learning.loss_grad"),
    ("learning.sensitivity_s", "s", "self_s", "learning.sensitivity"),
    ("learning.sensitivity_calls", "count", "calls", "learning.sensitivity"),
    ("learning.sensitivity_peak_mb", "MB", "peak_mb", "learning.sensitivity"),
    ("meanfield.features_s", "s", "self_s", "meanfield.features"),
    ("meanfield.features_calls", "count", "calls", "meanfield.features"),
    ("meanfield.mkv_s", "s", "self_s", "meanfield.mkv"),
    ("meanfield.mkv_iters", "count", "counter", "meanfield.mkv_iters"),
    ("meanfield.fluct_s", "s", "self_s", "meanfield.fluct"),
    ("meanfield.fluct_peak_mb", "MB", "peak_mb", "meanfield.fluct"),
    ("meanfield.lions_s", "s", "self_s", "meanfield.lions"),
    ("meanfield.lions_cells", "count", "counter", "meanfield.lions_cells"),
    ("merton.hjb_s", "s", "self_s", "merton.hjb"),
    ("merton.hjb_calls", "count", "calls", "merton.hjb"),
    ("merton.hjb_node_steps", "count", "counter", "merton.hjb_node_steps"),
    ("merton.policy_query_s", "s", "self_s", "merton.policy_query"),
    ("merton.policy_query_calls", "count", "calls", "merton.policy_query"),
    ("trace_overhead_s", "s", "overhead", None),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload: str, seed: int, trace: int, checks: bool, smoke: bool,
               seconds: float = 0.0, setup_only: bool = False) -> dict:
    """One worker process; returns its record plus setup_s."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--checks", str(int(checks)), "--seconds", str(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if smoke:
        cmd.append("--smoke")
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker for {workload} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("setup_done") - launched
    return record


def source_digest() -> str:
    """Digest of every file under src/, standing in for the commit."""
    h = hashlib.blake2b(digest_size=16)
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def recorded_digest_check(key: str, value: str) -> dict:
    """Compare with the digest an earlier run recorded under key, or record it."""
    try:
        with open(STATE) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is None:
        known[key] = value
        os.makedirs(os.path.dirname(STATE), exist_ok=True)
        tmp = STATE + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, STATE)
    return {"name": "digest_matches_earlier_run", "passed": previous in (None, value),
            "detail": f"{value} vs recorded {previous or 'none (first run, recorded)'}"}


def layer_metrics(timed: list, memory: list, untraced: list) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    def span_field(record, field, key):
        entry = record["spans"].get(key)
        if entry is None:
            return 0.0 if field == "self_s" else 0
        return {"self_s": entry["self_s"], "calls": entry["calls"],
                "peak_mb": entry["peak_bytes"] / 2 ** 20}[field]

    values = {}
    for name, unit, field, key in PER_LAYER:
        if field == "counter":
            value = statistics.median(r["counters"].get(key, 0) for r in timed)
        elif field == "peak_mb":
            value = statistics.median(span_field(r, field, key) for r in memory)
        elif field == "reuse":
            distinct = values["engine.design_distinct"]["value"]
            builds = values["engine.design_builds"]["value"]
            value = distinct / builds if builds else 0.0
        elif field == "overhead":
            value = (statistics.median(w for r in timed for w in r["wall_s"])
                     - statistics.median(w for r in untraced for w in r["wall_s"]))
        else:
            value = statistics.median(span_field(r, field, key) for r in timed)
        values[name] = {"value": value, "unit": unit}
    return values


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run the workload for `seconds`; returns the result object and a report."""
    records = {0: [], 1: [], 2: []}
    if trace:
        cycle = [0, 1, 2]                    # untraced, traced, traced with memory
        start = time.monotonic()
        while not records[0] or time.monotonic() - start < seconds:
            for kind in cycle:
                records[kind].append(run_worker(workload, seed, kind,
                                                checks=not records[0], smoke=smoke))
    else:
        cycle = [0]
        probes = [run_worker(workload, seed, 0, checks=False, smoke=smoke, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        records[0].append(run_worker(workload, seed, 0, checks=True, smoke=smoke,
                                     seconds=seconds))
    everything = [r for kind in cycle for r in records[kind]]

    checks = list(records[0][0]["checks"])
    digests = sorted({d for r in everything for d in r["digests"]})
    repetitions = sum(len(r["wall_s"]) for r in everything)
    checks.append({"name": "digest_stable_within_run", "passed": len(digests) == 1,
                   "detail": f"{repetitions} repetitions, digests {digests}"})
    run_key = f"{workload}:{seed}:{'smoke' if smoke else 'full'}:{source_digest()}"
    checks.append(recorded_digest_check(run_key, digests[0]))

    if trace:
        metrics = layer_metrics(records[1], records[2], records[0])
    else:
        worker = records[0][0]
        values = {"wall_s": statistics.median(worker["wall_s"]),
                  "setup_s": statistics.median([worker["setup_s"]]
                                               + [p["setup_s"] for p in probes]),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failed = sum(not c["passed"] for c in checks)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    report = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "repetitions": {name: sum(len(r["wall_s"]) for r in records[kind]) for kind, name in
                        zip(cycle, ("untraced", "traced", "traced_memory"))},
        "wall_s": [w for r in records[0] for w in r["wall_s"]],
        "environment": dict(everything[0]["environment"], git_commit=git_commit(),
                            source_digest=run_key.rsplit(":", 1)[1]),
        "digest": digests[0] if len(digests) == 1 else digests,
        "checks_run": len(checks),
        "check_failures": failed,
        "checks": checks,
    }
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bsdelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bsdelab", "__init__.py")):
        print(f"no bsdelab sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["report"], indent=1))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
