"""Tests for the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs start the real benchmark command at tiny sizes, once per
workload and trace mode, and compare what it prints with BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def span(name, parent, start, end):
    return [name, parent, start, end, 0]


def test_self_time_on_synthetic_tree():
    tree = [
        span("root", -1, 0.0, 10.0),            # 0
        span("a", 0, 1.0, 4.0),                 # 1: child of root
        span("b", 1, 2.0, 3.0),                 # 2: child of a
        span("_bookkeeping", 0, 4.0, 4.5),      # 3: hidden, still covers root
        span("a", 0, 5.0, 9.0),                 # 4: second call of a
        span("b", 4, 5.5, 7.0),                 # 5
        span("b", 4, 6.5, 8.0),                 # 6: overlaps its sibling
    ]
    out = spans.summarise(tree)
    assert set(out) == {"root", "a", "b"}
    assert out["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 0.5 - 4.0)
    assert out["a"]["self_s"] == pytest.approx((3.0 - 1.0) + (4.0 - 2.5))
    assert out["b"]["self_s"] == pytest.approx(1.0 + 1.5 + 1.5)
    assert (out["root"]["calls"], out["a"]["calls"], out["b"]["calls"]) == (1, 2, 3)


def test_self_times_add_up_to_root_duration():
    tree = [span("root", -1, 0.0, 6.0), span("x", 0, 1.0, 5.0), span("y", 1, 2.0, 4.0),
            span("z", 2, 2.5, 3.0)]
    out = spans.summarise(tree)
    assert sum(v["self_s"] for v in out.values()) == pytest.approx(6.0)


def test_recorded_spans_nest_and_peaks_include_children():
    import tracemalloc

    import numpy as np

    tracer = spans.Tracer(memory=True)
    tracemalloc.start()
    try:
        def inner():
            return np.ones(2 ** 20).sum()        # 8 MiB, freed on return

        def outer():
            return tracer.call("inner", inner)

        tracer.call("outer", outer)
    finally:
        tracemalloc.stop()
    (name0, parent0, *_), (name1, parent1, *_) = tracer.spans
    assert (name0, parent0, name1, parent1) == ("outer", -1, "inner", 0)
    out = spans.summarise(tracer.spans)
    assert out["inner"]["peak_bytes"] >= 8 * 2 ** 20
    assert out["outer"]["peak_bytes"] >= out["inner"]["peak_bytes"]


def test_instrument_restores_every_attribute():
    import numpy as np

    from bsdelab import engine, learning, meanfield, merton, stochastic

    watched = [(np.linalg, "lstsq"), (learning, "solve_bsde_lsmc"), (engine, "simulate_forward"),
               (meanfield, "sample_brownian"), (merton, "extract_policy")]
    before = [getattr(m, a) for m, a in watched]
    restore = spans.instrument(spans.Tracer())
    assert all(getattr(m, a) is not b for (m, a), b in zip(watched, before))
    restore()
    assert all(getattr(m, a) is b for (m, a), b in zip(watched, before))
    assert stochastic.sample_brownian is learning.sample_brownian


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER]


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_the_declared_metrics(workload, trace):
    report, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert result["attempted"] == report["checks_run"] >= 3
    # Smoke sizes are below the acceptance sizes, so only the determinism
    # checks are required to pass here; tracing must not change any output.
    digest_checks = [c for c in report["checks"] if c["name"].startswith("digest_")]
    assert len(digest_checks) == 2 and all(c["passed"] for c in digest_checks)
    assert report["environment"]["blas"]["threads"] == run.BLAS_THREADS


def test_traced_smoke_run_sees_the_layers():
    _, result = smoke("train_entropic", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["engine.design_builds"] == m["engine.solve_calls"] * 2 * 5     # solve + sensitivity
    assert m["engine.design_distinct"] == 5
    assert m["engine.lstsq_calls"] == 2 * m["engine.design_builds"]
    assert m["drivers.grad_calls"] > 0 and m["nets.grad_calls"] == 0
    assert m["merton.hjb_calls"] == 0


def worker(*args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(run.BLAS_THREADS))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "merton_calibrate",
         "--seed", "5", "--trace", "0", "--checks", "0", "--smoke", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_worker_repeats_for_its_seconds():
    once = worker("--seconds", "0")
    assert len(once["wall_s"]) == 1
    repeated = worker("--seconds", "1")
    walls = repeated["wall_s"]
    assert len(walls) >= 2 and repeated["digests"] == once["digests"]
    # The last repetition started only because half of one as long as the
    # one before it fitted in the time left.
    assert sum(walls[:-1]) + walls[-2] / 2 <= 1.0


def test_worker_can_stop_after_setup():
    assert set(worker("--setup-only")) == {"setup_done"}


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "spans.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "oracle_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
