"""Repetitions of one workload, in a fresh process.

``run.py`` starts this script with the BLAS thread count already pinned in
its environment, so the count holds from the moment numpy loads. The
script sets the workload up once, then repeats its measured calls (traced
or not) one after another for ``--seconds``: a repetition starts only if
at least half of one as long as the last fits in that time, and there is
always at least one. It optionally checks the outputs of the last repetition, and
prints one JSON object on its last line of standard output. With
``--setup-only`` it stops once the inputs are ready.

    python3 perfbench/worker.py --workload oracle_solve --seed 1 --trace 0 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def blas_info() -> dict:
    """The BLAS numpy was built against and the thread count it runs with."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    return {
        "blas": blas_info(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), required=True,
                        help="0 untraced, 1 spans, 2 spans with tracemalloc peaks")
    parser.add_argument("--checks", type=int, choices=(0, 1), default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time to repeat the measured calls for; traced runs make one")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the inputs are ready, to time set-up alone")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import tracemalloc

    from spans import NoTrace, Tracer, instrument, summarise
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.smoke)
    # CLOCK_MONOTONIC is shared by every process on Linux, so the parent can
    # subtract its own launch time from this stamp.
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = Tracer(memory=args.trace == 2) if args.trace else None
    restore = None
    if tracer is not None:
        if tracer.memory:
            tracemalloc.start()
        restore = instrument(tracer)
    walls, digests = [], set()
    try:
        start = time.perf_counter()
        while True:
            out = None       # the last outputs must not add to this repetition's peak
            begun = time.perf_counter()
            out = workload.measured(inputs, tracer or NoTrace())
            ended = time.perf_counter()
            walls.append(ended - begun)
            digests.add(digest(workload.key_outputs(out)))
            if tracer is not None or ended + walls[-1] / 2 - start > args.seconds:
                break
    finally:
        if restore is not None:
            restore()
        tracemalloc.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.checks(inputs, out) if args.checks else []
    result = {
        "setup_done": setup_done,
        "wall_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "digests": sorted(digests),
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks],
        "environment": environment(),
    }
    if tracer is not None:
        result["spans"] = summarise(tracer.spans)
        result["counters"] = dict(tracer.counters,
                                  **{"engine.design_distinct": len(tracer.design_keys)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
