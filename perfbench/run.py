"""eventke benchmark: training and ranking throughput, split by module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload memorize --seed 0 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps eventke's modules and reports the per-layer metrics,
writing its spans to ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it give the environment, the input fingerprint and graph
counts, every metric with its unit, and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# every workload runs single-threaded: BLAS and eventke's eval pool
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "EVENTKE_THREADS": "1"}


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its config
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        **{name: os.environ.get(name) for name in PINNED_THREADS},
    }


def _import_program() -> None:
    """Put the checkout's ``src`` and ``tests`` first on the path; refuse to
    run against anything but the checkout's own package."""
    package = os.path.join(ROOT, "src", "eventke", "__init__.py")
    synth = os.path.join(ROOT, "tests", "_synth.py")
    for path in (package, synth):
        if not os.path.isfile(path):
            raise SystemExit(f"error: {os.path.relpath(path, ROOT)} not found in the checkout at {ROOT}")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import eventke

    if os.path.dirname(os.path.abspath(eventke.__file__)) != os.path.dirname(package):
        raise SystemExit(f"error: imported eventke from {eventke.__file__}, not from the checkout")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None, workloads: dict | None = None) -> dict:
    """Run one workload; prints the report and returns the result object."""
    args = parse_args(argv)
    # before numpy is first imported, so BLAS starts with one thread
    os.environ.update(PINNED_THREADS)
    _import_program()
    import workloads as wl

    catalogue = wl.WORKLOADS if workloads is None else workloads
    if args.workload not in catalogue:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(catalogue)}")
    w = catalogue[args.workload]

    print(f"eventke perfbench: workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    outcome = wl.run(w, args.seed, args.seconds, bool(args.trace), os.path.join(HERE, "out"))
    print("details: " + json.dumps(outcome.details, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    result = {
        "correct": outcome.failed == 0 and bool(outcome.metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return result


if __name__ == "__main__":
    main()
