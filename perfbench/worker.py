"""One pass of one workload in a fresh interpreter; prints one JSON line.

Started by run.py with the checkout root as working directory. It imports
the program from ./src, makes the inputs from the seed, checks that every
lru_cache of the program is empty, then times the pass from its first call
into the program to its last verdict. `--spawn-time` is the parent's
time.monotonic() just before it started this process, so set-up time runs
from process start to the first timed call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from types import SimpleNamespace

import workloads

MODULES = ("exactpoly", "narayana", "css", "spectra", "roots", "asymptotics",
           "acceptance", "cli")

# Every lru_cache in the program, as (module, attribute).
CACHES = (
    ("css", "build_phi"),
    ("spectra", "spectrum_report"),
    ("asymptotics", "narayana_root_sample"),
    ("asymptotics", "_float_coeffs"),
    ("narayana", "_dyck_peak_histogram"),
)


def load_program(root: str) -> SimpleNamespace:
    """Import schur_szego from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schur_szego", "__init__.py")):
        raise SystemExit(f"worker: no program source under {src}")
    sys.path.insert(0, src)
    mods = SimpleNamespace()
    for short in MODULES:
        mod = importlib.import_module(f"schur_szego.{short}")
        if not os.path.abspath(mod.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"worker: {mod.__name__} imported from {mod.__file__}")
        setattr(mods, short, mod)
    return mods


def assert_cold(caches) -> None:
    warm = [c.__name__ for c in caches if c.cache_info().currsize != 0]
    if warm:
        raise RuntimeError(f"caches not cold at the start of the timed region: {warm}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    mods = load_program(os.getcwd())
    inputs, digest = workloads.make_inputs(args.workload, args.seed, mods,
                                           args.scale, args.corrupt)
    caches = [getattr(getattr(mods, m), a) for m, a in CACHES]  # before wrapping
    tracer = None
    if args.trace:
        from tracing import Tracer  # untraced set-up imports only the program
        tracer = Tracer()
        tracer.install()
    assert_cold(caches)
    t_first = time.monotonic()
    result = {"setup_s": t_first - args.spawn_time, "input_hash": digest}
    if not args.setup_only:
        outputs = workloads.run_pass(args.workload, mods, inputs)
        result["wall_s"] = time.monotonic() - t_first
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, first = workloads.check_pass(args.workload, mods, inputs, outputs)
        result.update(attempted=attempted, failed=failed, first_failure=first)
        if tracer is not None:
            result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
