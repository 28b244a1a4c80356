"""Benchmark of schur-szego: end-to-end metrics per workload, or a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12   # table of all

Every timed pass runs in a fresh single-threaded interpreter (worker.py), so
the program's lru_caches start empty. A run first starts a few set-up-only
workers, then timed passes until the next one would overrun --seconds (at
least one; a verify-all pass is one whole command and takes about a
minute). Reported values are medians over the passes.

--trace 0 prints the end-to-end metrics: wall_s (first timed call to last
verdict), setup_s (process start to first timed call), peak_rss_mb
(ru_maxrss of the pass's process). --trace 1 alternates untraced and traced
passes and prints the per-layer metrics of tracing.py plus trace.overhead_s,
the traced minus the untraced wall_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give failed_frac, the environment and
the seed with the hash of the generated inputs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # per timed pass
PASS_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """A worker failed; the run reports no result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(root: str, workload: str, seed: int, trace: int = 0,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_worker_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} worker printed no result:\n{proc.stderr}") from exc


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int, input_hash: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "git_commit": git_commit(root),
        "seed": seed,
        "input_hash": input_hash,
    }


def _cycles(root: str, workload: str, seed: int, seconds: float, kinds) -> dict:
    """Repeat a cycle of workers while the next cycle would end less than half
    a cycle past `seconds`; at least once. Kinds: "setup" (set-up only),
    0 (untraced pass), 1 (traced pass)."""
    out: dict = {k: [] for k in kinds}
    cycle_s: list[float] = []
    start = time.monotonic()
    while not cycle_s or time.monotonic() - start + statistics.median(cycle_s) / 2 < seconds:
        t0 = time.monotonic()
        for kind in kinds:
            if kind == "setup":
                out[kind].append(run_worker(root, workload, seed, setup_only=True))
            else:
                out[kind].append(run_worker(root, workload, seed, kind))
        cycle_s.append(time.monotonic() - t0)
    return out


def run_benchmark(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: the result object plus what the summary lines report."""
    if trace:
        runs = _cycles(root, workload, seed, seconds, (0, 1))
    else:
        # set-up probes are spread over the run, between the timed passes
        runs = _cycles(root, workload, seed, seconds, ("setup",) * SETUP_PROBES + (0,))
    untraced, traced, probes = runs[0], runs.get(1, []), runs.get("setup", [])
    timed = untraced + traced
    hashes = {p["input_hash"] for p in timed + probes}
    if len(hashes) != 1:
        raise BenchError(f"passes saw different inputs: {sorted(hashes)}")
    attempted = sum(p["attempted"] for p in timed)
    failed = sum(p["failed"] for p in timed)
    first = next((p["first_failure"] for p in untraced if p["first_failure"]), None)
    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = traced_wall - wall
        units = {m["name"]: m["unit"] for m in tracing.metric_specs()}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(p["setup_s"] for p in probes + untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "passes": len(untraced),
        "failed_frac": failed / attempted,
        "first_failure": first,
        "environment": environment(root, seed, hashes.pop()),
        "traced_wall_s": traced_wall if trace else None,
    }


def _summary(title: str, run: dict) -> list[str]:
    res = run["result"]
    lines = [f"{title}, {run['passes']} untraced pass(es):"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  failed_frac = {run['failed_frac']:.6g} 1 "
                 f"({res['failed']} of {res['attempted']} operations)")
    if run["first_failure"]:
        lines.append(f"  first failure: {run['first_failure']}")
    if run["traced_wall_s"]:
        for name, m in res["metrics"].items():
            if name.startswith("acceptance.") and m["value"]:
                lines.append(f"  share of traced wall_s: {name} "
                             f"{m['value'] / run['traced_wall_s']:.1%}")
    lines.append("  environment " + json.dumps(run["environment"]))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    results = {}
    try:
        for trace in traces:
            for name in names:
                run = run_benchmark(root, name, args.seed, args.seconds, trace)
                print("\n".join(_summary(f"{name} trace={trace}", run)))
                results[f"{name}:{trace}"] = run
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        merged = {key: run["result"] for key, run in results.items()}
        print(json.dumps(merged))
    else:
        print(json.dumps(next(iter(results.values()))["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
