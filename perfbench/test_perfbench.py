"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench).

They use the `smoke` sizes, which exercise the same layers as the full
workloads in a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Layers the metric mapping says do work on each workload.
MAPPED_LAYERS = {
    "verify-all": ("roots.variations_at", "roots.interlace_check", "roots.refine",
                   "roots.SturmChain", "narayana.dyck_peak_count", "cli.main"),
    "spectral": ("exactpoly.kernel", "exactpoly.solve_linear", "css.build_phi",
                 "spectra.eigenpolynomial", "spectra.sigma_system_solve",
                 "spectra.verify_mjnj", "css.factor_symmetric_functions"),
    "roots-generic": ("roots.refine", "roots.SturmChain", "roots.variations_at",
                      "roots.is_hyperbolic", "roots.interlace_check", "roots.roots_float"),
}


def _worker(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", "3", "--spawn-time", "0", "--scale", "smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_gates_pass_on_the_program(workload):
    res = _worker(workload)
    assert res["attempted"] > 0 and res["failed"] == 0, res["first_failure"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_corrupted_expected_value_is_reported_failed(workload):
    res = _worker(workload, "--corrupt")
    assert res["failed"] >= 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_mapped_layers_record_calls(workload):
    layers = _worker(workload, "--trace", "1")["layers"]
    assert set(layers) | {"trace.overhead_s"} == {m["name"] for m in tracing.metric_specs()}
    for name in MAPPED_LAYERS[workload]:
        assert layers[f"{name}.calls"] > 0, name
        assert layers[f"{name}.self_s"] > 0, name
    if workload == "spectral":
        assert layers["css.build_phi.hit_frac"] > 0
    else:
        assert layers["roots.chain_bits_max"] > 0
        assert 0 < layers["roots.SturmChain.distinct_frac"] <= 1
    if workload == "verify-all":
        assert all(layers[f"acceptance.{check}.s"] > 0 for check, _ in tracing.CHECKS)


def test_tracer_wraps_every_binding_site():
    mods = worker.load_program(ROOT)
    original = mods.roots.roots_float
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mods.asymptotics.roots_float is mods.roots.roots_float
        assert mods.asymptotics.roots_float is not original
        kernel = mods.exactpoly.kernel
        assert sys.modules["schur_szego"].kernel is mods.spectra.kernel is kernel
        assert mods.acceptance.kernel is kernel and hasattr(kernel, "__wrapped__")
    finally:
        for name in [n for n in sys.modules if n == "schur_szego" or n.startswith("schur_szego.")]:
            del sys.modules[name]


def test_warm_cache_is_refused():
    mods = worker.load_program(ROOT)
    caches = [getattr(getattr(mods, m), a) for m, a in worker.CACHES]
    worker.assert_cold(caches)
    mods.css.build_phi(3)
    try:
        with pytest.raises(RuntimeError, match="build_phi"):
            worker.assert_cold(caches)
    finally:
        mods.css.build_phi.cache_clear()


def test_inputs_depend_only_on_seed():
    mods = worker.load_program(ROOT)
    for name in workloads.NAMES:
        _, a = workloads.make_inputs(name, 5, mods, "smoke")
        _, b = workloads.make_inputs(name, 5, mods, "smoke")
        _, c = workloads.make_inputs(name, 6, mods, "smoke")
        assert a == b != c


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == tracing.metric_specs()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectral",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
