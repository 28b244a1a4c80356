"""The benchmark harness under perfbench/ binds names of the package by string.

A deletion in the package would break it only when the benchmark runs, so
these tests import the harness's name tables (without writing bytecode into
perfbench/) and resolve every entry against the package, and run the small
passes of two workloads through the harness's own gates.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from schur_szego import cli
from schur_szego.exactpoly import _primitive
from schur_szego.roots import SturmChain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """The perfbench modules tracing and worker, imported and then forgotten."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        yield importlib.import_module("tracing"), importlib.import_module("worker")
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"schur_szego.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_layers_and_checks_resolve(harness):
    tracing, _ = harness
    for _, module, path in tracing.LAYERS:
        assert callable(_resolve(module, path)), path
    for _, attr in tracing.CHECKS:
        assert callable(_resolve("acceptance", attr)), attr
    chain = SturmChain([2, -3, 1])  # the tracer reads .poly and .polys of each chain
    assert chain.poly == [2, -3, 1] and chain.polys[0] == (2, -3, 1)


def test_worker_caches_are_lru_caches(harness):
    _, worker = harness
    for module, attr in worker.CACHES:
        assert callable(_resolve(module, attr).cache_info), attr
    for module in worker.MODULES:
        importlib.import_module(f"schur_szego.{module}")


@pytest.mark.parametrize("workload", ["spectral", "roots-generic"])
def test_smoke_pass_fails_no_operation(harness, workload):
    """make_inputs, run_pass and check_pass at the smoke scale: the attributes
    the gates read (spectrum_report(n).q_polys, verify_mjnj(...).passed, ...)
    must still be there."""
    _, worker = harness
    workloads = importlib.import_module("workloads")
    mods = SimpleNamespace(**{m: importlib.import_module(f"schur_szego.{m}")
                              for m in worker.MODULES})
    inputs, _ = workloads.make_inputs(workload, 0, mods, "smoke")
    outputs = workloads.run_pass(workload, mods, inputs)
    attempted, failed, first = workloads.check_pass(workload, mods, inputs, outputs)
    assert attempted > 0
    assert failed == 0, first


def test_sturm_chain_inputs_are_primitive(harness, monkeypatch, capsys):
    """SturmChain takes the content of no input: every caller hands it a
    primitive vector, over a roots-generic smoke pass and verify-all."""
    _, worker = harness
    inputs = []
    init = SturmChain.__init__

    def recording(self, int_coeffs):
        inputs.append(list(int_coeffs))
        init(self, int_coeffs)

    monkeypatch.setattr(SturmChain, "__init__", recording)
    workloads = importlib.import_module("workloads")
    mods = SimpleNamespace(**{m: importlib.import_module(f"schur_szego.{m}")
                              for m in worker.MODULES})
    generic, _ = workloads.make_inputs("roots-generic", 0, mods, "smoke")
    workloads.run_pass("roots-generic", mods, generic)
    from_generic = len(inputs)
    assert cli.main(["verify-all", "--max-n", "30"]) == 0
    capsys.readouterr()
    assert 0 < from_generic < len(inputs)
    for c in inputs:
        assert _primitive(list(c)) == c
