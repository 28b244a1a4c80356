"""Spans around calls into the public functions of each schur_szego module.

The tracer wraps every binding site of a function: the defining module,
every module that imported the name (``asymptotics.roots_float`` as well as
``roots.roots_float``), the package namespace and, for methods, the class.
Each span records its duration; a layer's self time is its span minus the
spans of the traced calls it made. Spans stay in memory and are reduced to
per-layer numbers when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric name, module, attribute path) for every traced layer function.
LAYERS = (
    ("roots.SturmChain", "roots", "SturmChain.__init__"),
    ("roots.variations_at", "roots", "SturmChain.variations_at"),
    ("roots.isolate_roots", "roots", "isolate_roots"),
    ("roots.refine", "roots", "refine"),
    ("roots.roots_float", "roots", "roots_float"),
    ("roots.interlace_check", "roots", "interlace_check"),
    ("roots.poly_gcd", "roots", "poly_gcd"),
    ("roots.is_hyperbolic", "roots", "is_hyperbolic"),
    ("exactpoly.kernel", "exactpoly", "kernel"),
    ("exactpoly.solve_linear", "exactpoly", "solve_linear"),
    ("exactpoly.RationalMatrix.determinant", "exactpoly", "RationalMatrix.determinant"),
    ("exactpoly.interpolate", "exactpoly", "interpolate"),
    ("exactpoly.RationalPoly.divmod", "exactpoly", "RationalPoly.divmod"),
    ("css.build_phi", "css", "build_phi"),
    ("css.factor_symmetric_functions", "css", "factor_symmetric_functions"),
    ("spectra.eigenpolynomial", "spectra", "eigenpolynomial"),
    ("spectra.sigma_system_solve", "spectra", "sigma_system_solve"),
    ("spectra.verify_mjnj", "spectra", "verify_mjnj"),
    ("narayana.narayana_poly_direct", "narayana", "narayana_poly_direct"),
    ("narayana.narayana_poly_recurrence", "narayana", "narayana_poly_recurrence"),
    ("narayana.dyck_peak_count", "narayana", "dyck_peak_count"),
    ("asymptotics.narayana_root_sample", "asymptotics", "narayana_root_sample"),
    ("asymptotics.ks_distance", "asymptotics", "ks_distance"),
    ("asymptotics.poincare_ratio", "asymptotics", "poincare_ratio"),
    ("cli.main", "cli", "main"),
)

# The acceptance checks, in run_all order; each is reported as acceptance.<name>.s.
CHECKS = (
    ("triangle-exactness", "check_triangle"),
    ("recurrence-consistency", "check_recurrence"),
    ("spectrum", "check_spectrum"),
    ("q-structure", "check_q_structure"),
    ("limit-polynomials", "check_limit_polynomials"),
    ("hyperbolicity-interlacing", "check_hyperbolic_interlacing"),
    ("fig1-ks", "check_ks"),
    ("analytic-identities", "check_analytic_identities"),
    ("quotient-limits", "check_quotient_limits"),
    ("poincare-engine", "check_poincare"),
)

# Layer metrics that are not a call count or a self time.
DERIVED = (
    ("roots.SturmChain.distinct_frac", "1", "higher"),
    ("roots.chain_bits_max", "bits", "lower"),
    ("css.build_phi.hit_frac", "1", "higher"),
)


def metric_specs() -> list[dict]:
    """Every per-layer metric a traced run emits, as BENCHMARK.json entries."""
    out = []
    for name, _, _ in LAYERS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, unit, better in DERIVED:
        out.append({"name": name, "unit": unit, "better": better})
    for check, _ in CHECKS:
        out.append({"name": f"acceptance.{check}.s", "unit": "s", "better": "lower"})
    out.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return out


class Tracer:
    """Installs span wrappers into the loaded schur_szego modules."""

    def __init__(self, package: str = "schur_szego"):
        self.package = package
        self.stack: list[list[float]] = []  # child time of each open span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.chain_keys: set = set()
        self.chains = 0
        self.chain_bits_max = 0
        self.build_phi = None  # the lru_cache object, for cache_info()

    def _module(self, short: str):
        return sys.modules[f"{self.package}.{short}"]

    def _wrap(self, name: str, fn, after=None):
        stack, calls, self_s, total_s = self.stack, self.calls, self.self_s, self.total_s
        calls[name], self_s[name], total_s[name] = 0, 0.0, 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                total_s[name] += dt
                if after is not None:
                    # bookkeeping is kept out of every span it would fall in
                    t1 = clock()
                    after(args)
                    dt += clock() - t1
                if stack:
                    stack[-1][0] += dt

        return span

    def _after_chain(self, args) -> None:
        chain = args[0]
        self.chains += 1
        self.chain_keys.add(tuple(chain.poly))
        bits = max(abs(c).bit_length() for poly in chain.polys for c in poly)
        self.chain_bits_max = max(self.chain_bits_max, bits)

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` at every module-level binding in the package."""
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        self.build_phi = self._module("css").build_phi
        for name, short, path in LAYERS:
            owner = self._module(short)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            after = self._after_chain if name == "roots.SturmChain" else None
            wrapper = self._wrap(name, original, after)
            if cls_path:
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)
        acceptance = self._module("acceptance")
        for check, attr in CHECKS:
            original = getattr(acceptance, attr)
            self._rebind(original, self._wrap(f"acceptance.{check}", original))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["roots.SturmChain.distinct_frac"] = \
            len(self.chain_keys) / self.chains if self.chains else 0.0
        out["roots.chain_bits_max"] = self.chain_bits_max
        info = self.build_phi.cache_info()
        lookups = info.hits + info.misses
        out["css.build_phi.hit_frac"] = info.hits / lookups if lookups else 0.0
        for check, _ in CHECKS:
            out[f"acceptance.{check}.s"] = self.total_s[f"acceptance.{check}"]
        return out
