"""Inputs, timed passes and correctness gates of the three workloads.

`make_inputs` runs before the timed region and touches no cached function
of the program. `run_pass` is the timed region: it calls the program's
public functions through module attributes (so traced wrappers are seen)
and returns the raw outputs. `check_pass` then compares every verdict with
what the construction of the inputs implies and returns (attempted, failed,
first failure).

Workloads:
- verify-all: `cli.main(["verify-all", "--max-n", "100", "--seed", S])`,
  the ten acceptance checks at their pinned scale, the command users run.
- spectral: exact Phi_n spectrum work past the acceptance scale, where
  Gaussian elimination and Newton interpolation do the work, not `roots`.
- roots-generic: real-rooted polynomials of degree 30-60 with no Narayana
  structure, so isolation, refinement and multiplicity run on large
  coefficients.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

NAMES = ("verify-all", "spectral", "roots-generic")

# Root brackets are refined to this width by roots.roots_float.
REFINE_WIDTH = Fraction(1, 2**40)

# Sizes; `smoke` keeps every layer busy at a fraction of the cost, for tests.
SIZES = {
    "full": {
        "max_n": 100,
        "spectral_ns": (17, 19, 21),
        "mjnj_js": tuple(range(2, 9)),
        "mjnj_ns": (20, 40, 80, 160),
        "factor_count": 6,
        # (degree, number of doubled roots); 0 doubled roots means squarefree
        "generic": ((30, 0), (34, 4), (38, 0), (42, 6), (44, 0), (60, 24)),
    },
    "smoke": {
        "max_n": 12,
        "spectral_ns": (8, 9),
        "mjnj_js": (2, 3),
        "mjnj_ns": (20, 40, 80),
        "factor_count": 2,
        "generic": ((12, 0), (14, 3)),
    },
}


def _poly_from_roots(roots_with_mult, poly_cls):
    coeffs = [Fraction(1)]
    for r, m in roots_with_mult:
        for _ in range(m):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= r * c
            coeffs = nxt
    return poly_cls(coeffs)


def _derivative(p, poly_cls):
    return poly_cls([i * c for i, c in enumerate(p.coeffs)][1:] or [0])


def _elementary_symmetric(params):
    e = [Fraction(1)] + [Fraction(0)] * len(params)
    for a in params:
        for i in range(len(params), 0, -1):
            e[i] += a * e[i - 1]
    return tuple(e[1:])


def _composed_factors(params, n, poly_cls):
    """Coefficients of the (n-1)-fold composition of K_a = (x+1)^{n-1}(x+a):
    p_j = prod_i (C(n-1,j-1) + a_i C(n-1,j)) / C(n,j)^{n-2}."""
    coeffs = []
    for j in range(n + 1):
        lo = math.comb(n - 1, j - 1) if j >= 1 else 0
        hi = math.comb(n - 1, j) if j <= n - 1 else 0
        c = Fraction(1)
        for a in params:
            c *= lo + a * hi
        coeffs.append(c / Fraction(math.comb(n, j)) ** (n - 2))
    return poly_cls(coeffs)


def _slot_roots(rng, count):
    """`count` distinct rationals, one inside each interval (i/2, (i+1)/2) of
    a window centred on 0. The denominators are a fixed multiset (2..9 cycled)
    in seeded order, so the integer leading coefficient, the coefficient
    sizes and the root separations vary little from seed to seed."""
    dens = [2 + i % 8 for i in range(count)]
    rng.shuffle(dens)
    first = -(count // 2)
    return [(first + i + Fraction(rng.randint(1, b - 1), b)) / 2 for i, b in enumerate(dens)]


def make_inputs(name: str, seed: int, mods, scale: str = "full", corrupt: bool = False):
    """Inputs of one pass and a digest of the data they were made from.

    With `corrupt`, one expected value is falsified; the gates must then
    report a failed operation (the harness self-test).
    """
    size = SIZES[scale]
    rng = random.Random(f"{name}:{seed}")
    poly_cls = mods.exactpoly.RationalPoly
    if name == "verify-all":
        inputs = {"argv": ["verify-all", "--max-n", str(size["max_n"]), "--seed", str(seed)],
                  "expect_exit": 0}
        raw = inputs["argv"]
    elif name == "spectral":
        factors = []
        ns = size["spectral_ns"]
        for i in range(size["factor_count"]):
            n = ns[i % len(ns)]
            params = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
            factors.append((n, _composed_factors(params, n, poly_cls),
                            _elementary_symmetric(params)))
        inputs = {"ns": ns, "mjnj_js": size["mjnj_js"], "mjnj_ns": size["mjnj_ns"],
                  "factors": factors}
        raw = [ns, size["mjnj_js"], size["mjnj_ns"],
               [(n, [str(c) for c in p.coeffs]) for n, p, _ in factors]]
    elif name == "roots-generic":
        cases = []
        for degree, doubled in size["generic"]:
            rs = _slot_roots(rng, degree - doubled)
            twice = set(rng.sample(range(len(rs)), doubled))
            expected = [(r, 2 if i in twice else 1) for i, r in enumerate(rs)]
            q = _poly_from_roots(expected, poly_cls)
            cases.append({"q": q, "dq": _derivative(q, poly_cls), "roots": expected,
                          "squarefree": doubled == 0})
        # negative controls on the first squarefree case
        base = next(c for c in cases if c["squarefree"])
        c_neg = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        q_neg = base["q"] * poly_cls([c_neg, 0, 1])  # x^2 + c has no real root
        drop = rng.randrange(len(base["roots"]))
        p_common = _poly_from_roots(
            [rm for i, rm in enumerate(base["roots"]) if i != drop], poly_cls)
        inputs = {"cases": cases, "q_neg": q_neg, "dq_neg": _derivative(q_neg, poly_cls),
                  "p_common": p_common, "q_common": base["q"]}
        raw = [[(str(r), m) for r, m in c["roots"]] for c in cases] + [str(c_neg), drop]
    else:
        raise ValueError(f"unknown workload {name!r}")
    if corrupt:
        if name == "verify-all":
            inputs["expect_exit"] = 1
        elif name == "spectral":
            n, p, expected = inputs["factors"][0]
            inputs["factors"][0] = (n, p, (expected[0] + 1,) + expected[1:])
        else:
            (r, m), *rest = inputs["cases"][0]["roots"]
            inputs["cases"][0]["roots"] = [(r + Fraction(1, 3), m)] + rest
    digest = hashlib.sha256(json.dumps(raw, default=str).encode()).hexdigest()[:16]
    return inputs, digest


def _attempt(fn, *args):
    """Run one operation; an exception is its outcome, not a harness error."""
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation by check_pass
        return exc


def run_pass(name: str, mods, inputs):
    """The timed region: every call into the program for one pass."""
    if name == "verify-all":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _attempt(mods.cli.main, inputs["argv"])
        return {"exit": code, "stdout": out.getvalue()}
    if name == "spectral":
        spectra, css = mods.spectra, mods.css
        out = {"routes": [], "mjnj": [], "factors": []}
        for n in inputs["ns"]:
            report = _attempt(spectra.spectrum_report, n)
            for j in range(1, n - 2):
                sigma = _attempt(spectra.sigma_system_solve, n, j)
                out["routes"].append((n, j, report, sigma))
        for j in inputs["mjnj_js"]:
            # 1e-2 is the tolerance the acceptance suite pins for this check
            out["mjnj"].append((j, _attempt(spectra.verify_mjnj, j, inputs["mjnj_ns"], 1e-2)))
        for n, p, _ in inputs["factors"]:
            out["factors"].append(_attempt(css.factor_symmetric_functions, p, n))
        return out
    roots = mods.roots
    out = {"cases": []}
    for case in inputs["cases"]:
        q = case["q"]
        out["cases"].append((_attempt(roots.roots_float, q),
                             _attempt(roots.is_hyperbolic, q),
                             _attempt(roots.interlace_check, case["dq"], q)))
    out["neg_hyperbolic"] = _attempt(roots.is_hyperbolic, inputs["q_neg"])
    out["neg_interlace"] = _attempt(roots.interlace_check, inputs["dq_neg"], inputs["q_neg"])
    out["common"] = _attempt(roots.interlace_check, inputs["p_common"], inputs["q_common"])
    return out


def _roots_match(got, expected) -> bool:
    want = [r for r, m in expected for _ in range(m)]
    if not isinstance(got, list) or len(got) != len(want):
        return False
    return all(abs(Fraction(g) - r) <= REFINE_WIDTH + abs(r) * Fraction(1, 2**52)
               for g, r in zip(got, want))


def check_pass(name: str, mods, inputs, outputs) -> tuple[int, int, str | None]:
    """Compare every verdict of a pass with its expected value."""
    verdicts: list[tuple[str, bool]] = []
    if name == "verify-all":
        ok_exit = outputs["exit"] == inputs["expect_exit"]
        try:
            env = json.loads(outputs["stdout"])
        except ValueError:
            env = None
        valid = False
        if isinstance(env, dict):
            import jsonschema
            try:
                jsonschema.validate(env, mods.cli.ENVELOPE_SCHEMA)
                valid = True
            except jsonschema.ValidationError:
                pass
        verdicts.append(("exit code and envelope", ok_exit and valid and env["status"] == "pass"))
        checks = env.get("payload", {}).get("checks", {}) if isinstance(env, dict) else {}
        verdicts.append(("ten acceptance checks reported", len(checks) == 10))
        for check, result in checks.items():
            verdicts.append((f"check {check}", result.get("passed") is True))
    elif name == "spectral":
        qpoly = mods.exactpoly.RationalPoly
        for n, j, report, sigma in outputs["routes"]:
            same = (not isinstance(report, Exception) and isinstance(sigma, qpoly)
                    and report.q_polys[j - 1] == sigma)
            verdicts.append((f"kernel = sigma route at (n,j)=({n},{j})", same))
        for j, report in outputs["mjnj"]:
            verdicts.append((f"verify_mjnj j={j}",
                             not isinstance(report, Exception) and report.passed))
        for (n, _, expected), sigma in zip(inputs["factors"], outputs["factors"]):
            verdicts.append((f"factor sigma at n={n}", sigma == expected))
    else:
        roots = mods.roots
        for case, (floats, hyper, verdict) in zip(inputs["cases"], outputs["cases"]):
            deg = case["q"].degree
            want = roots.STRICT_INTERLACE if case["squarefree"] else roots.FAIL
            verdicts.append((f"roots of degree {deg}", _roots_match(floats, case["roots"])))
            verdicts.append((f"hyperbolic degree {deg}", hyper is True))
            verdicts.append((f"interlace q', q degree {deg}", verdict == want))
        verdicts.append(("negative control hyperbolic", outputs["neg_hyperbolic"] is False))
        verdicts.append(("negative control interlace", outputs["neg_interlace"] == roots.FAIL))
        verdicts.append(("common-root control", outputs["common"] == roots.COMMON_ROOT))
    failures = [label for label, ok in verdicts if not ok]
    return len(verdicts), len(failures), failures[0] if failures else None
