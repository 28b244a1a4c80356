"""Command-line front end: every verification and data export in one tool.

Output conventions: JSON report envelopes on stdout (CSV goes to --out
files or stdout for `triangle --csv`). Exit code 0: every executed check
passed (or the command only reports). Exit 1: a theorem check was
falsified; stdout holds a `fail` envelope whose payload carries `falsified`
and `witness` (`certificate` and its message when a certificate inside the
command raises TheoremViolation). Exit 2: out-of-domain input; stderr holds
one `<command>: message` line and stdout is empty. Exit 3: a verify-all
check raised something other than TheoremViolation, a bug; stdout holds an
`error` envelope whose payload lists those checks under `errors`. A reader
closing stdout early (`| head`) keeps the exit code. Any other exception is
a bug and escapes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import acceptance, asymptotics, css, narayana, roots, spectra
from .exactpoly import RationalPoly, TheoremViolation

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["command", "parameters", "status", "payload"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "status": {"enum": ["pass", "fail", "error", "info"]},
        "payload": {"type": "object"},
    },
    "additionalProperties": False,
}


@dataclass(frozen=True)
class ReportEnvelope:
    command: str
    parameters: dict
    status: str  # pass | fail | error | info
    payload: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=str, indent=2)


def fail_envelope(command: str, parameters: dict, falsified: str, witness) -> ReportEnvelope:
    return ReportEnvelope(command, parameters, "fail",
                          {"falsified": falsified, "witness": witness})


def read_poly_file(path: str) -> RationalPoly:
    """Polynomial file: one line `degree`, then degree+1 lines `num/den`
    from the constant term upward (exactness survives serialization)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty polynomial file")
    degree = int(lines[0])
    coeffs = [Fraction(tok) for tok in lines[1:]]
    if len(coeffs) != degree + 1:
        raise ValueError(f"{path}: expected {degree + 1} coefficients, got {len(coeffs)}")
    return RationalPoly(coeffs)


def _fractions(seq) -> list[str]:
    return [str(v) for v in seq]


def _f17(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# subcommands: each returns its envelope (None when it printed CSV itself)
# and raises UsageError on out-of-domain input
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """Out-of-domain command-line input: exit 2. Deliberately not a
    ValueError, so an internal ValueError never passes for bad input."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _verdict(command: str, parameters: dict, ok: bool, payload: dict,
             falsified: str, witness) -> ReportEnvelope:
    if ok:
        return ReportEnvelope(command, parameters, "pass", payload)
    return fail_envelope(command, parameters, falsified, witness)


def cmd_triangle(args) -> ReportEnvelope | None:
    _require(args.rows >= 1, "--rows must be >= 1")
    rows = narayana.triangle_matrix(args.rows)
    if args.csv:
        for row in rows:
            print(",".join(str(v) for v in row))
        return None
    return ReportEnvelope("triangle", {"rows": args.rows}, "info",
                          {"rows": [list(r) for r in rows]})


def cmd_narayana(args) -> ReportEnvelope:
    params = {"n": args.n, "check_recurrence": args.check_recurrence,
              "check_catalan": args.check_catalan, "check_dyck": args.check_dyck}
    _require(args.n >= 1, "--n must be >= 1")
    _require(not args.check_dyck or args.n <= narayana.DYCK_ORACLE_LIMIT,
             f"--check-dyck needs n <= {narayana.DYCK_ORACLE_LIMIT}")
    poly = narayana.narayana_poly_direct(args.n)
    payload = {"coefficients": _fractions(poly.coeffs)}
    if args.check_recurrence:
        via_rec = narayana.narayana_poly_recurrence(args.n)
        payload["recurrence_matches"] = poly == via_rec
        if not payload["recurrence_matches"]:
            return fail_envelope("narayana", params, "recurrence-consistency",
                                 _fractions(via_rec.coeffs))
    if args.check_catalan:
        payload["catalan"] = narayana.catalan(args.n)
        payload["row_sum_matches"] = poly(Fraction(1)) == narayana.catalan(args.n)
        if not payload["row_sum_matches"]:
            return fail_envelope("narayana", params, "catalan-row-sum", str(poly(Fraction(1))))
    if args.check_dyck:
        counts = [narayana.dyck_peak_count(args.n, k) for k in range(1, args.n + 1)]
        payload["dyck_matches"] = counts == [narayana.narayana_number(args.n, k)
                                             for k in range(1, args.n + 1)]
        if not payload["dyck_matches"]:
            return fail_envelope("narayana", params, "dyck-oracle", counts)
    status = "pass" if (args.check_recurrence or args.check_catalan or args.check_dyck) \
        else "info"
    return ReportEnvelope("narayana", params, status, payload)


def cmd_css(args) -> ReportEnvelope:
    if args.phi is not None:
        _require(args.phi >= 3, "--phi must be >= 3")
        phi = css.build_phi(args.phi)
        payload = {
            "n": args.phi,
            "linear": [_fractions(phi.linear.row(i)) for i in range(phi.linear.rows)],
            "offset": _fractions(phi.offset),
        }
        return ReportEnvelope("css", {"phi": args.phi}, "info", payload)
    _require(args.compose is not None and args.m is not None,
             "need either --phi N or --compose FILE_P FILE_Q with --m M")
    try:
        p = read_poly_file(args.compose[0])
        q = read_poly_file(args.compose[1])
        result = css.css_compose(p, q, args.m)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(exc) from exc
    params = {"compose": list(args.compose), "m": args.m}
    payload = {"coefficients": _fractions(result.coeffs),
               "degree": None if result.is_zero() else int(result.degree)}
    return ReportEnvelope("css", params, "info", payload)


def cmd_eigen(args) -> ReportEnvelope:
    params = {"n": args.n, "j": args.j}
    _require(args.n >= 3, "--n must be >= 3")
    _require(args.j is None or 1 <= args.j <= args.n - 1, "--j must be in 1..n-1")
    report = spectra.spectrum_report(args.n)
    payload = {
        "eigenvalues": _fractions(report.eigenvalues),
        "q_polys": {f"Q_{j + 1}": _fractions(q.coeffs)
                    for j, q in enumerate(report.q_polys)},
    }
    if args.j is not None:
        payload["eigenpolynomial"] = _fractions(report.eigenpolys[args.j - 1].coeffs)
    checks = {}
    for j, q in enumerate(report.q_polys, start=1):
        checks[f"selfreciprocal_sign_j{j}"] = q.self_reciprocal_sign() == (-1) ** j
        checks[f"vanish_at_1_iff_odd_j{j}"] = (q(Fraction(1)) == 0) == (j % 2 == 1)
        checks[f"sigma_route_matches_j{j}"] = q == spectra.sigma_system_solve(args.n, j)
    payload["structure_checks"] = checks
    bad = sorted(k for k, v in checks.items() if not v)
    return _verdict("eigen", params, not bad, payload, bad[0] if bad else None, bad)


def cmd_limits(args) -> ReportEnvelope:
    try:
        n_list = tuple(int(tok) for tok in args.ns.split(","))
    except ValueError:
        n_list = ()
    _require(len(n_list) >= 3 and list(n_list) == sorted(set(n_list)),
             "--ns needs >= 3 strictly increasing integers")
    _require(args.j >= 2 and n_list[0] >= args.j + 2, "need --j >= 2 and every n >= j + 2")
    _require(0 < args.tol < math.inf, "--tol must be positive and finite")
    params = {"j": args.j, "ns": list(n_list), "tol": args.tol}
    try:
        report = spectra.verify_mjnj(args.j, n_list, args.tol)
    except TheoremViolation as exc:
        return fail_envelope("limits", params, "limit-vs-narayana", str(exc))
    payload = {
        "m_coefficients": [_f17(c) for c in report.m_coeffs],
        "narayana_coefficients": list(report.narayana_coeffs),
        "deviations": [_f17(d) for d in report.deviations],
        "error_bounds": [_f17(b) for b in report.error_bounds],
        "max_deviation": _f17(report.max_deviation),
    }
    return ReportEnvelope("limits", params, "pass", payload)


def cmd_roots(args) -> ReportEnvelope:
    params = {"n": args.n, "isolate": args.isolate, "interlace": args.interlace}
    _require(args.n >= 1, "--n must be >= 1")
    _require(not args.interlace or args.n >= 3, "--interlace needs n >= 3")
    poly = narayana.narayana_poly_direct(args.n)
    if args.interlace:
        x, prev = RationalPoly.x(), narayana.narayana_poly_direct(args.n - 1)
        verdict = roots.interlace_check(prev.exact_divide(x), poly.exact_divide(x))
        # a strict interlacing of N_{n-1}/x and N_n/x certifies gcd = x, as in criterion 6's
        # lemma (a) and (b); on any other verdict the witness computes it
        gcd_ok = verdict == roots.STRICT_INTERLACE or roots.poly_gcd(prev, poly) == x
        payload = {"verdict": verdict, "gcd_is_x": gcd_ok}
        ok, falsified = verdict == roots.STRICT_INTERLACE and gcd_ok, "interlacing"
    elif args.isolate:
        iso = roots.isolate_roots(poly)
        payload = {
            "intervals": [[str(lo), str(hi)] for lo, hi in iso.intervals],
            "multiplicities": list(iso.multiplicities),
            "distinct_real_roots": len(iso.intervals),
        }
        ok, falsified = iso.real_root_count() == args.n, "hyperbolicity"
    else:
        hyper = roots.is_hyperbolic(poly)
        payload = {"hyperbolic": hyper, "degree": args.n,
                   "distinct_real_roots": roots.distinct_real_roots(poly)}
        ok, falsified = hyper, "hyperbolicity"
    return _verdict("roots", params, ok, payload, falsified, payload)


def cmd_measure(args) -> ReportEnvelope:
    params = {"n": args.n, "grid": args.grid, "out": args.out}
    _require(args.n >= 1 and args.grid >= 1, "--n and --grid must be >= 1")
    try:
        fh = open(args.out, "w", encoding="ascii")
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from exc
    with fh:
        sample = asymptotics.narayana_root_sample(args.n)
        cdf = asymptotics.empirical_cdf(sample)
        ks = asymptotics.ks_distance(cdf)
        fh.write("x,empirical,theoretical\n")
        for i in range(args.grid):
            x = -1.0 + i / (args.grid - 1) if args.grid > 1 else 0.0
            fh.write(f"{_f17(x)},{_f17(cdf(x))},{_f17(asymptotics.cdf_kappa(x))}\n")
    payload = {"ks": _f17(ks), "roots": len(sample), "certificate": roots.SIGN_CHANGES,
               "csv": args.out}
    return ReportEnvelope("measure", params, "info", payload)


def cmd_poincare(args) -> ReportEnvelope:
    params = {"preset": args.preset, "x": args.x, "tmax": args.tmax}
    if args.preset == "fibonacci":
        spec = asymptotics.fibonacci_recurrence()
    else:
        _require(args.x is not None, "--preset narayana requires --x")
        try:
            x = Fraction(args.x)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError("--x must be a rational number such as 2 or --x=-1/2") from exc
        _require(x != 0, "--x must be nonzero: N_n(0) = 0 for every n")
        spec = asymptotics.narayana_recurrence(x)
    _require(args.tmax >= spec.order, f"--tmax must be >= {spec.order}")
    result = asymptotics.poincare_ratio(spec, args.tmax)
    payload = {
        "no_limit_claim": result.no_limit_claim,
        "characteristic_roots": [str(r) for r in result.characteristic],
        "raw_last_ratio": None if result.raw_last_ratio is None
        else _f17(float(result.raw_last_ratio)),
        "ratios_tail": [None if r is None else _f17(float(r))
                        for r in result.ratios[-5:]],
    }
    if not result.no_limit_claim:
        payload["limit"] = _f17(float(result.limit))
        payload["error_estimate"] = _f17(result.error_estimate)
        payload["classified_root"] = str(result.classified_root)
    return ReportEnvelope("poincare", params, "info", payload)


def cmd_verify_all(args) -> ReportEnvelope:
    _require(args.max_n >= 2, "--max-n must be >= 2")
    results = acceptance.run_all(max_n=args.max_n, seed=args.seed)
    for r in results:
        print(f"{r.status.upper()}  {r.name}  ({r.seconds:.1f}s)  {r.detail}", file=sys.stderr)
    payload = {"checks": {r.name: {"passed": r.passed, "detail": r.detail,
                                   "seconds": round(r.seconds, 3)} for r in results}}
    failed = [r for r in results if r.status == "fail"]
    if failed:  # the fail envelope keeps every check beside the falsified one
        payload.update(falsified=failed[0].name, witness=failed[0].detail)
    broken = [r.name for r in results if r.status == "error"]
    if broken:
        payload["errors"] = broken
    return ReportEnvelope("verify-all", {"max_n": args.max_n, "seed": args.seed},
                          "error" if broken else "fail" if failed else "pass", payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-szego",
        description="Schur-Szego composition, Narayana polynomials, and certified "
                    "verification of their spectral and asymptotic structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="Narayana triangle rows")
    p.add_argument("--rows", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_triangle)

    p = sub.add_parser("narayana", help="Narayana polynomial and its checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-recurrence", action="store_true")
    p.add_argument("--check-catalan", action="store_true")
    p.add_argument("--check-dyck", action="store_true")
    p.set_defaults(fn=cmd_narayana)

    p = sub.add_parser("css", help="compositions and the affine map")
    p.add_argument("--compose", nargs=2, metavar=("FILE_P", "FILE_Q"))
    p.add_argument("--m", type=int)
    p.add_argument("--phi", type=int)
    p.set_defaults(fn=cmd_css)

    p = sub.add_parser("eigen", help="spectrum report and Q structure checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int)
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("limits", help="limit-polynomial vs Narayana verification")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--ns", type=str, default="20,40,80")
    p.add_argument("--tol", type=float, default=1e-2)
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("roots", help="certified root verdicts for N_n")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--isolate", action="store_true")
    mode.add_argument("--interlace", action="store_true")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("measure", help="empirical vs theoretical CDF dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("poincare", help="ratio limits of difference equations")
    p.add_argument("--preset", choices=("fibonacci", "narayana"), required=True)
    p.add_argument("--x", type=str, default=None,
                   help="evaluation point for the narayana preset (exact, e.g. 2 or --x=-1/2)")
    p.add_argument("--tmax", type=int, default=60)
    p.set_defaults(fn=cmd_poincare)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--max-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    """Run one command: the only place that prints an envelope, reports a
    usage error and picks the exit code."""
    args = build_parser().parse_args(argv)
    code = 0
    try:
        try:
            envelope = args.fn(args)
        except TheoremViolation as exc:  # a certificate inside the command failed
            params = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
            envelope = fail_envelope(args.command, params, "certificate", str(exc))
        if envelope is not None:
            code = {"fail": 1, "error": 3}.get(envelope.status, 0)
            print(envelope.to_json())
        sys.stdout.flush()
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; the interpreter's own flush at exit must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
