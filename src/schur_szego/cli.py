"""Command-line front end: every verification and data export in one tool.

Output conventions: JSON report envelopes on stdout (CSV goes to --out
files or stdout for `triangle --csv`), exit code 0 when every executed
check passed, 1 when a theorem check was falsified, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import acceptance, asymptotics, css, narayana, roots, spectra
from .exactpoly import RationalPoly

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["command", "parameters", "status", "payload"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "status": {"enum": ["pass", "fail", "info"]},
        "payload": {"type": "object"},
    },
    "additionalProperties": False,
}


@dataclass(frozen=True)
class ReportEnvelope:
    command: str
    parameters: dict
    status: str  # pass | fail | info
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


def write_poly_file(path: str, poly: RationalPoly) -> None:
    deg = 0 if poly.is_zero() else int(poly.degree)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{deg}\n")
        for i in range(deg + 1):
            fh.write(f"{poly.coeff(i)}\n")


def _fractions(seq) -> list[str]:
    return [str(v) for v in seq]


def _f17(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_triangle(args) -> int:
    if args.rows < 1:
        print("triangle: --rows must be >= 1", file=sys.stderr)
        return 2
    tri = narayana.triangle_matrix(args.rows)
    if args.csv:
        for row in tri.rows:
            print(",".join(str(v) for v in row))
        return 0
    env = ReportEnvelope("triangle", {"rows": args.rows}, "info",
                         {"rows": [list(r) for r in tri.rows]})
    print(env.to_json())
    return 0


def cmd_narayana(args) -> int:
    params = {"n": args.n, "check_recurrence": args.check_recurrence,
              "check_catalan": args.check_catalan, "check_dyck": args.check_dyck}
    if args.n < 1:
        print("narayana: --n must be >= 1", file=sys.stderr)
        return 2
    if args.check_dyck and args.n > narayana.DYCK_ORACLE_LIMIT:
        print(f"narayana: --check-dyck needs n <= {narayana.DYCK_ORACLE_LIMIT}",
              file=sys.stderr)
        return 2
    poly = narayana.narayana_poly_direct(args.n)
    payload = {"coefficients": _fractions(poly.coeffs)}
    if args.check_recurrence:
        via_rec = narayana.narayana_poly_recurrence(args.n)
        payload["recurrence_matches"] = poly == via_rec
        if not payload["recurrence_matches"]:
            print(fail_envelope("narayana", params, "recurrence-consistency",
                                _fractions(via_rec.coeffs)).to_json())
            return 1
    if args.check_catalan:
        payload["catalan"] = narayana.catalan(args.n)
        payload["row_sum_matches"] = poly(Fraction(1)) == narayana.catalan(args.n)
        if not payload["row_sum_matches"]:
            print(fail_envelope("narayana", params, "catalan-row-sum",
                                str(poly(Fraction(1)))).to_json())
            return 1
    if args.check_dyck:
        counts = [narayana.dyck_peak_count(args.n, k) for k in range(1, args.n + 1)]
        payload["dyck_matches"] = counts == [narayana.narayana_number(args.n, k)
                                             for k in range(1, args.n + 1)]
        if not payload["dyck_matches"]:
            print(fail_envelope("narayana", params, "dyck-oracle", counts).to_json())
            return 1
    status = "pass" if (args.check_recurrence or args.check_catalan or args.check_dyck) \
        else "info"
    print(ReportEnvelope("narayana", params, status, payload).to_json())
    return 0


def cmd_css(args) -> int:
    if args.phi is not None:
        if args.phi < 3:
            print("css: --phi must be >= 3", file=sys.stderr)
            return 2
        phi = css.build_phi(args.phi)
        payload = {
            "n": args.phi,
            "linear": [_fractions(phi.linear.row(i)) for i in range(phi.linear.rows)],
            "offset": _fractions(phi.offset),
        }
        print(ReportEnvelope("css", {"phi": args.phi}, "info", payload).to_json())
        return 0
    if args.compose is None or args.m is None:
        print("css: need either --phi N or --compose FILE_P FILE_Q with --m M",
              file=sys.stderr)
        return 2
    try:
        p = read_poly_file(args.compose[0])
        q = read_poly_file(args.compose[1])
        result = css.css_compose(p, q, args.m)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"css: {exc}", file=sys.stderr)
        return 2
    params = {"compose": list(args.compose), "m": args.m}
    payload = {"coefficients": _fractions(result.coeffs),
               "degree": None if result.is_zero() else int(result.degree)}
    print(ReportEnvelope("css", params, "info", payload).to_json())
    return 0


def cmd_eigen(args) -> int:
    params = {"n": args.n, "j": args.j}
    if args.n < 3:
        print("eigen: --n must be >= 3", file=sys.stderr)
        return 2
    if args.j is not None and not 1 <= args.j <= args.n - 1:
        print("eigen: --j must be in 1..n-1", file=sys.stderr)
        return 2
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
    if not all(checks.values()):
        bad = sorted(k for k, v in checks.items() if not v)
        print(fail_envelope("eigen", params, bad[0], bad).to_json())
        return 1
    print(ReportEnvelope("eigen", params, "pass", payload).to_json())
    return 0


def cmd_limits(args) -> int:
    try:
        n_list = tuple(int(tok) for tok in args.ns.split(","))
    except ValueError:
        n_list = ()
    if len(n_list) < 3 or list(n_list) != sorted(set(n_list)):
        print("limits: --ns needs >= 3 strictly increasing integers", file=sys.stderr)
        return 2
    if args.j < 2 or n_list[0] < args.j + 2:
        print("limits: need --j >= 2 and every n >= j + 2", file=sys.stderr)
        return 2
    if not args.tol > 0:
        print("limits: --tol must be positive", file=sys.stderr)
        return 2
    params = {"j": args.j, "ns": list(n_list), "tol": args.tol}
    try:
        report = spectra.verify_mjnj(args.j, n_list, args.tol)
    except spectra.TheoremCheckFailed as exc:
        print(fail_envelope("limits", params, "limit-vs-narayana", str(exc)).to_json())
        return 1
    payload = {
        "m_coefficients": [_f17(c) for c in report.m_coeffs],
        "narayana_coefficients": list(report.narayana_coeffs),
        "deviations": [_f17(d) for d in report.deviations],
        "error_bounds": [_f17(b) for b in report.error_bounds],
        "max_deviation": _f17(report.max_deviation),
    }
    print(ReportEnvelope("limits", params, "pass", payload).to_json())
    return 0


def cmd_roots(args) -> int:
    params = {"n": args.n, "isolate": args.isolate, "interlace": args.interlace}
    if args.n < 1:
        print("roots: --n must be >= 1", file=sys.stderr)
        return 2
    poly = narayana.narayana_poly_direct(args.n)
    if args.interlace:
        if args.n < 3:
            print("roots: --interlace needs n >= 3", file=sys.stderr)
            return 2
        x = RationalPoly.x()
        prev = narayana.narayana_poly_direct(args.n - 1).exact_divide(x)
        cur = poly.exact_divide(x)
        verdict = roots.interlace_check(prev, cur)
        gcd_ok = roots.poly_gcd(narayana.narayana_poly_direct(args.n - 1), poly) == x
        payload = {"verdict": verdict, "gcd_is_x": gcd_ok}
        if verdict != roots.STRICT_INTERLACE or not gcd_ok:
            print(fail_envelope("roots", params, "interlacing", payload).to_json())
            return 1
        print(ReportEnvelope("roots", params, "pass", payload).to_json())
        return 0
    if args.isolate:
        iso = roots.isolate_roots(poly)
        payload = {
            "intervals": [[str(lo), str(hi)] for lo, hi in iso.intervals],
            "multiplicities": list(iso.multiplicities),
            "distinct_real_roots": len(iso.intervals),
        }
        ok = iso.real_root_count() == args.n
        if not ok:
            print(fail_envelope("roots", params, "hyperbolicity", payload).to_json())
            return 1
        print(ReportEnvelope("roots", params, "pass", payload).to_json())
        return 0
    hyper = roots.is_hyperbolic(poly)
    payload = {"hyperbolic": hyper, "degree": args.n,
               "distinct_real_roots": roots.distinct_real_roots(poly)}
    if not hyper:
        print(fail_envelope("roots", params, "hyperbolicity", payload).to_json())
        return 1
    print(ReportEnvelope("roots", params, "pass", payload).to_json())
    return 0


def cmd_measure(args) -> int:
    params = {"n": args.n, "grid": args.grid, "out": args.out}
    if args.n < 1 or args.grid < 1:
        print("measure: --n and --grid must be >= 1", file=sys.stderr)
        return 2
    try:
        fh = open(args.out, "w", encoding="ascii")
    except OSError as exc:
        print(f"measure: cannot write --out: {exc}", file=sys.stderr)
        return 2
    with fh:
        sample = asymptotics.narayana_root_sample(args.n)
        cdf = asymptotics.empirical_cdf(sample)
        ks = asymptotics.ks_distance(cdf)
        fh.write("x,empirical,theoretical\n")
        for i in range(args.grid):
            x = -1.0 + i / (args.grid - 1) if args.grid > 1 else 0.0
            fh.write(f"{_f17(x)},{_f17(cdf(x))},{_f17(asymptotics.cdf_kappa(x))}\n")
    payload = {"ks": _f17(ks), "roots": len(sample), "certificate": sample.path,
               "csv": args.out}
    print(ReportEnvelope("measure", params, "info", payload).to_json())
    return 0


def cmd_poincare(args) -> int:
    params = {"preset": args.preset, "x": args.x, "tmax": args.tmax}
    if args.preset == "fibonacci":
        spec = asymptotics.fibonacci_recurrence()
    else:
        if args.x is None:
            print("poincare: --preset narayana requires --x", file=sys.stderr)
            return 2
        try:
            x = Fraction(args.x)
        except (ValueError, ZeroDivisionError):
            print("poincare: --x must be a rational number such as 2 or -1/2",
                  file=sys.stderr)
            return 2
        spec = asymptotics.narayana_recurrence(x)
    if args.tmax < spec.order:
        print(f"poincare: --tmax must be >= {spec.order}", file=sys.stderr)
        return 2
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
    print(ReportEnvelope("poincare", params, "info", payload).to_json())
    return 0


def cmd_verify_all(args) -> int:
    if args.max_n < 2:
        print("verify-all: --max-n must be >= 2", file=sys.stderr)
        return 2
    results = acceptance.run_all(max_n=args.max_n, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.seconds:.1f}s)  {r.detail}",
              file=sys.stderr)
    all_ok = all(r.passed for r in results)
    failed = [r.name for r in results if not r.passed]
    payload = {"checks": {r.name: {"passed": r.passed, "detail": r.detail,
                                   "seconds": round(r.seconds, 3)} for r in results}}
    if all_ok:
        env = ReportEnvelope("verify-all", {"max_n": args.max_n, "seed": args.seed},
                             "pass", payload)
    else:
        payload["falsified"] = failed[0]
        payload["witness"] = payload["checks"][failed[0]]["detail"]
        env = ReportEnvelope("verify-all", {"max_n": args.max_n, "seed": args.seed},
                             "fail", payload)
    print(env.to_json())
    return 0 if all_ok else 1


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
                   help="evaluation point for the narayana preset (exact, e.g. 2 or -1/2)")
    p.add_argument("--tmax", type=int, default=60)
    p.set_defaults(fn=cmd_poincare)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--max-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
