"""The acceptance checks, shared by `verify-all` and the pytest suite.

Each criterion is a function returning a CheckResult; tolerances and
ranges are pinned here. verify-all's --max-n only scales the heaviest
loop (hyperbolicity/interlacing) downward for smoke runs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import asymptotics, narayana, roots, spectra
from .exactpoly import (NotDivisibleError, RationalPoly, TheoremViolation, _derivative, _fold,
                        _primitive, interpolate)

TRIANGLE_NT = ((1,), (1, 1), (1, 3, 1), (1, 6, 6, 1), (1, 10, 20, 10, 1))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | error
    detail: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _timed(name):
    def wrap(fn):
        def run(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, detail = fn(*args, **kwargs)
                status = "pass" if passed else "fail"
            except TheoremViolation as exc:
                status, detail = "fail", f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # a bug, not a falsified claim
                status, detail = "error", f"{type(exc).__name__}: {exc}"
            return CheckResult(name, status, detail, time.perf_counter() - t0)
        run.check_name = name
        return run
    return wrap


@_timed("triangle-exactness")
def check_triangle():
    got = narayana.triangle_matrix(5)
    return got == TRIANGLE_NT, f"rows 1-5 = {got}"


@_timed("recurrence-consistency")
def check_recurrence():
    rows = 0
    for rows, (n, row) in enumerate(narayana.narayana_rows(60), start=1):
        if n != rows or narayana.narayana_poly_direct(n) != RationalPoly(row):
            return False, f"direct != recurrence at n={n}"
    if rows != 60:
        return False, f"recurrence yielded {rows} rows, not 60"
    for n in range(1, 31):
        if narayana.narayana_poly_direct(n)(Fraction(1)) != narayana.catalan(n):
            return False, f"N_n(1) != Cat_n at n={n}"
    for n in range(1, 13):
        for k in range(1, n + 1):
            if narayana.dyck_peak_count(n, k) != narayana.narayana_number(n, k):
                return False, f"Dyck oracle mismatch at (n,k)=({n},{k})"
    rows = 0
    for rows, (n, hist) in enumerate(narayana.dyck_automaton(60), start=1):
        if n != rows or hist != tuple(narayana.narayana_number(n, k)
                                      for k in range(1, n + 1)):
            return False, f"Dyck automaton mismatch at n={n}"
    if rows != 60:
        return False, f"Dyck automaton yielded {rows} rows, not 60"
    return True, ("direct=recurrence n<=60; Catalan n<=30; Dyck oracle n<=12, "
                  "automaton n<=60")


@_timed("spectrum")
def check_spectrum():
    # eigenpolynomial raises TheoremViolation on a kernel of dimension != 1 (a 1-dimensional
    # kernel proves det(A - lambda I) = 0), spectrum_report on an eigenvector, proposed by the
    # closed-form B, that fails A v = lambda v, and both on a j = 1, 2 eigenpolynomial of the
    # wrong shape. The kernel route runs first, so a falsified eigenvalue is named by its kernel.
    for n in range(3, 13):
        eig = spectra.eigenvalues_closed_form(n)
        if sorted(eig) != eig or len(set(eig)) != n - 1:
            return False, f"eigenvalues not distinct increasing at n={n}"
        by_kernel = tuple(spectra.eigenpolynomial(n, j) for j in range(1, n))
        if spectra.spectrum_report(n).eigenpolys != by_kernel:
            return False, f"kernel and triangular routes disagree at n={n}"
    return True, "closed-form spectrum certified for 3<=n<=12"


@_timed("q-structure")
def check_q_structure():
    for n in range(4, 11):
        for j, q in enumerate(spectra.spectrum_report(n).q_polys, start=1):
            if q != spectra.sigma_system_solve(n, j):
                return False, f"triangular and sigma routes disagree at (n,j)=({n},{j})"
            if q.self_reciprocal_sign() != (-1) ** j:
                return False, f"self-reciprocal sign wrong at (n,j)=({n},{j})"
            if (q(Fraction(1)) == 0) != (j % 2 == 1):
                return False, f"Q(1) vanishing pattern wrong at (n,j)=({n},{j})"
            if n % 2 == 0 and j % 2 == 1:
                prod = RationalPoly.binomial_power(n - j - 2) * q
                if prod.coeff((n - 2) // 2) != 0:
                    return False, f"middle coefficient nonzero at (n,j)=({n},{j})"
            # j distinct real roots of a degree-j Q make Descartes' rule exact;
            # with Q(0) != 0, all j are positive iff the signs strictly alternate
            if roots.distinct_real_roots(q) != j:
                return False, f"Q does not have {j} distinct real roots at ({n},{j})"
            if any(a * b >= 0 for a, b in zip(q.coeffs, q.coeffs[1:])):
                return False, f"Q roots not all positive at (n,j)=({n},{j})"
    return True, "Q-cofactor structure certified for 4<=n<=10"


@_timed("limit-polynomials")
def check_limit_polynomials():
    n_list, tol = (20, 40, 80), 1e-2
    details = []
    for j in range(2, 7):
        report = spectra.verify_mjnj(j, n_list, tol)
        bound = max(report.error_bounds) if report.error_bounds else 0.0
        details.append(f"j={j}: dev {report.max_deviation:.1e} (bound {bound:.1e})")
    for j in range(3, 7):
        target = Fraction(-j * (j + 1), 2)
        devs = [abs(spectra.sigma_system_solve(n, j).coeff(j - 1) - target)
                for n in n_list]
        if not all(a > b for a, b in zip(devs, devs[1:])):
            return False, f"|q_1(n) + j(j+1)/2| not decreasing for j={j}"
    return True, "; ".join(details)


@_timed("hyperbolicity-interlacing")
def check_hyperbolic_interlacing(max_n: int = 100):
    """Lemma, M_n = N_n/x = (1+x)^e x^k S_n(w), w = x + 2 + 1/x (exactpoly._fold, e = 1 iff n
    even; M_2 = 1 + x, S_2 = 1): for n <= max_n, N_n's n roots are simple, in (-inf, 0] and
    strictly interlaced by N_{n-1}'s, given
    (a) N = x*M, M_n(0) = N_{n,1} != 0 and positive coefficients leave no root in [0, inf);
    (b) palindromy gives the pairs r, 1/r: M_n(x) = x^(n-1) M_n(1/x);
    (c) w is a strictly decreasing bijection from (-1, 0) onto (-inf, 0) (and y = w - 2);
    (d) S_n's coefficients are positive (Descartes), and interlace_check on (S_{n-1}, S_n), n odd,
        or (S_{n-1}, w*S_n), n even, passes: S_n's roots are simple and negative, so M_n's are;
        when S_{n-1} is a multiple of S_n' (every odd n <= 199), Rolle's theorem makes that
        pass iff S_n has deg S_n simple real roots, which S_n's chain counts;
    (e) by (c), interlacing in w pulls back to (-1, 0), and by (b) to (-inf, -1);
    (f) -1 is placed: for n odd it is M_{n-1}'s root in M_n's middle gap (S_n(0) != 0), and
        for n even the factor w = y + 2 places it; the division by 1 + x is its parity.
    """
    prev = None
    for n in range(2, max_n + 1):
        p = narayana.narayana_poly_direct(n)
        c = p.ints[1:]  # a positive multiple of N_n/x
        if p.ints[0] != 0 or not c or c[0] == 0:
            return False, f"0 not a simple root of N_{n}"
        if len(c) != n:
            return False, f"N_{n}/x has degree {len(c) - 1}, not {n - 1}"
        if any(v <= 0 for v in c):
            return False, f"N_{n} has a positive root"
        try:
            s = _fold(c)
        except NotDivisibleError:
            return False, f"N_{n}(-1) vanishing parity wrong"
        if s is None:
            return False, f"N_{n}/x is not palindromic"
        if any(v <= 0 for v in s):
            return False, f"N_{n}/x folds to an S(w) with a coefficient <= 0 (Descartes fails)"
        if prev is not None:
            if n % 2 and prev == _primitive(_derivative(s)):  # Rolle, (d)
                simple = roots.SturmChain(_primitive(s)).total_real_roots() == len(s) - 1
                verdict = roots.STRICT_INTERLACE if simple else roots.FAIL
            else:
                top = RationalPoly(s if n % 2 else [0] + s)  # w*S_n for n even
                verdict = roots.interlace_check(RationalPoly(prev), top)
            if verdict != roots.STRICT_INTERLACE:
                return False, f"N_{n}/x not strictly interlaced by N_{n - 1}/x ({verdict})"
        prev = s
    return True, f"hyperbolicity and interlacing certified for 2<=n<={max_n}"


@_timed("fig1-ks")
def check_ks():
    tol = 0.05
    s100 = asymptotics.narayana_root_sample(100)
    s200 = asymptotics.narayana_root_sample(200)
    ks100 = asymptotics.ks_distance(asymptotics.empirical_cdf(s100))
    ks200 = asymptotics.ks_distance(asymptotics.empirical_cdf(s200))
    ok100, ok200 = ks100 <= tol, ks200 < ks100
    return ok100 and ok200, (
        f"KS(N_100)={ks100:.6f} {'<=' if ok100 else '>'} {tol}; "
        f"KS(N_200)={ks200:.6f} {'<' if ok200 else '>='} KS(N_100); "
        f"roots certified by {s100.path} (N_100), {s200.path} (N_200)")


@_timed("analytic-identities")
def check_analytic_identities():
    for i in range(100):
        x = -(10.0 ** (-3 + 6 * i / 99))
        lhs, rhs = x * x * asymptotics.density_rho(x), asymptotics.density_rho(1.0 / x)
        if abs(lhs - rhs) > 1e-12 * abs(rhs):
            return False, f"x^2 rho(x) != rho(1/x) at x={x}"
    for i in range(60):
        x = -(10.0 ** (-3 + 6 * i / 59))
        h = 1e-5 * abs(x)
        deriv = (asymptotics.cdf_kappa(x + h) - asymptotics.cdf_kappa(x - h)) / (2 * h)
        if abs(deriv - asymptotics.density_rho(x)) > 1e-6:
            return False, f"kappa' != rho at x={x}"
    plm = asymptotics.plemelj_density(-1.0, 1e-6)
    target = 1.0 / (2.0 * math.pi)
    if abs(plm - target) > 1e-4:
        return False, f"plemelj(-1) = {plm}, expected ~{target}"
    return True, f"functional equation, kappa'=rho, plemelj(-1)={plm:.8f}"


@_timed("quotient-limits")
def check_quotient_limits():
    for n in range(1, 61):
        if asymptotics.psi_n(n, Fraction(1)) != Fraction(2 * (2 * n + 1), n + 2):
            return False, f"Psi_n(1) identity fails at n={n}"
    target = (math.sqrt(2.0) + 1.0) ** 2
    e20 = abs(asymptotics.psi_n(20, 2.0 + 0j) - target)
    e60 = abs(asymptotics.psi_n(60, 2.0 + 0j) - target)
    if not e60 < e20:
        return False, f"Psi_n(2) not improving: {e20} -> {e60}"
    t60 = abs(asymptotics.theta_n(60, Fraction(1)) - Fraction(1, 2))
    if not t60 < 1e-2:
        return False, f"|Theta_60(1) - 1/2| = {float(t60)}"
    return True, (f"Psi_n(1) exact n<=60; Psi(2) errors {e20:.3f}->{e60:.3f}; "
                  f"Theta gap {float(t60):.2e}")


@_timed("poincare-engine")
def check_poincare(seed: int = 0):
    # the limit equation's discriminant as an identity in x: c and b are
    # quadratics in x, so the engine's limits at three nodes determine them
    nodes = [(t, asymptotics.narayana_recurrence(Fraction(t)).limits) for t in (1, 2, 3)]
    c, b = (interpolate([(t, lim[i]) for t, lim in nodes]) for i in (0, 1))
    if b * b - c.scale(4) != RationalPoly([0, 16]):
        return False, f"limit discriminant b^2 - 4c = {b * b - c.scale(4)}, not 16*x"
    fib = asymptotics.poincare_ratio(asymptotics.fibonacci_recurrence(), 50)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    if abs(float(fib.limit) - phi) > 1e-10:
        return False, f"Fibonacci limit {float(fib.limit)}"
    nar = asymptotics.poincare_ratio(asymptotics.narayana_recurrence(Fraction(2)), 60)
    larger = max(asymptotics.limit_recurrence_roots(2.0), key=abs).real
    if nar.no_limit_claim or abs(float(nar.limit) - larger) > 1e-3:
        return False, f"Narayana x=2 limit {float(nar.limit)} vs {larger}"
    if abs(complex(nar.classified_root) - larger) > 1e-9:
        return False, "x=2 estimate classified against the wrong root"
    neg = asymptotics.poincare_ratio(asymptotics.narayana_recurrence(Fraction(-1)), 60)
    if not neg.no_limit_claim or not asymptotics.equimodular_check(Fraction(-1)):
        return False, "x=-1 should refuse a limit claim (equimodular roots)"
    rng = random.Random(seed)
    for _ in range(20):
        l1 = Fraction(rng.randint(3, 9), rng.randint(1, 2))
        l2 = Fraction(rng.randint(1, 2), rng.randint(3, 9))
        if rng.random() < 0.5:
            l2 = -l2
        char = [l1 * l2, -(l1 + l2), Fraction(1)]
        while True:  # a start with f(t) = 0 is a legitimate ratio-pole: redraw
            c1, c2 = Fraction(rng.randint(1, 5)), Fraction(rng.randint(-5, 5))
            spec_dom = asymptotics.constant_recurrence(
                char, [c1 + c2, c1 * l1 + c2 * l2])
            try:
                res = asymptotics.poincare_ratio(spec_dom, 60)
                break
            except asymptotics.RatioPoleError:
                continue
        if abs(complex(res.classified_root) - complex(l1)) > 1e-9:
            return False, f"dominant-root selection failed for roots {l1}, {l2}"
        spec_sub = asymptotics.constant_recurrence(char, [c1, c1 * l2])  # C_1 = 0
        res = asymptotics.poincare_ratio(spec_sub, 60)
        if res.limit != l2 or any(r != l2 for r in res.ratios):
            return False, f"C_p selection not exact for root {l2}"
    return True, ("discriminant 16x: equimodular on the real line iff x <= 0; Fibonacci "
                  "1e-10; Narayana x=2 1e-3; x=-1 no-limit (exact); C_p exact")


def run_all(max_n: int = 100, seed: int = 0) -> list[CheckResult]:
    """Run every acceptance check; max_n scales only the interlacing loop."""
    return [
        check_triangle(),
        check_recurrence(),
        check_spectrum(),
        check_q_structure(),
        check_limit_polynomials(),
        check_hyperbolic_interlacing(max_n),
        check_ks(),
        check_analytic_identities(),
        check_quotient_limits(),
        check_poincare(seed),
    ]
