"""Spectrum of Phi_n: eigenvalues, eigenpolynomials, Q_{j,n}, and their limits.

An eigenvector of A, the linear part of Phi_n, is the coefficient vector of
the direction polynomial D = V/(x+1) of an eigenpolynomial V = (x+1) * D,
normalized monic; V for lambda_{j+2,n} is x(x+1)^{n-j-2} Q_{j,n}.
Three routes are implemented:

* eigenpolynomial (kernel route): one kernel of A - lambda I per eigenvalue.
* spectrum_report (triangular route): in powers of (x+1), A is upper
  triangular with a closed form B (Stirling numbers, the closed-form
  eigenvalues on its diagonal); one back-substitution in B proposes each
  eigenvector w, A v = lambda v certifies it, and one Taylor shift of the
  top of w gives Q_{j,n}, all in integers.
* sigma_system_solve (Sigma route): the linear system L_k = R_k in the
  unknown interior coefficients q_1..q_{j-1} of Q_{j,n} (leading 1, constant
  (-1)^j fixed), assembled from the coefficient identities of the
  eigen-relation. _sigma_rows builds all n-1 equations at once in integers
  (at most 204 bits at n = 160, j = 7, not the 1452 of the scale that
  clears the denominators as first written), from one Pascal row; the block
  k = 1..j-1 is reduced by _rref and the integer solution, over its one
  denominator, is verified on every k up to n-1.

The exact agreement of the kernel and triangular routes for 3 <= n <= 12,
and of the triangular and Sigma routes for 4 <= n <= 10, are acceptance
criteria; the n -> infinity limits are estimated by Richardson extrapolation
in 1/(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import css
from .exactpoly import (RationalPoly, TheoremViolation, _clear_denominators, _primitive, _rref,
                        binomial, kernel, neville_zero)
from .narayana import narayana_number


def eigenvalues_closed_form(n: int) -> list[Fraction]:
    """lambda_{j,n} = n^{j-1} / ((n-1)(n-2)...(n-j+1)), j = 1..n-1."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [Fraction(n ** (j - 1), math.perm(n - 1, j - 1)) for j in range(1, n)]


def eigenpolynomial(n: int, j: int) -> RationalPoly:
    """Monic degree-(n-1) eigenpolynomial of Phi_n for lambda_{j,n}, by one
    kernel of A - lambda I: the independent route that check_spectrum holds
    spectrum_report to. Checked by _eigenpoly_from_direction."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 1 <= j <= n - 1:
        raise ValueError(f"need 1 <= j <= n-1, got j={j}")
    phi = css.build_phi(n)
    lam = eigenvalues_closed_form(n)[j - 1]
    basis = kernel(phi.linear.shifted(lam))
    if len(basis) != 1:
        raise TheoremViolation(f"kernel of A - lambda_({j},{n}) I has dimension {len(basis)}")
    return _eigenpoly_from_direction(phi, n, j, basis[0])


def _eigenpoly_from_direction(phi: css.AffineMapQ, n: int, j: int,
                              v: Sequence[Fraction | int]) -> RationalPoly:
    """V = (x+1) * D normalized monic, where v[i] is the coefficient of x^{n-2-i} in the
    direction polynomial D (any nonzero scale; integers or Fractions).

    Verified on the way out: D has full degree, V(-1) = 0 by construction, (x+1)^{n-1} is
    Phi_n-fixed for j = 1, V(0) = 0 for j >= 2, and V = x(x+1)^{n-2} for j = 2.
    """
    d = _primitive(_clear_denominators(v)[0])
    if d[0] == 0:
        raise TheoremViolation("direction polynomial is not of full degree")
    poly = RationalPoly([a + b for a, b in zip([0] + d, d + [0])][::-1], d[0])
    if j == 1:
        expected = RationalPoly.binomial_power(n - 1)
        if poly != expected:
            raise TheoremViolation("lambda=1 eigenpolynomial is not (x+1)^{n-1}")
        c = [expected.coeff(n - 2 - i) for i in range(n - 1)]
        if phi.apply(c) != tuple(c):
            raise TheoremViolation("(x+1)^{n-1} is not Phi_n-fixed")
        return expected
    if poly.coeff(0) != 0:
        raise TheoremViolation(f"eigenpolynomial for j={j} does not vanish at 0")
    if j == 2 and poly != RationalPoly([0, 1]) * RationalPoly.binomial_power(n - 2):
        raise TheoremViolation("j=2 eigenpolynomial is not x(x+1)^{n-2}")
    return poly


def _closed_form_b(n: int) -> list[list[int]]:
    """(n-1)! B, where B = T A T^-1 is A in powers of (x+1): for l >= i, B[i][l] is
    (-1)^(l-i) lambda_(i+1,n) c(l+1, i+1) / ((n-1-i)...(n-l)), c the unsigned Stirling
    numbers of the first kind (Concrete Mathematics, 6.1), so (n-1)! B[i][l] is an integer."""
    c = [[1]]  # c[a][b] = c(a, b), by c(a+1, b) = a c(a, b) + c(a, b-1)
    for a in range(n - 1):
        c.append([a * x + y for x, y in zip(c[a] + [0], [0] + c[a])])
    return [[(-1) ** (l - i) * n ** i * c[l + 1][i + 1] * math.factorial(n - 1 - l) if l >= i
             else 0 for l in range(n - 1)] for i in range(n - 1)]


def _taylor_shift(w: Sequence[int]) -> list[int]:
    """T^-1 w: the coefficients of sum_r w_r (x+1)^(L-1-r), L = len(w), from x^(L-1) down,
    by repeated synthetic addition; entry i is sum_{r<=i} C(L-1-r, L-1-i) w_r."""
    c = list(w)
    for i in range(len(c) - 1):
        for k in range(1, len(c) - i):
            c[k] += c[k - 1]
    return c


def _cofactor(w: Sequence[int], n: int, j: int) -> RationalPoly:
    """Q_{j,n} from w_0..w_{j+1} (any nonzero scale), the top of the eigenvector for
    lambda_{j+2,n} in powers of (x+1): x Q(x) = R(x+1) / w_0, R(y) = sum_r w_r y^(j+1-r).
    (x+1)^{n-j-2} needs no test: w is zero past j+1, and A v = lambda v has certified
    v = T^-1 w. Q is monic of degree j iff w_0 != 0, and Q(-1) = w_{j+1} / w_0."""
    r = _taylor_shift(w)[::-1]  # R(x+1) = w_0 x Q(x), constant first
    if w[0] == 0 or w[-1] == 0:
        raise TheoremViolation(f"Q_({j},{n}) has the wrong shape: ({RationalPoly(r[1:])})/{w[0]}")
    if r[0] != 0:
        raise TheoremViolation(f"x does not divide the eigenpolynomial for lambda_({j + 2},{n})")
    if r[1] != (-1) ** j * w[0]:
        raise TheoremViolation(f"Q_({j},{n}) constant term is not (-1)^j")
    return RationalPoly(r[1:], w[0])


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[Fraction, ...]
    eigenpolys: tuple[RationalPoly, ...]
    q_polys: tuple[RationalPoly, ...]  # Q_{1,n} .. Q_{n-3,n}


@lru_cache(maxsize=None)
def spectrum_report(n: int) -> SpectrumReport:
    """Every eigenpolynomial of Phi_n, certified by A v = lambda v, and the Q_{j,n}.

    The closed-form B proposes them: B w = B_kk w by back-substitution from w_k = 1,
    v = T^-1 w. Then A_int v = den lam_k v (A = A_int / den) is checked exactly: m such
    v != 0 for m distinct lam_k are the whole spectrum, so a wrong B can only raise.
    """
    lam, m = eigenvalues_closed_form(n), n - 1
    if len(set(lam)) != m:
        raise TheoremViolation(f"closed-form spectrum has a repeated entry at n={n}")
    phi, b = css.build_phi(n), _closed_form_b(n)
    a, den = phi.linear.int_rows(), phi.linear.den
    polys, qs = [], []
    for k in range(m):
        # u is w_0..w_k (w is 0 past k) times a nonzero integer, which is divided out later:
        # each step multiplies u by B_ii - B_kk instead of dividing w_i by it
        u = [0] * k + [1]
        for i in range(k - 1, -1, -1):
            s = sum(x * y for x, y in zip(b[i][i + 1:], u[i + 1:]))
            u[i + 1:] = [x * (b[i][i] - b[k][k]) for x in u[i + 1:]]
            u[i] = -s
        v = _taylor_shift(u + [0] * (m - 1 - k))
        p, q = den * lam[k].numerator, lam[k].denominator
        if any(q * sum(x * y for x, y in zip(row, v)) != p * vi for row, vi in zip(a, v)):
            raise TheoremViolation(f"eigenvector {k + 1} proposed by the closed-form B "
                                   f"fails A v = lambda_({k + 1},{n}) v")
        polys.append(_eigenpoly_from_direction(phi, n, k + 1, v))
        if k >= 2:
            qs.append(_cofactor(u, n, k - 1))
    return SpectrumReport(tuple(lam), tuple(polys), tuple(qs))


# ---------------------------------------------------------------------------
# system (Sigma)
# ---------------------------------------------------------------------------


def _sigma_rows(n: int, j: int) -> list[list[int]]:
    """Equations L_k - R_k = 0, k = 1..n-1, as integer rows [c_1, .., c_{j-1}, c_0]
    meaning c_1 q_1 + .. + c_{j-1} q_{j-1} + c_0 = 0.

    With a = C(n-1,k-1), C(n-1,k) = a (n-k) / k and C(n,k) = n a / k, each equation
    has integer entries at scale 1: its right-side term in nu is a (n-k)^{nu+1}
    k^{j-nu}, and its left side reads one Pascal row C(n-j-2, .) times
    l_{j+1} = (n-1)...(n-j-1); a steps by a (n-k) / k, exactly. Scale 1 keeps the
    entries small (204 bits at n = 160, j = 7, against 1452 at the C(n,k)^{j+1} that
    clears the denominators as first written). Only the block rows k < j, which
    sigma_system_solve eliminates, are divided by their content, which would
    otherwise inflate every number the elimination makes; the other rows meet
    only a zero test, which no scale changes."""
    sign = (-1) ** j
    m = n - j - 2
    left = math.perm(n - 1, j + 1)
    # l_{j+1} C(m, t) at index t + j, zero for t = -j..-1 and m+1..m+j
    pascal = [0] * j + [left * binomial(m, t) for t in range(m + 1)] + [0] * j
    rows = []
    a = 1
    for k in range(1, n):
        b = n - k
        k_pow = [1]  # k^0..k^j
        for _ in range(j):
            k_pow.append(k_pow[-1] * k)
        right = []  # a b^{nu+1} k^{j-nu}, nu = 0..j
        t = a * b
        for nu in range(j + 1):
            right.append(t * k_pow[j - nu])
            t *= b
        row = [pascal[k + i] - right[i + 1] for i in range(j - 1)]
        row.append(sign * pascal[k + j - 1] + pascal[k - 1] - right[0] - sign * right[j])
        rows.append(_primitive(row) if k < j else row)
        a = a * b // k
    return rows


def sigma_system_solve(n: int, j: int) -> RationalPoly:
    """Q_{j,n} from system (Sigma), independent of the Phi_n kernel route.

    Reduces the integer block k = 1..j-1 with _rref, then checks every equation
    k = 1..n-1 exactly on the integer solution over its one denominator.
    """
    if n < 4 or not 1 <= j <= n - 3:
        raise ValueError(f"need n >= 4 and 1 <= j <= n-3, got n={n}, j={j}")
    rows = _sigma_rows(n, j)
    q_int: list[int] = []  # q_i = q_int[i-1] / d
    d = 1
    if j >= 2:
        block, piv_cols, d, _ = _rref([list(r) for r in rows[:j - 1]])
        if piv_cols != list(range(j - 1)):
            raise TheoremViolation(f"block k=1..{j - 1} is singular for n={n}, j={j}")
        q_int = [-r[-1] for r in block]
    for k, row in enumerate(rows, start=1):
        if sum((c * qi for c, qi in zip(row, q_int)), row[-1] * d) != 0:
            raise TheoremViolation(f"nonzero residual at k={k} for n={n}, j={j}")
    return RationalPoly([(-1) ** j * d, *reversed(q_int), d], d)


# ---------------------------------------------------------------------------
# limits: Richardson extrapolation in h = 1/(n-1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionEstimate:
    """Extrapolated leading coefficient q_nu^{(0)} of one q_nu(n) series."""

    nu: int
    samples: tuple[tuple[int, Fraction], ...]
    extrapolated_q0: float
    error_bound: float


def richardson_limit(j: int, n_list: Sequence[int]) -> list[ExpansionEstimate]:
    """Estimate q_nu^{(0)} for nu = 1..j-1 from exact Q_{j,n} samples.

    One estimate per interior coefficient; the error bound is the last
    Neville step (the paper asserts convergence of the 1/(n-1) series but
    no rate, so the bound is empirical by design).
    """
    ns = list(n_list)
    if len(ns) < 3 or sorted(set(ns)) != ns:
        raise ValueError("n_list must have >= 3 strictly increasing entries")
    if ns[0] < j + 3:
        raise ValueError(f"all n must be >= j+3 = {j + 3}")
    qs = {n: sigma_system_solve(n, j) for n in ns}
    out = []
    for nu in range(1, j):
        samples = tuple((n, qs[n].coeff(j - nu)) for n in ns)
        points = [(Fraction(1, n - 1), val) for n, val in samples]
        value, delta = neville_zero(points)
        out.append(ExpansionEstimate(nu, samples, float(value), delta))
    return out


def m_transform(q: RationalPoly, j: int) -> RationalPoly:
    """M_j(x) = (-1)^{j-1} x Q_{j-1}(-x) for deg Q = j-1."""
    if q.degree != j - 1:
        raise ValueError(f"expected degree {j - 1}, got {q.degree}")
    sign = (-1) ** (j - 1)
    return RationalPoly([0] + [sign * (-1) ** i * c for i, c in enumerate(q.ints)], q.den)


@dataclass(frozen=True)
class MjNjReport:
    m_coeffs: tuple[float, ...]       # coefficients of x^1..x^j in M_j
    narayana_coeffs: tuple[int, ...]
    deviations: tuple[float, ...]
    error_bounds: tuple[float, ...]
    max_deviation: float
    passed: bool


def verify_mjnj(j: int, n_list: Sequence[int], tol: float) -> MjNjReport:
    """Check that the transformed limit polynomial reproduces the Narayana
    row: extrapolate Q_{j-1}*, transform, compare coefficientwise at `tol`."""
    if j < 2:
        raise ValueError("j must be >= 2")
    # Q_{j-1}* (constant first), each extrapolated coefficient taken exactly
    # from its binary64 value, and the coefficients' error bounds
    coeffs, bounds = [Fraction(0)] * j, [0.0] * j
    coeffs[j - 1], coeffs[0] = Fraction(1), Fraction(-1) ** (j - 1)
    for est in richardson_limit(j - 1, n_list):
        coeffs[j - 1 - est.nu] = Fraction(est.extrapolated_q0)
        bounds[j - 1 - est.nu] = est.error_bound
    m = m_transform(RationalPoly(coeffs), j)
    m_coeffs = tuple(float(m.coeff(k)) for k in range(1, j + 1))
    target = tuple(narayana_number(j, k) for k in range(1, j + 1))
    deviations = tuple(abs(mc - t) for mc, t in zip(m_coeffs, target))
    report = MjNjReport(m_coeffs, target, deviations, tuple(bounds), max(deviations),
                        max(deviations) <= tol)
    if not report.passed:
        raise TheoremViolation(f"M_{j} vs N_{j}: max deviation {report.max_deviation} > tol {tol}")
    return report
