"""Asymptotic root-measure machinery for the Narayana sequence.

Closed-form density/distribution, empirical CDFs and KS distance, the
finite-n quotients Psi_n and Theta_n with the limit Theta, Plemelj boundary
recovery of the density, and a Poincare ratio engine for linear difference
equations with convergent variable coefficients.

Floating point lives here; everything exact stays in the other modules.
`_exact` is the one test that picks the exact or the binary64 route.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .exactpoly import (NotDivisibleError, RationalPoly, TheoremViolation, _derivative, _fold,
                        horner, neville_zero)
from .narayana import narayana_poly_direct
from .roots import _REFINE_WIDTH, certify_roots, refine

_NEWTON_STEPS = 12


class PoleError(ZeroDivisionError):
    """Evaluation at a pole of a rational quotient."""


class BranchCutError(ValueError):
    """Limit formula evaluated on the branch cut (-inf, 0]."""


class RatioPoleError(ArithmeticError):
    """A trajectory value hit exactly zero while ratios were required."""


# ---------------------------------------------------------------------------
# closed forms for the asymptotic root-counting measure
# ---------------------------------------------------------------------------


def density_rho(x: float) -> float:
    """rho(x) = 1 / (pi (1-x) sqrt(-x)) on x < 0."""
    if x >= 0:
        raise ValueError("density is supported on x < 0")
    return 1.0 / (math.pi * (1.0 - x) * math.sqrt(-x))


def cdf_kappa(x: float) -> float:
    """kappa(x) = 1 - (2/pi) arctan sqrt(-x) on x <= 0."""
    if x > 0:
        raise ValueError("distribution argument must be <= 0")
    return 1.0 - (2.0 / math.pi) * math.atan(math.sqrt(-x))


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous empirical CDF of a finite root sample."""

    points: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def __call__(self, x: float) -> float:
        return bisect.bisect_right(self.points, x) / self.n


def empirical_cdf(roots: Sequence[float]) -> StepCDF:
    if not roots:
        raise ValueError("empty sample")
    return StepCDF(tuple(sorted(roots)))


def ks_distance(cdf: StepCDF) -> float:
    """sup |F - kappa|, evaluated at and just below every jump point."""
    d = 0.0
    for i, x in enumerate(cdf.points, start=1):
        t = cdf_kappa(x)
        d = max(d, abs(i / cdf.n - t), abs((i - 1) / cdf.n - t))
    return d


def _lobatto_node(n: int, theta: float) -> float:
    """Newton in theta on P_n'(cos theta) from `theta`, at most _NEWTON_STEPS steps, up to
    one below 2^-26 theta: Newton converges quadratically, so about 2^-52 theta is left.

    With u = 1 - cos theta = 2 sin^2(theta/2), the Legendre recurrence runs
    on P_k and D_k = P_k - P_{k-1} (Reinsch's form), which keeps relative
    accuracy near theta = 0 where cos theta would round it away. Then
    sin^2(theta) P_n'(cos theta) / n = u P_n - D_n, whose theta-derivative
    is (n + 1) sin(theta) P_n.
    """
    for _ in range(_NEWTON_STEPS):
        u = 2.0 * math.sin(theta / 2) ** 2
        p, d = 1.0 - u, -u
        for k in range(1, n):
            d = (k * d - (2 * k + 1) * u * p) / (k + 1)
            p += d
        step = (u * p - d) / ((n + 1) * math.sin(theta) * p)
        theta -= step
        if abs(step) <= 2**-26 * theta:
            break
    return theta


def _lobatto_proposals(n: int) -> list[float]:
    """Float proposals for the floor((n-1)/2) roots of S_n (`exactpoly._fold`).

    n N_n(x) = x (1-x)^{n-1} P^{(1,1)}_{n-1}((1+x)/(1-x)), and P^{(1,1)}_{n-1} is a
    multiple of the Legendre derivative P_n'. So N_n's roots are 0 and x = -tan^2(theta/2)
    for the zeros cos(theta) of P_n' (interior Gauss-Lobatto nodes), at w = x + 2 + 1/x =
    -4 cot^2(theta); x and 1/x (theta, pi - theta) share w: only theta < pi/2 is computed.
    Newton on node k starts at Gatteschi and Pittaluga's Jacobi-zero asymptotics (Rend. Sem.
    Mat. Univ. Politec. Torino, 1985) for alpha = beta = 1, phi - 3 / (8 N^2 tan phi) with
    phi = (k + 1/4) pi / N, N = n + 1/2: within 1e-4 theta of the node, one or two steps away.
    """
    m = n + 0.5
    return [-4.0 / math.tan(_lobatto_node(n, phi - 3 / (8 * m * m * math.tan(phi)))) ** 2
            for phi in (math.pi * (k + 0.25) / m for k in range(1, (n - 1) // 2 + 1))]


def _x_of_w(w: Fraction, upper: bool) -> Fraction:
    """A dyadic bound above (or below) x(w) = (w - 2 - sqrt(w^2 - 4w)) / 2 at a dyadic
    w = m / 2^e < 0, by `math.isqrt` of (w^2 - 4w) 4^(e+64) in integers."""
    m, e = w.numerator, w.denominator.bit_length() - 1
    d = (m * m - (m << e + 2)) << 128
    r = math.isqrt(d)
    r += not upper and r * r < d
    return Fraction(((m - (2 << e)) << 64) - r, 1 << e + 65)


@lru_cache(maxsize=8)
def narayana_root_sample(n: int) -> tuple[float, ...]:
    """Certified binary64 roots of N_n, 0 included, sorted: midpoints of exact
    brackets narrower than 2^-40, from `certify_roots` on S_n in w = x + 2 + 1/x
    (`_lobatto_proposals`). The lemma, each hypothesis checked:
    - N_n = x M_n (N_n(0) = 0);
    - M_n = (1+x)^e x^k S_n(w), e = deg M_n mod 2 (`exactpoly._fold`; M_n(1) = 2^e S_n(4));
    - w maps (-inf, -1) and (-1, 0) one to one onto (-inf, 0);
    - k disjoint brackets below 0 give 2k + e + 1 = n distinct roots.
    x(w) = (w - 2 - sqrt(w^2 - 4w)) / 2 increases on w < 0: a w-bracket, refined until
    its image is narrower than 2^-40, gives x in [a, b] (`_x_of_w`), 1/x in [1/b, 1/a].
    A failed hypothesis, or proposals that do not certify k brackets, raise TheoremViolation.
    """
    p = narayana_poly_direct(n)
    c = p.ints[1:]  # a positive multiple of N_n/x
    try:
        s = p.ints[0] == 0 and _fold(c)
    except NotDivisibleError:
        s = None
    e = (len(c) - 1) % 2
    iso = s and certify_roots(RationalPoly(s), _lobatto_proposals(n))
    if not iso or horner(c, 1) != horner(s, 4) << e or any(hi >= 0 for _, hi in iso.intervals):
        raise TheoremViolation(f"the fold of N_{n} does not certify its roots")
    xs = [0.0] + [-1.0] * e
    for i, (lo, hi) in enumerate(iso.intervals):
        tol = _REFINE_WIDTH
        while (b := _x_of_w(hi, True)) - (a := _x_of_w(lo, False)) >= _REFINE_WIDTH:
            tol /= 2
            lo, hi = refine(iso, i, tol)
        xs += [float((a + b) / 2), float((1 / a + 1 / b) / 2)]
    return tuple(sorted(xs))


# ---------------------------------------------------------------------------
# quotients Psi_n, Theta_n and their limits
# ---------------------------------------------------------------------------


def _exact(*values) -> bool:
    """True iff every value is a Fraction or an int: the one test that sends
    a computation down the exact route rather than the binary64 one."""
    return all(isinstance(v, (Fraction, int)) for v in values)


@lru_cache(maxsize=512)
def _float_coeffs(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Binary64 coefficients of (N_n', N_n), each rounded once from the exact
    value; keyed by n so that a hit neither rebuilds nor hashes N_n."""
    p = narayana_poly_direct(n)
    return tuple(c / p.den for c in _derivative(p.ints)), tuple(c / p.den for c in p.ints)


def _quotient(x, exact, floats, scale=1) -> complex | Fraction:
    """num(x) / (scale * den(x)): exact from exact() = (num, den) as RationalPolys
    at a Fraction (or int) x, else from floats() = their binary64 coefficients."""
    if _exact(x):
        x = Fraction(x)
        num, den = exact()
        top, bottom = num(x), den(x)
    else:
        num, den = floats()
        top, bottom = horner(num, complex(x)), horner(den, complex(x))
    if bottom == 0:
        raise PoleError(f"denominator vanishes at {x}")
    return top / (scale * bottom)


def psi_n(n: int, x) -> complex | Fraction:
    """N_{n+1}(x) / N_n(x); exact when x is a Fraction (or int)."""
    return _quotient(x, lambda: (narayana_poly_direct(n + 1), narayana_poly_direct(n)),
                     lambda: (_float_coeffs(n + 1)[1], _float_coeffs(n)[1]))


def theta_n(n: int, x) -> complex | Fraction:
    """N_n'(x) / (n N_n(x)); exact when x is a Fraction (or int)."""
    return _quotient(x, lambda: ((p := narayana_poly_direct(n)).derivative(), p),
                     lambda: _float_coeffs(n), n)


def theta_limit(x) -> complex:
    """Theta(x) = 1 / (x + sqrt(x)), principal branch, off the cut."""
    x = complex(x)
    if x.imag == 0 and x.real <= 0:
        raise BranchCutError(f"{x} lies on the branch cut (-inf, 0]")
    return 1.0 / (x + cmath.sqrt(x))


def plemelj_density(x: float, eps: float) -> float:
    """Boundary-jump recovery of the density from the limiting Cauchy
    transform: (i / 2 pi) (C(x + i eps) - C(x - i eps)), real part.

    Approaches density_rho(x) as eps -> 0.
    """
    if x >= 0:
        raise ValueError("density support is x < 0")
    if eps <= 0:
        raise ValueError("eps must be positive")
    upper = theta_limit(complex(x, eps))
    lower = theta_limit(complex(x, -eps))
    return ((1j / (2.0 * math.pi)) * (upper - lower)).real


# ---------------------------------------------------------------------------
# characteristic roots and the equimodular set
# ---------------------------------------------------------------------------


def characteristic_roots(coeffs: Sequence[complex]) -> list[complex]:
    """Roots, sorted by modulus, of a monic quadratic characteristic
    polynomial given as an ascending coefficient list [c, b, 1]."""
    cs = [complex(c) for c in coeffs]
    if len(cs) != 3 or cs[-1] != 1:
        raise ValueError("characteristic polynomial must be monic of degree 2")
    c, b = cs[0], cs[1]
    disc = cmath.sqrt(b * b - 4.0 * c)
    return sorted([(-b + disc) / 2.0, (-b - disc) / 2.0], key=abs)


def _equimodular(limits: Sequence) -> bool:
    """True iff the two roots of z^2 + b z + c, (c, b) = limits, share a
    modulus. Exact at rational (c, b): b^2 <= 4c (a conjugate pair or a double
    root) or b = 0 (roots +-r); else binary64 at a relative 1e-12."""
    c, b = limits
    if _exact(c, b):
        return b * b <= 4 * c or b == 0
    r1, r2 = characteristic_roots([c, b, 1])
    return abs(r2) - abs(r1) <= 1e-12 * abs(r2)


def _limit_coefficients(x) -> tuple:
    """(c, b) of the quotient's limit equation Psi^2 + b Psi + c = 0:
    c = (x-1)^2, b = -2(x+1), whose discriminant is 16x."""
    return (x - 1) ** 2, -2 * (x + 1)


def limit_recurrence_roots(x) -> list[complex]:
    """Roots of Psi^2 - 2(x+1) Psi + (x-1)^2 = 0 (the quotient's limit)."""
    return characteristic_roots([*_limit_coefficients(complex(x)), 1])


def equimodular_check(x) -> bool:
    """True iff the two limit-recurrence roots at x share an absolute value;
    exact when x is a Fraction (or int)."""
    return _equimodular(_limit_coefficients(x))


# ---------------------------------------------------------------------------
# Poincare ratio engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceSpec:
    """f(t+2) + P_1(t) f(t+1) + P_0(t) f(t) = 0.

    coefficient_fns[i] evaluates P_i at integer t; limits[i] is lim P_i;
    initial holds f(0), f(1). When initial and limits are exact (`_exact`),
    the coefficients must be too (Fraction or int); else binary64. The
    order is len(limits), which must be 2.
    """

    coefficient_fns: tuple[Callable[[int], complex | Fraction], ...]
    limits: tuple[complex | Fraction, ...]
    initial: tuple[complex | Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.limits)

    def __post_init__(self):
        if self.order != 2:
            raise ValueError("order must be 2")
        if not len(self.coefficient_fns) == len(self.limits) == len(self.initial):
            raise ValueError("coefficient/limit/initial lengths must equal the order")
        if not any(v != 0 for v in self.initial):
            raise ValueError("initial values must not all be zero")


@dataclass(frozen=True)
class PoincareResult:
    ratios: tuple          # f(t+1)/f(t); None where f(t) = 0
    raw_last_ratio: object
    limit: object          # None when no limit claim is made
    error_estimate: float
    classified_root: complex | None
    no_limit_claim: bool
    characteristic: tuple[complex, ...]


def _extrapolate_tail(ratios: Sequence, t_max: int):
    """Neville extrapolation of the ratio tail in 1/t; exact if ratios are."""
    ts = sorted({min(t_max, max(2, round(t_max * (1 - i / 8)))) for i in range(5)})
    pts = [(Fraction(1, t), ratios[t - 1]) for t in ts if ratios[t - 1] is not None]
    if len(pts) < 2:
        return None, math.inf
    return neville_zero(pts)


def _exact_ratios(spec: RecurrenceSpec, t_max: int) -> list:
    """The ratios f(t+1)/f(t), t < t_max, None where f(t) = 0, of an exact spec, in integers:
    the pair (f(t), f(t+1)) is kept as (a, b) over one denominator d, reduced by
    gcd(a, b, d) after each step. A step reads P_i(t) = p_i / q_i as two integers:
    f(t+2) = -(p_0 q_1 a + p_1 q_0 b) / (q_0 q_1 d). Each ratio is a Fraction of two integers;
    none is combined."""
    f0, f1 = spec.initial
    c0, c1 = spec.coefficient_fns
    d = math.lcm(f0.denominator, f1.denominator)
    a, b = f0.numerator * (d // f0.denominator), f1.numerator * (d // f1.denominator)
    ratios = []
    for t in range(t_max - 1):
        ratios.append(None if a == 0 else Fraction(b, a))
        p0, p1 = c0(t), c1(t)
        q0, q1 = p0.denominator, p1.denominator
        a, b, d = b * q0 * q1, -(p0.numerator * q1 * a + p1.numerator * q0 * b), d * q0 * q1
        g = math.gcd(a, b, d)
        a, b, d = a // g, b // g, d // g
    ratios.append(None if a == 0 else Fraction(b, a))
    return ratios


def poincare_ratio(spec: RecurrenceSpec, t_max: int) -> PoincareResult:
    """Iterate the recurrence and estimate the ratio limit f(t+1)/f(t).

    The characteristic roots of the limit equation classify the estimate;
    when two of them are equimodular no limit is claimed (ratios only).
    The limit estimate is adaptive: the raw last ratio and a Richardson
    extrapolation of the tail compete on their own error estimates (raw
    wins for geometric convergence, extrapolation for O(1/t) tails). An
    exact spec is iterated in integers (`_exact_ratios`).
    """
    k = spec.order
    if t_max < k:
        raise ValueError("t_max must be at least the order")
    char = tuple(characteristic_roots([*spec.limits, 1]))
    equimodular = _equimodular(spec.limits)

    if _exact(*spec.initial, *spec.limits):
        ratios = _exact_ratios(spec, t_max)
    else:
        values = list(spec.initial)
        for t in range(t_max - k + 1):
            values.append(-sum(spec.coefficient_fns[i](t) * values[t + i] for i in range(k)))
        ratios = [None if a == 0 else b / a for a, b in zip(values, values[1:])]

    if equimodular:
        return PoincareResult(tuple(ratios), ratios[-1] if ratios else None,
                              None, math.inf, None, True, char)
    if any(r is None for r in ratios):
        raise RatioPoleError("trajectory hit an exact zero; perturb the start")
    raw = ratios[-1]
    raw_err = abs(complex(raw - ratios[-2])) if len(ratios) > 1 else math.inf
    extrapolated, ext_err = _extrapolate_tail(ratios, len(ratios))
    if extrapolated is not None and ext_err < raw_err:
        limit, err = extrapolated, ext_err
    else:
        limit, err = raw, raw_err
    classified = min(char, key=lambda r: abs(r - complex(limit)))
    return PoincareResult(tuple(ratios), raw, limit, err, classified, False, char)


def fibonacci_recurrence() -> RecurrenceSpec:
    """f(t+2) - f(t+1) - f(t) = 0 with f(0) = f(1) = 1, exact."""
    minus_one = Fraction(-1)
    return RecurrenceSpec((lambda t: minus_one, lambda t: minus_one),
                          (minus_one, minus_one), (Fraction(1), Fraction(1)))


def narayana_recurrence(x) -> RecurrenceSpec:
    """The normalized Narayana recurrence at fixed x, with f(t) = N_{t+1}(x).

    Exact (Fraction) when x is rational, complex binary64 otherwise.
    """
    x = Fraction(x) if _exact(x) else complex(x)
    c, b = _limit_coefficients(x)
    return RecurrenceSpec((lambda t: (t + 1) * c / (t + 4),
                           lambda t: -(2 * t + 5) * (x + 1) / (t + 4)),
                          (c, b), (x, x * x + x))


def constant_recurrence(char_coeffs: Sequence[Fraction],
                        initial: Sequence[Fraction]) -> RecurrenceSpec:
    """Constant-coefficient recurrence from an ascending monic quadratic
    characteristic coefficient list [a_0, a_1, 1] (exact when inputs are exact)."""
    cs = list(char_coeffs)
    if cs[-1] != 1:
        raise ValueError("characteristic polynomial must be monic")
    body = tuple(cs[:-1])
    fns = tuple((lambda t, c=c: c) for c in body)
    return RecurrenceSpec(fns, body, tuple(initial))
