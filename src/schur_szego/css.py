"""Schur-Szego composition, composition factors, and the affine map Phi_n.

The composition at level m multiplies coefficients termwise and divides by
C(m, j). Every monic degree-n polynomial vanishing at -1 factors into n-1
composition factors K_a = (x+1)^{n-1}(x+a); Phi_n sends the coefficient
vector c of P/(x+1) to the elementary symmetric functions sigma of the
factor parameters a_1..a_{n-1}.

Construction of Phi_n: matching coefficients of the (n-1)-fold composition
gives, for each index j,

    p_j * C(n,j)^(n-2) = sum_nu C(n-1,j-1)^(n-1-nu) * C(n-1,j)^nu * sigma_nu

(sigma_0 = 1). P = (x+1)(x^{n-1} + c_1 x^{n-2} + ... + c_{n-1}) has
p_j = c_{n-1-j} + c_{n-j} (c_0 = 1, c_n = 0), so rows j = 0..n-2 are linear
in sigma and c together. They are written as one integer matrix
[sigma | c | 1] and reduced once by fraction-free elimination, which leaves
sigma = A c + b. The sigma block is nonsingular: the j = 0 row isolates
sigma_{n-1}, and rows j = 1..n-2, after scaling by C(n-1,j-1)^(n-1), form a
Vandermonde system in the distinct nodes t_j = (n-j)/j. The remaining
identities (j = n-1, n) are verified, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactpoly import (RationalMatrix, RationalPoly, TheoremViolation, _clear_denominators,
                        _primitive, _rref, binomial)

INFINITY = math.inf


class DegreeOverflowError(ValueError):
    """A composition operand exceeds the declared composition degree."""


class NotInDomainError(ValueError):
    """Polynomial is outside the factorization domain (monic, P(-1)=0)."""


def css_compose(p: RationalPoly, q: RationalPoly, m: int) -> RationalPoly:
    """Schur-Szego composition at level m: coefficient j -> p_j q_j / C(m,j)."""
    return css_compose_multi((p, q), m)


def css_compose_multi(polys: Sequence[RationalPoly], m: int) -> RationalPoly:
    """s-fold composition: coefficient j -> prod_i p_{i,j} / C(m,j)^(s-1)."""
    if not polys:
        raise ValueError("need at least one polynomial")
    for p in polys:
        if p.degree > m:
            raise DegreeOverflowError(f"operand degree exceeds composition level {m}")
    out = []
    for j in range(m + 1):
        c = Fraction(1)
        for p in polys:
            c *= p.coeff(j)
        out.append(c / Fraction(binomial(m, j)) ** (len(polys) - 1))
    return RationalPoly(out)


def composition_factor(a: Fraction | int | float, n: int) -> RationalPoly:
    """K_a = (x+1)^{n-1}(x+a); a may be INFINITY, giving K_inf = (x+1)^{n-1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    base = RationalPoly.binomial_power(n - 1)
    if a == INFINITY:
        return base
    return base * RationalPoly([Fraction(a), 1])


@dataclass(frozen=True)
class AffineMapQ:
    """Phi_n as an exact affine map c -> A c + b on coefficient vectors."""

    linear: RationalMatrix
    offset: tuple[Fraction, ...]

    def apply(self, c: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        if len(c) != self.linear.cols:
            raise ValueError("vector length mismatch")
        c_int, d_c = _clear_denominators(c)
        return tuple(Fraction(sum(x * y for x, y in zip(row, c_int)), self.linear.den * d_c) + o
                     for row, o in zip(self.linear.int_rows(), self.offset))


def _verify_all_identities(p: Sequence[Fraction], sigma: Sequence[Fraction], n: int) -> None:
    p_int, d_p = _clear_denominators(p)
    s_int, d_s = _clear_denominators(sigma)
    full = [d_s] + s_int  # d_s sigma, sigma_0 = 1: each identity is checked times d_p d_s
    for j in range(n + 1):
        a, b = binomial(n - 1, j - 1), binomial(n - 1, j)
        lhs = p_int[j] * d_s * binomial(n, j) ** (n - 2)
        if lhs != d_p * sum(a ** (n - 1 - nu) * b ** nu * full[nu] for nu in range(n)):
            raise TheoremViolation(f"coefficient identity failed at j={j}")


@lru_cache(maxsize=None)
def build_phi(n: int) -> AffineMapQ:
    """Construct Phi_n exactly by one fraction-free elimination of the
    coefficient identities j = 0..n-2 (see the module docstring)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    # columns: sigma_1..sigma_{n-1}, then c_k at n-2+k, then the constant
    rows = []
    for j in range(n - 1):
        a, b, s = binomial(n - 1, j - 1), binomial(n - 1, j), binomial(n, j) ** (n - 2)
        row = [a ** (n - 1 - nu) * b ** nu for nu in range(1, n)] + [0] * (n - 1) + [-a ** (n - 1)]
        row[2 * n - 3 - j] = s  # p_j = c_{n-1-j} + c_{n-j}, with c_n = 0
        if j:
            row[2 * n - 2 - j] = s
        rows.append(_primitive(row))
    m, piv_cols, d, _ = _rref(rows)
    if piv_cols != list(range(n - 1)):
        raise TheoremViolation("identities j = 0..n-2 do not determine sigma")
    # rows / d is the reduced [I | A | b]
    linear = RationalMatrix(n - 1, n - 1, [x for r in m for x in r[n - 1:2 * n - 2]], d)
    return AffineMapQ(linear, tuple(Fraction(r[2 * n - 2], d) for r in m))


def factor_symmetric_functions(p: RationalPoly, n: int) -> tuple[Fraction, ...]:
    """sigma vector of the composition-factor parameters of P.

    Requires P monic of degree n with P(-1) = 0. All n+1 coefficient
    identities are checked against the returned sigma, not just the n-1
    used in the construction.
    """
    if p.degree != n:
        raise NotInDomainError(f"degree must be {n}")
    if not p.is_monic():
        raise NotInDomainError("polynomial must be monic")
    if p(Fraction(-1)) != 0:
        raise NotInDomainError("polynomial must vanish at -1")
    cofactor = p.exact_divide(RationalPoly([1, 1]))
    c = [cofactor.coeff(n - 2 - i) for i in range(n - 1)]  # c_1..c_{n-1}
    sigma = build_phi(n).apply(c)
    _verify_all_identities(list(p.coeffs) + [Fraction(0)] * (n + 1 - len(p.coeffs)), sigma, n)
    return sigma
