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
p_j = c_{n-1-j} + c_{n-j} (c_0 = 1, c_n = 0). Row j = 0 reads
sigma_{n-1} = c_{n-1}. With a = C(n-1,j-1) and b = C(n-1,j), row j >= 1
divided by a^(n-1) t_j, where t_j = b/a = (n-j)/j, reads R(t_j) = y_j for
R(t) = sum_{i<n-2} sigma_{i+1} t^i and

    y_j = (C(n,j)^(n-2) (c_{n-1-j} + c_{n-j}) - a^(n-1) - b^(n-1) c_{n-1}) / (a^(n-2) b),

which is affine in c. The nodes t_j are pairwise distinct, so R is the
Lagrange interpolant of the y_j; no elimination runs. Its basis is integer:
q_j = prod_{k != j} (k t - (n-k)) is the master product divided exactly by
j t - (n-j), and L_j = j^(n-3) q_j / h_j with
h_j = j^(n-3) q_j(t_j) = (-1)^(j-1) n^(n-3) (j-1)! (n-2-j)!, which is checked.
Each column of [A | b] is a short integer combination of the q_j over one
denominator. The remaining identities (j = n-1, n) are verified, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactpoly import (RationalMatrix, RationalPoly, TheoremViolation, _clear_denominators,
                        _combine, _lagrange_basis, binomial)


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


def _verify_all_identities(p: RationalPoly, sigma: Sequence[Fraction], n: int) -> None:
    p_int, d_p = p.ints, p.den  # deg p = n
    s_int, d_s = _clear_denominators(sigma)
    full = [d_s] + s_int  # d_s sigma, sigma_0 = 1: each identity is checked times d_p d_s
    for j in range(n + 1):
        a, b = binomial(n - 1, j - 1), binomial(n - 1, j)
        lhs = p_int[j] * d_s * binomial(n, j) ** (n - 2)
        if lhs != d_p * sum(a ** (n - 1 - nu) * b ** nu * full[nu] for nu in range(n)):
            raise TheoremViolation(f"coefficient identity failed at j={j}")


@lru_cache(maxsize=None)
def build_phi(n: int) -> AffineMapQ:
    """Construct Phi_n exactly from the integer Lagrange basis of the nodes
    t_j = (n-j)/j of the coefficient identities j = 1..n-2 (see the module
    docstring)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    m = n - 2
    basis = _lagrange_basis([(j, n - j) for j in range(1, n - 1)])
    if any(h == 0 for _, h in basis):
        raise TheoremViolation("identities j = 0..n-2 do not determine sigma")
    cols: list[list[tuple[Fraction, list[int]]]] = [[] for _ in range(n - 1)]  # [k-1]: c_k
    const = []
    for j, (q, h) in enumerate(basis, 1):
        if h != (-1) ** (j - 1) * n ** (m - 1) * math.factorial(j - 1) * math.factorial(m - j):
            raise AssertionError(f"q_{j}(t_{j}) differs from its closed form")
        a, b = binomial(n - 1, j - 1), binomial(n - 1, j)
        # y_j L_j = (C(n,j)^(n-2) (c_{n-1-j} + c_{n-j}) - a^(n-1) - b^(n-1) c_{n-1}) e q_j
        e = Fraction(j ** (m - 1), a ** m * b * h)
        w = binomial(n, j) ** m * e
        cols[n - 2 - j].append((w, q))
        cols[n - 1 - j].append((w, q))
        cols[n - 2].append((-b ** (n - 1) * e, q))
        const.append((-a ** (n - 1) * e, q))
    # rows sigma_1..sigma_{n-2} from R's coefficients, then sigma_{n-1} = c_{n-1}
    combined = [_combine(terms, m) for terms in cols]
    den = math.lcm(*(d for _, d in combined))
    ints = [v[i] * (den // d) for i in range(m) for v, d in combined] + [0] * m + [den]
    b_ints, b_den = _combine(const, m)
    return AffineMapQ(RationalMatrix(n - 1, n - 1, ints, den),
                      tuple(Fraction(x, b_den) for x in b_ints) + (Fraction(0),))


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
    _verify_all_identities(p, sigma, n)
    return sigma
