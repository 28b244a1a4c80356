"""Exact rational univariate polynomials, their coefficient kernels, and small
dense linear algebra.

Everything here is pure and exact, in one stored format: a polynomial's
coefficients and a matrix's entries are integers over one positive denominator
in lowest terms (_lowest_terms). Each coefficient-vector job has one kernel here
for the whole package: clearing denominators, content (_primitive, which strips
a multiword content by one divmod pass), trim, derivative, integer product
(_mul, behind RationalPoly.__mul__ only), integer pseudo-division
(RationalPoly.divmod, the remainder sequences in roots), a generic Horner
(RationalPoly.__call__, the binary64 quotients in asymptotics, the heuristic gcd
in roots) and the fold of a palindrome by x -> 1/x (_fold, behind criterion 6).
One fraction-free reduction, _rref (forward Bareiss elimination, then exact
back-substitution to the reduced form), serves kernel, solve_linear,
RationalMatrix.determinant and system (Sigma) in spectra. One integer Lagrange
basis, _lagrange_basis (exact synthetic division of the product of the nodes'
linear factors), serves interpolate and css.build_phi, and _combine sums it with
rational weights over one denominator. Floats stay out, save the binary64 error
estimate that neville_zero returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

NEG_INF = float("-inf")
_CONTENT_CROSSOVER_BITS = 1024  # a longer candidate content is divided out with no full gcd scan


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class SingularMatrixError(ValueError):
    """solve_linear was given a singular (or non-square) system."""


class TheoremViolation(Exception):
    """A certificate of one of the paper's claims failed; the message names it.

    A claim under test raises this; an invariant of the program's own
    arithmetic (an inexact Bareiss step, a PRS degree order) stays an
    AssertionError, because its failure is a bug, not a falsified claim.
    Deriving from Exception alone keeps it out of every ValueError and
    ArithmeticError handler.
    """


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range indices give 0.

    The boundary convention makes coefficient sums with shifted indices
    total functions (terms like C(n-j-2, k-1-nu) simply drop out).
    """
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# coefficient-vector kernels (constant term first)
# ---------------------------------------------------------------------------


def _clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(ints, den) with values[i] = ints[i] / den, den least; values: ints, Fractions, floats."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _lowest_terms(values: Sequence, den: int) -> tuple[list[int], int]:
    """(ints, d) with values[i] / den = ints[i] / d, d > 0 and gcd(d, *ints) = 1, for a
    nonzero integer den: the one stored form of RationalPoly and RationalMatrix."""
    ints, d = _clear_denominators(values)
    reduced = _primitive([d * den] + ints, -1 if den < 0 else 1)
    return reduced[1:], reduced[0]


def _primitive(c: list[int], sign: int = 1) -> list[int]:
    """c divided by sign * its content, in one pass; sign is 1 or -1.

    A word-size candidate g = gcd(c[0], c[-1]) leaves one gcd of every coefficient (c
    itself is returned when the divisor is 1 or the content 0). A multiword one is
    divided out by one divmod pass: a nonzero remainder r replaces g by gcd(g, r), and
    the quotients already made are multiplied by the old g over the new one."""
    g = math.gcd(c[0], c[-1])
    if g.bit_length() <= _CONTENT_CROSSOVER_BITS:
        g = sign * math.gcd(*c)
        return [x // g for x in c] if g and g != 1 else c
    g *= sign
    out = []
    for x in c:
        q, r = divmod(x, g)
        if r:
            h = sign * math.gcd(g, r)
            k = g // h
            out = [y * k for y in out]
            q, g = q * k + r // h, h
        out.append(q)
    return out


def _trim(c: list) -> list:
    """c without trailing zero coefficients (dropped in place); [0] if empty."""
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c or [0]


def _derivative(c: Sequence) -> list:
    return _trim([i * c[i] for i in range(1, len(c))])


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient vectors, by convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pseudo_divmod(f: Sequence[int], g: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(m, q, r) with m * f = q * g + r over Z[x], m = lead(g)^(deg f - deg g + 1)
    and deg r < deg g (r = [0] when g divides m * f); needs deg f >= deg g."""
    dg, lead = len(g) - 1, g[-1]
    m = lead ** (len(f) - dg)
    r = [x * m for x in f]
    q = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        if r[i]:
            q[i - dg] = t = r[i] // lead
            for k in range(dg + 1):
                r[i - dg + k] -= t * g[k]
    del r[dg:]
    return m, q, _trim(r)


def _fold(c: Sequence[int]) -> list[int] | None:
    """S with c = (1+x)^e x^k S(x + 2 + 1/x), e = deg c mod 2, k = deg S, or None when
    q = c / (1+x)^e is not a palindrome (for odd deg c, a remainder of the synthetic division
    by 1 + x raises NotDivisibleError). S(w) = T(w - 2) for q = x^k T(x + 1/x), where
    T = q_k + sum_{j>=1} q_{k+j} D_j, D_0 = 2, D_1 = y, D_{j+1} = y D_j - D_{j-1} (Dickson),
    summed in w by Clenshaw's b_j = q_{k+j} + (w-2) b_{j+1} - b_{j+2}, T = q_k + y b_1 - 2 b_2."""
    c = list(c)
    if len(c) % 2 == 0:
        for i in range(len(c) - 2, -1, -1):
            c[i] -= c[i + 1]  # c[i + 1] is now the coefficient of x^i in q, c[0] the remainder
        if c.pop(0):
            raise NotDivisibleError("1 + x does not divide an odd-degree polynomial")
    if c != c[::-1]:
        return None
    k = len(c) // 2
    b, b1 = [], []  # b_{j+1}, b_{j+2}
    for j in range(k, -1, -1):
        m = 1 if j else 2
        b, b1 = [u - 2 * v - m * z for u, v, z in zip([0] + b, b + [0], b1 + [0, 0])], b
        b[0] += c[k + j]
    return b


def horner(coeffs: Sequence, x):
    """coeffs(x) by Horner, from 0 so that a constant also takes x's type: exact for
    Fraction/int coefficients at a Fraction/int x, complex at a complex x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class RationalPoly:
    """Dense univariate polynomial over Q, constant term first, stored as RationalMatrix is: the
    coefficient of x^i is ints[i] / den, den > 0 and gcd(den, *ints) = 1, so equal ones compare
    and hash equal; .coeffs reads them back as Fractions. For a nonzero integer den,
    RationalPoly(coeffs, den) is coeffs / den. The zero polynomial is the single coefficient 0;
    its degree is reported as -inf so degree comparisons never involve a fake -1.
    """

    ints: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Fraction | int | float], den: int = 1):
        ints, d = _lowest_terms(list(coeffs), den)
        object.__setattr__(self, "ints", tuple(_trim(ints)))
        object.__setattr__(self, "den", d)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls([0])

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls([0, 1])

    @classmethod
    def binomial_power(cls, k: int) -> "RationalPoly":
        """(x+1)^k, expanded."""
        return cls([binomial(k, i) for i in range(k + 1)])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int | float:
        if self.is_zero():
            return NEG_INF
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return self.ints == (0,)

    def leading(self) -> Fraction:
        return Fraction(self.ints[-1], self.den)

    def is_monic(self) -> bool:
        return self.ints[-1] == self.den

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i (0 outside the stored range)."""
        return Fraction(self.ints[i] if 0 <= i < len(self.ints) else 0, self.den)

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        """Horner evaluation: a Fraction at a Fraction/int x, else of x's type."""
        return horner(self.ints, x) / Fraction(self.den)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        return RationalPoly([a * other.den + b * self.den for a, b in
                             zip_longest(self.ints, other.ints, fillvalue=0)],
                            self.den * other.den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.ints], self.den)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        return RationalPoly(_mul(self.ints, other.ints), self.den * other.den)

    def scale(self, factor: Fraction | int) -> "RationalPoly":
        p, q = factor.as_integer_ratio()
        return RationalPoly([c * p for c in self.ints], self.den * q)

    def derivative(self) -> "RationalPoly":
        return RationalPoly(_derivative(self.ints), self.den)

    def divmod(self, divisor: "RationalPoly") -> tuple["RationalPoly", "RationalPoly"]:
        """Euclidean division over Q: self = divisor * quot + rem.

        With self = f / a and divisor = g / b for integer f, g, the integer
        pseudo-division m f = q g + r gives quot = b q / (m a), rem = r / (m a).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.ints) < len(divisor.ints):
            return RationalPoly.zero(), self
        m, q, r = _pseudo_divmod(self.ints, divisor.ints)
        return (RationalPoly([c * divisor.den for c in q], m * self.den),
                RationalPoly(r, m * self.den))

    def exact_divide(self, divisor: "RationalPoly") -> "RationalPoly":
        """Quotient when the division is exact; raises otherwise.

        A nonzero remainder signals that a claimed structural factorization
        (e.g. the x(x+1)^k shape of an eigenpolynomial) is false.
        """
        quot, rem = self.divmod(divisor)
        if not rem.is_zero():
            raise NotDivisibleError(f"{self} is not divisible by {divisor}")
        return quot

    # -- reversal / self-reciprocity --------------------------------------

    def reverse(self) -> "RationalPoly":
        """The reverted polynomial x^n * P(1/x), n = deg P."""
        return RationalPoly(self.ints[::-1], self.den)

    def self_reciprocal_sign(self) -> int | None:
        """+1 if P^R = P, -1 if P^R = -P (n = deg P), else None."""
        if self.is_zero():
            raise ValueError("zero polynomial has no reciprocal sign")
        rev = self.reverse()
        if rev == self:
            return 1
        if rev == -self:
            return -1
        return None

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i == 0:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(f"{c}*{term}")
        return " + ".join(parts).replace("+ -", "- ")


def _divide_linear(f: Sequence[int], u: int, v: int) -> list[int]:
    """f / (u t - v) over Z[t] by synthetic division, constant term first;
    raises AssertionError unless the division is exact."""
    q = [0] * (len(f) - 1)
    r = f[-1]
    for i in range(len(f) - 2, -1, -1):
        q[i], rem = divmod(r, u)
        if rem:
            raise AssertionError(f"synthetic division by {u}*t - {v} is not exact")
        r = f[i] + v * q[i]
    if r:
        raise AssertionError(f"{u}*t - {v} does not divide the master polynomial")
    return q


def _lagrange_basis(nodes: Sequence[tuple[int, int]]) -> list[tuple[list[int], int]]:
    """The integer Lagrange basis of the nodes v_j/u_j, given as pairs (u_j, v_j)
    with u_j > 0: for each j, (q_j, h_j) with q_j = prod_{k != j} (u_k t - v_k),
    divided exactly out of the master product, and h_j = u_j^(m-1) q_j(v_j/u_j)
    by Horner (m nodes), so that L_j = u_j^(m-1) q_j / h_j. h_j = 0 exactly when
    node j repeats another."""
    master = [1]
    for u, v in nodes:
        master = [u * a - v * b for a, b in zip([0] + master, master + [0])]
    basis = []
    for u, v in nodes:
        q = _divide_linear(master, u, v)
        basis.append((q, horner([c * u ** (len(q) - 1 - i) for i, c in enumerate(q)], v)))
    return basis


def _combine(terms: Sequence[tuple[Fraction, Sequence[int]]], size: int) -> tuple[list[int], int]:
    """(ints, den) with sum_k w_k q_k = ints / den, for terms (w_k, q_k) of
    rational weights and integer vectors of length at most size."""
    ws, den = _clear_denominators([w for w, _ in terms])
    out = [0] * size
    for w, (_, q) in zip(ws, terms):
        for i, x in enumerate(q):
            out[i] += w * x
    return out, den


def interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> RationalPoly:
    """Exact Lagrange interpolation through distinct nodes."""
    xs = [Fraction(p[0]) for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    m = len(xs)
    basis = _lagrange_basis([(x.denominator, x.numerator) for x in xs])
    return RationalPoly(*_combine([(Fraction(y) * x.denominator ** (m - 1) / h, q)
                                   for x, (_, y), (q, h) in zip(xs, points, basis)], m))


def neville_zero(points: Sequence[tuple]) -> tuple[object, float]:
    """Neville extrapolation of (h, value) samples to h = 0.

    Returns (value, |last step|). The value is exact when the samples are;
    the step is a binary64 error estimate.
    """
    hs = [p[0] for p in points]
    tab = [p[1] for p in points]
    prev = tab[-1]
    for m in range(1, len(points)):
        prev = tab[-1]
        tab = [(hs[i] * tab[i + 1] - hs[i + m] * tab[i]) / (hs[i] - hs[i + m])
               for i in range(len(tab) - 1)]
    return tab[0], float(abs(tab[0] - prev))


# ---------------------------------------------------------------------------
# small dense exact linear algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix over Q, stored once as row-major integers over one positive
    denominator: entry (i, j) is ints[i * cols + j] / den, with gcd(den, *ints) = 1,
    so that equal matrices compare equal."""

    rows: int
    cols: int
    ints: tuple[int, ...]
    den: int

    def __init__(self, rows: int, cols: int, entries: Iterable[Fraction | int], den: int = 1):
        """The rows x cols matrix of entries / den (den a nonzero integer)."""
        ints, d = _lowest_terms(list(entries), den)
        if len(ints) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", d)

    def int_rows(self) -> list[list[int]]:
        """The rows of den * self, as new lists."""
        c = self.cols
        return [list(self.ints[i * c:(i + 1) * c]) for i in range(self.rows)]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.ints[i * self.cols:(i + 1) * self.cols])

    def shifted(self, lam: Fraction | int) -> "RationalMatrix":
        """self - lam * I (square only)."""
        if self.rows != self.cols:
            raise ValueError("shift needs a square matrix")
        p, q = lam.numerator, lam.denominator
        ints = [x * q for x in self.ints]
        for i in range(0, len(ints), self.cols + 1):
            ints[i] -= p * self.den
        return RationalMatrix(self.rows, self.cols, ints, self.den * q)

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        _, piv_cols, d, sign = _rref(self.int_rows())
        return Fraction(sign * d if len(piv_cols) == self.rows else 0, self.den ** self.rows)


def _rref(a: list[list[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free reduction of the integer rows `a`, in place: (rows, pivot
    columns, d, sign), with rows / d the reduced row echelon form.

    Forward Bareiss steps row <- (p * row - row[c] * pivot row) / prev, below each
    pivot and from its column on, divide exactly, since every entry is an integer
    minor; they leave echelon rows E_i with pivots p_i, and d is the last pivot.
    Back-substitution from the last pivot row up then gives d * R_i = (d * E_i -
    sum_{l>i} E_i[pc_l] * d * R_l) / p_i, also exactly, on the non-pivot columns;
    d * R_i is d in its own pivot column and 0 in the others. When `a` is square
    of full rank, its determinant is sign * d.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols: list[int] = []
    sign = prev = 1
    for c in range(cols):
        r = len(piv_cols)
        if r >= rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        p = a[piv][c]
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r][c + 1:]
        for row in a[r + 1:]:
            f = row[c]
            qr = [divmod(p * x - f * y, prev) for x, y in zip(row[c + 1:], top)]
            if any(rem for _, rem in qr):
                raise AssertionError(f"Bareiss step at column {c} is not exact")
            row[c:] = [0] + [q for q, _ in qr]
        piv_cols.append(c)
        prev = p
    free = [c for c in range(cols) if c not in piv_cols]
    for i in range(len(piv_cols) - 1, -1, -1):
        e, pc = a[i], piv_cols[i]
        coefs = [e[l] for l in piv_cols[i + 1:]]
        below = a[i + 1:len(piv_cols)]
        row = [0] * cols
        row[pc] = prev
        for c in free:
            if c > pc:
                row[c], rem = divmod(prev * e[c] - sum(x * b[c] for x, b in zip(coefs, below)),
                                     e[pc])
                if rem:
                    raise AssertionError(f"back-substitution at row {i} is not exact")
        a[i] = row
    return a, piv_cols, prev, sign


def kernel(matrix: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the null space via exact reduced row echelon form."""
    m, piv_cols, d, _ = _rref(matrix.int_rows())
    free = [c for c in range(matrix.cols) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * matrix.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            v[pc] = Fraction(-m[r][fc], d)
        basis.append(tuple(v))
    return basis


def solve_linear(matrix: RationalMatrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Unique exact solution of a square nonsingular system."""
    if matrix.rows != matrix.cols:
        raise SingularMatrixError("system must be square")
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length mismatch")
    n = matrix.rows
    b, d_b = _clear_denominators(rhs)  # A x = rhs times den * d_b: d_b A_int x = den b
    m, piv_cols, d, _ = _rref([[x * d_b for x in row] + [y * matrix.den]
                               for row, y in zip(matrix.int_rows(), b)])
    if piv_cols != list(range(n)):
        raise SingularMatrixError("singular system")
    return tuple(Fraction(row[n], d) for row in m)
