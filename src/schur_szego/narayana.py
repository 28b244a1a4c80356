"""Narayana numbers, triangle and polynomials, with a brute-force Dyck oracle.

Two independent constructions of N_n(x) are provided: the closed-form
triangle row and the three-term recurrence
(n+1) N_n = (2n-1)(1+x) N_{n-1} - (n-2)(x-1)^2 N_{n-2}.
Their exact agreement is part of the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactpoly import RationalPoly

DYCK_ORACLE_LIMIT = 14


class RecurrenceViolationError(ArithmeticError):
    """The three-term recurrence produced a non-integer row (must not fire)."""


def narayana_number(n: int, k: int) -> int:
    """N_{n,k} = C(n,k-1) C(n,k) / n, exact (the division is checked)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    num = math.comb(n, k - 1) * math.comb(n, k)
    q, r = divmod(num, n)
    if r != 0:
        raise AssertionError(f"N({n},{k}) division by n not exact")
    return q


def catalan(n: int) -> int:
    """Cat_n = C(2n, n) / (n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def narayana_poly_direct(n: int) -> RationalPoly:
    """N_n(x) = sum_k N_{n,k} x^k from the closed-form triangle row."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return RationalPoly([0] + [narayana_number(n, k) for k in range(1, n + 1)])


def narayana_poly_recurrence(n: int) -> RationalPoly:
    """N_n(x) built iteratively from the three-term recurrence.

    Each step divides by (n+1); the result must come out with integer
    coefficients, otherwise the recurrence claim itself is falsified.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prev = RationalPoly([0, 1])        # N_1 = x
    if n == 1:
        return prev
    cur = RationalPoly([0, 1, 1])      # N_2 = x^2 + x
    for m in range(3, n + 1):
        lhs = (RationalPoly([1, 1]) * cur).scale(2 * m - 1) \
            - (RationalPoly([1, -2, 1]) * prev).scale(m - 2)
        nxt = lhs.scale(Fraction(1, m + 1))
        if any(c.denominator != 1 for c in nxt.coeffs):
            raise RecurrenceViolationError(f"non-integer coefficients at n={m}")
        prev, cur = cur, nxt
    return cur


@lru_cache(maxsize=None)
def _dyck_peak_histogram(n: int) -> tuple[int, ...]:
    """Exhaustive peak-count histogram over all Dyck paths of semilength n.

    Entry k-1 counts paths with exactly k peaks (a peak = an up-step
    immediately followed by a down-step). Pure enumeration; this is the
    independent oracle, so no combinatorial shortcuts.
    """
    hist = [0] * n

    def walk(ups: int, downs: int, height: int, last_up: bool, peaks: int) -> None:
        if ups == n and downs == n:
            hist[peaks - 1] += 1
            return
        if ups < n:
            walk(ups + 1, downs, height + 1, True, peaks)
        if downs < ups and height > 0:
            walk(ups, downs + 1, height - 1, False, peaks + (1 if last_up else 0))

    walk(0, 0, 0, False, 0)
    return tuple(hist)


def dyck_peak_count(n: int, k: int) -> int:
    """Number of Dyck paths of semilength n with exactly k peaks (brute force)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > DYCK_ORACLE_LIMIT:
        raise ValueError(f"oracle limited to n <= {DYCK_ORACLE_LIMIT}")
    return _dyck_peak_histogram(n)[k - 1]


@dataclass(frozen=True)
class NarayanaTriangle:
    """Rows of the Narayana triangle; row n holds N_{n,1} .. N_{n,n}."""

    rows: tuple[tuple[int, ...], ...]

    def as_matrix(self) -> list[list[int]]:
        """Lower-triangular square block, zero-padded on the right."""
        size = len(self.rows)
        return [list(r) + [0] * (size - len(r)) for r in self.rows]


def triangle_matrix(rows: int) -> NarayanaTriangle:
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return NarayanaTriangle(tuple(
        tuple(narayana_number(n, k) for k in range(1, n + 1))
        for n in range(1, rows + 1)))
