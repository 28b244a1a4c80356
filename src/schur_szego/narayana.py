"""Narayana numbers, triangle and polynomials, with two Dyck-path oracles.

Two independent constructions of N_n(x) are provided: the closed-form
triangle row and the three-term recurrence
(n+1) N_n = (2n-1)(1+x) N_{n-1} - (n-2)(x-1)^2 N_{n-2},
run once over integer rows (`narayana_rows`). Peak counts of Dyck paths
come from brute-force enumeration (n <= DYCK_ORACLE_LIMIT) and from one
sweep of the Dyck path automaton (`dyck_automaton`, any n). Their exact
agreement is part of the acceptance suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .exactpoly import RationalPoly, TheoremViolation

DYCK_ORACLE_LIMIT = 14


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


def narayana_rows(max_n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (n, coefficients of N_n, constant term first) for n = 1..max_n.

    One pass of the three-term recurrence on integer coefficient lists. Each
    step divides by n+1; a remainder would mean the recurrence produced a
    non-integer row, which falsifies the recurrence claim itself.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    prev, cur = (0,), (0, 1)           # N_0 = 0 (its factor m - 2 is 0 at m = 2), N_1 = x
    yield 1, cur
    for m in range(2, max_n + 1):
        a, b = 2 * m - 1, m - 2
        n1 = (0,) + cur + (0,)         # n1[i + 1] = [x^i] N_{m-1}, zero-padded
        n2 = (0, 0) + prev + (0, 0)    # n2[i + 2] = [x^i] N_{m-2}, zero-padded
        row = []
        for i in range(m + 1):
            # [x^i] of (2m-1)(1+x) N_{m-1} - (m-2)(x-1)^2 N_{m-2}
            lhs = a * (n1[i + 1] + n1[i]) - b * (n2[i + 2] - 2 * n2[i + 1] + n2[i])
            coeff, rem = divmod(lhs, m + 1)
            if rem:
                raise TheoremViolation(f"non-integer coefficients at n={m}")
            row.append(coeff)
        prev, cur = cur, tuple(row)
        yield m, cur


def narayana_poly_recurrence(n: int) -> RationalPoly:
    """N_n(x) from the three-term recurrence: the last row of narayana_rows(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for _, row in narayana_rows(n):
        pass
    return RationalPoly(row)


@lru_cache(maxsize=None)
def _dyck_peak_histogram(n: int) -> tuple[int, ...]:
    """Exhaustive peak-count histogram over all Dyck paths of semilength n.

    Entry k-1 counts paths with exactly k peaks (a peak = an up-step
    immediately followed by a down-step). Pure enumeration; this is the
    independent oracle, so no combinatorial shortcuts. Once all n up-steps
    are placed the rest of the path is forced: `height` down-steps, which
    close one more peak iff the last step was up. The walk counts that one
    path there instead of stepping down it, so each Dyck path is still one
    leaf and no path is counted by a formula.
    """
    hist = [0] * n

    def walk(ups: int, height: int, last_up: bool, peaks: int) -> None:
        if ups == n:
            hist[peaks + last_up - 1] += 1
            return
        walk(ups + 1, height + 1, True, peaks)
        if height > 0:
            walk(ups, height - 1, False, peaks + last_up)

    walk(0, 0, False, 0)
    return tuple(hist)


def _add(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in zip(a, b)]


def dyck_automaton(max_n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (n, peak-count histogram of Dyck paths of semilength n) for
    n = 1..max_n, from one forward sweep of the Dyck path automaton.

    The state is (height, whether the last step was up); each state carries
    hist[k] = number of step prefixes reaching it with exactly k peaks. An
    up step keeps k, a down step right after an up step closes a peak. The
    prefixes back at height 0 after 2n steps are the Dyck paths of
    semilength n (the transfer-matrix method, Stanley EC1 4.7). Entry k-1 of
    a yielded histogram counts paths with k peaks, as in _dyck_peak_histogram;
    no closed form is used.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    zero = [0] * (max_n + 1)           # peaks 0..max_n
    after_up = {}                      # height -> histogram; last step up
    after_down = {0: [1] + zero[1:]}   # the empty path
    for step in range(1, 2 * max_n + 1):
        top = min(step, 2 * max_n - step)  # higher prefixes cannot return in time
        ups, downs = {}, {}
        for h in range(step % 2, top + 1, 2):
            ups[h] = _add(after_up.get(h - 1, zero), after_down.get(h - 1, zero))
            peak = after_up.get(h + 1, zero)
            downs[h] = _add(after_down.get(h + 1, zero), [0] + peak[:-1])
        after_up, after_down = ups, downs
        if step % 2 == 0:
            n = step // 2
            yield n, tuple(after_down[0][1:n + 1])


def dyck_peak_count(n: int, k: int) -> int:
    """Number of Dyck paths of semilength n with exactly k peaks (brute force)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > DYCK_ORACLE_LIMIT:
        raise ValueError(f"oracle limited to n <= {DYCK_ORACLE_LIMIT}")
    return _dyck_peak_histogram(n)[k - 1]


def triangle_matrix(rows: int) -> tuple[tuple[int, ...], ...]:
    """Rows 1..rows of the Narayana triangle; row n holds N_{n,1} .. N_{n,n}."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return tuple(tuple(narayana_number(n, k) for k in range(1, n + 1))
                 for n in range(1, rows + 1))
