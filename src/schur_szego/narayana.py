"""Narayana numbers, triangle and polynomials, with two Dyck-path oracles.

Two independent constructions of N_n(x) are provided: the closed-form
triangle row and the three-term recurrence
(n+1) N_n = (2n-1)(1+x) N_{n-1} - (n-2)(x-1)^2 N_{n-2},
run once over integer rows (`narayana_rows`). Peak counts of Dyck paths
come from exhaustive enumeration, each path joined once from its two halves
(n <= DYCK_ORACLE_LIMIT), and from one sweep of the Dyck path automaton on
packed integer histograms (`dyck_automaton`, any n). The two share no code;
their exact agreement is part of the acceptance suite.
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
    immediately followed by a down-step). Pure enumeration, the independent
    oracle: no count is multiplied and no two halves are merged. The lemma
    (the meet-in-the-middle split of Horowitz and Sahni, J. ACM 21, 1974): a
    Dyck path splits uniquely at step n into a first half (n steps from
    height 0, never below it) and a last half (n steps back to height 0,
    never below it) that meet at one height, and any two halves meeting at
    one height make a Dyck path. Its peaks are the two halves' plus one at the
    junction iff the first ends with an up step and the last starts with a
    down step. One walk lists both kinds: a last half read backwards with up and
    down swapped is a first half with the same peaks, ending where the last half
    starts, and "starts down" becomes "ends up". The join adds one per path.
    """
    halves = [(0, 0, False)]  # (height at its end, peaks, last step up)
    for _ in range(n):
        # one step more at a half's end: up, or down from above 0, which closes a peak
        # after an up step
        halves = [*((h + 1, a, True) for h, a, up in halves),
                  *((h - 1, a + up, False) for h, a, up in halves if h)]
    offsets = {}  # (height, first half ends up) -> b - 1 + junction peak, per last half
    for h, b, starts_down in halves:
        offsets.setdefault((h, True), []).append(b - 1 + starts_down)
        offsets.setdefault((h, False), []).append(b - 1)
    hist = [0 for _ in range(n)]
    for h, a, ends_up in halves:
        for i in offsets[h, ends_up]:
            hist[a + i] += 1
    return tuple(hist)


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

    Each histogram is packed into one integer sum_k hist[k] 2^(B k), B =
    2 max_n + 1 (Kronecker substitution), so adding two histograms is one
    integer addition and closing a peak is one shift by B. No limb ever
    carries into the next: a limb holds a count of step prefixes, at most
    2^s after s <= 2 max_n steps, which is below 2^B.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    bits = 2 * max_n + 1
    limb = (1 << bits) - 1
    after_up = {}                      # height -> packed histogram; last step up
    after_down = {0: 1}                # the empty path: one prefix with 0 peaks
    for step in range(1, 2 * max_n + 1):
        top = min(step, 2 * max_n - step)  # higher prefixes cannot return in time
        ups, downs = {}, {}
        for h in range(step % 2, top + 1, 2):
            ups[h] = after_up.get(h - 1, 0) + after_down.get(h - 1, 0)
            downs[h] = after_down.get(h + 1, 0) + (after_up.get(h + 1, 0) << bits)
        after_up, after_down = ups, downs
        if step % 2 == 0:
            n, packed = step // 2, after_down[0]
            yield n, tuple(packed >> bits * k & limb for k in range(1, n + 1))


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
