import itertools
from fractions import Fraction as F

import pytest

from schur_szego import narayana
from schur_szego.exactpoly import RationalPoly, TheoremViolation, binomial, interpolate
from schur_szego.narayana import (
    _dyck_peak_histogram,
    catalan,
    dyck_automaton,
    dyck_peak_count,
    narayana_number,
    narayana_poly_direct,
    narayana_poly_recurrence,
    narayana_rows,
    triangle_matrix,
)

NNT_BLOCK = [
    [1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0],
    [1, 3, 1, 0, 0],
    [1, 6, 6, 1, 0],
    [1, 10, 20, 10, 1],
]


def test_numbers():
    assert narayana_number(4, 2) == 6
    assert narayana_number(5, 3) == 20
    assert all(narayana_number(n, 1) == 1 for n in range(1, 20))
    with pytest.raises(ValueError):
        narayana_number(4, 5)


def test_direct_polys():
    assert narayana_poly_direct(2) == RationalPoly([0, 1, 1])
    assert narayana_poly_direct(3) == RationalPoly([0, 1, 3, 1])
    assert narayana_poly_direct(4) == RationalPoly([0, 1, 6, 6, 1])
    with pytest.raises(ValueError):
        narayana_poly_direct(0)


def test_recurrence_polys():
    assert narayana_poly_recurrence(1) == RationalPoly([0, 1])
    # n = 3: (5(1+x) N_2 - (x-1)^2 N_1) / 4
    assert narayana_poly_recurrence(3) == RationalPoly([0, 1, 3, 1])
    assert narayana_poly_recurrence(5) == RationalPoly([0, 1, 10, 20, 10, 1])


def test_direct_equals_recurrence_prefix():
    for n in range(1, 26):
        assert narayana_poly_direct(n) == narayana_poly_recurrence(n)


def test_rows_are_one_pass_of_the_recurrence():
    rows = list(narayana_rows(60))
    assert [n for n, _ in rows] == list(range(1, 61))
    for n, row in rows:
        assert all(type(c) is int for c in row)
        assert RationalPoly(row) == narayana_poly_direct(n)
    assert narayana_poly_recurrence(60) == RationalPoly(rows[-1][1])
    with pytest.raises(ValueError):
        next(narayana_rows(0))


def test_rows_reject_a_recurrence_that_leaves_a_remainder(monkeypatch):
    # one more than (2n-1)(1+x) N_{n-1} - (n-2)(x-1)^2 N_{n-2} at n = 7, where it is divided by 8
    monkeypatch.setattr(narayana, "divmod", lambda a, b: divmod(a + (b == 8), b), raising=False)
    with pytest.raises(TheoremViolation, match=r"^non-integer coefficients at n=7$"):
        list(narayana_rows(10))


def test_catalan():
    assert catalan(3) == 5
    assert catalan(4) == 14
    assert catalan(0) == 1
    for n in range(1, 20):
        assert narayana_poly_direct(n)(F(1)) == catalan(n)


def test_dyck_oracle_examples():
    assert dyck_peak_count(3, 2) == 3
    assert dyck_peak_count(4, 2) == 6
    for n in range(1, 7):
        assert dyck_peak_count(n, n) == 1  # the staircase


def test_dyck_oracle_bounds():
    with pytest.raises(ValueError):
        dyck_peak_count(15, 1)
    with pytest.raises(ValueError):
        dyck_peak_count(3, 0)


def test_dyck_matches_closed_form():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert dyck_peak_count(n, k) == narayana_number(n, k)


def _recursive_dyck_histogram(n):
    """The reference walk: one recursive call per step of every Dyck path of
    semilength n, the forced final descent counted as one leaf."""
    hist = [0] * n

    def walk(ups, height, last_up, peaks):
        if ups == n:
            hist[peaks + last_up - 1] += 1
            return
        walk(ups + 1, height + 1, True, peaks)
        if height > 0:
            walk(ups, height - 1, False, peaks + last_up)

    walk(0, 0, False, 0)
    return tuple(hist)


def _list_automaton(max_n):
    """The reference Dyck path automaton, each histogram a list of counts added
    entry by entry, a closed peak shifting the list by one."""
    zero = [0] * (max_n + 1)
    after_up, after_down = {}, {0: [1] + zero[1:]}
    for step in range(1, 2 * max_n + 1):
        top = min(step, 2 * max_n - step)
        ups, downs = {}, {}
        for h in range(step % 2, top + 1, 2):
            ups[h] = [x + y for x, y in zip(after_up.get(h - 1, zero),
                                            after_down.get(h - 1, zero))]
            peak = after_up.get(h + 1, zero)
            downs[h] = [x + y for x, y in zip(after_down.get(h + 1, zero), [0] + peak[:-1])]
        after_up, after_down = ups, downs
        if step % 2 == 0:
            yield step // 2, tuple(after_down[0][1:step // 2 + 1])


@pytest.mark.parametrize("n", range(1, 13))
def test_two_half_oracle_equals_the_recursive_walk(n):
    assert _dyck_peak_histogram(n) == _recursive_dyck_histogram(n)
    assert sum(_dyck_peak_histogram(n)) == catalan(n)  # each path joined once


def _two_walk_join(n):
    """The reference for the one-walk join: first halves and last halves listed by two
    walks, joined pair by pair. Returns (firsts, lasts, histogram)."""
    firsts = [(0, 0, False)]  # (height at its end, peaks, last step up)
    lasts = [(0, 0, False)]   # (height at its start, peaks, first step down)
    for _ in range(n):
        firsts = [*((h + 1, a, True) for h, a, up in firsts),
                  *((h - 1, a + up, False) for h, a, up in firsts if h)]
        # one step more before a last half's start: down from one higher, or up from
        # one lower, which closes a peak before a down step
        lasts = [*((h + 1, b, True) for h, b, down in lasts),
                 *((h - 1, b + down, False) for h, b, down in lasts if h)]
    hist = [0] * n
    for (h, a, ends_up), (g, b, starts_down) in itertools.product(firsts, lasts):
        if h == g:
            hist[a + b + (ends_up and starts_down) - 1] += 1
    return firsts, lasts, tuple(hist)


def _halves_by_brute_force(n):
    """Every first half and every last half among the 2^n step sequences, as the walks
    describe them."""
    firsts, lasts = [], []
    for steps in itertools.product((1, -1), repeat=n):
        heights = list(itertools.accumulate(steps, initial=0))
        peaks = sum(a > b for a, b in zip(steps, steps[1:]))
        if min(heights) >= 0:
            firsts.append((heights[-1], peaks, steps[-1] == 1))
        if min(heights) >= heights[-1]:  # from height -heights[-1] down to 0, never below
            lasts.append((-heights[-1], peaks, steps[0] == -1))
    return sorted(firsts), sorted(lasts)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_walk_equals_the_separate_last_half_walk(n):
    firsts, lasts, hist = _two_walk_join(n)
    assert lasts == firsts  # the mirror lemma, entry by entry
    assert _halves_by_brute_force(n) == (sorted(firsts), sorted(lasts))
    assert _dyck_peak_histogram(n) == hist


@pytest.mark.parametrize("max_n", [1, 2, 12, 60])
def test_packed_automaton_equals_the_list_automaton(max_n):
    assert list(dyck_automaton(max_n)) == list(_list_automaton(max_n))


def test_dyck_automaton_matches_enumeration():
    hists = dict(dyck_automaton(12))
    assert list(hists) == list(range(1, 13))
    for n in range(1, 13):
        assert hists[n] == _dyck_peak_histogram(n)
    with pytest.raises(ValueError):
        next(dyck_automaton(0))


def test_triangle_block():
    assert [list(r) + [0] * (5 - len(r)) for r in triangle_matrix(5)] == NNT_BLOCK


def test_triangle_rows_match_polys():
    for n, row in enumerate(triangle_matrix(8), start=1):
        poly = narayana_poly_direct(n)
        assert list(row) == [int(poly.coeff(k)) for k in range(1, n + 1)]


def test_triangle_palindromic():
    for n, row in enumerate(triangle_matrix(30), start=1):
        assert row == row[::-1]


def test_column_values_closed_form():
    # column m+1 entries at row j equal C(j,m) C(j,m+1) / j
    for m in range(0, 4):
        for j in range(m + 1, 12):
            expected = binomial(j, m) * binomial(j, m + 1) // j
            assert narayana_number(j, m + 1) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fixed_k_polynomial_in_n(k):
    # n -> N_{n,k} interpolated through 2k-1 points: degree 2k-2, root at n=0
    # (k = 1 is the constant polynomial 1, which has no root at all)
    pts = [(F(n), F(narayana_number(n, k))) for n in range(k, k + 2 * k - 1)]
    poly = interpolate(pts)
    assert poly.degree <= 2 * k - 2
    assert poly(F(0)) == 0
    # and it extrapolates to genuine triangle entries
    for n in range(k + 2 * k - 1, k + 2 * k + 3):
        assert poly(F(n)) == narayana_number(n, k)


def test_row_cofactor_self_reciprocal():
    for n in range(1, 61):
        over_x = narayana_poly_direct(n).exact_divide(RationalPoly.x())
        assert over_x.self_reciprocal_sign() == 1


def test_jacobi_identity():
    # n N_n(x) = x (1-x)^{n-1} P^{(1,1)}_{n-1}((1+x)/(1-x)), with
    # P^{(1,1)}_{n-1} = 2 P_n' / (n+1) from the Legendre recurrence: the roots
    # of N_n/x are -tan^2(theta/2) at the zeros cos(theta) of P_n'
    z = RationalPoly.x()
    legendre = [RationalPoly([1]), z]
    for k in range(1, 30):
        legendre.append((z * legendre[k]).scale(F(2 * k + 1, k + 1))
                        - legendre[k - 1].scale(F(k, k + 1)))
    one_plus, one_minus = RationalPoly([1, 1]), RationalPoly([1, -1])
    for n in range(1, 31):
        jacobi = legendre[n].derivative().scale(F(2, n + 1))
        # (1-x)^{n-1} J((1+x)/(1-x)) = sum_j J_j (1+x)^j (1-x)^{n-1-j}
        total = RationalPoly.zero()
        for j in range(n):
            term = RationalPoly([jacobi.coeff(j)])
            for _ in range(j):
                term = term * one_plus
            for _ in range(n - 1 - j):
                term = term * one_minus
            total = total + term
        assert RationalPoly.x() * total == narayana_poly_direct(n).scale(n)
