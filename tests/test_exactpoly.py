import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schur_szego import exactpoly
from schur_szego.css import build_phi
from schur_szego.exactpoly import (
    NotDivisibleError,
    RationalMatrix,
    RationalPoly,
    SingularMatrixError,
    _clear_denominators,
    _divide_linear,
    _fold,
    _lagrange_basis,
    _mul,
    _primitive,
    _pseudo_divmod,
    _rref,
    binomial,
    interpolate,
    kernel,
    solve_linear,
)
from schur_szego.narayana import narayana_poly_direct
from schur_szego.spectra import eigenvalues_closed_form

from test_acceptance import _source_mutant

P = RationalPoly


def to_rows(m):
    """The entries of a RationalMatrix as lists of Fractions, row by row."""
    return [list(m.row(i)) for i in range(m.rows)]


def from_rows(rows):
    """The RationalMatrix with these rows of ints or Fractions."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    if any(len(row) != c for row in rows):
        raise ValueError("rows of a matrix must have equal length")
    return RationalMatrix(r, c, [e for row in rows for e in row])


fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys = st.lists(fractions, min_size=1, max_size=6).map(P)


def test_eval_examples():
    assert P([0, 1, 1])(F(1)) == 2
    assert P.zero()(F(5)) == 0
    assert P([0, 1, 3, 1])(F(1)) == 5  # Catalan_3 as the triangle row sum


def test_eval_rational_point():
    assert P([1, -3, 1])(F(1, 2)) == F(-1, 4)


def test_degree_conventions():
    assert P.zero().degree == float("-inf")
    assert P([3]).degree == 0
    assert P([0, 0, 5]).degree == 2
    assert P([1, 2, 0, 0]).coeffs == (F(1), F(2))  # trailing zeros trimmed


class _Half(F):
    """A Fraction subclass, which RationalPoly must convert like an int or a float."""


def test_coefficients_are_exact_fractions():
    # ints, Fractions, floats and subclasses of Fraction are all read as their
    # values, and equality and hash depend only on the values
    half = F(1, 2)
    sources = ([1, half, 3], [F(1), 0.5, F(3)], [True, _Half(1, 2), 3.0])
    made = [P(c) for c in sources]
    for p in made:
        assert all(type(c) is F for c in p.coeffs)
        assert p.coeffs == (F(1), F(1, 2), F(3))
    assert made[0] == made[1] == made[2]
    assert len({hash(p) for p in made}) == 1
    assert hash(made[0]) == hash(P([F(2, 2), F(2, 4), F(6, 2)]))
    assert P([half, 0]).coeffs == (half,)


@given(st.lists(fractions, min_size=1, max_size=6), st.integers(-12, 12).filter(bool))
@example([F(0)], -3)  # the zero polynomial is 0 over 1
@example([F(6), F(-4)], -6)  # a negative den divides out with its sign
def test_integers_over_one_denominator(c, den):
    p = P(c, den)
    by_values = P([x / den for x in c])
    assert p == by_values and hash(p) == hash(by_values)
    assert p.den > 0 and math.gcd(p.den, *p.ints) == 1
    assert P(p.ints, p.den) == p
    for x in (3, F(-2, 3)):
        value = p(x)
        assert type(value) is F and value == sum(a * F(x) ** i for i, a in enumerate(p.coeffs))
    assert type(p(0.5)) is float and p(0.5) == pytest.approx(float(p(F(1, 2))))
    assert type(p(0.5j)) is complex


def _fraction_horner(p, x):
    """The reference evaluation: Horner on p's Fraction coefficients at Fraction(x)."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * F(x) + c
    return acc


@given(st.lists(fractions, min_size=1, max_size=8),
       st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
@example([F(0)], F(3, 7))       # the zero polynomial
@example([F(-5, 3)], F(-2, 9))  # a constant
@example([F(1, 2), F(-3), F(7, 4)], F(0))
@example([F(1, 2), F(-3), F(7, 4)], F(-11, 6))
def test_homogenised_horner_equals_fraction_horner(c, x):
    p = P(c)
    for point in (x, x.numerator // x.denominator):  # a Fraction and an int
        value = p(point)
        assert type(value) is F and value == _fraction_horner(p, point)


def test_reverse_examples():
    assert P([1, -3, 1]).reverse() == P([1, -3, 1])
    assert P([1, 1]).reverse() == P([1, 1])
    assert P([0, 1]).reverse() == P([1])  # x * (1/x) = 1


def test_self_reciprocal_sign():
    assert P([1, -3, 1]).self_reciprocal_sign() == 1
    assert P([-1, 6, -6, 1]).self_reciprocal_sign() == -1
    assert P([2, 1, 1]).self_reciprocal_sign() is None
    with pytest.raises(ValueError):
        P.zero().self_reciprocal_sign()


def test_exact_divide_examples():
    assert P([0, 1, 6, 6, 1]).exact_divide(P.x()) == P([1, 6, 6, 1])
    assert P([1, 6, 6, 1]).exact_divide(P([1, 1])) == P([1, 5, 1])
    assert P([0, 1, 1]).derivative() == P([1, 2])


def test_exact_divide_nonzero_remainder():
    with pytest.raises(NotDivisibleError):
        P([1, 0, 1]).exact_divide(P([1, 1]))


def _power(p, k):
    out = P([1])
    for _ in range(k):
        out = out * p
    return out


def _unfold(s, odd):
    """x^k T(x + 1/x) times (1 + x) when odd, for T(y) = S(y + 2), k = deg S: the
    polynomial that _fold(.) = S claims to come from."""
    k = len(s) - 1
    t = sum((_power(P([2, 1]), i).scale(c) for i, c in enumerate(s)), P.zero())  # T(y) = S(y + 2)
    q = sum((_power(P([1, 0, 1]), j) * _power(P.x(), k - j).scale(c)
             for j, c in enumerate(t.coeffs)), P.zero())  # x^k (x + 1/x)^j = x^(k-j) (x^2 + 1)^j
    return q * P([1, 1]) if odd else q


_HALVES = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8).filter(
    lambda h: h[0] != 0)


@given(_HALVES, st.booleans())
def test_fold_round_trip_on_palindromes(half, odd):
    """x^k T(x + 1/x) = P, times 1 + x for odd degree, on palindromic integer P."""
    c = half + half[::-1] if odd else half + half[-2::-1]
    s = _fold(c)
    assert s is not None and len(s) == (len(c) - 1) // 2 + 1
    assert _unfold(s, odd) == P(c)


def test_fold_examples():
    assert _fold([7]) == [7]
    assert _fold([1, 1]) == [1]        # M_2 = 1 + x
    assert _fold([1, 3, 1]) == [1, 1]  # M_3 = x (y + 3), S(w) = w + 1
    assert _fold([1, 6, 6, 1]) == [3, 1]
    assert _fold([1, 10, 20, 10, 1]) == [2, 6, 1]


@given(_HALVES, st.booleans(), st.data())
def test_fold_rejects_a_broken_palindrome(half, odd, data):
    """One coefficient of an even degree changed, or, for an odd degree, two neighbours
    changed alike, so that 1 + x still divides and the quotient has one coefficient changed."""
    c = half + half[::-1] if odd else half + half[-2::-1]
    i = data.draw(st.integers(min_value=0, max_value=len(c) - 1 - odd))
    if 2 * i == len(c) - 1 - odd:
        return  # the middle coefficient of an even-degree palindrome keeps it one
    delta = data.draw(st.sampled_from([-2, 1, 3]))
    c[i] += delta
    if odd:
        c[i + 1] += delta
    assert _fold(c) is None


@pytest.mark.parametrize("c", [[1, 2], [1, 3, 3, 2], [1, 6, 7, 1]])
def test_fold_rejects_an_odd_degree_that_one_plus_x_leaves_a_remainder(c):
    with pytest.raises(NotDivisibleError):
        _fold(c)


def _list_fold(c):
    """The reference for exactpoly._fold: the same synthetic division and palindrome test,
    then Clenshaw's recurrence on coefficient lists, three padded lists per degree."""
    c = list(c)
    if len(c) % 2 == 0:
        for i in range(len(c) - 2, -1, -1):
            c[i] -= c[i + 1]
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


def _fold_outcome(fold, c):
    try:
        return fold(c)
    except NotDivisibleError as exc:
        return type(exc)


def test_packed_fold_equals_the_list_fold_on_narayana():
    for n in range(1, 201):
        c = narayana_poly_direct(n).ints[1:]  # N_n / x
        assert _fold(c) == _list_fold(c) is not None


_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-2**90, 2**90))


@given(st.lists(_ENTRIES, min_size=1, max_size=12), st.booleans(), st.booleans())
@example([0, -1, 0], False, True)
@example([2**90, -2**90, 0], True, True)
def test_packed_fold_equals_the_list_fold(half, odd, palindrome):
    """Palindromes with zero and negative entries, of both parities, and the lists
    that are not one."""
    c = (half + half[::-1] if odd else half + half[-2::-1]) if palindrome else half
    assert _fold_outcome(_fold, c) == _fold_outcome(_list_fold, c)


def test_limbs_without_the_growth_term_decode_wrongly():
    # (1 + x^2)^k = x^k (x + 1/x)^k folds to S(w) = (w - 2)^k, whose constant (-2)^k
    # outgrows max|q| = C(k, k/2); limbs of max|q| + 1 bits first overflow at k = 2
    narrow = _source_mutant(exactpoly, "_fold", "+ 2 * k + 4", "+ 1")
    wrong = []
    for k in range(8):
        c = [math.comb(k, i // 2) if i % 2 == 0 else 0 for i in range(2 * k + 1)]
        assert _fold(c) == [math.comb(k, i) * (-2) ** (k - i) for i in range(k + 1)]
        if narrow(c) != _fold(c):
            wrong.append(k)
    assert wrong == list(range(2, 8))


def test_limbs_k_bits_short_decode_wrongly():
    # q_{k+j} = (-1)^j lines up the alternating signs of every D_j(w - 2), so S's largest
    # coefficient grows like phi^(2k) (about 1.39 k bits over max|q| = 1): limbs of
    # max|q| + k + 4 bits first overflow at k = 14, the full 2k term holds past k = 40
    short = _source_mutant(exactpoly, "_fold", "+ 2 * k + 4", "+ k + 4")
    wrong = []
    for k in range(1, 41):
        half = [(-1) ** j for j in range(k + 1)]
        c = half[::-1] + half[1:]
        assert _fold(c) == _list_fold(c)
        if short(c) != _fold(c):
            wrong.append(k)
    assert wrong == list(range(14, 41))


def _long_divmod(f, g):
    """Euclidean division by a Fraction long-division loop: the reference."""
    rem, d = list(f.coeffs), g.coeffs
    dd, lead = len(d) - 1, d[-1]
    if len(rem) - 1 < dd:
        return P.zero(), P(rem)
    quot = [F(0)] * (len(rem) - dd)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + dd] / lead
        if q != 0:
            for k, dk in enumerate(d):
                rem[i + k] -= q * dk
    return P(quot), P(rem[:dd] if dd else [0])


divisors = polys.filter(lambda p: not p.is_zero())


@given(polys, divisors, polys)
@example(P([F(1, 2), 3, F(-5, 3), 7]), P([F(4, 7)]), P.zero())       # constant divisor
@example(P([1, F(2, 3)]), P([F(1, 3), 0, F(-9, 2)]), P.zero())        # deg f < deg g
@example(P([3, 1, 4, 1, 5]), P([2, 0, -3]), P([F(2, 3), F(-7, 5)]))  # non-monic
def test_divmod_matches_fraction_long_division(f, g, q):
    assert f.divmod(g) == _long_divmod(f, g)
    # an exact quotient comes back with a zero remainder
    assert (q * g).divmod(g) == (q, P.zero())
    assert (q * g).exact_divide(g) == q
    # the integer pseudo-division underneath: m a = quot b + rem, deg rem < deg b
    a, b = _clear_denominators(f.coeffs)[0], _clear_denominators(g.coeffs)[0]
    if len(a) >= len(b):
        m, quot, rem = _pseudo_divmod(a, b)
        assert m == b[-1] ** (len(a) - len(b) + 1)
        assert P(a).scale(m) == P(quot) * P(b) + P(rem)
        assert rem == [0] or (rem[-1] != 0 and len(rem) < len(b))


def test_primitive_divides_by_the_signed_content():
    unit = [1, -2, 3]
    assert _primitive(unit) is unit  # content 1: no pass at all
    assert _primitive(unit, -1) == [-1, 2, -3]  # content 1, divisor -1: negated
    assert _primitive([4, -6, 10]) == [2, -3, 5]
    assert _primitive([4, -6, 10], -1) == [-2, 3, -5]
    zero = [0]
    assert _primitive(zero, -1) is zero  # content 0: returned unchanged
    assert _primitive([0, 0, -7], -1) == [0, 0, 1]


def _primitive_by_full_gcd(c, sign):
    """The word-size route on any input: divide by sign * gcd of every coefficient."""
    g = sign * math.gcd(*c)
    return [x // g for x in c] if g else c


WIDE = 2**1100 + 3  # a unit wider than the crossover
CONTENT_CASES = {  # each as a function of its unit w
    "both-signs": lambda w: [3 * w, -5 * w, 7 * w],
    "zero-constant-term": lambda w: [0, 4 * w, -6 * w],
    "zero-inner-terms": lambda w: [-w, 0, 0, w],
    "one-coefficient": lambda w: [-9 * w],
    "content-one": lambda w: [w, 2, 3 * w],
    "candidate-shared-by-the-ends-only": lambda w: [6 * w, -15 * w, 10 * w, 9 * w],
    "late-remainder": lambda w: [5 * w, 10 * w, 3, 15 * w],
}


@pytest.mark.parametrize("unit, crossover", [(WIDE, exactpoly._CONTENT_CROSSOVER_BITS), (7, 0)],
                         ids=["multiword", "lowered-crossover"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("case", sorted(CONTENT_CASES))
def test_primitive_strips_a_multiword_content_in_one_pass(monkeypatch, case, sign, unit, crossover):
    monkeypatch.setattr(exactpoly, "_CONTENT_CROSSOVER_BITS", crossover)
    c = CONTENT_CASES[case](unit)
    assert math.gcd(c[0], c[-1]).bit_length() > crossover
    assert _primitive(list(c), sign) == _primitive_by_full_gcd(c, sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_primitive_keeps_word_size_vectors_on_the_one_call_path(monkeypatch, sign):
    calls = []
    original = math.gcd

    def counting(*args):
        calls.append(len(args))
        return original(*args)

    cases = ([4, -6, 10], [0, 0, 0], [0, 5, 0], [7], [2**64 * 3, 2**64 * 5])
    expected = [_primitive_by_full_gcd(c, sign) for c in cases]
    monkeypatch.setattr(exactpoly.math, "gcd", counting)
    for c, want in zip(cases, expected):
        calls.clear()
        assert _primitive(list(c), sign) == want
        assert calls == [2, len(c)]  # the candidate, then the one starred gcd


coefficient_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=6)


@given(coefficient_lists, st.integers(0, 2**1200), st.sampled_from([1, -1]))
@example([0, 3, 0], 2**1100, 1)  # zero ends: candidate 0 stays on the word-size path
@example([2, 3, 4], 2**1100 * 3, -1)  # 2 and 4 share a factor that 3 does not
def test_primitive_matches_the_full_gcd_on_both_sides_of_the_crossover(c, content, sign):
    c = [x * content for x in c]
    assert _primitive(list(c), sign) == _primitive_by_full_gcd(c, sign)


def _mul_by_fractions(p, q):
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return P(out)


@given(polys, polys)
def test_product_matches_the_fraction_convolution(p, q):
    assert p * q == _mul_by_fractions(p, q)


def test_integer_product_examples():
    assert _mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert _mul([0, 2], [3]) == [0, 6]
    assert _mul([5], [0]) == [0]
    assert P([F(1, 2), 1]) * P([F(-1, 3), 0, 2]) == P([F(-1, 6), F(-1, 3), 1, 2])
    assert P.zero() * P([1, 2]) == P.zero()


def test_binomial_convention():
    assert binomial(4, 2) == 6
    assert binomial(3, -1) == 0
    assert binomial(3, 5) == 0
    assert len(str(binomial(200, 100))) == 59


def test_kernel_examples():
    assert kernel(from_rows([[1, 0], [0, 1]])) == []
    m = from_rows([[0, F(-1, 2)], [0, F(-1, 2)]])
    assert kernel(m) == [(F(1), F(0))]
    assert len(kernel(RationalMatrix(2, 2, [0] * 4))) == 2


def test_from_rows_rejects_ragged_rows():
    # rows of length 2, 3 and 1 hold six entries, which fit a 3 x 2 shape by count alone
    with pytest.raises(ValueError):
        from_rows([[1, 2], [3, 4, 5], [6]])
    assert to_rows(from_rows([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]


def test_solve_identity():
    v = (F(3), F(-2, 7))
    assert solve_linear(from_rows([[1, 0], [0, 1]]), v) == v


def test_solve_vandermonde_nodes_2_and_half():
    # rows j = 1, 2 of the n = 3 coefficient-matching system, nodes 2 and 1/2;
    # must reproduce Phi_3(c) for the polynomial x(x+1)^2 <-> c = (1, 0)
    m = from_rows([[2, 4], [F(1, 2), F(1, 4)]])
    # p-coefficients of x(x+1)^2: identities sum t^nu sigma_nu = p_j C(3,j)/C(2,j-1)^2 - 1
    rhs = [F(1) * 3 - 1, F(2) * 3 / 4 - 1]
    assert solve_linear(m, rhs) == (F(1), F(0))


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(RationalMatrix(2, 2, [1, 1, 1, 1]), [1, 2])
    with pytest.raises(SingularMatrixError):  # consistent, but not unique
        solve_linear(RationalMatrix(2, 2, [1, 1, 1, 1]), [1, 1])


def _matvec(m, v):
    """m v, summed in Fractions from to_rows(m)."""
    return tuple(sum((a * F(x) for a, x in zip(row, v)), F(0)) for row in to_rows(m))


def _leibniz(rows):
    total = F(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = F(-1) ** inversions
        for i, c in enumerate(perm):
            term *= rows[i][c]
        total += term
    return total


zero_heavy = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(-1, 3)])


@given(st.lists(zero_heavy, min_size=9, max_size=9), st.lists(zero_heavy, min_size=3, max_size=3))
@example([1, 2, 3, 2, 4, 6, 0, 1, 1], [1, 2, 0])
@example([0, 1, 0, 0, 0, 1, 1, 0, 0], [1, 2, 3])
def test_determinant_kernel_solve_agree(entries, rhs):
    m = RationalMatrix(3, 3, entries)
    det = m.determinant()
    assert det == _leibniz(to_rows(m))
    assert (det == 0) == (len(kernel(m)) > 0)
    try:
        x = solve_linear(m, rhs)
    except SingularMatrixError:
        assert det == 0
    else:
        assert det != 0
        assert _matvec(m, x) == tuple(rhs)


def elementary_symmetric_prefix(k, j):
    """e_k(1, 2, ..., j), summed over all k-subsets."""
    return sum(math.prod(c) for c in itertools.combinations(range(1, j + 1), k))


def power_sum(k, j):
    """1^k + 2^k + ... + j^k."""
    return sum(m**k for m in range(1, j + 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("fn", [elementary_symmetric_prefix, power_sum])
def test_prefix_functions_divisible_by_j_j_plus_1(k, fn):
    # the interpolating polynomial in j through 2k+1 points vanishes at 0 and -1
    pts = [(F(j), fn(k, j)) for j in range(1, 2 * k + 2)]
    poly = interpolate(pts)
    assert poly(F(0)) == 0
    assert poly(F(-1)) == 0


def test_interpolate_matches_nodes():
    pts = [(F(0), F(1)), (F(1), F(2)), (F(3), F(10))]
    poly = interpolate(pts)
    for x, y in pts:
        assert poly(x) == y


def newton_interpolate(points):
    """The Newton form of the interpolant, by divided differences: an oracle
    that shares no code with interpolate's Lagrange basis."""
    xs = [F(x) for x, _ in points]
    dd = [F(y) for _, y in points]
    newton = [dd[0]]
    for m in range(1, len(points)):
        dd = [(dd[i + 1] - dd[i]) / (xs[i + m] - xs[i]) for i in range(len(dd) - 1)]
        newton.append(dd[0])
    poly = RationalPoly([newton[-1]])
    for m in range(len(newton) - 2, -1, -1):
        poly = poly * RationalPoly([-xs[m], 1]) + RationalPoly([newton[m]])
    return poly


@given(st.lists(st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                          st.fractions(min_value=-9, max_value=9, max_denominator=5)),
                min_size=1, max_size=7, unique_by=lambda p: p[0]))
def test_interpolate_matches_newton(points):
    assert interpolate(points) == newton_interpolate(points)


def test_interpolate_rejects_repeated_nodes():
    with pytest.raises(ValueError, match="distinct"):
        interpolate([(F(1), F(0)), (F(2, 2), F(1))])


def test_divide_linear_is_exact_or_raises():
    assert _divide_linear([-6, 1, 1], 1, 2) == [3, 1]  # t^2 + t - 6 = (t - 2)(t + 3)
    assert _divide_linear([-6, 1, 2], 2, 3) == [2, 1]  # 2t^2 + t - 6 = (2t - 3)(t + 2)
    with pytest.raises(AssertionError, match=r"^synthetic division by 2\*t - 1 is not exact$"):
        _divide_linear([1, 1], 2, 1)
    with pytest.raises(AssertionError, match=r"^1\*t - 1 does not divide the master polynomial$"):
        _divide_linear([1, 0, 1], 1, 1)


def test_lagrange_basis_values_vanish_only_at_a_repeated_node():
    # nodes 2, 4/2 and 3: q_j are (2t - 4)(t - 3), (t - 2)(t - 3) and (t - 2)(2t - 4)
    basis = _lagrange_basis([(1, 2), (2, 4), (1, 3)])
    assert basis == [([12, -10, 2], 0), ([6, -5, 1], 0), ([8, -8, 2], 2)]


@given(polys, polys, polys)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys, polys)
def test_ring_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


@given(polys)
def test_reverse_involution(p):
    if p.coeff(0) != 0:
        assert p.reverse().reverse() == p


@given(st.lists(fractions, min_size=4, max_size=4), st.lists(fractions, min_size=2, max_size=2))
def test_solve_round_trip(entries, rhs):
    m = RationalMatrix(2, 2, entries)
    try:
        x = solve_linear(m, rhs)
    except SingularMatrixError:
        return
    assert _matvec(m, x) == tuple(F(v) for v in rhs)


@given(st.lists(fractions, min_size=6, max_size=6))
def test_kernel_vectors_annihilate(entries):
    m = RationalMatrix(2, 3, entries)
    for v in kernel(m):
        assert _matvec(m, v) == (F(0), F(0))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(fractions, min_size=n * n, max_size=n * n)),
       st.integers(-30, 30).filter(bool), fractions)
def test_matrix_stores_integers_over_one_denominator(entries, k, lam):
    n = math.isqrt(len(entries))
    m = RationalMatrix(n, n, entries)
    assert m.den > 0 and math.gcd(m.den, *m.ints) == 1
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    assert to_rows(m) == rows
    assert RationalMatrix(n, n, [k * e for e in entries], k) == m  # k A / k
    assert m.shifted(lam) == from_rows(
        [[e - lam * (i == j) for j, e in enumerate(row)] for i, row in enumerate(rows)])


# -- the fraction-free elimination against a rational Gauss-Jordan oracle ----


def _oracle_rref(m):
    """Gauss-Jordan on Fractions, pivoting on the largest |numerator|."""
    m = [[F(v) for v in row] for row in m]
    rows, cols = len(m), len(m[0])
    piv_cols, det = [], F(1)
    for c in range(cols):
        r = len(piv_cols)
        candidates = [i for i in range(r, rows) if m[i][c] != 0]
        if not candidates:
            continue
        piv = max(candidates, key=lambda i: abs(m[i][c].numerator))
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
    return m, piv_cols, det


def _oracle_kernel(m):
    red, piv_cols, _ = _oracle_rref(m)
    basis = []
    for fc in (c for c in range(len(m[0])) if c not in piv_cols):
        v = [F(0)] * len(m[0])
        v[fc] = F(1)
        for r, pc in enumerate(piv_cols):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
sparse_fractions = st.tuples(st.booleans(), small_fractions).map(lambda t: F(0) if t[0] else t[1])


@st.composite
def rational_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    m = [[draw(sparse_fractions) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):  # one row a combination of two others
        i, j, k = draw(st.permutations(range(rows)))[:3]
        a, b = draw(small_fractions), draw(small_fractions)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


@given(rational_matrices(), st.lists(small_fractions, min_size=6, max_size=6))
@example([[0, 1], [1, 0]], [1, 2] * 3)  # one swap: det -1
@example([[F(1, 2), 0], [0, F(1, 3)]], [0] * 6)  # row scales 2 and 3
@example([[1, 1, 0], [0, 0, 1], [2, 2, 1]], [0] * 6)  # rank 2, a skipped column
@example([[2, 3, 1], [4, 6, 5]], [1, 2] * 3)  # free column between the two pivots
@example([[2, 1, 3], [4, 2, 6], [0, 3, 5]], [1, -1] * 3)  # free last column, zero row below
@example([[0, 1], [2, 3], [4, 5], [6, 8], [1, 1]], [3, 1] * 3)  # tall, rank 2
@example([[1, 2, 3, 4], [2, 4, 1, 0], [3, 7, 2, 1]], [1, 0, 2] * 2)  # swap at the second pivot
def test_fraction_free_rref_matches_rational_oracle(rows, rhs):
    red, piv_cols, _ = _oracle_rref(rows)
    ints, got_cols, d, _ = _rref(from_rows(rows).int_rows())
    assert ([[F(x, d) for x in row] for row in ints], got_cols) == (red, piv_cols)
    assert kernel(from_rows(rows)) == _oracle_kernel(rows)
    n = min(len(rows), len(rows[0]))  # the leading square block
    square = from_rows([row[:n] for row in rows[:n]])
    _, piv_cols, det = _oracle_rref(to_rows(square))
    assert square.determinant() == (det if len(piv_cols) == n else 0)
    red, piv_cols, _ = _oracle_rref([row + [v] for row, v in zip(to_rows(square), rhs)])
    if piv_cols != list(range(n)):
        with pytest.raises(SingularMatrixError):
            solve_linear(square, rhs[:n])
    else:
        assert solve_linear(square, rhs[:n]) == tuple(row[n] for row in red)


def test_phi_12_kernels_match_rational_oracle():
    linear = build_phi(12).linear
    for lam in eigenvalues_closed_form(12):
        shifted = linear.shifted(lam)
        basis = kernel(shifted)
        assert len(basis) == 1
        assert basis == _oracle_kernel(to_rows(shifted))
