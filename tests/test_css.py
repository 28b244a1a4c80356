import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schur_szego import css, exactpoly
from schur_szego.css import (
    DegreeOverflowError,
    NotInDomainError,
    build_phi,
    css_compose,
    css_compose_multi,
    factor_symmetric_functions,
)
from schur_szego.exactpoly import (RationalMatrix, RationalPoly, TheoremViolation, _primitive, _rref,
                                   binomial, kernel)
from schur_szego.spectra import eigenvalues_closed_form

from test_exactpoly import newton_interpolate, to_rows

P = RationalPoly

CUBE = P([1, 3, 3, 1])          # (x+1)^3
K0_3 = P([0, 1, 2, 1])          # x(x+1)^2
SQ = P([1, 2, 1])               # (x+1)^2

INFINITY = math.inf


def composition_factor(a, n: int) -> RationalPoly:
    """K_a = (x+1)^{n-1}(x+a); a may be INFINITY, giving K_inf = (x+1)^{n-1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    base = RationalPoly.binomial_power(n - 1)
    if a == INFINITY:
        return base
    return base * RationalPoly([F(a), 1])


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def test_compose_identity_cube():
    assert css_compose(CUBE, CUBE, 3) == CUBE


def test_compose_eigenrelation_instance():
    # K_0 *_3 K_inf = (2/3) x(x+1): the n=3 instance behind lambda_{2,3} = 3/2
    assert css_compose(K0_3, SQ, 3) == P([0, F(2, 3), F(2, 3)])


def test_compose_factors():
    assert css_compose(K0_3, CUBE, 3) == K0_3  # K_0 *_3 K_1, and K_1 is the identity


def test_compose_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        css_compose(P([0, 0, 0, 0, 1]), CUBE, 3)


def test_compose_multi_examples():
    assert css_compose_multi([CUBE] * 4, 3) == CUBE
    assert css_compose_multi([K0_3, CUBE, SQ], 3) == P([0, F(2, 3), F(2, 3)])
    assert css_compose_multi([P([0, 1, 1])], 2) == P([0, 1, 1])
    with pytest.raises(ValueError):
        css_compose_multi([], 3)


def test_composition_factor():
    assert composition_factor(1, 3) == CUBE
    assert composition_factor(0, 3) == K0_3
    a = F(5, 7)
    assert composition_factor(a, 3) == P([a, 2 * a + 1, a + 2, 1])
    assert composition_factor(INFINITY, 5) == P.binomial_power(4)
    with pytest.raises(ValueError):
        composition_factor(1, 1)


def test_build_phi_3_closed_form():
    phi = build_phi(3)
    assert to_rows(phi.linear) == [[F(3, 2), F(-1, 2)], [F(0), F(1)]]
    assert phi.offset == (F(-1, 2), F(0))
    assert phi.apply((F(2), F(1))) == (F(2), F(1))   # (x+1)^2 is fixed
    assert phi.apply((F(1), F(0))) == (F(1), F(0))   # x(x+1) is fixed too


def _phi_by_probing(n):
    """Phi_n built the other way: sigma at c = 0 and at each basis vector of
    c-space, from the j = 0 identity and a Newton interpolant of identities
    j = 1..n-2 in the nodes t_j = (n-j)/j."""
    def sigma(c):
        p = (P([1, 1]) * P([*reversed(c), 1])).coeffs
        points = []
        for j in range(1, n - 1):
            t = F(n - j, j)
            scale = F(binomial(n - 1, j - 1)) ** (n - 1)
            r = (p[j] * F(binomial(n, j)) ** (n - 2) - scale) / scale - t ** (n - 1) * p[0]
            points.append((t, r / t))
        inner = newton_interpolate(points)
        return [inner.coeff(i) for i in range(n - 2)] + [p[0]]

    b = sigma([0] * (n - 1))
    cols = [sigma([int(i == k) for i in range(n - 1)]) for k in range(n - 1)]
    return [[cols[k][r] - b[r] for k in range(n - 1)] for r in range(n - 1)], tuple(b)


def test_build_phi_matches_probe_and_interpolate():
    for n in range(3, 18):
        rows, offset = _phi_by_probing(n)
        assert to_rows(build_phi(n).linear) == rows
        assert build_phi(n).offset == offset


def _phi_by_elimination(n):
    """Phi_n by one fraction-free elimination of the coefficient identities
    j = 0..n-2, written as integer rows [sigma_1..sigma_{n-1} | c_1..c_{n-1} | 1]."""
    rows = []
    for j in range(n - 1):
        a, b, s = binomial(n - 1, j - 1), binomial(n - 1, j), binomial(n, j) ** (n - 2)
        row = [a ** (n - 1 - nu) * b ** nu for nu in range(1, n)] + [0] * (n - 1) + [-a ** (n - 1)]
        row[2 * n - 3 - j] = s  # p_j = c_{n-1-j} + c_{n-j}, with c_n = 0
        if j:
            row[2 * n - 2 - j] = s
        rows.append(_primitive(row))
    m, piv_cols, d, _ = _rref(rows)
    assert piv_cols == list(range(n - 1))
    # rows / d is the reduced [I | A | b]
    linear = RationalMatrix(n - 1, n - 1, [x for r in m for x in r[n - 1:2 * n - 2]], d)
    return linear, tuple(F(r[2 * n - 2], d) for r in m)


def test_build_phi_matches_elimination():
    for n in range(3, 25):
        linear, offset = _phi_by_elimination(n)
        assert build_phi(n).linear == linear
        assert build_phi(n).offset == offset


def matvec(matrix, v):
    """matrix v, summed in Fractions from to_rows(matrix): an oracle that does not
    read the matrix's integer storage."""
    return tuple(sum((a * F(x) for a, x in zip(row, v)), F(0)) for row in to_rows(matrix))


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                min_size=2, max_size=9))
def test_apply_matches_the_fraction_matvec(c):
    phi = build_phi(len(c) + 1)
    assert phi.apply(c) == tuple(v + o for v, o in zip(matvec(phi.linear, c), phi.offset))
    with pytest.raises(ValueError):
        phi.apply(c + [1])


def test_build_phi_requires_n_3():
    with pytest.raises(ValueError):
        build_phi(2)


def test_build_phi_rejects_identities_that_leave_sigma_free(monkeypatch):
    real = css._lagrange_basis
    # at n = 5 the nodes are 4, 3/2, 2/3: give row 1 the node of row 2
    monkeypatch.setattr(css, "_lagrange_basis", lambda nodes: real([nodes[1]] + nodes[1:]))
    build_phi.cache_clear()
    with pytest.raises(TheoremViolation, match=r"^identities j = 0\.\.n-2 do not determine sigma$"):
        build_phi(5)


def test_build_phi_checks_the_closed_form_of_each_basis_value(monkeypatch):
    real = exactpoly.horner
    monkeypatch.setattr(exactpoly, "horner", lambda c, x: real(c, x) + 1)
    build_phi.cache_clear()
    with pytest.raises(AssertionError, match=r"^q_1\(t_1\) differs from its closed form$"):
        build_phi(5)


def test_factor_symmetric_functions_examples():
    assert factor_symmetric_functions(P([0, 1, 2, 1]), 3) == (F(1), F(0))
    assert factor_symmetric_functions(CUBE, 3) == (F(2), F(1))
    with pytest.raises(NotInDomainError):
        factor_symmetric_functions(P([-1, 0, 0, 1]), 3)  # x^3 - 1 does not vanish at -1
    with pytest.raises(NotInDomainError):
        factor_symmetric_functions(P([0, 0, 0, 2]), 3)  # not monic
    # x^3 + 1 vanishes at -1, so it is factorable: cofactor x^2 - x + 1
    assert factor_symmetric_functions(P([1, 0, 0, 1]), 3) == (F(-5, 2), F(1))


def test_factor_symmetric_functions_checks_every_identity(monkeypatch):
    real = css.build_phi

    def perturbed(n):
        phi = real(n)
        return css.AffineMapQ(phi.linear, (phi.offset[0] + 1,) + phi.offset[1:])

    monkeypatch.setattr(css, "build_phi", perturbed)
    with pytest.raises(TheoremViolation, match="coefficient identity failed at j=1"):
        factor_symmetric_functions(CUBE, 3)


def test_linear_part_spectrum_small_n():
    for n in range(3, 7):
        phi = build_phi(n)
        for lam in eigenvalues_closed_form(n):
            shifted = phi.linear.shifted(lam)
            assert shifted.determinant() == 0
            assert len(kernel(shifted)) == 1


def test_binomial_direction_fixed_by_linear_part():
    # the direction of (x+1)^{n-2} lies in ker(A - I)
    for n in range(3, 9):
        phi = build_phi(n)
        d = [F(binomialish) for binomialish in _binomial_row(n - 2)]
        image = matvec(phi.linear, d)
        assert image == tuple(d)


def _binomial_row(k):
    from schur_szego.exactpoly import binomial
    # c-space direction of (x+1)^k: coefficient of x^{k+1-i} for i = 1..k+1
    return [binomial(k, k + 1 - i) for i in range(1, k + 2)]


@given(st.lists(fractions, min_size=4, max_size=4),
       st.lists(fractions, min_size=4, max_size=4))
def test_compose_commutative(a, b):
    p, q = P(a), P(b)
    assert css_compose(p, q, 3) == css_compose(q, p, 3)


@given(st.lists(fractions, min_size=4, max_size=4),
       st.lists(fractions, min_size=4, max_size=4),
       st.lists(fractions, min_size=4, max_size=4))
def test_compose_associative(a, b, c):
    p, q, r = P(a), P(b), P(c)
    left = css_compose(css_compose(p, q, 3), r, 3)
    right = css_compose(p, css_compose(q, r, 3), 3)
    assert left == right
    assert css_compose_multi([p, q, r], 3) == left


@given(st.lists(fractions, min_size=1, max_size=5))
def test_compose_identity_element(a):
    p = P(a)
    m = 4
    ident = P.binomial_power(m)
    assert css_compose(p, ident, m) == p
    assert css_compose(ident, p, m) == p


def _random_params(count, seed):
    rng = random.Random(seed)
    return [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count)]


# n = 60: factor_symmetric_functions checks all n + 1 coefficient identities
@example(_random_params(59, 60))
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                min_size=3, max_size=4))
def test_factorization_round_trip(params):
    n = len(params) + 1
    composed = css_compose_multi([composition_factor(a, n) for a in params], n)
    sigma = factor_symmetric_functions(composed, n)
    e = [F(1)] + [F(0)] * (n - 1)
    for a in params:
        for i in range(n - 1, 0, -1):
            e[i] += F(a) * e[i - 1]
    assert sigma == tuple(e[1:])

