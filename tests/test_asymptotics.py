import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_szego import asymptotics, roots
from schur_szego.asymptotics import (
    BranchCutError,
    PoleError,
    RatioPoleError,
    RecurrenceSpec,
    cdf_kappa,
    characteristic_roots,
    constant_recurrence,
    density_rho,
    empirical_cdf,
    equimodular_check,
    fibonacci_recurrence,
    ks_distance,
    limit_recurrence_roots,
    narayana_recurrence,
    narayana_root_sample,
    plemelj_density,
    poincare_ratio,
    psi_n,
    theta_limit,
    theta_n,
)
from schur_szego.exactpoly import RationalPoly, _fold, horner
from schur_szego.narayana import catalan, narayana_poly_direct
from schur_szego.roots import SIGN_CHANGES, STURM, roots_float

P = RationalPoly


def psi_limit(w):
    """Psi(w) = (sqrt(w) + 1)^2, principal branch: the limit of psi_n off the cut."""
    return (cmath.sqrt(w) + 1) ** 2


def _binary64_quotient(num, den, x, scale=1):
    """num(x) / (scale * den(x)) by exactpoly.horner on the coefficients of
    num and den, each rounded once to binary64."""
    x = complex(x)
    return (horner([float(c) for c in num.coeffs], x)
            / (scale * horner([float(c) for c in den.coeffs], x)))


def test_density_and_cdf_closed_forms():
    assert density_rho(-1.0) == pytest.approx(1 / (2 * math.pi), rel=1e-15)
    assert density_rho(-4.0) == pytest.approx(1 / (10 * math.pi), rel=1e-15)
    assert cdf_kappa(-1.0) == pytest.approx(0.5, rel=1e-15)
    assert cdf_kappa(0.0) == 1.0
    assert cdf_kappa(-1e20) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        density_rho(0.0)
    with pytest.raises(ValueError):
        cdf_kappa(0.5)


def test_density_functional_equation():
    for i in range(100):
        x = -(10 ** (-2 + 4 * i / 99))
        assert x * x * density_rho(x) == pytest.approx(density_rho(1 / x), rel=1e-12)


def test_density_normalization():
    # trapezoid integral over a log grid of [-1e4, -1e-4]
    pts = [-(10 ** (-4 + 8 * i / 4000)) for i in range(4001)]
    pts.sort()
    total = sum((density_rho(a) + density_rho(b)) / 2 * (b - a)
                for a, b in zip(pts, pts[1:]))
    assert 0.97 <= total <= 1.0
    assert cdf_kappa(0.0) - cdf_kappa(-1e12) == pytest.approx(1.0, abs=1e-5)


def test_step_cdf_and_ks():
    cdf = empirical_cdf([-3.0, -1.0, -0.25, 0.0])
    assert cdf(-5.0) == 0.0
    assert cdf(-1.0) == 0.5           # right continuous at a jump
    assert cdf(0.0) == 1.0
    ks = ks_distance(cdf)
    assert 0.0 < ks < 1.0
    with pytest.raises(ValueError):
        empirical_cdf([])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30))
def test_step_cdf_counts_points_at_or_below(points):
    cdf = empirical_cdf(points)
    xs = sorted(points)
    probes = [xs[0] - 1.0, xs[-1] + 1.0, *xs, *((a + b) / 2 for a, b in zip(xs, xs[1:]))]
    for x in probes:
        assert cdf(x) == sum(p <= x for p in points) / len(points)


def test_ks_against_exact_quantiles():
    # sample placed exactly at kappa quantiles i/n: KS = 1/n at the jumps
    n = 8
    xs = [-math.tan(math.pi / 2 * (1 - i / n)) ** 2 for i in range(1, n + 1)]
    ks = ks_distance(empirical_cdf(xs))
    assert ks == pytest.approx(1 / n, abs=1e-12)


def test_psi_n_exact_catalan_ratio():
    for n in (1, 7, 33, 60):
        assert psi_n(n, F(1)) == F(2 * (2 * n + 1), n + 2)
        assert psi_n(n, F(1)) == F(catalan(n + 1), catalan(n))


def test_psi_pole():
    with pytest.raises(PoleError):
        psi_n(2, F(-1))  # N_2(-1) = 0


def test_psi_limit_values():
    assert psi_limit(1.0) == pytest.approx(4.0, rel=1e-15)
    z = psi_limit(complex(0.3, 1.2))
    w = complex(0.3, 1.2)
    assert z == pytest.approx(w + 1 + 2 * cmath.sqrt(w), rel=1e-15)
    with pytest.raises(BranchCutError):
        theta_limit(-2.0)
    with pytest.raises(BranchCutError):
        theta_limit(0.0)


def test_psi_vieta_branch_consistency():
    for w in (complex(2, 1), complex(-1, 3), complex(0.1, -0.7), complex(5, 0.01)):
        other = w + 1 - 2 * cmath.sqrt(w)
        prod = psi_limit(w) * other
        assert prod == pytest.approx((w - 1) ** 2, rel=1e-12)


def test_theta_values_and_convergence():
    assert theta_limit(1.0) == pytest.approx(0.5, rel=1e-15)
    e20 = abs(theta_n(20, F(1)) - F(1, 2))
    e60 = abs(theta_n(60, F(1)) - F(1, 2))
    assert e60 < e20
    assert float(e60) < 1e-2


def test_theta_is_log_derivative_of_psi():
    h = 1e-6
    for w in (2.0, 0.5, complex(1.0, 2.0), complex(-0.5, 1.5)):
        dpsi = (psi_limit(w + h) - psi_limit(w - h)) / (2 * h)
        assert dpsi / psi_limit(w) == pytest.approx(theta_limit(w), abs=1e-6)


def test_quotient_bounded_off_cut():
    # |N_n(x)/N_{n+1}(x)| <= 1 / dist(x, R_{<=0})
    points = [complex(1.5, 2.0), complex(-3.0, 0.7), complex(0.25, -0.1),
              complex(4.0, -2.5), complex(-0.5, 0.01)]
    for n in (5, 20, 60):
        for w in points:
            nu = abs(w.imag) if w.real <= 0 else abs(w)
            assert abs(1.0 / psi_n(n, w)) <= 1.0 / nu + 1e-12


@given(st.floats(min_value=-5, max_value=5, allow_nan=False),
       st.floats(min_value=0.05, max_value=5, allow_nan=False),
       st.integers(min_value=2, max_value=40))
def test_quotient_bound_property(re, im, n):
    w = complex(re, im)
    nu = abs(w.imag) if w.real <= 0 else abs(w)
    assert abs(1.0 / psi_n(n, w)) <= 1.0 / nu + 1e-9


def test_characteristic_roots():
    assert characteristic_roots([0, -4, 1]) == [0, 4]  # the limit equation at x=1
    # every recurrence spec has order 2, so only monic quadratics are accepted
    for coeffs in ([-6, 11, -6, 1], [-3, 1], [1, 2, 3]):
        with pytest.raises(ValueError, match="monic of degree 2"):
            characteristic_roots(coeffs)


def test_limit_recurrence_and_equimodular():
    roots1 = limit_recurrence_roots(1.0)
    assert sorted(abs(r) for r in roots1) == pytest.approx([0.0, 4.0], abs=1e-12)
    assert equimodular_check(-1.0)       # roots +-2i
    assert not equimodular_check(1.0)
    assert equimodular_check(-0.37)      # the whole cut is equimodular
    assert not equimodular_check(complex(0.2, 0.9))


def test_equimodular_exact_at_rational_input():
    # roots 1 and 1 + 10^-13 differ in modulus, though by less than a
    # relative 1e-12: the exact test does not call them equimodular
    l1, l2 = F(1), 1 + F(1, 10**13)
    spec = constant_recurrence([l1 * l2, -(l1 + l2), F(1)], [F(2), l1 + l2])
    assert not poincare_ratio(spec, 20).no_limit_claim
    # +-3 (b = 0, c = -9) and the double root of (z - 2)^2 share a modulus
    for char in ([F(-9), F(0), F(1)], [F(4), F(-4), F(1)]):
        res = poincare_ratio(constant_recurrence(char, [F(1), F(1)]), 20)
        assert res.no_limit_claim and res.limit is None
    # discriminant 16x: equimodular exactly on x <= 0, the support of rho
    assert equimodular_check(F(-1, 3))
    assert not equimodular_check(F(1, 3))
    assert all(equimodular_check(F(k, 4)) == (k <= 0) for k in range(-12, 13))
    assert equimodular_check(1e-20) and not equimodular_check(F(1, 10**20))


def test_quotients_at_a_float_point_are_complex():
    n1, n7, n8 = (narayana_poly_direct(n) for n in (1, 7, 8))
    for value, reference in (
            (psi_n(7, 2.5), _binary64_quotient(n8, n7, 2.5)),
            (theta_n(7, -0.5), _binary64_quotient(n7.derivative(), n7, -0.5, 7)),
            (theta_n(1, 2.0), _binary64_quotient(n1.derivative(), n1, 2.0)),  # N_1' is constant
            (theta_n(7, 2.5), _binary64_quotient(n7.derivative(), n7, 2.5, 7)),
            (theta_n(7, -3.0), _binary64_quotient(n7.derivative(), n7, -3.0, 7))):
        assert type(value) is complex
        assert value == reference
    with pytest.raises(PoleError):
        theta_n(2, -1.0)  # N_2(-1) = 0


def test_cauchy_transform_is_theta():
    for n in (4, 9):
        poly = narayana_poly_direct(n)
        for x in (F(2), F(-3), F(1, 2)):
            assert theta_n(n, x) == poly.derivative()(x) / (n * poly(x))


def test_float_quotients_keyed_by_n():
    # the binary64 path agrees bit for bit with Horner on the once-rounded
    # coefficients, and a repeated call is a cache hit on the integer n, not
    # a rebuild of N_n
    asymptotics._float_coeffs.cache_clear()
    for n in (4, 9, 60):
        p, q = narayana_poly_direct(n), narayana_poly_direct(n + 1)
        for x in (2.0 + 0j, complex(-3, 1e-3), 0.5 + 2j):
            assert theta_n(n, x) == _binary64_quotient(p.derivative(), p, x, n)
            # reads N_{n+1} and N_n from the same cache
            assert psi_n(n, x) == _binary64_quotient(q, p, x)
    info = asymptotics._float_coeffs.cache_info()
    assert info.currsize == 6 and info.misses == 6


def test_plemelj_density():
    assert plemelj_density(-1.0, 1e-6) == pytest.approx(1 / (2 * math.pi), abs=1e-4)
    assert plemelj_density(-4.0, 1e-6) == pytest.approx(density_rho(-4.0), abs=1e-6)
    # self-reciprocity symmetry through the boundary values
    lhs = 4.0 * plemelj_density(-2.0, 1e-6)
    assert lhs == pytest.approx(plemelj_density(-0.5, 1e-6), abs=1e-8)
    with pytest.raises(ValueError):
        plemelj_density(1.0, 1e-6)


def test_narayana_root_sample_cached():
    roots = narayana_root_sample(20)
    assert roots.path == SIGN_CHANGES
    assert narayana_root_sample(20) is roots
    assert len(roots) == 20
    assert roots[-1] == pytest.approx(0.0, abs=1e-10)
    assert all(a <= b for a, b in zip(roots, roots[1:]))
    ks = ks_distance(empirical_cdf(roots))
    assert ks < 0.2


def test_narayana_root_sample_matches_sturm():
    # the sign-change route against Sturm isolation: both are midpoints of
    # certified brackets of width <= 2^-40 around the same roots
    for n in [*range(2, 41), 100, 200]:
        sample = narayana_root_sample(n)
        reference = roots_float(narayana_poly_direct(n))
        assert sample.path == SIGN_CHANGES
        assert len(sample) == len(reference) == n
        for got, ref in zip(sample, reference):
            assert abs(F(got) - F(ref)) <= F(1, 2**40) + abs(F(ref)) / 2**52


def test_narayana_root_sample_falls_back_to_sturm(monkeypatch, cold_root_sample):
    # degree 30 with 0 and 27 other real roots plus the pair of x^2 + x + 1:
    # no 30 sign changes exist, so the certificate must fail
    fake = narayana_poly_direct(28) * P([1, 1, 1])
    monkeypatch.setattr(asymptotics, "narayana_poly_direct",
                        lambda n: fake if n == 30 else narayana_poly_direct(n))
    sample = narayana_root_sample(30)
    assert sample.path == STURM
    assert sample == tuple(roots_float(fake))
    assert len(sample) == 28


def test_lobatto_proposals_are_one_per_root_of_the_fold():
    for n in [*range(1, 41), 100, 200]:
        proposals = asymptotics._lobatto_proposals(n)
        assert len(proposals) == (n - 1) // 2 and all(w < 0 for w in proposals)


def _fold_over_x(p):
    """The fold in w = x + 2 + 1/x of p / x (p(0) = 0), integer coefficients."""
    return _fold(roots._int_poly(p.exact_divide(P.x())))


def _assert_falls_back(monkeypatch, n, fake):
    """narayana_root_sample(n), with `fake` read as N_n, takes the Sturm fallback."""
    monkeypatch.setattr(asymptotics, "narayana_poly_direct",
                        lambda m: fake if m == n else narayana_poly_direct(m))
    sample = narayana_root_sample(n)
    assert sample.path == STURM
    assert sample == tuple(roots_float(fake))


def test_a_fold_root_at_w_one_falls_back(monkeypatch, cold_root_sample):
    # x^2 + x + 1 = x (w - 1): the fold of N_29 (x^2 + x + 1) is S_29 (w - 1), and
    # w = 1 is the complex pair; certify_roots accepts the fold's true roots, so only
    # the requirement that every bracket lies below w = 0 rejects them
    fake = narayana_poly_direct(29) * P([1, 1, 1])
    s = P(_fold_over_x(fake))
    proposals = roots_float(s)
    assert proposals[-1] == 1.0 and roots.certify_roots(s, proposals) is not None
    monkeypatch.setattr(asymptotics, "_lobatto_proposals", lambda n: proposals)
    _assert_falls_back(monkeypatch, 31, fake)


@pytest.mark.parametrize("j", [0, 3, 14])
def test_a_wrong_fold_falls_back(monkeypatch, cold_root_sample, j):
    # one Clenshaw coefficient of S_30 off by one; off at j = 3 the fold's roots move
    # less than their brackets, so only the identity at x = 1 rejects it
    fold = asymptotics._fold

    def off(c):
        s = fold(c)
        s[j] += 1
        return s

    monkeypatch.setattr(asymptotics, "_fold", off)
    _assert_falls_back(monkeypatch, 30, narayana_poly_direct(30))


def test_proposals_short_by_one_fall_back(monkeypatch, cold_root_sample):
    proposals = asymptotics._lobatto_proposals
    monkeypatch.setattr(asymptotics, "_lobatto_proposals", lambda n: proposals(n)[:-1])
    _assert_falls_back(monkeypatch, 30, narayana_poly_direct(30))


def test_a_nonzero_constant_term_falls_back(monkeypatch, cold_root_sample):
    # N_30 + 1 has N_30's higher coefficients, whose fold certifies N_30's roots
    fake = narayana_poly_direct(30) + P([1])
    s = _fold(roots._int_poly(P(fake.coeffs[1:])))
    assert roots.certify_roots(P(s), asymptotics._lobatto_proposals(30)) is not None
    _assert_falls_back(monkeypatch, 30, fake)


def test_poincare_fibonacci():
    res = poincare_ratio(fibonacci_recurrence(), 50)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(res.limit) - phi) < 1e-10
    assert abs(complex(res.classified_root) - phi) < 1e-9
    assert not res.no_limit_claim
    assert len(res.values) == 51
    assert res.values[10] == 89  # Fibonacci numbers, exact


def test_poincare_narayana_x2():
    res = poincare_ratio(narayana_recurrence(F(2)), 60)
    target = 3 + 2 * math.sqrt(2)
    assert abs(float(res.limit) - target) < 1e-3
    assert abs(complex(res.classified_root) - target) < 1e-9
    assert abs(float(res.raw_last_ratio) - target) > 0.1  # raw ratio is O(1/t) away


@pytest.mark.parametrize("x", [complex(0.2, 0.9), 2.0, complex(3, -1)])
def test_poincare_narayana_binary64(x):
    # off the cut the binary64 spec converges to the larger-modulus limit root
    res = poincare_ratio(narayana_recurrence(x), 60)
    larger = max(limit_recurrence_roots(x), key=abs)
    assert abs(res.limit - larger) < 1e-5
    assert res.classified_root == larger


def test_poincare_narayana_equimodular():
    res = poincare_ratio(narayana_recurrence(F(-1)), 60)
    assert res.no_limit_claim
    assert res.limit is None
    assert any(r is None for r in res.ratios)  # N_{even}(-1) = 0 along the way
    assert sorted(abs(r) for r in res.characteristic) == pytest.approx([2, 2], abs=1e-12)


def test_poincare_ratio_pole():
    spec = constant_recurrence([F(-6), F(-1), F(1)], [F(0), F(3)])  # f(0) = 0
    with pytest.raises(RatioPoleError):
        poincare_ratio(spec, 30)


def test_poincare_cp_selection_exact():
    # C_1 = 0: the ratio equals the subdominant root exactly, forever
    l1, l2 = F(3), F(1, 2)
    spec = constant_recurrence([l1 * l2, -(l1 + l2), F(1)], [F(2), F(2) * l2])
    res = poincare_ratio(spec, 40)
    assert res.limit == l2
    assert all(r == l2 for r in res.ratios)


def test_recurrence_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec((lambda t: 1,), (1, 1), (1, 1))
    with pytest.raises(ValueError, match="not all be zero"):
        RecurrenceSpec((lambda t: 1, lambda t: 1), (1, 1), (0, 0))
    with pytest.raises(ValueError, match="order must be 2"):  # order 1
        RecurrenceSpec((lambda t: 1,), (1,), (1,))
    with pytest.raises(ValueError):  # order 3: rejected when built
        constant_recurrence([F(-6), F(11), F(-6), F(1)], [F(1), F(2), F(3)])
    with pytest.raises(ValueError):
        poincare_ratio(fibonacci_recurrence(), 1)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=5))
def test_poincare_dominant_root_property(a, c1):
    # f(t+2) = (a + 1/2) f(t+1) - (a/2) f(t): roots a and 1/2, dominant a
    l1, l2 = F(a), F(1, 2)
    spec = constant_recurrence([l1 * l2, -(l1 + l2), F(1)],
                               [F(c1) + 1, F(c1) * l1 + l2])
    res = poincare_ratio(spec, 50)
    assert abs(complex(res.classified_root) - complex(l1)) < 1e-9
