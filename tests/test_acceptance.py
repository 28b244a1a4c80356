"""Acceptance suite: one test per criterion, at the stated scale and
tolerance, printing a pass/fail line each (visible with pytest -s/-rA)."""

import pytest

from schur_szego import acceptance, narayana
from schur_szego.exactpoly import RationalPoly as P


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}  "
          f"({result.seconds:.1f}s)  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_triangle_exactness():
    _report(acceptance.check_triangle())


def test_criterion_2_recurrence_consistency():
    _report(acceptance.check_recurrence())


def test_criterion_3_spectrum():
    _report(acceptance.check_spectrum())


def test_criterion_4_q_structure():
    _report(acceptance.check_q_structure())


def test_criterion_5_limit_polynomials():
    _report(acceptance.check_limit_polynomials())


def test_criterion_6_hyperbolicity_interlacing():
    _report(acceptance.check_hyperbolic_interlacing(100))


def test_criterion_7_fig1_ks():
    _report(acceptance.check_ks())


def test_criterion_8_analytic_identities():
    _report(acceptance.check_analytic_identities())


def test_criterion_9_quotient_limits():
    _report(acceptance.check_quotient_limits())


def test_criterion_10_poincare_engine():
    _report(acceptance.check_poincare(seed=0))


@pytest.mark.parametrize("fake_n6", [
    P([0, 1]) * P([1, 1, 1]) * P.binomial_power(3),                          # complex pair
    P([0, 1]) * P([-1, 1]) * P([1, 1]) * P([2, 1]) * P([3, 1]) * P([4, 1]),  # positive root
    P([0, 1]) * P.binomial_power(2) * P([2, 1]) * P([3, 1]) * P([4, 1]),     # double root
])
def test_hyperbolicity_check_negative_controls(monkeypatch, fake_n6):
    real = narayana.narayana_poly_direct
    monkeypatch.setattr(narayana, "narayana_poly_direct",
                        lambda n: fake_n6 if n == 6 else real(n))
    result = acceptance.check_hyperbolic_interlacing(8)
    assert not result.passed
    assert "N_6" in result.detail
