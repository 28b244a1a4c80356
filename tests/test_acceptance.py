"""Acceptance suite: one test per criterion, at the stated scale and
tolerance, printing a pass/fail line each (visible with pytest -s/-rA)."""

import dataclasses
import math
from fractions import Fraction as F

import pytest

from schur_szego import acceptance, asymptotics, css, narayana, spectra
from schur_szego.exactpoly import RationalPoly as P
from schur_szego.exactpoly import TheoremViolation


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
    narayana.narayana_poly_direct(5) * P([1, 1]),                             # shares N_5's roots
    P([0, 1]) * P([1, 1]) * P([2, 1]) * P([3, 1]) * P([4, 1]) * P([5, 1]),   # not interlaced
    narayana.narayana_poly_direct(5) * P([1, 1]) * P([2, 1]),                 # degree 7
])
def test_hyperbolicity_check_negative_controls(monkeypatch, fake_n6):
    real = narayana.narayana_poly_direct
    monkeypatch.setattr(narayana, "narayana_poly_direct",
                        lambda n: fake_n6 if n == 6 else real(n))
    result = acceptance.check_hyperbolic_interlacing(8)
    assert not result.passed
    assert "N_6" in result.detail


def test_hyperbolicity_check_rejects_a_nonzero_constant_term(monkeypatch):
    real = narayana.narayana_poly_direct
    monkeypatch.setattr(narayana, "narayana_poly_direct",
                        lambda n: real(n) + P([1]) if n == 5 else real(n))
    result = acceptance.check_hyperbolic_interlacing(8)
    assert result.status == "fail"
    assert result.detail == "0 not a simple root of N_5"


@pytest.mark.parametrize("max_n", [2, 3, 8])
def test_hyperbolicity_check_builds_one_remainder_sequence_per_n(remainder_sequence_builds,
                                                                  max_n):
    """One Cauchy index per n >= 3 certifies criterion 6, and nothing else
    builds a remainder sequence."""
    assert acceptance.check_hyperbolic_interlacing(max_n).passed
    assert len(remainder_sequence_builds) == max_n - 2


def _off_by_one_at_37(rows):
    for n, row in rows:
        yield n, (row[:3] + (row[3] + 1,) + row[4:]) if n == 37 else row


def _without_row_37(rows):
    return ((n, row) for n, row in rows if n != 37)


@pytest.mark.parametrize("corrupt, tail", [
    (_off_by_one_at_37, "direct != recurrence at n=37"),
    (_without_row_37, "direct != recurrence at n=38"),
    (lambda rows: (r for r in rows if r[0] < 60), "recurrence yielded 59 rows, not 60"),
], ids=["off-by-one", "dropped", "truncated"])
def test_recurrence_check_negative_controls(monkeypatch, corrupt, tail):
    real = narayana.narayana_rows
    monkeypatch.setattr(narayana, "narayana_rows", lambda max_n: corrupt(real(max_n)))
    result = acceptance.check_recurrence()
    assert not result.passed
    assert result.detail.endswith(tail)


def _valley_automaton(max_n):
    """The Dyck path automaton with a valley (a down step followed by an up
    step) counted where the real one counts a peak."""
    zero = [0] * (max_n + 1)
    after_up, after_down = {0: [1] + zero[1:]}, {}  # the empty path ends no valley
    for step in range(1, 2 * max_n + 1):
        ups, downs = {}, {}
        for h in range(step % 2, step + 1, 2):
            valley = after_down.get(h - 1, zero)
            ups[h] = [a + b for a, b in zip(after_up.get(h - 1, zero), [0] + valley[:-1])]
            downs[h] = [a + b for a, b in zip(after_up.get(h + 1, zero),
                                              after_down.get(h + 1, zero))]
        after_up, after_down = ups, downs
        if step % 2 == 0:
            yield step // 2, tuple(after_down[0][1:step // 2 + 1])


def test_recurrence_check_rejects_a_valley_automaton(monkeypatch):
    monkeypatch.setattr(narayana, "dyck_automaton", _valley_automaton)
    result = acceptance.check_recurrence()
    assert not result.passed
    # a path of semilength n has one valley fewer than peaks: wrong from n = 1
    assert result.detail.endswith("Dyck automaton mismatch at n=1")


def _unclosed_last_peak_histogram(n):
    """_dyck_peak_histogram without its last_up term: the forced final descent
    closes no peak, so every path is counted one peak short. At n = 1 the one
    path lands at index -1, which wraps round to the right entry; at n = 2 the
    two paths swap entries, and N_{2,1} = N_{2,2}. n = 3 is the first to differ."""
    hist = [0] * n

    def walk(ups, height, last_up, peaks):
        if ups == n:
            hist[peaks - 1] += 1
            return
        walk(ups + 1, height + 1, True, peaks)
        if height > 0:
            walk(ups, height - 1, False, peaks + last_up)

    walk(0, 0, False, 0)
    return tuple(hist)


def test_recurrence_check_rejects_a_dyck_oracle_one_peak_short(monkeypatch):
    monkeypatch.setattr(narayana, "_dyck_peak_histogram", _unclosed_last_peak_histogram)
    result = acceptance.check_recurrence()
    assert result.status == "fail"
    assert result.detail.endswith("Dyck oracle mismatch at (n,k)=(3,1)")


def test_spectrum_check_rejects_a_two_dimensional_kernel(monkeypatch, cold_spectrum_report):
    target = css.build_phi(7).linear.shifted(spectra.eigenvalues_closed_form(7)[3])
    real = spectra.kernel

    def kernel(m):
        basis = real(m)
        return basis + [tuple(range(1, m.cols + 1))] if m == target else basis

    monkeypatch.setattr(spectra, "kernel", kernel)
    result = acceptance.check_spectrum()
    assert not result.passed
    assert result.detail.endswith("kernel of A - lambda_(4,7) I has dimension 2")


def test_q_structure_check_rejects_disagreeing_routes(monkeypatch, cold_spectrum_report):
    real = spectra.sigma_system_solve
    monkeypatch.setattr(spectra, "sigma_system_solve",
                        lambda n, j: real(n, j) + P([1]) if (n, j) == (8, 3) else real(n, j))
    result = acceptance.check_q_structure()
    assert not result.passed
    assert result.detail == "triangular and sigma routes disagree at (n,j)=(8,3)"


@pytest.mark.parametrize("j, bad, detail", [
    (2, P([1, 3, 1]), "Q roots not all positive at (n,j)=(5,2)"),
    (4, P([1, F(-5, 2), 1]) * P([1, F(-5, 2), 1]),
     "Q does not have 4 distinct real roots at (7,4)"),
], ids=["negative-roots", "double-roots"])
def test_q_structure_check_negative_controls(monkeypatch, j, bad, detail):
    """Both routes return a Q_j that has the claimed shape (self-reciprocal
    sign, Q(1) != 0 for even j, constant (-1)^j) but negative or double roots."""
    real_report, real_sigma = spectra.spectrum_report, spectra.sigma_system_solve

    def report(n):
        full = real_report(n)
        return dataclasses.replace(full, q_polys=tuple(
            bad if k == j else q for k, q in enumerate(full.q_polys, start=1)))

    monkeypatch.setattr(spectra, "spectrum_report", report)
    monkeypatch.setattr(spectra, "sigma_system_solve",
                        lambda n, k: bad if k == j else real_sigma(n, k))
    result = acceptance.check_q_structure()
    assert not result.passed
    assert result.detail == detail


def test_poincare_check_rejects_a_wrong_discriminant(monkeypatch):
    # c = (x-1)^2 + 1 gives b^2 - 4c = 16x - 4: equimodular on x <= 1/4
    monkeypatch.setattr(asymptotics, "_limit_coefficients",
                        lambda x: ((x - 1) ** 2 + 1, -2 * (x + 1)))
    result = acceptance.check_poincare()
    assert not result.passed
    assert result.detail == "limit discriminant b^2 - 4c = -4 + 16*x, not 16*x"


def _scaled_sample(real):
    return lambda n: asymptotics.RootSample([4 * r for r in real(n)], real(n).path)


@pytest.mark.parametrize("exc, status", [
    (TheoremViolation("claim falsified"), "fail"),
    (TypeError("claim unreadable"), "error"),
], ids=["theorem-violation", "type-error"])
def test_only_a_theorem_violation_fails_a_check(exc, status):
    def check():
        raise exc

    result = acceptance._timed("probe")(check)()
    assert (result.status, result.passed) == (status, False)
    assert result.detail == f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("check, module, name, corrupt, prefix", [
    ("check_spectrum", spectra, "eigenvalues_closed_form",
     lambda real: lambda n: real(n)[:-1] + [real(n)[-1] + F(1, 1000)],
     "TheoremViolation: kernel of A - lambda_(2,3) I has dimension 0"),
    ("check_ks", asymptotics, "narayana_root_sample", _scaled_sample,
     "KS(N_100)=0.216888 > 0.05; KS(N_200)=0.216617 < KS(N_100); "),
    ("check_ks", asymptotics, "narayana_root_sample", lambda real: lambda n: real(100),
     "KS(N_100)=0.012222 <= 0.05; KS(N_200)=0.012222 >= KS(N_100); "),
    ("check_ks", asymptotics, "cdf_kappa",
     lambda real: lambda x: 1.0 - math.atan(math.sqrt(-x)) / math.pi,
     "KS(N_100)=0.506068 > 0.05; KS(N_200)=0.503042 < KS(N_100); "),
    ("check_analytic_identities", asymptotics, "density_rho",
     lambda real: lambda x: 1.0 / (math.pi * (1.0 + x) * math.sqrt(-x)),
     "x^2 rho(x) != rho(1/x)"),
    ("check_quotient_limits", asymptotics, "psi_n",
     lambda real: lambda n, x: real(n + 1, x), "Psi_n(1) identity fails at n=1"),
], ids=["spectrum-eigenvalue", "ks-scaled-roots", "ks-no-decrease", "ks-wrong-kappa",
        "density-sign", "psi-index"])
def test_check_negative_controls(monkeypatch, cold_spectrum_report, check, module, name, corrupt,
                                 prefix):
    """Criteria 3, 7, 8 and 9 fail, and say what failed, on a falsifying input.
    A warm spectrum_report would hide a falsified eigenvalue."""
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    result = getattr(acceptance, check)()
    assert result.passed is False
    assert result.detail.startswith(prefix)
