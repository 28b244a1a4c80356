"""Acceptance suite: one test per criterion, at the stated scale and
tolerance, printing a pass/fail line each (visible with pytest -s/-rA)."""

import dataclasses
import math
from fractions import Fraction as F

import pytest

from schur_szego import acceptance, asymptotics, css, narayana, roots, spectra
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


def _with_n(n, fake):
    """narayana_poly_direct with N_n replaced by fake(the real N_n)."""
    real = narayana.narayana_poly_direct
    return lambda monkeypatch: monkeypatch.setattr(
        narayana, "narayana_poly_direct", lambda m: fake(real(m)) if m == n else real(m))


def _coefficient_plus(k, delta):
    return lambda p: p + P([0] * k + [delta])


def _m_times_unit_circle_pair(n):
    """x * M_{n-2} * (x^2 + x + 1) in place of N_n: palindromic, with two roots on |x| = 1."""
    return lambda p: narayana.narayana_poly_direct(n - 2) * P([1, 1, 1])


def _interlacing_by_full_degree(max_n):
    """The full-degree route to criterion 6, kept as an oracle: for each n, M_n = N_n/x has
    positive coefficients, M_n(-1) = 0 iff n is even, and the Cauchy index of M_{n-1}/M_n
    is deg M_n; the verdict is that of acceptance.check_hyperbolic_interlacing."""
    x = P.x()
    prev = None
    for n in range(2, max_n + 1):
        p = narayana.narayana_poly_direct(n)
        if p.coeff(0) != 0 or p.coeff(1) == 0:
            return False
        over_x = p.exact_divide(x)
        if over_x.degree != n - 1 or any(c <= 0 for c in over_x.coeffs):
            return False
        if (p(F(-1)) == 0) != (n % 2 == 0):
            return False
        if prev is not None and roots.interlace_check(prev, over_x) != roots.STRICT_INTERLACE:
            return False
        prev = over_x
    return True


@pytest.mark.parametrize("n, k, delta", [(7, 2, 1), (8, 3, -1), (33, 5, 1), (40, 39, 2),
                                         (40, 20, 1)])
def test_hyperbolicity_check_fails_on_one_changed_coefficient(monkeypatch, n, k, delta):
    """Off the middle of N_n/x, one changed coefficient breaks its palindromy, or, for n even,
    the exact division by 1 + x: the fold fails, and the check with it."""
    _with_n(n, _coefficient_plus(k, delta))(monkeypatch)
    result = acceptance.check_hyperbolic_interlacing(n)
    assert result.status == "fail"
    assert result.detail == (f"N_{n}(-1) vanishing parity wrong" if n % 2 == 0
                             else f"N_{n}/x is not palindromic")


@pytest.mark.parametrize("n", [7, 8, 40])
def test_hyperbolicity_check_fails_the_descartes_line_on_roots_at_the_unit_circle(
        monkeypatch, n):
    """M_{n-2} (x^2 + x + 1) is palindromic, and its fold gains the factor y + 1 = w - 1."""
    _with_n(n, _m_times_unit_circle_pair(n))(monkeypatch)
    result = acceptance.check_hyperbolic_interlacing(n)
    assert result.status == "fail"
    assert result.detail.startswith(f"N_{n}/x folds to an S(w) with a coefficient <= 0")


_PALINDROMIC_FALSIFIERS = {
    "none": lambda monkeypatch: None,
    "complex-pair": _with_n(6, lambda p: P([0, 1]) * P([1, 1, 1]) * P.binomial_power(3)),
    "shares-n5-roots": _with_n(6, lambda p: narayana.narayana_poly_direct(5) * P([1, 1])),
    "unit-circle-pair": _with_n(7, _m_times_unit_circle_pair(7)),
    # the middle of N_7/x: M_7(-1) = -5, so -4 keeps it hyperbolic and -5 makes -1 a double root
    "middle-plus-one": _with_n(7, _coefficient_plus(4, 1)),
    "middle-minus-four": _with_n(7, _coefficient_plus(4, -4)),
    "middle-minus-five": _with_n(7, _coefficient_plus(4, -5)),
    "middle-of-n31": _with_n(31, _coefficient_plus(16, -narayana.narayana_number(31, 16) // 10)),
}


@pytest.mark.parametrize("falsifier", list(_PALINDROMIC_FALSIFIERS))
@pytest.mark.parametrize("max_n", [2, 3, 9, 40])
def test_folded_check_agrees_with_the_full_degree_route(monkeypatch, falsifier, max_n):
    """On palindromic inputs, where both routes' hypotheses hold, the fold gives the
    verdicts of the full-degree Cauchy index for n <= 40."""
    _PALINDROMIC_FALSIFIERS[falsifier](monkeypatch)
    assert acceptance.check_hyperbolic_interlacing(max_n).passed == \
        _interlacing_by_full_degree(max_n)


def test_folded_check_also_requires_palindromy(monkeypatch):
    """N_7 + x^2 stays hyperbolic and interlaced by N_6, which the full-degree route accepts;
    it is not N_7, and the fold, which needs the palindrome, refuses it."""
    _with_n(7, _coefficient_plus(2, 1))(monkeypatch)
    assert _interlacing_by_full_degree(8)
    assert acceptance.check_hyperbolic_interlacing(8).detail == "N_7/x is not palindromic"


def _recording_interlace_checks(monkeypatch):
    """deg q of every interlace_check(p, q) that criterion 6 makes from now on."""
    degrees = []
    real = roots.interlace_check
    monkeypatch.setattr(roots, "interlace_check", lambda p, q: degrees.append(q.degree) or real(p, q))
    return degrees


def test_odd_n_takes_the_rolle_route(monkeypatch):
    """For n odd, S_{n-1} is the primitive S_n' (lemma (d)): no interlace_check runs there,
    so Rolle's theorem leaves only even n to it, on w*S_n of degree n/2."""
    degrees = _recording_interlace_checks(monkeypatch)
    assert acceptance.check_hyperbolic_interlacing(12).passed
    assert degrees == [n // 2 for n in range(4, 13, 2)]


@pytest.mark.parametrize("n, fake, degrees", [
    # N_7 - 5 (x^3 + x^5) stays palindromic with a positive fold, S_6 is no multiple of
    # S_7' any more, and interlace_check gives the verdict
    (7, lambda p: p + P([0, 0, 0, -5, 0, -5]), [2, 3, 3]),
    # N_7 + 20 x^4 changes only S_7's constant term: still S_6 ~ S_7', so S_7's chain count
    (7, _coefficient_plus(4, 20), [2, 3]),
], ids=["breaks-proportionality", "keeps-proportionality"])
def test_odd_n_fakes_fail_on_either_route(monkeypatch, n, fake, degrees):
    _with_n(n, fake)(monkeypatch)
    checked = _recording_interlace_checks(monkeypatch)
    result = acceptance.check_hyperbolic_interlacing(n)
    assert result.status == "fail"
    assert result.detail == f"N_{n}/x not strictly interlaced by N_{n - 1}/x (fail)"
    assert checked == degrees


def test_interlacing_runs_on_half_degree_folds(monkeypatch):
    """No remainder sequence of criterion 6 at n <= 100 has an operand of more than
    51 coefficients: w*S_100 has 51, and N_100/x would give 100."""
    widths = []
    real = roots._prs

    def recording(a, b):
        widths.append(max(len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(roots, "_prs", recording)
    assert acceptance.check_hyperbolic_interlacing(100).passed
    assert len(widths) == 98 and max(widths) == 51


def test_ks_needs_no_sturm_isolation(monkeypatch, cold_root_sample):
    """Both samples of criterion 7 are certified by signs and reciprocity; a silent
    fallback to isolate_roots would keep the verdict and lose the speed."""
    def must_not_run(p):
        raise AssertionError("Sturm isolation was reached")

    monkeypatch.setattr(asymptotics, "isolate_roots", must_not_run)
    monkeypatch.setattr(roots, "isolate_roots", must_not_run)
    result = acceptance.check_ks()
    assert result.status == "pass"
    assert result.detail.endswith("sign-changes (N_100), sign-changes (N_200)")


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


def _both_routes_return(j, bad):
    """A falsifier: the triangular and the sigma route both return `bad` for Q_j."""
    def falsify(monkeypatch):
        real_report, real_sigma = spectra.spectrum_report, spectra.sigma_system_solve

        def report(n):
            full = real_report(n)
            return dataclasses.replace(full, q_polys=tuple(
                bad if k == j else q for k, q in enumerate(full.q_polys, start=1)))

        monkeypatch.setattr(spectra, "spectrum_report", report)
        monkeypatch.setattr(spectra, "sigma_system_solve",
                            lambda n, k: bad if k == j else real_sigma(n, k))
    return falsify


@pytest.mark.parametrize("j, bad, detail", [
    (2, P([1, 3, 1]), "Q roots not all positive at (n,j)=(5,2)"),
    (4, P([1, F(-5, 2), 1]) * P([1, F(-5, 2), 1]),
     "Q does not have 4 distinct real roots at (7,4)"),
], ids=["negative-roots", "double-roots"])
def test_q_structure_check_negative_controls(monkeypatch, j, bad, detail):
    """Both routes return a Q_j that has the claimed shape (self-reciprocal
    sign, Q(1) != 0 for even j, constant (-1)^j) but negative or double roots."""
    _both_routes_return(j, bad)(monkeypatch)
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


def _patch(module, name, corrupt):
    """A falsifier: module.name replaced by corrupt(the real one)."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, corrupt(getattr(module, name)))


def _negated_roots(real):
    """constant_recurrence with the characteristic roots negated."""
    return lambda char, initial: real([char[0], -char[1], char[2]], initial)


def _classified_as_the_smaller_root(real):
    def poincare_ratio(spec, t_max):
        res = real(spec, t_max)
        return dataclasses.replace(res, classified_root=res.characteristic[0])
    return poincare_ratio


@pytest.mark.parametrize("check, falsify, detail", [
    ("check_recurrence", _patch(narayana, "catalan", lambda real: lambda n: real(n) + (n == 7)),
     "N_n(1) != Cat_n at n=7"),
    ("check_recurrence", _patch(narayana, "dyck_automaton",
                                lambda real: lambda m: (r for r in real(m) if r[0] < 60)),
     "Dyck automaton yielded 59 rows, not 60"),
    ("check_spectrum", _patch(spectra, "eigenvalues_closed_form",
                              lambda real: lambda n: real(n)[::-1]),
     "eigenvalues not distinct increasing at n=3"),
    ("check_spectrum", _patch(spectra, "eigenpolynomial", lambda real: lambda n, j: (
        real(n, j).scale(2) if (n, j) == (9, 4) else real(n, j))),
     "kernel and triangular routes disagree at n=9"),
    ("check_q_structure", _both_routes_return(1, P([1, 1])),
     "self-reciprocal sign wrong at (n,j)=(4,1)"),
    ("check_q_structure", _both_routes_return(2, P([1, -2, 1])),
     "Q(1) vanishing pattern wrong at (n,j)=(5,2)"),
    # x^2 - 1 has Q_1's sign and Q(1) = 0, but one degree too many
    ("check_q_structure", _both_routes_return(1, P([-1, 0, 1])),
     "middle coefficient nonzero at (n,j)=(4,1)"),
    # Q_6 is used only by the decreasing check, not by verify_mjnj
    ("check_limit_polynomials", _patch(spectra, "sigma_system_solve", lambda real: lambda n, j: (
        real(20 if (n, j) == (80, 6) else n, j))),
     "|q_1(n) + j(j+1)/2| not decreasing for j=6"),
    ("check_hyperbolic_interlacing", _patch(narayana, "narayana_poly_direct", lambda real: (
        lambda n: real(n) + P([0, 0, 1]) if n == 6 else real(n))),
     "N_6(-1) vanishing parity wrong"),
    ("check_analytic_identities", _patch(asymptotics, "cdf_kappa",
                                         lambda real: lambda x: real(x) + x),
     "kappa' != rho at x=-0.001"),
    ("check_analytic_identities", _patch(asymptotics, "plemelj_density",
                                         lambda real: lambda x, eps: 0.5),
     "plemelj(-1) = 0.5, expected ~0.159154943"),
    ("check_quotient_limits", _patch(asymptotics, "psi_n",
                                     lambda real: lambda n, x: real(n if x == 1 else 20, x)),
     "Psi_n(2) not improving: 0.397"),
    ("check_quotient_limits", _patch(asymptotics, "theta_n",
                                     lambda real: lambda n, x: real(n, x) + F(1, 10)),
     "|Theta_60(1) - 1/2| = 0.108"),
    ("check_poincare", _patch(asymptotics, "fibonacci_recurrence", lambda real: lambda: (
        asymptotics.constant_recurrence([F(-1), F(-2), F(1)], [F(1), F(1)]))),
     "Fibonacci limit 2.414213"),
    ("check_poincare", _patch(asymptotics, "limit_recurrence_roots",
                              lambda real: lambda x: [r + 1 for r in real(x)]),
     "Narayana x=2 limit 5.828"),
    ("check_poincare", _patch(asymptotics, "poincare_ratio", _classified_as_the_smaller_root),
     "x=2 estimate classified against the wrong root"),
    ("check_poincare", _patch(asymptotics, "equimodular_check", lambda real: lambda x: False),
     "x=-1 should refuse a limit claim (equimodular roots)"),
    ("check_poincare", _patch(asymptotics, "constant_recurrence", _negated_roots),
     "dominant-root selection failed for roots 9/2, -2/3"),
    # C_1 = 1/1000 / (l1 - l2) != 0: the dominant root takes over the C_1 = 0 start
    ("check_poincare", _patch(asymptotics, "constant_recurrence", lambda real: (
        lambda char, initial: real(char, [initial[0], initial[1] + F(1, 1000)]))),
     "C_p selection not exact for root -2/3"),
], ids=["catalan", "automaton-rows", "eigenvalue-order", "kernel-route", "reciprocal-sign",
        "q-at-one", "middle-coefficient", "q1-not-decreasing", "parity-at-minus-one",
        "kappa-derivative", "plemelj", "psi-not-improving", "theta-gap", "fibonacci",
        "narayana-x2-limit", "x2-classification", "x-1-no-limit", "dominant-root",
        "c-p-selection"])
def test_verdict_negative_controls(monkeypatch, check, falsify, detail):
    """Each remaining verdict of the ten checks fails, and says what failed, when
    one falsifier breaks the claim it certifies; the detail starts as given."""
    falsify(monkeypatch)
    result = getattr(acceptance, check)()
    assert result.status == "fail"
    assert result.detail.startswith(detail)
