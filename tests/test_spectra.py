import math
from fractions import Fraction as F

import pytest

from schur_szego import css, spectra
from schur_szego.exactpoly import (RationalMatrix, RationalPoly, TheoremViolation, binomial,
                                   interpolate, solve_linear)
from schur_szego.spectra import (
    eigenvalues_closed_form,
    eigenpolynomial,
    m_transform,
    richardson_limit,
    sigma_system_solve,
    spectrum_report,
    verify_mjnj,
)

from test_exactpoly import to_rows

P = RationalPoly


def test_eigenvalues_examples():
    assert eigenvalues_closed_form(3) == [F(1), F(3, 2)]
    assert eigenvalues_closed_form(4) == [F(1), F(4, 3), F(8, 3)]
    assert eigenvalues_closed_form(5) == [F(1), F(5, 4), F(25, 12), F(125, 24)]
    with pytest.raises(ValueError):
        eigenvalues_closed_form(2)


def test_eigenvalues_increasing_distinct():
    for n in range(3, 15):
        eig = eigenvalues_closed_form(n)
        assert all(a < b for a, b in zip(eig, eig[1:]))


def test_eigenpolynomial_small():
    assert eigenpolynomial(3, 2) == P([0, 1, 1])
    assert eigenpolynomial(3, 1) == P([1, 2, 1])
    for n in range(3, 9):
        assert eigenpolynomial(n, 2) == P.x() * P.binomial_power(n - 2)
        assert eigenpolynomial(n, 1) == P.binomial_power(n - 1)


def test_eigenpolynomials_vanish_at_minus_one():
    for n in range(3, 9):
        for j in range(1, n):
            assert eigenpolynomial(n, j)(F(-1)) == 0


def test_extract_q_structure():
    for n in range(4, 9):
        for j, q in enumerate(spectrum_report(n).q_polys, start=1):
            assert q.degree == j
            assert q.is_monic()
            assert q.coeff(0) == F(-1) ** j
            assert q(F(-1)) != 0
            assert q.self_reciprocal_sign() == (-1) ** j
            assert (q(F(1)) == 0) == (j % 2 == 1)


def test_extract_q_equals_sigma_route():
    # n = 17, 19, 21 at every j is the spectral benchmark's gate
    for n in (*range(4, 9), 17, 19, 21):
        for j, q in enumerate(spectrum_report(n).q_polys, start=1):
            assert q == sigma_system_solve(n, j)


def test_q1_is_x_minus_one():
    for n in (4, 7, 12, 30):
        assert sigma_system_solve(n, 1) == P([-1, 1])


def test_middle_coefficient_vanishes():
    for n in (6, 8, 10):
        for j in range(1, n - 2, 2):  # j odd
            prod = P.binomial_power(n - j - 2) * spectrum_report(n).q_polys[j - 1]
            assert prod.coeff((n - 2) // 2) == 0


def test_spectrum_report_shape():
    rep = spectrum_report(6)
    assert len(rep.eigenvalues) == 5
    assert len(rep.eigenpolys) == 5
    assert len(rep.q_polys) == 3
    assert all(p.degree == 5 and p.is_monic() for p in rep.eigenpolys)


@pytest.mark.parametrize("n", [6, 12])
def test_spectrum_report_makes_no_kernel_call(monkeypatch, cold_spectrum_report, n):
    calls = []
    real = spectra.kernel
    monkeypatch.setattr(spectra, "kernel", lambda m: calls.append(m) or real(m))
    rep = spectrum_report(n)
    assert calls == []
    assert len(rep.eigenpolys) == n - 1
    assert len(rep.q_polys) == n - 3


@pytest.mark.parametrize("n", [6, 12])
def test_spectrum_report_makes_no_division(monkeypatch, cold_spectrum_report, n):
    calls = []
    real = P.divmod
    monkeypatch.setattr(P, "divmod", lambda self, d: calls.append(d) or real(self, d))
    spectrum_report(n)
    assert calls == []


def test_q_polys_divide_their_eigenpolynomials():
    # oracle: the division by x(x+1)^{n-j-2} that spectrum_report no longer makes
    for n in range(4, 19):
        rep = spectrum_report(n)
        for j, q in enumerate(rep.q_polys, start=1):
            assert rep.eigenpolys[j + 1].exact_divide(P.x() * P.binomial_power(n - j - 2)) == q


def test_triangular_route_equals_kernel_route():
    for n in range(3, 19):
        assert spectrum_report(n).eigenpolys == tuple(eigenpolynomial(n, j) for j in range(1, n))


def test_closed_form_b_is_the_similarity_of_a():
    # oracle: the closed-form B is T A T^-1, a similarity spectrum_report never computes;
    # T[i][r] = (-1)^(i-r) C(m-1-r, m-1-i) rewrites a direction vector in powers of (x+1)
    for n in range(3, 19):
        m = n - 1
        t_inv = [[binomial(m - 1 - r, m - 1 - i) for r in range(m)] for i in range(m)]
        t = [[-c if (i - r) % 2 else c for r, c in enumerate(row)] for i, row in enumerate(t_inv)]
        a = to_rows(css.build_phi(n).linear)
        t_a = [[sum(t[i][l] * a[l][r] for l in range(m)) for r in range(m)] for i in range(m)]
        b = [[sum(t_a[i][l] * t_inv[l][r] for l in range(m)) for r in range(m)] for i in range(m)]
        assert [[x * math.factorial(m) for x in row] for row in b] == spectra._closed_form_b(n)
        for r in range(m):
            w = [int(i == r) for i in range(m)]
            assert spectra._taylor_shift(w) == [row[r] for row in t_inv]


def _below_diagonal_perturbed(real):
    def build_phi(n):
        phi = real(n)
        rows = to_rows(phi.linear)
        rows[-1][0] += 1
        return css.AffineMapQ(RationalMatrix.from_rows(rows), phi.offset)
    return build_phi


def _taylor_shift_entry_perturbed(real):
    def taylor_shift(w):
        out = real(w)
        if len(out) == 6:  # T^-1[3][1] = C(4, 2) + 1 at n = 7
            out[3] += w[1]
        return out
    return taylor_shift


def _stirling_entry_perturbed(real):
    def closed_form_b(n):
        b = real(n)
        b[1][3] += 1  # B[1][3] + 1/(n-1)!
        return b
    return closed_form_b


@pytest.mark.parametrize("module, name, corrupt, match", [
    (css, "build_phi", _below_diagonal_perturbed,
     r"^eigenvector 1 proposed by the closed-form B fails A v = lambda_\(1,7\) v$"),
    (spectra, "eigenvalues_closed_form",
     lambda real: lambda n: real(n)[:-1] + [real(n)[-1] + F(1, 1000)],
     r"^eigenvector 6 proposed by the closed-form B fails A v = lambda_\(6,7\) v$"),
    (spectra, "_taylor_shift", _taylor_shift_entry_perturbed,
     r"^eigenvector 2 proposed by the closed-form B fails A v = lambda_\(2,7\) v$"),
    (spectra, "_closed_form_b", _stirling_entry_perturbed,
     r"^eigenvector 4 proposed by the closed-form B fails A v = lambda_\(4,7\) v$"),
    (spectra, "eigenvalues_closed_form", lambda real: lambda n: real(n)[:-1] + [real(n)[-2]],
     r"^closed-form spectrum has a repeated entry at n=7$"),
], ids=["below-diagonal-entry", "shifted-eigenvalue", "taylor-shift-entry", "stirling-entry",
        "repeated-eigenvalue"])
def test_triangular_certificate_negative_controls(monkeypatch, cold_spectrum_report, module, name,
                                                  corrupt, match):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    with pytest.raises(TheoremViolation, match=match):
        spectrum_report(7)


def _with(w, i, value):
    return w[:i] + [value] + w[i + 1:]


@pytest.mark.parametrize("corrupt, match", [
    (lambda w: _with(w, 1, w[1] + 1), r"^x does not divide the eigenpolynomial for lambda_\(4,7"),
    (lambda w: _with(w, 0, 0), r"^Q_\(2,7\) has the wrong shape: .*/0$"),
    (lambda w: _with(w, 3, 0), r"^Q_\(2,7\) has the wrong shape: "),
    (lambda w: _with(_with(w, 1, w[1] + 1), 2, w[2] - 1),
     r"^Q_\(2,7\) constant term is not \(-1\)\^j$"),
], ids=["not-divisible", "wrong-degree", "zero-at-minus-one", "wrong-constant"])
def test_cofactor_rejects_a_wrong_shape(monkeypatch, cold_spectrum_report, corrupt, match):
    # the integer top block w_0..w_3 of the eigenvector for lambda_(4,7), as spectrum_report
    # hands it to _cofactor for Q_(2,7). The shape check on w_0, w_3 comes first; w_1 + 1 breaks
    # only x | R(x+1), and w_1 + 1, w_2 - 1 keeps R(1) = 0 but moves Q(0)
    blocks, real = {}, spectra._cofactor

    def record(w, n, j):
        blocks[n, j] = list(w)
        return real(w, n, j)

    monkeypatch.setattr(spectra, "_cofactor", record)
    spectrum_report(7)
    w = blocks[7, 2]
    assert len(w) == 4 and all(type(x) is int for x in w)
    assert real(w, 7, 2) == spectrum_report(7).q_polys[1]
    with pytest.raises(TheoremViolation, match=match):
        real(corrupt(w), 7, 2)


def test_direction_of_lower_degree_is_rejected():
    with pytest.raises(TheoremViolation, match="direction polynomial is not of full degree"):
        spectra._eigenpoly_from_direction(css.build_phi(5), 5, 3, [0, 1, 2, 3])


def _offset_perturbed(phi):
    return css.AffineMapQ(phi.linear, (phi.offset[0] + 1,) + phi.offset[1:])


@pytest.mark.parametrize("j, direction, corrupt, match", [
    (1, [1, 0, 0, 0], lambda phi: phi, r"^lambda=1 eigenpolynomial is not \(x\+1\)\^\{n-1\}$"),
    (1, [1, 3, 3, 1], _offset_perturbed, r"^\(x\+1\)\^\{n-1\} is not Phi_n-fixed$"),
    (3, [1, 1, 1, 1], lambda phi: phi, r"^eigenpolynomial for j=3 does not vanish at 0$"),
    (2, [1, 0, 0, 0], lambda phi: phi, r"^j=2 eigenpolynomial is not x\(x\+1\)\^\{n-2\}$"),
], ids=["j1-not-binomial-power", "j1-not-fixed", "nonzero-at-0", "j2-wrong-shape"])
def test_eigenpolynomial_shape_checks(j, direction, corrupt, match):
    # direction[i] is the coefficient of x^(3-i) in D, and V = (x+1) D at n = 5
    with pytest.raises(TheoremViolation, match=match):
        spectra._eigenpoly_from_direction(corrupt(css.build_phi(5)), 5, j, direction)


def test_richardson_j2_exact():
    ests = richardson_limit(2, (20, 40, 80))
    assert len(ests) == 1
    est = ests[0]
    assert est.nu == 1
    assert est.extrapolated_q0 == -3.0       # Q_2* = x^2 - 3x + 1, exactly recovered
    assert est.error_bound == 0.0
    assert [n for n, _ in est.samples] == [20, 40, 80]


def test_richardson_j3():
    coeffs = {e.nu: e.extrapolated_q0 for e in richardson_limit(3, (20, 40, 80))}
    assert coeffs[1] == pytest.approx(-6.0, abs=1e-9)   # Q_3* = x^3 - 6x^2 + 6x - 1
    assert coeffs[2] == pytest.approx(6.0, abs=1e-9)


def test_richardson_preconditions():
    with pytest.raises(ValueError):
        richardson_limit(3, (20, 40))
    with pytest.raises(ValueError):
        richardson_limit(3, (40, 20, 80))
    with pytest.raises(ValueError):
        richardson_limit(5, (6, 20, 40))  # needs n >= j+3


def test_q1_error_bound_shape():
    # |q_1(n) + j(j+1)/2| <= C/(n-1) with C fitted from the two largest n
    for j in range(3, 7):
        target = F(-j * (j + 1), 2)
        devs = {n: abs(sigma_system_solve(n, j).coeff(j - 1) - target)
                for n in (20, 40, 80)}
        c = max(devs[40] * 39, devs[80] * 79)
        assert devs[20] <= c / 19
        assert devs[20] > devs[40] > devs[80]
        # and the mirrored coefficient obeys the same limit, with sign (-1)^j
        q = sigma_system_solve(80, j)
        assert abs(q.coeff(1) - F(-1) ** j * target) == devs[80]


def test_k1_equation_leading_balance():
    # the k=1 equation of the defining system, written out: the left side is
    # (-1)^j (n-1)...(n-j-1), the right side (n-1)(1 + sum (n-1)^nu q_nu
    # + (-1)^j (n-1)^j); both must agree at the solved coefficients
    for n, j in ((8, 3), (12, 5), (20, 4)):
        q = sigma_system_solve(n, j)
        lhs = F(-1) ** j
        for i in range(1, j + 2):
            lhs *= (n - i)
        rhs = F(1) + F(-1) ** j * F(n - 1) ** j
        for nu in range(1, j):
            rhs += F(n - 1) ** nu * q.coeff(j - nu)
        rhs *= (n - 1)
        assert lhs == rhs


def _fraction_sigma_row(n, j, k):
    """The equation L_k - R_k = 0 of system (Sigma) as first written, in
    Fraction arithmetic and without the C(n,k)^{j+1} scale (test oracle)."""
    l_next = F(1)
    for i in range(1, j + 2):
        l_next *= (n - i)
    vec = [F(0)] * (j - 1)
    const = l_next * (F(-1) ** j * binomial(n - j - 2, k - 1)
                      + binomial(n - j - 2, k - 1 - j))
    for nu in range(1, j):
        vec[j - nu - 1] += l_next * binomial(n - j - 2, k - 1 - nu)
    f = F(n) ** (j + 1) * binomial(n - 1, k - 1) * binomial(n - 1, k) \
        / F(binomial(n, k)) ** (j + 1)
    a, b = F(binomial(n - 1, k - 1)), F(binomial(n - 1, k))
    const -= f * (a ** j + F(-1) ** j * b ** j)
    for nu in range(1, j):
        vec[nu - 1] -= f * a ** (j - nu) * b ** nu
    return vec, const


def _sigma_row(n, j, k):
    """Equation L_k - R_k = 0 of system (Sigma) as (coefficients of q_1..q_{j-1},
    constant) at scale 1, built row by row and made primitive (test oracle)."""
    a = binomial(n - 1, k - 1)
    left = math.perm(n - 1, j + 1)
    sign = (-1) ** j
    vec = [0] * (j - 1)
    const = left * (sign * binomial(n - j - 2, k - 1) + binomial(n - j - 2, k - 1 - j))
    for nu in range(1, j):
        vec[j - nu - 1] += left * binomial(n - j - 2, k - 1 - nu)
    const -= a * (n - k) * (k ** j + sign * (n - k) ** j)
    for nu in range(1, j):
        vec[nu - 1] -= a * (n - k) ** (nu + 1) * k ** (j - nu)
    g = math.gcd(*vec, const) or 1
    return [e // g for e in vec], const // g


def _oracle_sigma_solve(n, j):
    """Q_{j,n} from the oracle block rows by solve_linear over a RationalMatrix."""
    q = ()
    if j >= 2:
        block = [_sigma_row(n, j, k) for k in range(1, j)]
        q = solve_linear(RationalMatrix.from_rows([r[0] for r in block]),
                         [-r[1] for r in block])
    return P([(-1) ** j, *q[::-1], 1])


# every (n, j) up to n = 14, then every j at n = 21 and the (n, j) of the
# spectral benchmark's extrapolations where the entries are largest
SIGMA_ROW_CASES = ([(n, j) for n in range(4, 15) for j in range(1, n - 2)]
                   + [(21, j) for j in range(1, 19)]
                   + [(n, j) for n in (80, 160) for j in range(1, 8)])


def test_sigma_rows_are_positive_multiples_of_the_fraction_rows():
    # every row is the oracle row at a positive scale, and the block rows
    # k < j, which the elimination sees, are primitive
    for n, j in SIGMA_ROW_CASES:
        rows = spectra._sigma_rows(n, j)
        assert len(rows) == n - 1
        for k, row in enumerate(rows, start=1):
            assert len(row) == j and all(type(e) is int for e in row)
            old_vec, old_const = _fraction_sigma_row(n, j, k)
            old = [*old_vec, old_const]
            # C(n,k)^{j+1} clears every denominator of the rows as first written
            assert all((binomial(n, k) ** (j + 1) * e).denominator == 1 for e in old)
            i = next((i for i, e in enumerate(old) if e), None)
            if i is None:
                assert not any(row)
                continue
            scale = row[i] / old[i]
            assert scale > 0
            assert row == [scale * e for e in old]
            if k < j:
                assert math.gcd(*row) == 1


def test_sigma_route_equals_the_row_by_row_oracle():
    cases = ([(n, j) for n in range(4, 22) for j in range(1, n - 2)]
             + [(n, j) for n in (20, 40, 80, 160) for j in range(1, 8)])
    for n, j in cases:
        assert sigma_system_solve(n, j) == _oracle_sigma_solve(n, j), (n, j)


def test_sigma_rows_read_one_pascal_row(monkeypatch):
    # C(n-j-2, .) once per (n, j): no binomial per row or per term
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return binomial(a, b)

    monkeypatch.setattr(spectra, "binomial", counting)
    n, j = 160, 7
    spectra._sigma_rows(n, j)
    assert 0 < len(calls) <= n - j - 1


def _edit_sigma_rows(monkeypatch, edit):
    original = spectra._sigma_rows

    def rows(n, j):
        out = []
        for k, row in enumerate(original(n, j), start=1):
            vec, const = edit(k, row[:-1], row[-1])
            out.append([*vec, const])
        return out

    monkeypatch.setattr(spectra, "_sigma_rows", rows)


def test_sigma_residual_check_catches_a_perturbed_equation(monkeypatch):
    _edit_sigma_rows(monkeypatch,
                     lambda k, vec, const: (vec, const + 1 if k == 7 else const))
    with pytest.raises(TheoremViolation, match="k=7 for n=8, j=3"):
        sigma_system_solve(8, 3)


def test_sigma_singular_block_is_reported(monkeypatch):
    _edit_sigma_rows(monkeypatch,
                     lambda k, vec, const: ([0] * len(vec), 0) if k == 1 else (vec, const))
    with pytest.raises(TheoremViolation, match="block k=1..2 is singular"):
        sigma_system_solve(8, 3)


def test_m_transform_examples():
    assert m_transform(P([-1, 1]), 2) == P([0, 1, 1])
    assert m_transform(P([1, -3, 1]), 3) == P([0, 1, 3, 1])
    assert m_transform(P([-1, 6, -6, 1]), 4) == P([0, 1, 6, 6, 1])
    with pytest.raises(ValueError):
        m_transform(P([-1, 1]), 3)


def test_verify_mjnj_small():
    rep2 = verify_mjnj(2, (20, 40, 80), 1e-2)
    assert rep2.passed and rep2.max_deviation == 0.0
    rep3 = verify_mjnj(3, (20, 40, 80), 1e-2)
    assert rep3.passed
    assert rep3.narayana_coeffs == (1, 3, 1)
    rep5 = verify_mjnj(5, (20, 40, 80), 1e-2)
    assert rep5.passed
    assert rep5.narayana_coeffs == (1, 10, 20, 10, 1)


@pytest.mark.parametrize("j, m_coeffs, deviations", [
    (5, ("0x1.0000000000000p+0", "0x1.40007f339ddfep+3", "0x1.400078e625819p+4",
         "0x1.40007f339ddfep+3", "0x1.0000000000000p+0"),
     ("0x0.0p+0", "0x1.fcce777f80000p-15", "0x1.e398960640000p-14", "0x1.fcce777f80000p-15",
      "0x0.0p+0")),
    (6, ("0x1.0000000000000p+0", "0x1.e003fe83e2fb8p+3", "0x1.9002d65a4b2b8p+5",
         "0x1.9002d65a4b2b8p+5", "0x1.e003fe83e2fb8p+3", "0x1.0000000000000p+0"),
     ("0x0.0p+0", "0x1.ff41f17dc0000p-12", "0x1.6b2d2595c0000p-10", "0x1.6b2d2595c0000p-10",
      "0x1.ff41f17dc0000p-12", "0x0.0p+0")),
])
def test_verify_mjnj_pinned_binary64(j, m_coeffs, deviations):
    # the limits and deviations the `limits` command prints, to the last bit
    rep = verify_mjnj(j, (20, 40, 80), 1e-2)
    assert tuple(c.hex() for c in rep.m_coeffs) == m_coeffs
    assert tuple(d.hex() for d in rep.deviations) == deviations


def test_verify_mjnj_reports_failure():
    with pytest.raises(TheoremViolation, match=r"M_6 vs N_6: max deviation .* > tol 1e-09"):
        verify_mjnj(6, (20, 40, 80), 1e-9)


def _series_coefficient_estimates(nu: int, i: int, js) -> list[float]:
    """Estimate q_nu^{(i)} per j from an exact cubic fit in h = 1/(n-1)."""
    ns = (21, 41, 61, 81)
    out = []
    for j in js:
        pts = [(F(1, n - 1), sigma_system_solve(n, j).coeff(j - nu)) for n in ns]
        out.append(float(interpolate(pts).coeff(i)))
    return out


@pytest.mark.parametrize("nu,i", [(1, 0), (2, 0), (1, 1)])
def test_series_coefficients_polynomial_in_j(nu, i):
    # q_nu^{(i)} behaves as a degree-2(nu+i) polynomial in j: finite
    # differences of order 2(nu+i) are stable and nonzero, the next order
    # vanishes to extrapolation accuracy
    js = list(range(3, 9))
    vals = _series_coefficient_estimates(nu, i, js)
    scale = max(abs(v) for v in vals)
    order = 2 * (nu + i)
    diffs = vals[:]
    for _ in range(order):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    lead = diffs[:]
    assert all(abs(d) > 1e-3 * scale for d in lead)
    spread = max(lead) - min(lead)
    assert spread <= 0.1 * max(abs(d) for d in lead)
    nxt = [b - a for a, b in zip(lead, lead[1:])]
    assert all(abs(d) <= 1e-2 * scale for d in nxt)


def test_q1_first_series_coefficient_is_binomial():
    # the h^1 coefficient of q_1(n) comes out as C(j+2, 4) on the nose
    ests = _series_coefficient_estimates(1, 1, range(3, 8))
    for j, est in zip(range(3, 8), ests):
        assert est == pytest.approx(binomial(j + 2, 4), rel=1e-2)
