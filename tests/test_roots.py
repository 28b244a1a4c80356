import dataclasses
import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_szego import asymptotics, cli, exactpoly, roots
from schur_szego.exactpoly import RationalPoly
from schur_szego.narayana import narayana_poly_direct
from schur_szego.roots import (
    COMMON_ROOT,
    FAIL,
    SIGN_CHANGES,
    STRICT_INTERLACE,
    STURM,
    SturmChain,
    certify_roots,
    distinct_real_roots,
    interlace_check,
    is_hyperbolic,
    isolate_roots,
    poly_gcd,
    refine,
    refined_roots,
    roots_float,
)
from schur_szego.spectra import spectrum_report

P = RationalPoly
TOL40 = F(1, 2**40)


def _exact_sign(c, x):
    """Sign of the integer polynomial c at any rational x = a/b, b > 0, from the integer
    b^deg(c) c(a/b) by homogenized Horner with a running power of b: the tests' own
    evaluator, as roots evaluates at dyadic points only."""
    a, b = F(x).as_integer_ratio()
    acc, power = c[-1], 1
    for v in c[-2::-1]:
        power *= b
        acc = acc * a + v * power
    return roots._sign(acc)


def sturm_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi], by the variations of p's Sturm chain,
    evaluated by `_exact_sign`; certified only at non-root endpoints lo < hi."""
    lo, hi = F(lo), F(hi)
    chain = SturmChain(roots._int_poly(p))
    assert lo < hi and _exact_sign(chain.poly, lo) and _exact_sign(chain.poly, hi)
    return (roots._variations([_exact_sign(c, lo) for c in chain.polys])
            - roots._variations([_exact_sign(c, hi) for c in chain.polys]))


def _fold_of(n):
    """S_n: N_n/x folded in w = x + 2 + 1/x, integer coefficients."""
    return exactpoly._fold(roots._int_poly(narayana_poly_direct(n).exact_divide(P.x())))


def test_sturm_count_examples():
    assert sturm_count(P([1, 5, 1]), F(-5), F(0)) == 2
    assert sturm_count(P([1, 0, 1]), F(-10), F(10)) == 0
    assert sturm_count(P([1, -3, 1]), F(0), F(3)) == 2


def test_sturm_count_multiple_roots_counted_once():
    assert sturm_count(P([1, 3, 3, 1]), F(-2), F(0)) == 1  # (x+1)^3


def test_isolate_narayana_4():
    iso = isolate_roots(P([1, 6, 6, 1]))  # N_4 / x = (x+1)(x^2+5x+1)
    assert len(iso.intervals) == 3
    assert iso.multiplicities == (1, 1, 1)
    refined = [refine(iso, i, F(1, 10**6)) for i in range(3)]
    mids = [float((lo + hi) / 2) for lo, hi in refined]
    assert mids[0] == pytest.approx((-5 - math.sqrt(21)) / 2, abs=1e-5)
    assert mids[1] == pytest.approx(-1.0, abs=1e-5)
    assert mids[2] == pytest.approx((-5 + math.sqrt(21)) / 2, abs=1e-5)


def test_isolate_multiplicity():
    iso = isolate_roots(P.binomial_power(5))  # (x+1)^5
    assert len(iso.intervals) == 1
    assert iso.multiplicities == (5,)
    tol = F(1, 10**9)
    lo, hi = refine(iso, 0, tol)
    assert lo < -1 < hi
    assert hi - lo <= tol


def test_isolate_mixed_multiplicities():
    # (x-1)^2 (x+2) x^3
    poly = P([-1, 1]) * P([-1, 1]) * P([2, 1]) * P([0, 0, 0, 1])
    iso = isolate_roots(poly)
    got = sorted(zip([float((a + b) / 2) for a, b in
                      (refine(iso, i, F(1, 10**6)) for i in range(len(iso.intervals)))],
                     iso.multiplicities))
    assert [m for _, m in got] == [1, 3, 2]
    assert [round(r) for r, _ in got] == [-2, 0, 1]
    assert iso.real_root_count() == 6


def test_intervals_disjoint_and_sorted():
    iso = isolate_roots(narayana_poly_direct(12))
    for (a1, b1), (a2, b2) in zip(iso.intervals, iso.intervals[1:]):
        assert a1 < b1 and a2 < b2 and b1 <= a2


def test_reciprocal_root_pair():
    iso = isolate_roots(P([1, 3, 1]))  # N_3/x: roots multiply to 1
    vals = [float((lo + hi) / 2) for lo, hi in (refine(iso, i, TOL40) for i in range(2))]
    assert vals[0] * vals[1] == pytest.approx(1.0, abs=1e-9)


def test_roots_float_narayana4():
    got = roots_float(narayana_poly_direct(4))
    assert len(got) == 4
    assert got[1] == pytest.approx(-1.0, abs=1e-10)
    assert got[3] == pytest.approx(0.0, abs=1e-10)


def test_certify_roots_from_proposals():
    p = narayana_poly_direct(20)
    iso = certify_roots(p, roots_float(p))
    assert iso.multiplicities == (1,) * 20
    for (lo, hi), (slo, shi) in zip(iso.intervals, iso.certificates):
        assert slo * shi < 0
        assert sturm_count(p, lo, hi) == 1
    assert all(a[1] <= b[0] for a, b in zip(iso.intervals, iso.intervals[1:]))


@pytest.fixture(scope="module")
def certify_controls():
    """(p, proposals) that certify_roots must reject, built when a test asks for
    them, so that a fault in roots_float fails these tests, not the module's
    collection."""
    n20 = narayana_poly_direct(20)
    props = roots_float(n20)
    shifted = props[:]
    shifted[5] = (props[5] + props[6]) / 2  # no root there
    complex_pair = n20.exact_divide(P.x()) * P([1, 1, 1])
    double = P([-1, 1]) * P([-1, 1]) * P([2, 1]) * P([3, 1])
    return {
        "dropped": (n20, props[:-1]),
        "duplicated": (n20, props[:-1] + props[-2:-1]),
        "shifted": (n20, shifted),
        "complex-pair": (complex_pair, props[:-1] + [-0.5, -0.5 + 2**-20]),
        "double-root-twice": (double, [-3.0, -2.0, 1.0, 1.0]),
        "double-root-split": (double, [-3.0, -2.0, 1.0 - 1e-3, 1.0 + 1e-3]),
    }


@pytest.mark.parametrize("control", ["dropped", "duplicated", "shifted", "complex-pair",
                                     "double-root-twice", "double-root-split"])
def test_certify_roots_negative_controls(certify_controls, control):
    p, proposals = certify_controls[control]
    assert certify_roots(p, proposals) is None


def _recording_evaluations(monkeypatch):
    """The points at which roots._horner is called from now on."""
    evaluated = []
    real = roots._horner

    def recording(c, num, den):
        evaluated.append(F(num, den))
        return real(c, num, den)

    monkeypatch.setattr(roots, "_horner", recording)
    return evaluated


@pytest.mark.parametrize("n", [*range(1, 41), 100])
def test_reciprocal_certificate_signs_are_the_true_signs(monkeypatch, n):
    """N_n's reciprocal pairs x, 1/x are certified as the roots of S_n in
    w = x + 2 + 1/x: every bracket end is dyadic, strictly negative and evaluated,
    its true sign is the certificate's, and each bracket holds a root."""
    s = P(_fold_of(n))
    evaluated = _recording_evaluations(monkeypatch)
    iso = certify_roots(s, asymptotics._lobatto_proposals(n))
    monkeypatch.undo()
    assert iso is not None and iso.path == SIGN_CHANGES
    assert len(iso.intervals) == (n - 1) // 2
    for (lo, hi), (slo, shi) in zip(iso.intervals, iso.certificates):
        assert _dyadic(lo) and _dyadic(hi) and lo < hi < 0 and {lo, hi} <= set(evaluated)
        assert (slo, shi) == (_exact_sign(iso._sqfree, lo), _exact_sign(iso._sqfree, hi))
        assert slo * shi < 0
        if n <= 12:
            assert sturm_count(s, lo, hi) == 1


DOUBLED = P([1, 1]) * P([1, 1]) * P([-2, 1]) * P([-3, 1])  # (x+1)^2 (x-2)(x-3)
CLOSE_PAIR = P([F(-1, 3), 1]) * P([-F(1, 3) - F(1, 2**30), 1])  # both roots in one grid cell


def _whole_box(k, g):
    """Whether the samples g are all 2^k + 1 points of the grid of 2^k cells of the box."""
    return len(g) == (1 << k) + 1


def _force_sturm(monkeypatch):
    """Make isolate_roots, is_hyperbolic and interlace_check take their Sturm route: the
    places of the whole box are none, so signs place no root and its run is split. A
    fresh placement memo keeps what the forced route computes apart from the unforced."""
    places = roots._places
    monkeypatch.setattr(roots, "_places",
                        lambda s, u, k, i, g: [] if _whole_box(k, g) else places(s, u, k, i, g))
    memo = roots._placement
    monkeypatch.setattr(roots, "_placement",
                        functools.lru_cache(memo.cache_parameters()["maxsize"])(memo.__wrapped__))


def _assert_isolation_certified(p, path):
    """isolate_roots(p) takes `path`; each interval holds one distinct root of p
    (Sturm) and carries the opposite signs of the squarefree part at its ends."""
    iso = isolate_roots(p)
    assert iso.path == path
    assert len(iso.intervals) == distinct_real_roots(p)
    for (lo, hi), (slo, shi) in zip(iso.intervals, iso.certificates):
        assert sturm_count(p, lo, hi) == 1
        assert (slo, shi) == (roots._eval_sign(iso._sqfree, lo), roots._eval_sign(iso._sqfree, hi))
        assert slo * shi < 0


# N_1 = x and N_2 = x (x + 1) have only grid points as roots; N_n, n >= 3, has roots too
# close to 0 for the grids
@pytest.mark.parametrize(
    "p, path", [(DOUBLED, SIGN_CHANGES), (CLOSE_PAIR, STURM)]
    + [(narayana_poly_direct(n), SIGN_CHANGES if n <= 2 else STURM) for n in range(1, 61)],
    ids=["doubled", "close-pair"] + [f"N_{n}" for n in range(1, 61)])
def test_isolation_certificates_are_opposite_endpoint_signs(p, path):
    _assert_isolation_certified(p, path)


@pytest.mark.parametrize("p", [DOUBLED, narayana_poly_direct(1), narayana_poly_direct(2)],
                         ids=["doubled", "N_1", "N_2"])
def test_forced_sturm_isolation_certificates(monkeypatch, p):
    _force_sturm(monkeypatch)
    _assert_isolation_certified(p, STURM)


_DYADIC = st.integers(min_value=-64, max_value=64).map(lambda k: F(k, 16))
_RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def _rooted(draw):
    """(p, s, roots): s a product of distinct rational linear factors, dyadic
    roots included, and p = s times repeats of some of them and perhaps the
    irreducible x^2 + x + 1."""
    rs = draw(st.lists(st.one_of(_DYADIC, _RATIONAL), min_size=1, max_size=7, unique=True))
    s = P([draw(st.sampled_from([1, -1, 3, F(-2, 5)]))])
    for r in rs:
        s = s * P([-r, 1])
    p = s
    for r in draw(st.lists(st.sampled_from(rs), max_size=3)):
        p = p * P([-r, 1])
    if draw(st.booleans()):
        p = p * P([1, 1, 1])
    return p, s, rs


@given(case=_rooted())
def test_isolation_certificates_on_rational_roots(case):
    p, _, _ = case
    path = isolate_roots(p).path
    _assert_isolation_certified(p, path)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_sturm(monkeypatch)
        _assert_isolation_certified(p, STURM)


def _parent_interlace_check(p, q):
    """interlace_check as it was before Rolle's route: the Cauchy index of the
    remainder sequence of (q, p), and chain counts of both on a common root."""
    a, b = roots._int_poly(q), roots._int_poly(p)
    prs = roots._prs(tuple(a), tuple(b if (a[-1] > 0) == (b[-1] > 0) else [-x for x in b]))
    if len(prs[-1]) == 1:
        return STRICT_INTERLACE if abs(roots._cauchy_index(prs)) == q.degree else FAIL
    if all(SturmChain(c).total_real_roots() == len(c) - 1 for c in (a, b)):
        return COMMON_ROOT
    return FAIL


def _answers(q):
    """isolate_roots' multiplicities and path, roots_float, is_hyperbolic and the
    interlace_check verdicts of (q', q) and (-q', q)."""
    iso = isolate_roots(q)
    dq = q.derivative()
    return (iso.multiplicities, iso.path, roots_float(q), is_hyperbolic(q),
            interlace_check(dq, q), interlace_check(dq.scale(-1), q))


@st.composite
def _real_rooted(draw):
    """A real-rooted q: distinct dyadic and non-dyadic rational roots, some of
    multiplicity 2 or 3, times a constant."""
    rs = draw(st.lists(st.one_of(_DYADIC, _RATIONAL), min_size=1, max_size=7, unique=True))
    q = P([draw(st.sampled_from([1, -1, 3, F(-2, 5)]))])
    for r in rs:
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
            q = q * P([-r, 1])
    return q


@given(_real_rooted())
def test_placement_route_gives_the_sturm_route_answers(q):
    placed = _answers(q)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_sturm(monkeypatch)
        sturm = _answers(q)
    assert sturm[1] == STURM
    assert placed[0] == sturm[0] and placed[2:] == sturm[2:]  # roots_float bit for bit
    assert placed[3] is True
    dq = q.derivative()
    assert placed[4:] == (_parent_interlace_check(dq, q), _parent_interlace_check(dq.scale(-1), q))


@pytest.mark.parametrize("q, floats, mults", [
    (P([0, -6, 11, -6, 1]), [0.0, 1.0, 2.0, 3.0], (1, 1, 1, 1)),  # x(x-1)(x-2)(x-3)
    (DOUBLED, [-1.0, -1.0, 2.0, 3.0], (2, 1, 1)),  # (x+1)^2 (x-2)(x-3)
], ids=["0-1-2-3", "doubled"])
def test_neighbouring_grid_zeros_are_each_placed(q, floats, mults):
    # the grid of cell width 2 has the neighbouring zeros 0, 2 (or 2 alone), which place
    # too few roots; the next grid has every integer, and neighbouring zeros count
    s = roots._squarefree_split(roots._int_poly(q))[1]
    assert roots._root_bits(s) == 4 and (4 * (len(s) - 1) - 1).bit_length() == 4
    iso = isolate_roots(q)
    assert iso.path == SIGN_CHANGES and iso.multiplicities == mults
    assert iso.intervals == tuple((r - F(1, 2), r + F(1, 2)) for r in sorted(set(map(F, floats))))
    assert roots_float(q) == floats


def test_close_pair_falls_back_to_sturm():
    s = roots._int_poly(CLOSE_PAIR)
    assert roots._sign_phase(tuple(s))[2] is None  # signs place no pair
    assert isolate_roots(CLOSE_PAIR).path == STURM
    assert is_hyperbolic(CLOSE_PAIR)
    assert interlace_check(CLOSE_PAIR.derivative(), CLOSE_PAIR) == STRICT_INTERLACE


_CONTROL_INPUTS = {
    "doubled": DOUBLED,
    "squarefree": P([-1, 1]) * P([-2, 1]) * P([1, 2]) * P([3, 1]),
    "not-real-rooted": DOUBLED * P([F(1, 3), 0, 1]),  # x^2 + 1/3 has no real root
}
_WRONG_G = {"coprime-claim": [1], "non-divisor": [-5, 1], "divides-q-only": [-2, 1]}


@pytest.mark.parametrize("name", list(_CONTROL_INPUTS))
@pytest.mark.parametrize("control", ["none", *_WRONG_G, "extra-interval"])
def test_placement_negative_controls_fall_back(monkeypatch, name, control):
    """A wrong proposal of G, or a placement that claims one interval too many,
    gives the answers of the Sturm route, on it; [1] is right for a squarefree q."""
    q = _CONTROL_INPUTS[name]
    with pytest.MonkeyPatch.context() as forced:
        _force_sturm(forced)
        want = _answers(q)
    places = roots._places
    if control == "extra-interval":  # claimed for the whole box
        monkeypatch.setattr(roots, "_places", lambda s, u, k, i, g: places(s, u, k, i, g)
                            + [((F(100), 1), (F(101), -1))] * _whole_box(k, g))
    elif control != "none":
        monkeypatch.setattr(roots, "_common_factor", lambda a, b: list(_WRONG_G[control]))
    got = _answers(q)
    placed = {("doubled", "none"), ("squarefree", "none"), ("squarefree", "coprime-claim")}
    assert got[1] == (SIGN_CHANGES if (name, control) in placed else STURM)
    assert got[0] == want[0] and got[2:] == want[2:]
    assert got[3] == (name != "not-real-rooted")


def test_roots_float_then_is_hyperbolic_builds_only_the_tower_chains(remainder_sequence_builds):
    # (x+1)^3 (x-2)(x-3) is placed by signs: q gets no chain, so its two tower levels
    # cannot evict one from the memo of two before is_hyperbolic asks for it
    q = P.binomial_power(3) * P([-2, 1]) * P([-3, 1])
    assert roots_float(q) == [-1.0, -1.0, -1.0, 2.0, 3.0]
    assert is_hyperbolic(q)
    assert remainder_sequence_builds == [((1, 2, 1), (1, 1)), ((1, 1), (1,))]


def test_close_roots_are_split_by_sturm_after_sampling(monkeypatch):
    points = []
    real = roots.SturmChain.variations_at

    def recording(chain, x):
        points.append(x)
        return real(chain, x)

    monkeypatch.setattr(roots.SturmChain, "variations_at", recording)
    iso = isolate_roots(CLOSE_PAIR)
    assert len(iso.intervals) == 2
    assert any(abs(x) != 1 for x in points)  # a split between the close roots


@pytest.mark.parametrize("n, parent", [(30, 40), (60, 56), (100, 69)])
def test_sturm_route_continues_the_sign_grid(monkeypatch, n, parent):
    # the chain splits runs of the last sign grid: fewer evaluations than the parent's
    # bound search and grids on (-t, t) made, and none at or outside the box's ends
    points = []
    real = roots.SturmChain.variations_at
    monkeypatch.setattr(roots.SturmChain, "variations_at",
                        lambda chain, x: points.append(x) or real(chain, x))
    iso = isolate_roots(narayana_poly_direct(n))
    assert iso.path == STURM and iso.multiplicities == (1,) * n
    box = 1 << roots._root_bits(iso._sqfree)
    assert 0 < len(points) < parent
    assert all(-box < x < box for x in points)


def _questions(q):
    """The questions a polynomial q is asked: isolate_roots, roots_float, is_hyperbolic
    and interlace_check on (q', q) and (-q', q)."""
    dq = q.derivative()
    return [lambda: isolate_roots(q), lambda: roots_float(q), lambda: is_hyperbolic(q),
            lambda: interlace_check(dq, q), lambda: interlace_check(dq.scale(-1), q)]


@pytest.mark.parametrize("q", [_CONTROL_INPUTS["squarefree"], DOUBLED], ids=["squarefree", "doubled"])
def test_one_split_and_one_sign_phase_per_polynomial(monkeypatch, q):
    # before the placement memo, each question split q again: 4 splits, and 4 sign phases
    # on the squarefree q, 2 on the doubled one (Rolle's route stops at a certified G)
    calls = []
    for name in ("_squarefree_split", "_sign_phase"):
        real = getattr(roots, name)
        monkeypatch.setattr(roots, name, lambda c, name=name, real=real:
                            calls.append(name) or real(c))
    answers = [ask() for ask in _questions(q)[1:]]
    assert calls == ["_squarefree_split", "_sign_phase"]
    assert answers[1:] == [True] + [FAIL if q is DOUBLED else STRICT_INTERLACE] * 2


@pytest.mark.parametrize("p", [DOUBLED.derivative(), P([1, 1]) * P([-2, 1]) * P([-5, 1])],
                         ids=["rolle", "common-root"])
def test_a_repeated_root_alone_samples_no_grid(monkeypatch, p):
    # G of positive degree settles _simple_real(DOUBLED): asked alone, the verdict
    # splits DOUBLED once and samples no sign grid
    calls = []
    for name in ("_squarefree_split", "_sign_phase"):
        real = getattr(roots, name)
        monkeypatch.setattr(roots, name, lambda c, name=name, real=real:
                            calls.append(name) or real(c))
    assert interlace_check(p, DOUBLED) == FAIL
    assert calls == ["_squarefree_split"]


@pytest.mark.parametrize("n, horner_calls, chain_calls", [(30, 490, 30), (60, 1478, 40),
                                                          (100, 2866, 49)])
def test_sturm_route_samples_each_grid_point_once(monkeypatch, n, horner_calls, chain_calls):
    # the Sturm counts go on from the memo's last sign grid: as many evaluations as when
    # one function sampled the grid and split its runs
    counts = {"horner": 0, "variations_at": 0}
    horner, variations_at = roots.horner, roots.SturmChain.variations_at

    def counting_horner(c, x):
        counts["horner"] += 1
        return horner(c, x)

    def counting_variations_at(chain, x):
        counts["variations_at"] += 1
        return variations_at(chain, x)

    monkeypatch.setattr(roots, "horner", counting_horner)
    monkeypatch.setattr(roots.SturmChain, "variations_at", counting_variations_at)
    assert isolate_roots(narayana_poly_direct(n)).path == STURM
    assert counts == {"horner": horner_calls, "variations_at": chain_calls}


@given(_real_rooted())
@example(_CONTROL_INPUTS["not-real-rooted"])
@example(CLOSE_PAIR)
def test_answers_do_not_depend_on_the_placement_memo(q):
    questions = _questions(q)
    cold = []
    for ask in questions:
        roots._placement.cache_clear()
        cold.append(ask())
    roots._placement.cache_clear()
    backward = [ask() for ask in reversed(questions)][::-1]  # each after those behind it
    forward = [ask() for ask in questions]  # each after all the others
    assert backward == cold and forward == cold


def _dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


def test_non_dyadic_points_are_refused(monkeypatch):
    # every point roots evaluates is dyadic; any other raises rather than gets a sign
    with pytest.raises(ValueError, match="dyadic"):
        SturmChain([-1, 0, 3]).variations_at(F(1, 3))
    iso = isolate_roots(P([-1, 0, 3]))  # roots -+1/sqrt(3)
    third = dataclasses.replace(iso, intervals=((F(-1), F(-1, 3)),) + iso.intervals[1:])
    with pytest.raises(ValueError, match="dyadic"):
        refine(third, 0, TOL40)
    evaluated = _recording_evaluations(monkeypatch)
    assert refine(third, 0, F(1)) == (F(-1), F(-1, 3)) and evaluated == []  # narrower than tol


def test_isolation_of_a_non_dyadic_root_stays_dyadic(monkeypatch):
    # 3x - 7: a Cauchy cap 1 + 7/3 would start the search from (-10/3, 10/3)
    dens = []
    real = roots._horner
    monkeypatch.setattr(roots, "_horner", lambda c, num, den: dens.append(den) or real(c, num, den))
    iso = isolate_roots(P([-7, 3]))
    assert [_dyadic(x) for interval in iso.intervals for x in interval] == [True, True]
    assert dens and all(den & (den - 1) == 0 for den in dens)  # every sample too
    assert roots_float(P([-5, 1])) == [5.0]


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(2, 9)), min_size=1, max_size=4))
def test_isolation_endpoints_are_dyadic_for_any_leading_coefficient(factors):
    # a product of linear factors b x - a, b in 2..9, so the leading coefficient is no unit
    poly = P([1])
    for a, b in factors:
        poly = poly * P([-a, b])
    iso = isolate_roots(poly)
    assert all(_dyadic(x) for interval in iso.intervals for x in interval)
    want = sorted(F(a, b) for a, b in factors)
    got = roots_float(poly)
    assert len(got) == len(want)
    assert all(abs(F(g) - r) <= TOL40 for g, r in zip(got, want))


def _bisect(iso, index, tol):
    """refine's specification: bisect from the certified endpoint signs."""
    lo, hi = iso.intervals[index]
    slo, _ = iso.certificates[index]
    while hi - lo > tol:
        mid = (lo + hi) / 2
        sign = roots._eval_sign(iso._sqfree, mid)
        if sign == 0:
            return mid - tol / 2, mid + tol / 2
        lo, hi = (mid, hi) if sign == slo else (lo, mid)
    return lo, hi


REFINE_TOLS = (TOL40, F(1, 10**6), F(3, 2**20))


def _assert_refine_is_bisection(iso):
    for i in range(len(iso.intervals)):
        for tol in REFINE_TOLS:
            assert refine(iso, i, tol) == _bisect(iso, i, tol)


@given(case=_rooted())
def test_refine_matches_bisection_on_rational_roots(case):
    p, s, rs = case
    _assert_refine_is_bisection(isolate_roots(p))
    signs = certify_roots(s, [float(r) for r in rs])
    assert signs is not None and signs.path == SIGN_CHANGES
    _assert_refine_is_bisection(signs)


@pytest.mark.parametrize("n", range(1, 41))
def test_refine_matches_bisection_on_narayana(monkeypatch, n):
    p = narayana_poly_direct(n)
    _force_sturm(monkeypatch)
    sturm = isolate_roots(p)
    signs = certify_roots(P(_fold_of(n)), asymptotics._lobatto_proposals(n))
    assert (sturm.path, signs.path) == (STURM, SIGN_CHANGES)
    for iso in (sturm, signs):
        _assert_refine_is_bisection(iso)


@pytest.mark.parametrize("bad", [0, -7, 1, 10**9], ids=["left-end", "outside", "one", "far"])
def test_refine_ignores_a_bad_secant_proposal(monkeypatch, bad):
    isos = [isolate_roots(DOUBLED), isolate_roots(narayana_poly_direct(17)),
            certify_roots(P(_fold_of(30)), asymptotics._lobatto_proposals(30))]

    def refine_all():
        return [refine(iso, i, tol) for iso in isos
                for i in range(len(iso.intervals)) for tol in REFINE_TOLS]

    want = refine_all()
    monkeypatch.setattr(roots, "_secant", lambda fa, fb, cells: bad)
    assert refine_all() == want


def test_refine_on_sturm_path_requires_a_sign_change(monkeypatch):
    placed = isolate_roots(P([1, 6, 6, 1]))
    _force_sturm(monkeypatch)
    sturm = isolate_roots(P([1, 6, 6, 1]))
    assert (sturm.path, placed.path) == (STURM, SIGN_CHANGES)
    for iso in (sturm, placed):
        slo, _ = iso.certificates[0]
        broken = dataclasses.replace(iso, certificates=((slo, slo),) + iso.certificates[1:])
        with pytest.raises(AssertionError, match="bracket a simple root"):
            refine(broken, 0, TOL40)


def _rounded(w, bits):
    """w rounded to `bits` significant bits."""
    m, e = math.frexp(w)
    return math.ldexp(round(math.ldexp(m, bits)), e - bits)


def test_refine_reuses_certified_endpoint_signs(monkeypatch):
    placed = isolate_roots(DOUBLED)
    with pytest.MonkeyPatch.context() as forced:
        _force_sturm(forced)
        sturm = isolate_roots(DOUBLED)
    # from S_100's own proposals every bracket comes out narrower than 2^-40 and refine
    # has nothing to do; proposals rounded to 36 bits widen 46 of the 49 brackets past
    # 2^-40 (32 bits are too coarse for certify_roots' widest bracket near w = -4000)
    proposals = [_rounded(w, 36) for w in asymptotics._lobatto_proposals(100)]
    signs = certify_roots(P(_fold_of(100)), proposals)
    assert (sturm.path, placed.path, signs.path) == (STURM, SIGN_CHANGES, SIGN_CHANGES)
    evaluated = []
    real = roots._horner

    def counting(c, num, den):
        evaluated.append(F(num, den))
        return real(c, num, den)

    # every exact evaluation goes through _horner; the secant reads its values
    monkeypatch.setattr(roots, "_horner", counting)
    for iso in (sturm, placed, signs):
        evaluated.clear()
        refined_roots(iso)
        assert evaluated  # refine's own grid points
        assert not {x for interval in iso.intervals for x in interval} & set(evaluated)


@pytest.mark.parametrize("question", [
    isolate_roots, lambda p: certify_roots(p, []),
    distinct_real_roots, is_hyperbolic, lambda p: interlace_check(p, p),
])
def test_zero_polynomial_rejected(question):
    with pytest.raises(ValueError, match="zero polynomial"):
        question(P([0]))


def test_is_hyperbolic():
    assert is_hyperbolic(narayana_poly_direct(5))
    assert not is_hyperbolic(P([1, 0, 1]))
    assert is_hyperbolic(P([1, 3, 3, 1]))


def test_interlace_examples():
    n3 = P([1, 3, 1])
    n4 = P([1, 6, 6, 1])
    n5 = P([1, 10, 20, 10, 1])
    assert interlace_check(n3, n4) == STRICT_INTERLACE
    assert interlace_check(n4, n5) == STRICT_INTERLACE
    assert interlace_check(P([-1, 1]), P([2, -3, 1])) == COMMON_ROOT


def test_interlace_failures():
    # non-hyperbolic operand
    assert interlace_check(P([1, 0, 1]), P([0, -1, 0, 1])) == FAIL
    # hyperbolic but not interlacing: roots of p outside q's root range
    p = P([30, -11, 1])            # (x-5)(x-6)
    q = P([0, 2, -3, 1])           # x(x-1)(x-2)
    assert interlace_check(p, q) == FAIL
    with pytest.raises(ValueError):
        interlace_check(p, p)


def test_interlace_degree_one():
    assert interlace_check(P([7]), P([1, 1])) == STRICT_INTERLACE


def _interlace_oracle(p, q):
    """Reference verdict: isolate the roots of p*q and read off their order."""
    for operand in (p, q):
        squarefree = poly_gcd(operand, operand.derivative()).degree == 0
        if not squarefree or distinct_real_roots(operand) != operand.degree:
            return FAIL
    if poly_gcd(p, q).degree > 0:
        return COMMON_ROOT
    iso = isolate_roots(p * q)
    labels = ["q" if sturm_count(q, lo, hi) else "p" for lo, hi in iso.intervals]
    return STRICT_INTERLACE if labels == ["q", "p"] * p.degree + ["q"] else FAIL


_SMALL_ROOTS = st.sampled_from([F(-3), F(-2), F(-3, 2), F(-1), F(-1, 3), F(0),
                                F(1, 2), F(1), F(2), F(5, 2)])


@st.composite
def _interlace_pairs(draw):
    """(p, q) with deg q = deg p + 1 <= 6, built from small rational roots;
    draws repeat roots, share roots, nest p's roots between q's, and may
    swap two roots of either operand for the irreducible factor x^2 + x + 1."""
    m = draw(st.integers(min_value=1, max_value=6))
    q_roots = draw(st.lists(_SMALL_ROOTS, min_size=m, max_size=m))
    gaps = sorted(set(q_roots))
    between = [(a + b) / 2 for a, b in zip(gaps, gaps[1:])]
    p_pool = st.one_of(_SMALL_ROOTS, st.sampled_from(q_roots))
    p_roots = (between if draw(st.booleans()) else []) \
        + draw(st.lists(p_pool, min_size=m - 1, max_size=m - 1))
    p_roots = p_roots[:m - 1]

    def build(roots):
        poly = P([draw(st.sampled_from([1, -1, 3, F(-2, 5)]))])
        if len(roots) >= 2 and draw(st.integers(min_value=0, max_value=3)) == 0:
            poly = poly * P([1, 1, 1])
            roots = roots[2:]
        for r in roots:
            poly = poly * P([-r, 1])
        return poly

    return build(p_roots), build(q_roots)


@settings(max_examples=200)
@given(_interlace_pairs())
def test_interlace_matches_isolation_oracle(pair):
    p, q = pair
    assert interlace_check(p, q) == _interlace_oracle(p, q)


def _over_x(n):
    return narayana_poly_direct(n).exact_divide(P.x())


@pytest.mark.parametrize("p, q", [
    (P([-5, 1]) * _over_x(19), _over_x(21)),
    (_over_x(20).derivative() + P([0] * 5 + [10**6]), _over_x(20)),
    # q = (x-1)^2 (x+1) shares the root 1 with q', but q is not squarefree
    (P([1, -1, -1, 1]).derivative(), P([1, -1, -1, 1])),
    # p = (x-1)(x^2+1) shares the root 1 with q, but p is not hyperbolic
    (P([-1, 1]) * P([1, 0, 1]), P([-1, 1]) * P([-2, 1]) * P([-3, 1]) * P([-4, 1])),
])
def test_interlace_fixed_failures(p, q):
    assert interlace_check(p, q) == FAIL
    assert _interlace_oracle(p, q) == FAIL


def test_poly_gcd():
    n4, n5 = narayana_poly_direct(4), narayana_poly_direct(5)
    assert poly_gcd(n4, n5) == P.x()
    assert poly_gcd(P([-1, 0, 1]), P([-1, 1])) == P([-1, 1])
    assert poly_gcd(P([1, 2, 1]), P([1, 1])) == P([1, 1])
    # gcd(p, 0) is p made monic, and gcd(0, 0) is 0
    assert poly_gcd(P.zero(), P([2, 4])) == P([F(1, 2), 1])
    assert poly_gcd(P([3, 0, 6]), P.zero()) == P([F(1, 2), 0, 1])
    assert poly_gcd(P.zero(), P.zero()) == P.zero()


def test_census_helpers():
    assert distinct_real_roots(P([1, 6, 6, 1])) == 3
    assert distinct_real_roots(P([1, 0, 1])) == 0


def test_root_bits_bound_holds_every_sturm_root():
    b = 1 << roots._root_bits([1, 6, 6, 1])
    assert sturm_count(P([1, 6, 6, 1]), -b, b) == 3


def test_q_poly_roots_reciprocal_pairs():
    # roots of Q_{j,n} are positive, distinct, and closed under x -> 1/x
    for n in range(4, 11):
        for j in range(1, n - 2):
            q = spectrum_report(n).q_polys[j - 1]
            iso = isolate_roots(q)
            assert len(iso.intervals) == j
            assert iso.multiplicities == (1,) * j
            assert sturm_count(q, F(0), 1 << roots._root_bits(roots._int_poly(q))) == j
            for i in range(j):
                lo, hi = refine(iso, i, F(1, 2**20))
                assert lo > 0
                assert sturm_count(q, 1 / hi, 1 / lo) == 1


def test_narayana_roots_closed_under_reciprocal():
    for n in (6, 9, 12):
        over_x = narayana_poly_direct(n).exact_divide(P.x())
        iso = isolate_roots(over_x)
        for i in range(len(iso.intervals)):
            lo, hi = refine(iso, i, F(1, 2**20))
            assert hi < 0
            assert sturm_count(over_x, 1 / hi, 1 / lo) == 1


@given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6),
                min_size=1, max_size=4, unique=True),
       st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4),
       st.booleans())
def test_isolation_recovers_known_roots(root_values, mults, complex_pair):
    # build a polynomial with known rational roots and multiplicities, perhaps
    # times the irreducible x^2 + x + 1, which changes no multiplicity
    roots_known = sorted(root_values)
    mults = (mults * len(roots_known))[:len(roots_known)]
    poly = P([1, 1, 1]) if complex_pair else P([1])
    for r, m in zip(roots_known, mults):
        for _ in range(m):
            poly = poly * P([-r.numerator, r.denominator])
    iso = isolate_roots(poly)
    assert len(iso.intervals) == len(roots_known)
    assert list(iso.multiplicities) == list(mults)
    for (lo, hi), r in zip(iso.intervals, roots_known):
        assert lo < r < hi
    assert is_hyperbolic(poly) == (not complex_pair)
    assert not is_hyperbolic(poly * P([1, 0, 1]))


@pytest.mark.parametrize("p, lo, hi", [
    (P([-1, 0, 1]), F(1, 2), F(1)),  # x^2 - 1: the root 1 is an endpoint
    (P([-1, 1]) * P([-2, 1]) * P([-2, 1]), F(0), F(3)),  # roots 1 and 2 (double) inside
    (P([-1, 0, 1]), F(2), F(3)),  # no root inside
], ids=["endpoint-root", "two-roots", "no-root"])
def test_tower_signs_reject_a_broken_isolation(monkeypatch, p, lo, hi):
    # an isolation that claims opposite squarefree signs at (lo, hi) whatever p does there,
    # on each route: deg s copies pass the placement's count, and one the Sturm route's
    broken = [((lo, -1), (hi, 1))]
    monkeypatch.setattr(roots, "_places", lambda s, u, k, i, g:
                        broken * (len(s) - 1) if _whole_box(k, g) else broken)
    with pytest.raises(AssertionError, match="gcd tower sign changes"):
        isolate_roots(p)
    _force_sturm(monkeypatch)
    with pytest.raises(AssertionError, match="gcd tower sign changes"):
        isolate_roots(p)


def test_remainder_sequences_per_question(monkeypatch):
    # placed by signs, no chain answers hyperbolicity and isolation asks only for the one
    # gcd-tower level; not real-rooted, one chain answers hyperbolicity and isolation adds
    # the tower level
    calls = []
    original = roots._prs

    def counting(a, b):
        calls.append(a)
        return original(a, b)

    monkeypatch.setattr(roots, "_prs", counting)
    assert is_hyperbolic(DOUBLED)
    assert calls == []
    assert isolate_roots(DOUBLED).multiplicities == (2, 1, 1)
    assert calls == [(1, 1)]  # gcd(p, p') = x + 1, from the certified common factor
    calls.clear()
    poly = DOUBLED * P([1, 0, 1])
    assert not is_hyperbolic(poly)
    assert calls == [tuple(roots._int_poly(poly))]
    assert isolate_roots(poly).multiplicities == (2, 1, 1)
    assert calls == [tuple(roots._int_poly(poly))] * 2 + [(-1, -1)]  # the chain's last member


@pytest.mark.parametrize("c", [1, -1])
def test_one_remainder_sequence_per_pair_across_questions(remainder_sequence_builds, c):
    built = remainder_sequence_builds
    q = P([1, 1]) * P([1, 1]) * P([-2, 1]) * P([-3, 1]) * P([1, 2])  # doubled root -1
    tower = ((1, 1), (1,))  # the one gcd-tower level: gcd(q, q') = x + 1
    # signs place q's roots: no chain of q, and c*q' fails on the certified gcd
    assert roots_float(q) == [-1.0, -1.0, -0.5, 2.0, 3.0]
    assert is_hyperbolic(q)
    assert interlace_check(q.derivative().scale(c), q) == FAIL
    assert built == [tower]
    # not real-rooted: one chain of q, shared by the three questions
    q = q * P([1, 1, 1])
    assert roots_float(q) == [-1.0, -1.0, -0.5, 2.0, 3.0]
    assert not is_hyperbolic(q)
    assert interlace_check(q.derivative().scale(c), q) == FAIL
    q_key = tuple(roots._int_poly(q))
    dq_key = tuple(roots._primitive(roots._derivative(q_key)))
    # here the tower level is the last member of q's chain, -(x + 1)
    assert built == [tower, (q_key, dq_key), ((-1, -1), (-1,))]
    assert not any(a == dq_key for a, _ in built)  # q' never gets a chain


def test_cli_roots_builds_one_remainder_sequence(remainder_sequence_builds, capsys):
    # is_hyperbolic and distinct_real_roots both ask for the chain of N_30
    built = remainder_sequence_builds
    assert cli.main(["roots", "--n", "30"]) == 0
    assert '"hyperbolic": true' in capsys.readouterr().out
    assert [a for a, _ in built] == [tuple(roots._int_poly(narayana_poly_direct(30)))]


def test_cli_roots_interlace_builds_one_remainder_sequence(remainder_sequence_builds, capsys):
    # strict interlacing of N_39/x and N_40/x already gives gcd(N_39, N_40) = x
    assert cli.main(["roots", "--n", "40", "--interlace"]) == 0
    out = capsys.readouterr().out
    assert '"verdict": "strict-interlace"' in out and '"gcd_is_x": true' in out
    assert len(remainder_sequence_builds) == 1


def test_warm_memo_negative_controls():
    q = P([1])
    for r in (F(-3), F(-1), F(-1, 2), F(1, 3), F(2), F(5)):
        q = q * P([-r, 1])
    assert is_hyperbolic(q)  # placed by signs: no chain
    assert interlace_check(q.derivative(), q) == STRICT_INTERLACE  # Rolle, placed again
    assert roots._prs.cache_info()[:2] == (0, 0)  # (hits, misses)
    bad = q * P([F(1, 3), 0, 1])  # x^2 + 1/3 has no real root
    assert interlace_check(bad.derivative(), bad) == FAIL  # warms the memo with bad's chain
    assert not is_hyperbolic(bad)
    assert roots._prs.cache_info()[:2] == (1, 1)
    assert interlace_check(q.exact_divide(P([-2, 1])), q) == COMMON_ROOT  # both placed
    assert roots._prs.cache_info()[:2] == (1, 2)
    c = tuple(roots._int_poly(q))
    dc = tuple(roots._primitive(roots._derivative(c)))
    seq = roots._prs(c, dc)
    with pytest.raises(TypeError):
        seq[0] = (1,)
    with pytest.raises(TypeError):
        seq[0][0] = 1
    assert roots._prs(c, dc)[0] == c


def _two_pass_prs(a, b, seen):
    """The remainder sequence in two passes per remainder: negate it when mult > 0,
    then divide by its content. Adds (mult > 0, content > 1) per remainder to seen."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        mult, _, r = exactpoly._pseudo_divmod(chain[-2], chain[-1])
        if r == [0]:
            break
        seen.add((mult > 0, math.gcd(*r) > 1))
        chain.append(exactpoly._primitive([(-1 if mult > 0 else 1) * x for x in r]))
    return tuple(map(tuple, chain))


def test_signed_content_division_matches_the_two_pass_remainder_sequence():
    m = [tuple(roots._int_poly(narayana_poly_direct(n).exact_divide(RationalPoly.x())))
         for n in range(2, 41)]
    pairs = list(zip(m[1:], m))  # (M_n, M_{n-1}) of criterion 6, n <= 40
    narayana_seen = set()
    for a, b in pairs:
        assert roots._prs(a, b) == _two_pass_prs(a, b, narayana_seen)
    assert (True, True) in narayana_seen  # Narayana remainders have content > 1
    rng = random.Random(2023)
    seen = set()
    for _ in range(300):
        deg_b = rng.randint(0, 7)
        deg_a = deg_b + rng.randint(0, 3)
        a, b = ((*(rng.randint(-20, 20) for _ in range(d)), rng.choice([-3, -2, -1, 1, 2, 3]))
                for d in (deg_a, deg_b))
        assert roots._prs(a, b) == _two_pass_prs(a, b, seen)
    # content 1 and content > 1, under both signs of mult
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=2, max_size=5))
def test_sturm_total_matches_distinct_count(cs):
    poly = P(cs + [F(1)])
    total = distinct_real_roots(poly)
    iso = isolate_roots(poly)
    assert len(iso.intervals) == total


def _sturm_pair(*factors):
    """(a, b) for p, the product of the (coefficients, multiplicity) factors: a is
    p's primitive integer form and b the primitive derivative of a, the pair a
    Sturm chain of p asks `_prs` for."""
    p = P([1])
    for coeffs, mult in factors:
        for _ in range(mult):
            p = p * P(coeffs)
    a = roots._int_poly(p)
    return tuple(a), tuple(roots._primitive(roots._derivative(a)))


REPEATED = (([-1, 1], 2), ([2, 1], 3), ([1, 2], 1))  # gcd(p, p') = (x - 1)(x + 2)^2


factors = st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=2, max_size=3)
                             .filter(lambda f: f[-1] != 0), st.integers(1, 3)),
                   min_size=1, max_size=4)


@given(factors)
def test_chain_of_repeated_factors_equals_the_two_pass_chain(fs):
    a, b = _sturm_pair(*fs)
    assert roots._prs.__wrapped__(a, b) == _two_pass_prs(a, b, set())


def test_a_triple_root_beside_nonreal_roots_takes_the_sturm_route():
    # signs cannot place x^2 + 1/3, so the chain of p counts; the gcd tower
    # (x - 1)^2 (x + 2), x - 1 has depth 2
    p = P([F(1, 3), 0, 1]) * P([-1, 1]) * P([-1, 1]) * P([-1, 1]) * P([2, 1]) * P([2, 1])
    iso = isolate_roots(p)
    assert iso.path == STURM
    assert iso.multiplicities == (2, 3)
    assert iso.intervals == ((F(-9, 4), F(-7, 4)), (F(3, 4), F(5, 4)))
    assert not is_hyperbolic(p)
    assert roots_float(p) == [-2.0, -2.0, 1.0, 1.0, 1.0]
    assert distinct_real_roots(p) == 2


def test_a_squarefree_pair_is_shown_coprime_at_the_root_bound(monkeypatch):
    a, b = _sturm_pair(([-1, 1], 1), ([-2, 1], 1), ([-3, 1], 1))
    t = 1 << roots._root_bits(b) + 2
    assert t == 64  # b = 3x^2 - 12x + 11 has roots near 1.4 and 2.6
    assert math.gcd(exactpoly.horner(a, t), exactpoly.horner(b, t)) == 1
    points = []
    monkeypatch.setattr(roots, "horner", lambda c, x: points.append(x) or exactpoly.horner(c, x))
    assert roots._common_factor(a, b) == [1]
    assert set(points) == {t}  # no evaluation at xi


@pytest.mark.parametrize("c", [[-6, 11, -6, 1], [0, 0, 0, 1], [5, -1, 0, 0, 3], [7], [1, 1]])
def test_root_bits_bound_every_root(c):
    u = roots._root_bits(c)
    assert all(abs(r) < 2**u for r in roots_float(P(c)))


def test_interlacing_pairs_get_no_proposal(monkeypatch):
    # no chain proposes a common factor, not even a Sturm pair with repeated factors:
    # only the squarefree split does
    def refuse(a, b):
        raise AssertionError("a common factor was proposed for a chain")

    monkeypatch.setattr(roots, "_common_factor", refuse)
    q = P([0, 1]) * P([-2, 1]) * P([-4, 1])
    assert interlace_check(P([-1, 1]) * P([-3, 1]), q) == STRICT_INTERLACE
    # criterion 6's folds for n even: (w S_n, S_{n-1})
    s = [_fold_of(n) for n in (9, 10)]
    assert interlace_check(P(s[0]), P([0] + s[1])) == STRICT_INTERLACE
    a, b = _sturm_pair(*REPEATED)
    assert SturmChain(a).polys == roots._prs.__wrapped__(a, b) == _two_pass_prs(a, b, set())


def test_odd_folds_are_sturm_pairs_shown_coprime():
    # S_{n-1} is the primitive derivative of S_n for n odd, so criterion 6 reads the
    # Sturm chain of S_n there and asks for no common factor; each pair is still
    # shown coprime at its root bound
    s = {n: _fold_of(n) for n in range(2, 62)}
    for n in range(3, 62, 2):
        a, b = tuple(s[n]), tuple(s[n - 1])
        assert b == tuple(roots._primitive(roots._derivative(a)))
        assert roots._common_factor(a, b) == [1]
