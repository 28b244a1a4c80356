"""Certified real-root counting, isolation, and refinement over Q.

All certificates are exact: Sturm chains are sign-faithful primitive
integer polynomial remainder sequences (only positive scalings, so sign
variation counts are those of the classical rational chain), evaluated by
integer-homogenized Horner at rational points. When p has a repeated factor G,
the chain of (p, p') is G times the chain of the cofactors, bit for bit: G is
proposed by a heuristic gcd and certified by zero pseudo-remainders before the
cofactors' cheaper chain is built. Every chain comes from the memo `_prs`,
keyed on a primitive pair. Interlacing verdicts come from the Cauchy index of
one such sequence. Isolation is dyadic: its endpoints and samples have
power-of-two denominators, and Fujiwara's `_root_bits` is the one root bound.
One kernel samples the signs of the squarefree part s on dyadic grids of that
bound's box, at most once per polynomial: the second memo, `_placement`, keyed
on a primitive vector, holds its squarefree split and, once a reader needs it,
the outcome of the sign phase.
When the signs show deg s sign changes or zeros, all roots are real, counted by
the intermediate value theorem with no chain of their own: `isolate_roots`,
`roots_float`, `is_hyperbolic` and, by Rolle's theorem, `interlace_check` on
(c q', q) read that placement first. Otherwise `_isolate`'s Sturm counts go on
from the memo's last grid, V at the box's ends read off leading signs. Float
root proposals are certified by exact sign changes alone too (`certify_roots`);
floats only choose where to look. Every point evaluated is dyadic (`_horner`
refuses any other). Nothing here trusts the theorems it is used to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import frexp, gcd, isfinite, lcm
from typing import Sequence

from .exactpoly import (RationalPoly, _clear_denominators, _derivative, _mul, _primitive,
                        _pseudo_divmod, horner)

STRICT_INTERLACE = "strict-interlace"
COMMON_ROOT = "common-root"
FAIL = "fail"

# RootIsolation.path: the certificate that isolated the roots
STURM = "sturm"
SIGN_CHANGES = "sign-changes"

_REFINE_WIDTH = Fraction(1, 2**40)  # bracket width behind refined_roots and roots_float
_WIDENINGS = 6  # eightfold each, so a bracket grows at most 2^18-fold


# ---------------------------------------------------------------------------
# integer polynomial layer (coefficient lists, constant term first)
# ---------------------------------------------------------------------------


def _int_poly(p: RationalPoly) -> list[int]:
    """Primitive integer coefficients of a nonzero p (root questions on the
    zero polynomial have no answer)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return _primitive(_clear_denominators(p.coeffs)[0])


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


# maxsize 2: on a q that signs do not place, roots_float(q) builds q's chain,
# then a gcd-tower chain, before is_hyperbolic(q) asks for q's chain again
@lru_cache(maxsize=2)
def _prs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """PRS of the primitive tuples (a, b), the memo key, with Sturm signs: each
    step appends a positive rescaling of -(a mod b); it ends at the (primitive) gcd.

    Built on cofactors when b ends like a multiple of a': for a common factor G of
    a and b, primitive, (G f) mod (G g) = G (f mod g) and Gauss's lemma make each
    member of the chain of (a, b) G times that of (a / G, b / G), and both chains end
    together. G is proposed by `_common_factor` and certified by zero
    pseudo-remainders; any G that fails leaves the plain chain.
    """
    d = len(a) - 1
    if len(b) == d and b[0] * d * a[-1] == b[-1] * a[1]:  # b[0] : b[-1] = a'(0) : lead(a')
        g = _common_factor(a, b)
        if len(b) >= len(g) > 1:
            (ma, qa, ra), (mb, qb, rb) = _pseudo_divmod(a, g), _pseudo_divmod(b, g)
            if ra == rb == [0]:
                cofactors = _chain(tuple(x // ma for x in qa), tuple(x // mb for x in qb))
                return tuple(tuple(_mul(g, c)) for c in cofactors)
    return _chain(a, b)


def _root_bits(c: Sequence[int]) -> int:
    """u with every root of c below 2^u in modulus, from Fujiwara's bound
    2 max_i |c_(d-i) / c_d|^(1/i) on bit lengths."""
    lens = list(map(int.bit_length, c))
    d, lead = len(c) - 1, lens[-1]
    return 1 + max([0] + [-((lead - 1 - n) // (d - i)) for i, n in enumerate(lens[:-1])])


def _common_factor(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A proposed common factor of a and b, primitive with a positive leading
    coefficient; [1] when a and b are shown coprime.

    The roots of a common factor G of positive degree are roots of b, so below 2^u,
    u = `_root_bits(b)`; at t >= 2^(u+2) each |t - z| > t/2, so |G(t)| > t/2, and
    G(t) divides gcd(a(t), b(t)). A gcd of at most t/2 at t = 2^(u+2) or 2^(u+3)
    thus shows a and b coprime. Otherwise G is the heuristic gcd (Char, Geddes and
    Gonnet 1989): the primitive part of the symmetric xi-adic digits of
    gcd(a(xi), b(xi)), xi = 2^e, e the bit length of min(|a|, |b|) (sup norms) plus 2.
    """
    t = 1 << _root_bits(b) + 2
    for t in (t, t << 1):
        if gcd(horner(a, t), horner(b, t)) <= t >> 1:
            return [1]
    e = min(max(map(abs, a)), max(map(abs, b))).bit_length() + 2
    xi = 1 << e
    gamma = gcd(horner(a, xi), horner(b, xi))
    digits = []
    while gamma:
        digit = gamma & (xi - 1)
        if digit > xi >> 1:
            digit -= xi
        digits.append(digit)
        gamma = (gamma - digit) >> e
    return _primitive(digits, _sign(digits[-1]))


# Members are built as lists and frozen once at the end; building each as a
# tuple from a generator left about 0.6 MB more allocated after the
# hyperbolicity-interlacing check
def _chain(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    chain = [a, b]
    while True:
        f, g = chain[-2], chain[-1]
        if len(g) == 1:
            break
        if len(f) < len(g):
            raise AssertionError("PRS degree order violated")
        mult, _, r = _pseudo_divmod(f, g)
        if r == [0]:
            break  # g divides f: g is the gcd, chain ends there
        # mult f = q g + r, so -(f mod g) = -r / mult: the signed content division
        # (-content when mult > 0) makes it primitive in one pass over r
        chain.append(_primitive(r, -1 if mult > 0 else 1))
    return tuple(map(tuple, chain))


def _horner(c: Sequence[int], num: int, den: int) -> int:
    """den^deg(c) * c(num/den) for a power of two den, by homogenized Horner that
    shifts the coefficients instead of multiplying them. Every point that roots
    evaluates is dyadic; any other den raises ValueError."""
    if den & (den - 1):
        raise ValueError(f"{num}/{den} is not a dyadic point")
    d, e = len(c) - 1, den.bit_length() - 1
    acc = c[-1]
    for i in range(d - 1, -1, -1):
        acc = acc * num + (c[i] << e * (d - i))
    return acc


def _eval_sign(c: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial at a rational point."""
    return _sign(_horner(c, x.numerator, x.denominator))


def _variations(signs) -> int:
    """Sign changes along a sequence, zeros skipped."""
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _cauchy_index(polys: Sequence[Sequence[int]]) -> int:
    """V(-inf) - V(+inf) of the signed remainder sequence (f, g, ...): the
    Cauchy index of g/f over the real line."""
    at_pos = [_sign(c[-1]) for c in polys]
    at_neg = [s if len(c) % 2 else -s for s, c in zip(at_pos, polys)]
    return _variations(at_neg) - _variations(at_pos)


class SturmChain:
    """Sign-faithful remainder chain of (p, p') on integer coefficients.

    For non-roots a < b of p, variations_at(a) - variations_at(b) is the
    number of *distinct* real roots of p in (a, b); this holds for
    non-squarefree p too (the trailing gcd scales the whole sign sequence
    at non-root points, leaving variation counts intact). Its last member
    is gcd(p, p').

    int_coeffs must be primitive (content 1), as every caller's are: an
    `_int_poly` vector or a member of another chain.
    """

    def __init__(self, int_coeffs: Sequence[int]):
        p = list(int_coeffs)
        self.polys = ((tuple(p),) if len(p) == 1
                      else _prs(tuple(p), tuple(_primitive(_derivative(p)))))
        self.poly = p

    def variations_at(self, x: Fraction) -> int:
        return _variations([_eval_sign(c, x) for c in self.polys])

    def total_real_roots(self) -> int:
        """Number of distinct real roots (the Cauchy index of p'/p)."""
        return _cauchy_index(self.polys)


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootIsolation:
    """Disjoint intervals with dyadic ends, one distinct real root each.

    `path` names the certificate that made it: SIGN_CHANGES (the intermediate
    value theorem: `certify_roots`, or `isolate_roots` when signs on its dyadic
    grids place every root) or STURM (`isolate_roots`' chain counts). On both,
    `certificates[i]` holds the endpoint signs (sign s(lo), sign s(hi)) of
    interval i, opposite, where s is the squarefree part whose integer
    coefficients `_sqfree` holds; `refine` narrows on s from those signs.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    multiplicities: tuple[int, ...]
    certificates: tuple[tuple[int, int], ...]
    _sqfree: tuple
    path: str

    def real_root_count(self) -> int:
        return sum(self.multiplicities)


def _signs(s: Sequence[int], u: int, k: int, points) -> list[int]:
    """Signs of s at the points (2i - 2^k) 2^(u-k), i in points, of the grid of 2^k
    cells of [-2^u, 2^u]: integer indices over one power-of-two denominator."""
    d, e = len(s) - 1, max(k - u, 0)
    # at x = num / 2^e, 2^(e d) s(x) is the integer polynomial s_j 2^(e (d-j)) at num
    c = [x << e * (d - j) for j, x in enumerate(s)]
    return [_sign(horner(c, (2 * i - (1 << k)) << max(u - k, 0))) for i in points]


def _at(u: int, k: int, i: int) -> Fraction:
    """Point i of the grid of 2^k cells of [-2^u, 2^u]."""
    return Fraction(2 * i - (1 << k)) * Fraction(2) ** (u - k)


def _places(s: Sequence[int], u: int, k: int, i: int, g: list[int]) -> list:
    """((lo, sign s(lo)), (hi, sign s(hi))) for the places of a root of s among the
    signs g of s at points i, i + 1, ... of the grid of 2^k cells of [-2^u, 2^u],
    whose ends are nonzero: a strict sign change across a cell, or a zero x of s
    (beside a zero too), as (x - h/2, x + h/2), h the cell width."""
    out = [((_at(u, k, i + m), g[m]), (_at(u, k, i + m + 1), g[m + 1]))
           for m in range(len(g) - 1) if g[m] * g[m + 1] < 0]
    for m in (m for m, v in enumerate(g) if not v):
        ends = (2 * (i + m) - 1, 2 * (i + m) + 1)
        out.append(tuple(zip([_at(u, k + 1, j) for j in ends], _signs(s, u, k + 1, ends))))
    return out


def _sturm(p: Sequence[int]) -> tuple[SturmChain, list[int]]:
    """p's Sturm chain and p / gcd(p, p'), primitive with a positive leading
    coefficient, gcd(p, p') the chain's last member."""
    chain = SturmChain(p)
    _, q, r = _pseudo_divmod(p, chain.polys[-1])
    if r != [0]:
        raise AssertionError("the last chain member does not divide the polynomial")
    return chain, _primitive(q, _sign(q[-1]))


def _first_grid(s: Sequence[int], u: int) -> tuple[int, list[int]]:
    """(k, signs of s on the grid of 2^k cells of [-2^u, 2^u]), 2^k >= 4 deg s the least."""
    k = (4 * (len(s) - 1) - 1).bit_length()
    return k, _signs(s, u, k, range((1 << k) + 1))


def _finer(s: Sequence[int], u: int, k: int, i: int, g: Sequence[int], e: int) -> tuple:
    """(k + e, i 2^e, f): the samples g of s at points i, i + 1, ... of the grid of 2^k
    cells of [-2^u, 2^u], and those of the grid 2^e times finer between them, in f."""
    k, i, step = k + e, i << e, 1 << e
    f = [0] * ((len(g) - 1) * step + 1)
    f[::step] = g
    for r in range(1, step):
        f[r::step] = _signs(s, u, k, range(i + r, i + len(f) - 1, step))
    return k, i, f


def _sign_phase(s: tuple[int, ...]) -> tuple:
    """(k, grid, places): grid the signs of s on the last grid of 2^k cells of
    [-2^u, 2^u] sampled, u = `_root_bits(s)`, and places the sorted
    ((lo, sign s(lo)), (hi, sign s(hi))) of one disjoint interval per root when
    the signs place deg s roots, else None. Sampling starts from 2^k >= 4 deg s
    cells and each doubling evaluates the new midpoints only, while rounds place
    more roots, up to 16 deg s cells."""
    d, u, best = len(s) - 1, _root_bits(s), -1
    k, grid = _first_grid(s, u)
    while True:
        placed = list(map(int.__mul__, grid, grid[1:])).count(-1) + grid.count(0)
        if placed == d:
            found = _places(s, u, k, 0, grid)
            if len(found) == d:
                return k, tuple(grid), tuple(sorted(found))
        if placed == d or placed <= best or 1 << k >= 16 * d:
            return k, tuple(grid), None
        best = placed
        k, _, grid = _finer(s, u, k, 0, grid, 1)


def _squarefree_split(ip: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """(G, s): G = `_common_factor(ip, ip')`, certified to divide ip and ip' by zero
    pseudo-remainders, and s = ip / G, primitive with a positive leading
    coefficient; None for a constant ip or a failed G. A root of ip of
    multiplicity m is one of G of order below m, so a root of s. Only the memo
    `_placement` calls it."""
    if len(ip) < 2:
        return None
    dp = _primitive(_derivative(ip))
    g = _common_factor(ip, dp)
    if len(g) > len(dp):
        return None
    (_, q, r), (_, _, rd) = _pseudo_divmod(ip, g), _pseudo_divmod(dp, g)
    return (g, _primitive(q, _sign(q[-1]))) if r == rd == [0] else None


@dataclass(frozen=True)
class _Placement:
    """A polynomial's certified squarefree split (g, s) and `phase`, the outcome
    (k, grid, places) of `_sign_phase(s)`, sampled when first read: a verdict that
    G of positive degree settles alone (`_simple_real`) samples no grid."""
    g: tuple[int, ...]
    s: tuple[int, ...]

    @cached_property
    def phase(self) -> tuple:
        return _sign_phase(self.s)


# maxsize 2, as `_prs`: a polynomial's questions come one after another, and
# interlace_check's common-root verdict asks about two
@lru_cache(maxsize=2)
def _placement(ip: tuple[int, ...]) -> _Placement | None:
    """The `_Placement` of the primitive tuple ip, the memo key; None when
    `_squarefree_split(ip)` fails. `isolate_roots`, `is_hyperbolic` and
    `_simple_real` read a polynomial's split and sign grid only here, so each is
    made at most once."""
    split = _squarefree_split(ip)
    return split and _Placement(*map(tuple, split))


def _isolate(ip: list[int]) -> tuple:
    """(iso, s, G, path): iso the ((lo, sign s(lo)), (hi, sign s(hi))) of disjoint
    intervals, sorted, one per distinct real root of s, the squarefree part of ip,
    and G = gcd(ip, ip') up to a unit. path is SIGN_CHANGES when `_placement(ip)`'s
    signs place deg s roots; G and s are then its split. Otherwise (path STURM) ip's
    Sturm chain gives s and G, its last member, and Sturm counts go on from the
    memo's last grid (from s's first grid when the split failed or was wrong): a run
    of samples whose places (`_places`) fall short of its count is split by one
    `variations_at` at the nonzero sample nearest its middle, after going to a grid
    of at least 4c cells if it counts c >= 2 roots with no nonzero sample inside.
    """
    placement = _placement(tuple(ip))
    if placement and placement.phase[2]:
        return placement.phase[2], placement.s, placement.g, SIGN_CHANGES
    chain, s = _sturm(ip)
    u = _root_bits(s)
    if placement and placement.s == tuple(s):
        k, grid, _ = placement.phase
    else:
        k, grid = _first_grid(s, u)
    vhi = _variations([_sign(c[-1]) for c in chain.polys])  # V(2^u) = V(+inf)
    out, stack = [], [(k, 0, grid, vhi + chain.total_real_roots(), vhi)]
    while stack:
        k, i, g, vlo, vhi = stack.pop()
        c = vlo - vhi
        if c == 0:
            continue
        if c > 1 and not any(g[1:-1]):  # least e with (len(g) - 1) 2^e >= 4c
            k, i, g = _finer(s, u, k, i, g, (-(-4 * c // (len(g) - 1)) - 1).bit_length())
        found = _places(s, u, k, i, g)
        if len(found) == c:
            out += found
            continue
        n = len(g) - 1
        m = min((j for j in range(1, n) if g[j]), key=lambda j: abs(2 * j - n))
        vmid = chain.variations_at(_at(u, k, i + m))
        stack += [(k, i, g[:m + 1], vlo, vmid), (k, i + m, g[m:], vmid, vhi)]
    return sorted(out), s, chain.polys[-1], STURM


def isolate_roots(p: RationalPoly) -> RootIsolation:
    """Certified isolation of all distinct real roots, with multiplicities.

    `_isolate` places the roots of s, the squarefree part of (G, s) =
    `_squarefree_split(p)` (read from `_placement`), on dyadic grids of
    [-2^u, 2^u], u = `_root_bits(s)`: by signs alone (path SIGN_CHANGES, no
    chain of p) when deg s roots are placed, which are then all the roots of
    p, simple roots of s, so G = gcd(p, p') up to a unit; otherwise with p's
    Sturm chain (path STURM), gcd(p, p') its last member. Every root is inside the box, and V changes
    only at roots, so V(-2^u) = V(-inf) and V(2^u) = V(+inf), from leading signs.
    Multiplicities come from the signs of the gcd tower G_0 = p,
    G_1 = gcd(p, p'), G_{k+1} = gcd(G_k, G_k') (the last member of G_k's
    chain) at the endpoints of each isolating interval:
    - the interval holds one distinct root r of p, of multiplicity m;
    - G_k divides p, so r is its only possible root there, of order max(m - k, 0);
    - no endpoint is a root of p, so G_k is nonzero at both;
    - so G_k changes sign across it iff that order is odd: k = m-1, m-3, ...;
    - hence m = 1 + the largest k at which G_k changes sign.
    Each interval's certificate is the pair of opposite signs of the
    squarefree part p / G_1 at its endpoints, as on `certify_roots`'s path.
    """
    ip = _int_poly(p)
    iso, sqfree, g, path = _isolate(ip)
    intervals = tuple((lo, hi) for (lo, _), (hi, _) in iso)
    signs = tuple((slo, shi) for (_, slo), (_, shi) in iso)
    if any(slo * shi >= 0 for slo, shi in signs):
        raise AssertionError("squarefree part does not change sign across an isolating interval")
    tower = [ip]
    while len(g) > 1:
        tower.append(g)
        g = SturmChain(g).polys[-1]
    mults = []
    for lo, hi in intervals:
        odd = [_eval_sign(g, lo) * _eval_sign(g, hi) < 0 for g in tower]
        m = 1 + max((k for k, o in enumerate(odd) if o), default=-1)
        if m == 0 or odd != [k < m and (m - 1 - k) % 2 == 0 for k in range(len(odd))]:
            raise AssertionError(f"gcd tower sign changes {odd} across ({lo}, {hi})")
        mults.append(m)
    return RootIsolation(intervals, tuple(mults), signs, tuple(sqfree), path)


def certify_roots(p: RationalPoly, proposals: Sequence[float]) -> RootIsolation | None:
    """Isolation of all deg p roots of p, certified from float proposals by
    exact signs alone; None when the proposals do not certify.

    Each proposal r gets a bracket with short dyadic endpoints and a
    half-width of about 2^-46 |r|, at most 2^-42, widened eightfold up to
    _WIDENINGS times until p changes sign strictly across it. deg p disjoint
    brackets that each show a strict sign change hold a root each (the
    intermediate value theorem) and p has no more: its roots are real,
    simple and isolated by the brackets. No Sturm chain is built.
    """
    poly = _int_poly(p)
    if len(proposals) != len(poly) - 1 or not all(map(isfinite, proposals)):
        return None
    brackets = []
    for r in sorted(proposals):
        exponent = min(frexp(r)[1] - 46, -42)
        for _ in range(_WIDENINGS + 1):
            half = Fraction(2) ** exponent
            centre = round(Fraction(r) / half)
            lo, hi = (centre - 1) * half, (centre + 1) * half
            slo, shi = _eval_sign(poly, lo), _eval_sign(poly, hi)
            if slo * shi < 0:
                break
            exponent += 3
        else:
            return None
        brackets.append((lo, hi, slo, shi))
    if any(a[1] > b[0] for a, b in zip(brackets, brackets[1:])):
        return None
    return RootIsolation(tuple((lo, hi) for lo, hi, _, _ in brackets), (1,) * len(brackets),
                         tuple((slo, shi) for _, _, slo, shi in brackets), tuple(poly),
                         SIGN_CHANGES)


def _secant(fa: int, fb: int, cells: int) -> int:
    """The point of 0..cells nearest to where the chord from (0, fa) to
    (cells, fb) meets zero; fa and fb have opposite signs."""
    num, den = cells * fa, fa - fb
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


def refine(iso: RootIsolation, index: int, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Isolating interval `index` narrowed below width `tol` (exact signs
    only), starting from the endpoint signs its certificate holds.

    The result is bisection's: the cell of the first grid of 2^k equal cells
    of the interval that are at most tol wide, or r -+ tol/2 when a point r
    of that grid is the root. It is found by quadratic interval refinement
    (Abbott 2006) on integer indices of that grid. Once refine has computed
    values at both ends of the bracket, a secant through them proposes a
    point on a grid of 2^bits cells of the bracket, and signs there and at
    one neighbour either shrink the bracket to one such cell (bits doubles)
    or not (bits halves). Before that, the bracket is bisected.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = iso.intervals[index]
    poly = iso._sqfree
    slo, shi = iso.certificates[index]
    if not slo * shi < 0:
        raise AssertionError("isolating interval must bracket a simple root")
    width = hi - lo
    n, d = (width / tol).as_integer_ratio()
    k = 0
    while n > d << k:
        k += 1
    # grid point j is (base + j * step) / den, for j in 0 .. 2^k
    den = lcm(lo.denominator, width.denominator)
    base = lo.numerator * (den // lo.denominator) << k
    step = width.numerator * (den // width.denominator)
    den <<= k
    a, b = 0, 1 << k
    fa = fb = None  # den^deg * s at a and b, once refine has evaluated them

    def narrow(j):
        """Evaluate s at grid point j: the point itself if it is the root,
        else None, with the bracket narrowed to the side that holds it."""
        nonlocal a, b, fa, fb
        fj = _horner(poly, base + j * step, den)
        if fj == 0:
            return Fraction(base + j * step, den)
        if _sign(fj) == slo:
            a, fa = j, fj
        else:
            b, fb = j, fj
        return None

    bits = 2
    while b - a > 1:
        if fa is None or fb is None:
            root = narrow((a + b) // 2)
        else:
            cell = max(1, (b - a) >> bits)
            m = min(max(a + cell * _secant(fa, fb, (b - a) // cell), a + 1), b - 1)
            root = narrow(m)
            if root is None and b - a > cell:
                root = narrow(a + cell if a == m else b - cell)
            bits = bits * 2 if b - a <= cell else max(1, bits // 2)
        if root is not None:
            # what bisection returns once the root r is its midpoint
            return root - tol / 2, root + tol / 2
    return Fraction(base + a * step, den), Fraction(base + b * step, den)


def refined_roots(iso: RootIsolation) -> list[float]:
    """Midpoints of the intervals refined below width 2^-40, as binary64,
    repeated per multiplicity, sorted."""
    out = []
    for i, mult in enumerate(iso.multiplicities):
        lo, hi = refine(iso, i, _REFINE_WIDTH)
        out.extend([float((lo + hi) / 2)] * mult)
    out.sort()
    return out


def roots_float(p: RationalPoly) -> list[float]:
    """All real roots as binary64, repeated per multiplicity, sorted."""
    return refined_roots(isolate_roots(p))


def distinct_real_roots(p: RationalPoly) -> int:
    """Number of distinct real roots, from variations at -inf and +inf."""
    return SturmChain(_int_poly(p)).total_real_roots()


def is_hyperbolic(p: RationalPoly) -> bool:
    """True iff all roots are real (counted with multiplicity).

    True when `_placement(p)`'s signs place deg s roots of s, (G, s) the
    squarefree split: every root of p is one of s's. Otherwise by Sturm:
    p and p / gcd(p, p') share their roots, so p is hyperbolic iff its distinct
    real roots number deg p - deg gcd(p, p').
    """
    ip = _int_poly(p)
    placement = _placement(tuple(ip))
    if placement and placement.phase[2]:
        return True
    chain = SturmChain(ip)
    return chain.total_real_roots() == len(chain.poly) - len(chain.polys[-1])


def poly_gcd(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    """Monic gcd over Q (primitive integer PRS underneath)."""
    if p.is_zero():
        return q if q.is_zero() else q.scale(1 / q.leading())
    if q.is_zero():
        return p.scale(1 / p.leading())
    a, b = _int_poly(p), _int_poly(q)
    if len(a) < len(b):
        a, b = b, a
    g = RationalPoly(_prs(tuple(a), tuple(b))[-1])
    return g.scale(1 / g.leading())


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def _simple_real(c: list[int]) -> bool:
    """Whether c has deg c distinct real roots: not when `_placement(c)`'s split
    certifies a G of positive degree, so when G = 1 and its signs place deg c
    roots, and otherwise iff c's chain counts deg c."""
    placement = _placement(tuple(c))
    if placement and (len(placement.g) > 1 or placement.phase[2]):
        return len(placement.g) == 1
    return SturmChain(c).total_real_roots() == len(c) - 1


def interlace_check(p: RationalPoly, q: RationalPoly) -> str:
    """Verdict on strict interlacing of p (degree m) inside q (degree m+1).

    When p is a multiple of q' (`_prs`'s O(1) test, then equal primitive
    vectors), Rolle's theorem makes it STRICT_INTERLACE iff q has deg q simple
    real roots (`_simple_real`), else FAIL. Otherwise build the signed
    remainder sequence of (q, p). When it ends in a constant (p, q coprime),
    its Cauchy index Ind(p/q) = V(-inf) - V(+inf) collects one +-1 per
    odd-multiplicity real root of q, with the same sign exactly when p changes
    sign between consecutive ones; so |Ind(p/q)| = deg q iff q has deg q
    simple real roots with one root of p strictly between each neighbouring
    pair. Otherwise p and q share a root: FAIL unless each has as many
    distinct real roots as its degree (`_simple_real`), then COMMON_ROOT.
    """
    if p.degree + 1 != q.degree:
        raise ValueError("need deg q = deg p + 1")
    a, b = _int_poly(q), _int_poly(p)
    # p and -p share a memo key; only Ind(p/q)'s sign flips
    b = b if (a[-1] > 0) == (b[-1] > 0) else [-x for x in b]
    if b[0] * (len(a) - 1) * a[-1] == b[-1] * a[1] and b == _primitive(_derivative(a)):
        return STRICT_INTERLACE if _simple_real(a) else FAIL
    prs = _prs(tuple(a), tuple(b))
    if len(prs[-1]) == 1:
        return STRICT_INTERLACE if abs(_cauchy_index(prs)) == q.degree else FAIL
    return COMMON_ROOT if _simple_real(a) and _simple_real(b) else FAIL
