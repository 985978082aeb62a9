"""SuperPoly in integer form against the tuple arithmetic it replaced.

Every operation is compared with _oracles.ReferenceSuperPoly, a tuple of
SuperNumber coefficients with one grassmann.dot per product coefficient,
at n = 0..8, with integer, Gaussian and RatT coefficients (and polynomials
that mix them) and with odd, even and mixed parity.  Each comparison checks
the coefficients and the printed form, and every result is checked against
the storage invariants of the class.  The ring operations SuperPoly shares
with SuperNumber (grassmann._Graded) are also checked across the two
classes: a constant polynomial computes what its coefficient does.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (ReferenceSuperPoly, reference_poly_homog_subst,
                      reference_wronskian)
from sgk.grassmann import (MAX_GENERATORS, GrassmannError, Qi, RatT,
                           ScalarPoly, SuperNumber, T_PARAM, _KEYS,
                           _draw_masks)
from sgk.polyrat import SuperPoly, chart2_poly, even_wronskian, homog_subst


def _scalar_form(values):
    return any(type(v) is RatT or v.b for v in values)


def _check_poly_form(p):
    """The storage invariants: keys (i << MAX_GENERATORS) | mask with the
    mask below 2^n and no zero entry; int numerators over _d > 0 with
    gcd(_d, numerators) == 1, or nonzero scalars with _d == 0, which a
    Gaussian or RatT coefficient forces; coeffs one SuperNumber per power up
    to a nonzero top one, each in integer form exactly when all its scalars
    are real Qi."""
    assert type(p) is SuperPoly
    low = (1 << MAX_GENERATORS) - 1
    assert all(k >= 0 and k & low < 1 << p.n for k in p._num)
    values = list(p._num.values())
    if p._d:
        assert p._d > 0 and all(type(v) is int and v for v in values)
        assert math.gcd(p._d, *values) == 1
    else:
        assert all(type(v) in (Qi, RatT) and v for v in values)
    cs = p.coeffs
    assert len(cs) == p.degree() + 1 and (not cs or not cs[-1].is_zero())
    scalars = [v for c in cs for v in c.terms.values()]
    if _scalar_form(scalars):
        assert p._d == 0
    for c in cs:
        assert type(c) is SuperNumber and c.n == p.n
        assert (c._d == 0) == _scalar_form(c.terms.values())


def _agree(got, want):
    _check_poly_form(got)
    assert got.coeffs == want.coeffs
    assert str(got) == str(want)


_small = st.integers(-3, 3)
_reals = st.builds(lambda a, b: Qi(Fraction(a, b)), _small,
                   st.sampled_from((1, 2, 3)))
_gaussians = st.builds(lambda a, b, c: Qi(Fraction(a, c), b), _small,
                       st.integers(1, 2), st.sampled_from((1, 2)))
# RatT values made by arithmetic, so constants come back as Qi
_ratts = st.one_of(st.builds(lambda a, b: a + b * T_PARAM, _reals, _gaussians),
                   st.builds(lambda a: 1 / (T_PARAM + a), _reals))
SCALARS = {"int": _reals, "gaussian": _gaussians, "ratt": _ratts,
           "mixed": st.one_of(_reals, _reals, _gaussians, _ratts)}


def _numbers(n, parity, scalars, max_terms=3):
    subsets = [_KEYS[m] for m in _draw_masks(n, parity)]
    if not subsets:
        return st.just(SuperNumber.zero(n))
    return st.dictionaries(st.sampled_from(subsets), scalars,
                           max_size=max_terms).map(
        lambda t: SuperNumber(n, t))


def _coeff_lists(n, parity, scalars, max_size=4):
    return st.lists(_numbers(n, parity, scalars), max_size=max_size)


def _pair(n, cs):
    return SuperPoly(n, cs), ReferenceSuperPoly(n, cs)


@st.composite
def arithmetic_cases(draw):
    """n, a scalar kind, two coefficient lists of drawn parities and a
    SuperNumber cofactor."""
    n = draw(st.integers(0, MAX_GENERATORS))
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    parity = st.sampled_from((0, 1, None))
    a = draw(_coeff_lists(n, draw(parity), scalars))
    b = draw(_coeff_lists(n, draw(parity), scalars))
    c = draw(_numbers(n, draw(parity), scalars))
    return n, a, b, c


_g = [SuperNumber.gen(8, i) for i in range(1, 9)]


@given(arithmetic_cases())
# odd by odd coefficients at n = 8, where the signs of the products show
@example(case=(8, [_g[0], _g[1] * _g[2] * _g[3]], [_g[4] + _g[0] * 2, _g[7]],
               _g[5] * _g[6] * _g[7]))
# a Gaussian coefficient in one factor only, and terms that cancel
@example(case=(2, [1, SuperNumber.gen(2, 1)],
               [Qi(0, 1), -SuperNumber.gen(2, 1)],
               SuperNumber(2, {(): Fraction(1, 2), (1, 2): T_PARAM})))
@settings(max_examples=120, deadline=None)
def test_superpoly_arithmetic_matches_tuple_reference(case):
    n, a, b, c = case
    (pa, ra), (pb, rb) = _pair(n, a), _pair(n, b)
    _agree(pa, ra)
    for got, want in ((pa * pb, ra * rb), (pb * pa, rb * ra),
                      (pa + pb, ra + rb), (pa - pb, ra - rb), (-pa, -ra),
                      (pa * c, ra * c), (c * pa, c * ra), (pa + c, ra + c),
                      (c - pa, c - ra), (pa * 2, ra * 2), (3 - pa, 3 - ra),
                      (pa ** 2, ra ** 2), (pa.derivative(), ra.derivative())):
        _agree(got, want)
    got, want = pa.eval(c), ra.eval(c)
    assert got == want and str(got) == str(want)


@st.composite
def homog_subst_cases(draw):
    n = draw(st.integers(0, MAX_GENERATORS))
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    parity = st.sampled_from((0, 1, None))
    poly = draw(_coeff_lists(n, draw(parity), scalars))
    num = draw(_coeff_lists(n, draw(parity), scalars, max_size=2))
    den = draw(_coeff_lists(n, draw(parity), scalars, max_size=2))
    total = len(poly) + draw(st.integers(0, 2))
    return n, poly, num, den, total


@given(homog_subst_cases())
@example(case=(8, [_g[0], 0, _g[1] * _g[2]], [_g[3], 1 + _g[4] * _g[5]],
               [1, _g[6]], 4))
@example(case=(3, [Fraction(1, 2), Qi(0, 1)], [Fraction(1, 3), 1],
               [2, Fraction(1, 5)], 2))
@settings(max_examples=80, deadline=None)
def test_homog_subst_matches_tuple_reference(case):
    n, poly, num, den, total = case
    (p, rp), (pn, rn), (pd, rd) = _pair(n, poly), _pair(n, num), _pair(n, den)
    total = max(total, p.degree())
    _agree(homog_subst(p, pn, pd, total),
           reference_poly_homog_subst(rp, rn, rd, total))


@st.composite
def divmod_cases(draw):
    """A dividend and a divisor whose top coefficient has a body."""
    n = draw(st.integers(0, MAX_GENERATORS))
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    parity = st.sampled_from((0, 1, None))
    a = draw(_coeff_lists(n, draw(parity), scalars, max_size=5))
    b = draw(_coeff_lists(n, draw(parity), scalars, max_size=2))
    lead = draw(_numbers(n, None, scalars)).soul() + \
        draw(scalars.filter(bool))
    return n, a, b + [lead]


@given(divmod_cases())
@settings(max_examples=60, deadline=None)
def test_divmod_matches_tuple_reference(case):
    n, a, b = case
    (pa, ra), (pb, rb) = _pair(n, a), _pair(n, b)
    (q, r), (rq, rr) = pa.divmod(pb), ra.divmod(rb)
    _agree(q, rq)
    _agree(r, rr)
    assert q * pb + r == pa


@st.composite
def even_pairs(draw):
    n = draw(st.integers(0, MAX_GENERATORS))
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    return (n, draw(_coeff_lists(n, 0, scalars, max_size=5)),
            draw(_coeff_lists(n, 0, scalars, max_size=5)))


@given(even_pairs())
@example(case=(2, [0, 0, 1], [1, 1]))
@example(case=(4, [SuperNumber(4, {(1, 2): 1}), 3],
               [2, SuperNumber(4, {(3, 4): Qi(0, 1)})]))
@settings(max_examples=80, deadline=None)
def test_one_pass_wronskian_matches_two_products(case):
    n, a, b = case
    (P, rP), (Q, rQ) = _pair(n, a), _pair(n, b)
    W = even_wronskian(P, Q)
    _agree(W, reference_wronskian(rP, rQ))
    # the Wronskian of the bodies is the body of the Wronskian, which is
    # what curves.susy1_matrix reads off the reduced curve
    body = lambda p: SuperPoly.from_body(n, p.body_poly())
    _agree(even_wronskian(body(P), body(Q)), body(W))


@given(arithmetic_cases(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_superpoly_form_invariants(case, extra):
    """Every constructor and operation leaves a canonical form."""
    n, a, b, c = case
    p, q = SuperPoly(n, a), SuperPoly(n, b)
    top = p.degree() + extra
    results = [p, q, SuperPoly(n, a + [0, 0]), p + q, p - q, p * q, -p,
               p - p, p * 0, p * c, c * p, p + c, p.soul(), p.derivative(),
               SuperPoly.from_body(n, p.body_poly()),
               chart2_poly(p, top),
               homog_subst(p, q + 1, SuperPoly.linear(n, 1, c), top)]
    if p.is_even() and q.is_even():
        results.append(even_wronskian(p, q))
    if not q.is_zero() and q.coeffs[-1].is_invertible():
        results.extend(p.divmod(q))
    for r in results:
        _check_poly_form(r)
    assert p.body_poly() == ScalarPoly([x.body() for x in p.coeffs])
    assert p.soul() == SuperPoly(n, [x.soul() for x in p.coeffs])
    assert all(p.coeff(i) == x for i, x in enumerate(p.coeffs))
    assert p.coeff(p.degree() + 1).is_zero() and p.coeff(-1).is_zero()
    bodies = [i for i, x in enumerate(p.coeffs) if x.is_invertible()]
    assert p.body_degree() == max(bodies, default=-1)
    assert p.is_even() == all(x.is_even() for x in p.coeffs)
    assert p.is_odd() == all(x.is_odd() for x in p.coeffs)


@st.composite
def number_pairs(draw):
    """n, two SuperNumbers of drawn parities and a scalar of one kind."""
    n = draw(st.integers(0, MAX_GENERATORS))
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    parity = st.sampled_from((0, 1, None))
    return (n, draw(_numbers(n, draw(parity), scalars)),
            draw(_numbers(n, draw(parity), scalars)), draw(scalars))


@given(number_pairs())
# odd by odd: x on the left keeps its sign, g1 * g2 = -(g2 * g1)
@example(case=(8, _g[0], _g[1], Qi(0, 1)))
@example(case=(3, SuperNumber(3, {(1,): T_PARAM, (2, 3): 1}),
               SuperNumber(3, {(1, 2, 3): Fraction(1, 2), (2,): Qi(0, 1)}),
               1 / (T_PARAM + 1)))
@settings(max_examples=100, deadline=None)
def test_shared_ring_operations_agree_on_numbers_and_constants(case):
    """SuperNumber and SuperPoly share +, -, *, negation, soul, the parity
    tests and powers, so a constant polynomial P(x) computes exactly what
    its coefficient x does, whichever class each operand has, and a result
    is a SuperPoly whenever an operand is one."""
    n, x, y, c = case
    P = lambda v: SuperPoly.const(n, v)
    for op in (operator.add, operator.sub, operator.mul):
        xy = op(x, y)
        assert type(xy) is SuperNumber
        for got in (op(P(x), P(y)), op(P(x), y), op(x, P(y))):
            _agree(got, P(xy))
        _agree(op(c, P(y)), P(op(c, y)))
        _agree(op(P(x), c), P(op(x, c)))
    for f in [operator.neg, lambda v: v.soul()] + \
            [lambda v, k=k: v ** k for k in range(4)]:
        _agree(f(P(x)), P(f(x)))
    assert P(x).is_even() == x.is_even() and P(x).is_odd() == x.is_odd()
    assert P(x).is_zero() == x.is_zero()


def test_shared_ring_operations_keep_each_class_mismatch_message():
    x2, x3 = SuperNumber.gen(2, 1), SuperNumber.gen(3, 1)
    p2, p3 = SuperPoly.const(2, x2), SuperPoly.const(3, x3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(GrassmannError,
                           match="^generator count mismatch: 2 vs 3$"):
            op(x2, x3)
        for a, b in ((p2, p3), (p3, p2)):
            with pytest.raises(GrassmannError, match="^generator count "
                               "mismatch in polynomials$"):
                op(a, b)
        with pytest.raises(GrassmannError,
                           match="^generator count mismatch: 2 vs 3$"):
            op(x2, p3)
