"""Polynomials over the Grassmann algebra and exact linear algebra."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (reference_coprime_bodies, reference_homog_subst,
                      reference_module_rank_report)
from sgk.bundles import Section
from sgk.grassmann import GrassmannError, Qi, ScalarPoly, SuperNumber, \
    T_PARAM, make_rat, random_qi, random_supernumber
from sgk.linalg import (_gauss_jordan, field_inverse, field_rank,
                        field_solve, mat_mul, mat_vec, module_rank_report,
                        solve_body_invertible)
from sgk.polyrat import (CERTIFICATE_POINTS, SuperPoly, chart2_poly,
                         coprime_bodies, homog_subst, inverse_mod,
                         reverse_coeffs)


def _rand_poly(rng, n, max_deg):
    deg = rng.randint(0, max_deg)
    return SuperPoly(n, [random_supernumber(rng, n, max_terms=3)
                         for _ in range(deg + 1)])


# ---------------------------------------------------------------------------
# SuperPoly


def test_poly_ring_axioms_random():
    rng = random.Random(71)
    n = 3
    for _ in range(40):
        a, b, c = (_rand_poly(rng, n, 3) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == sum_sign_check(a, b)


def sum_sign_check(a, b):
    """Convolution computed directly, as a second route."""
    n = a.n
    if a.is_zero() or b.is_zero():
        return SuperPoly(n)
    out = [SuperNumber.zero(n)] * (a.degree() + b.degree() + 1)
    for i in range(a.degree() + 1):
        for j in range(b.degree() + 1):
            out[i + j] = out[i + j] + a.coeff(i) * b.coeff(j)
    return SuperPoly(n, out)


def test_poly_trimming_and_degree():
    n = 1
    assert SuperPoly(n, [0, 0]).degree() == -1
    assert SuperPoly(n, [1, 0]).degree() == 0
    assert SuperPoly(n).is_zero()
    p = SuperPoly(n, [1, 2, 0])
    assert p.degree() == 1 and p.coeff(5).is_zero()


def test_poly_eval_and_derivative():
    rng = random.Random(72)
    n = 2
    for _ in range(20):
        p = _rand_poly(rng, n, 4)
        q = _rand_poly(rng, n, 3)
        x = random_supernumber(rng, n, parity=0)
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)
        assert (p * q).derivative() == \
            p.derivative() * q + p * q.derivative()


def test_poly_divmod_round_trip():
    rng = random.Random(73)
    n = 2
    for _ in range(40):
        a = _rand_poly(rng, n, 5)
        b = _rand_poly(rng, n, 3)
        if b.is_zero() or not b.coeff(b.degree()).body():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()
    with pytest.raises(GrassmannError):
        SuperPoly(n, [1]).divmod(SuperPoly(n))
    with pytest.raises(GrassmannError):
        # leading coefficient with zero body cannot lead a division
        SuperPoly(n, [1]).divmod(
            SuperPoly(n, [1, SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2)]))


def test_homog_subst_degree_one_example():
    # z -> (2z + 1) / (z + 1) on p(z) = z^2 with total degree 2:
    # the numerator polynomial (2z + 1)^2
    n = 1
    p = SuperPoly(n, [0, 0, 1])
    num = SuperPoly.linear(n, 1, 2)
    den = SuperPoly.linear(n, 1, 1)
    assert homog_subst(p, num, den, 2) == num * num
    # constants pick up den^total
    c = SuperPoly.const(n, 5)
    assert homog_subst(c, num, den, 2) == den * den * 5


def test_homog_subst_composition_law():
    rng = random.Random(74)
    n = 2
    for _ in range(20):
        p = _rand_poly(rng, n, 3)
        if p.is_zero():
            continue
        d = p.degree()
        # substituting z (identity) changes nothing
        ident_num = SuperPoly.linear(n, 0, 1)
        ident_den = SuperPoly.const(n, 1)
        assert homog_subst(p, ident_num, ident_den, d) == p


def _elements(n, parity=None):
    """SuperNumbers over n generators with up to three small Q(i) terms, of
    the given parity (0 even, 1 odd) or of mixed parity."""
    monomials = [k for size in range(n + 1)
                 for k in itertools.combinations(range(1, n + 1), size)
                 if parity is None or size % 2 == parity]
    if not monomials:
        return st.just(SuperNumber.zero(n))
    coeffs = st.builds(Qi, st.integers(-3, 3), st.integers(-1, 1))
    return st.dictionaries(st.sampled_from(monomials), coeffs,
                           max_size=3).map(lambda t: SuperNumber(n, t))


def _polys(n, max_size, parity=None):
    return st.lists(_elements(n, parity), max_size=max_size).map(
        lambda cs: SuperPoly(n, cs))


@st.composite
def homog_cases(draw):
    """(poly, num, den, total) at n <= 4: coefficients of either parity with
    zeros among them, linear or quadratic num and den, and total from the
    degree up to the degree + 3."""
    n = draw(st.integers(0, 4))
    parity = draw(st.sampled_from((None, 0, 1)))
    poly = draw(_polys(n, 5))
    num = draw(_polys(n, 3, parity))
    den = draw(_polys(n, 3, parity))
    total = max(poly.degree(), 0) + draw(st.integers(0, 3))
    return poly, num, den, total


_h = [SuperNumber.gen(4, i) for i in (1, 2, 3, 4)]


@given(homog_cases())
# odd coefficients in num and den: the factor order decides the signs
@example(case=(SuperPoly(4, [1, 0, _h[0] * _h[1], 2]),
               SuperPoly.linear(4, _h[0], 1 + _h[1] * _h[2]),
               SuperPoly.linear(4, 1, _h[3]), 4))
@example(case=(SuperPoly(4, [_h[2], 0, 0, 1]), SuperPoly.linear(4, 0, _h[0]),
               SuperPoly.linear(4, _h[1], _h[3]), 3))
# the zero polynomial, and a constant at a higher total
@example(case=(SuperPoly(4), SuperPoly.linear(4, 1, 2),
               SuperPoly.linear(4, 3, 1), 2))
@example(case=(SuperPoly(4, [5]), SuperPoly.linear(4, 1, 2),
               SuperPoly.linear(4, 3, 1), 3))
@settings(max_examples=200, deadline=None)
def test_homog_subst_matches_reference(case):
    poly, num, den, total = case
    got = homog_subst(poly, num, den, total)
    want = reference_homog_subst(poly, num, den, total)
    assert got == want and str(got) == str(want)


@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(_polys(n, 4), _elements(n))))
@settings(max_examples=100, deadline=None)
def test_poly_times_constant_matches_convolution(case):
    p, c = case
    const = SuperPoly.const(p.n, c)
    assert p * c == p * const == sum_sign_check(p, const)
    assert c * p == const * p == sum_sign_check(const, p)


def test_reverse_coeffs():
    n = 1
    p = SuperPoly(n, [1, 2, 3])
    assert reverse_coeffs(p, 2) == SuperPoly(n, [3, 2, 1])
    # padding up to the stated total degree
    assert reverse_coeffs(p, 3) == SuperPoly(n, [0, 3, 2, 1])


small_qi = st.builds(Qi, st.integers(-3, 3), st.integers(-1, 1))
small_scalars = st.one_of(small_qi, st.builds(lambda a, b: a + b * T_PARAM,
                                              small_qi, small_qi))


@given(st.sampled_from((0, 2, 3)), st.data())
@settings(max_examples=100, deadline=None)
def test_chart2_poly_and_frame2_match_the_substitution(n, data):
    monomials = [k for size in range(n + 1)
                 for k in itertools.combinations(range(1, n + 1), size)]
    element = st.dictionaries(st.sampled_from(monomials), small_scalars,
                              max_size=3).map(lambda t: SuperNumber(n, t))
    p = SuperPoly(n, data.draw(st.lists(element, max_size=5)))
    total = p.degree() + data.draw(st.integers(0, 2))
    want = homog_subst(p, SuperPoly.const(n, -1), SuperPoly.linear(n, 0, 1),
                       total)
    got = chart2_poly(p, total)
    assert got == want and str(got) == str(want)
    if total >= 0:
        sign = -1 if total & 1 else 1
        frame2 = Section(n, total, p).frame2()
        assert frame2 == want * sign and str(frame2) == str(want * sign)


# ---------------------------------------------------------------------------
# Coprimality of curve bodies: the modular certificate against exact Euclid


(P1, _, T1), (P2, _, T2) = CERTIFICATE_POINTS
_ONE = ScalarPoly((1,))
_I = Qi(0, 1)


def _lin(c0, c1=1):
    """The body c0 + c1*z."""
    return ScalarPoly((c0, c1))


def test_certificate_points_are_valid():
    for prime, r, t0 in CERTIFICATE_POINTS:
        assert prime % 4 == 1 and (r * r + 1) % prime == 0
        assert all(prime % k for k in range(2, math.isqrt(prime) + 1))
        assert 0 < r < prime and 0 <= t0 < prime
    assert len({prime for prime, _, _ in CERTIFICATE_POINTS}) \
        == len(CERTIFICATE_POINTS)


body_qi = st.builds(lambda a, b, d: Qi(Fraction(a, d), Fraction(b, d)),
                    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 7))
t_polys = st.lists(body_qi, max_size=2).map(ScalarPoly)
body_ratt = st.builds(make_rat, t_polys,
                      t_polys.filter(lambda p: not p.is_zero()))
# bodies of degree at most 2 over Q(i), over Q(i)(t), and with both kinds
# of coefficient; exact Euclid over Q(i)(t) slows down fast with the degree
bodies = st.one_of(
    st.lists(body_qi, max_size=3),
    st.lists(body_ratt, max_size=3),
    st.lists(st.one_of(body_qi, body_ratt), max_size=3),
).map(ScalarPoly)
shared_factors = st.lists(st.one_of(body_qi, body_ratt), min_size=1,
                          max_size=2).map(ScalarPoly)


@given(bodies, bodies, st.one_of(st.just(_ONE), shared_factors))
# a shared factor (z - t)(z + 1)
@example(p=_lin(2), q=_lin(-3), common=_lin(-T_PARAM) * _lin(1))
# a shared factor whose product has i^2 terms: (z - i)(z + 2), (z - i)(z + 3i)
@example(p=_lin(2), q=_lin(3 * _I), common=_lin(-_I))
# a leading coefficient divisible by the first prime, with and without a
# shared factor that loses its degree there
@example(p=_lin(1, P1), q=_lin(2), common=_ONE)
@example(p=_lin(1), q=_lin(2), common=_lin(1, P1))
# a Qi denominator equal to the first prime
@example(p=_lin(P1), q=_lin(2 * P1), common=_lin(Qi(Fraction(1, P1))))
# a RatT coefficient whose denominator vanishes at the first t0
@example(p=_lin(T_PARAM - T1), q=_lin(2 * (T_PARAM - T1)),
         common=_lin(1 / (T_PARAM - T1)))
# a leading coefficient t - t0
@example(p=_lin(1), q=_lin(2), common=_lin(1, T_PARAM - T1))
# coprime bodies whose images share a root at both points
@example(p=_lin(0), q=_lin(P1 * P2), common=_ONE)
@example(p=_lin(0), q=_lin((T_PARAM - T1) * (T_PARAM - T2)), common=_ONE)
# constant and zero bodies
@example(p=ScalarPoly(), q=ScalarPoly((3,)), common=_ONE)
@example(p=ScalarPoly(), q=ScalarPoly(), common=_ONE)
@example(p=ScalarPoly(), q=_lin(0), common=_ONE)
@example(p=ScalarPoly((2,)), q=_lin(1), common=_ONE)
@example(p=ScalarPoly((5,)), q=ScalarPoly((7,)), common=_ONE)
@settings(max_examples=300, deadline=None)
def test_coprime_bodies_matches_exact_euclid(p, q, common):
    p, q = p * common, q * common
    assert coprime_bodies(p, q) == reference_coprime_bodies(p, q)


@given(bodies, bodies, st.one_of(st.just(_ONE), shared_factors))
# a shared factor (z - t)(z + 1), and a zero a
@example(a=_lin(2), f=_lin(-3), common=_lin(-T_PARAM) * _lin(1))
@example(a=ScalarPoly(), f=_lin(_I), common=_ONE)
@settings(max_examples=200, deadline=None)
def test_inverse_mod_is_the_bezout_cofactor(a, f, common):
    a, f = a * common, f * common
    if f.degree() < 1:
        return
    s = inverse_mod(a, f)
    if a.gcd(f).degree() != 0:
        assert s is None
    else:
        assert s.degree() < f.degree() and (a * s).divmod(f)[1] == _ONE


def _product(factors):
    out = _ONE
    for f in factors:
        out = out * f
    return out


def test_certificate_decides_without_euclid(monkeypatch):
    # degree-40 bodies with distinct roots, over Q(i) and over Q(i)(t);
    # they are built before the gcd is patched, since RatT arithmetic runs it
    half = Qi(Fraction(1, 2))
    pairs = [(_product(_lin(-j) for j in range(1, 41)),
              _product(_lin(-j * _I - half) for j in range(1, 41))),
             (_product(_lin(-j - T_PARAM) for j in range(1, 41)),
              _product(_lin(-j * T_PARAM - _I) for j in range(1, 41)))]
    shared = (_lin(-T_PARAM) * _lin(1), _lin(-T_PARAM) * _lin(-_I))

    def no_gcd(a, b):
        raise AssertionError("exact Euclid ran")

    monkeypatch.setattr(ScalarPoly, "gcd", no_gcd)
    for p, q in pairs:
        assert p.degree() == q.degree() == 40
        assert coprime_bodies(p, q) and coprime_bodies(q, p)
    with pytest.raises(AssertionError, match="exact Euclid ran"):
        coprime_bodies(*shared)
    monkeypatch.undo()
    # a pair with a shared root is refused by the exact fallback
    calls = []
    gcd = ScalarPoly.gcd
    monkeypatch.setattr(ScalarPoly, "gcd",
                        lambda a, b: calls.append((a, b)) or gcd(a, b))
    assert not coprime_bodies(*shared)
    assert calls[0] == shared


# ---------------------------------------------------------------------------
# Exact linear algebra


def test_field_rank_and_solve():
    rows = [[Qi(1), Qi(2)], [Qi(2), Qi(4)]]
    assert field_rank(rows) == 1
    rows = [[Qi(1), Qi(2)], [Qi(0, 1), Qi(4)]]
    assert field_rank(rows) == 2
    sol = field_solve(rows, [Qi(3), Qi(1)])
    assert [sum((a * x for a, x in zip(r, sol)), Qi(0)) for r in rows] \
        == [Qi(3), Qi(1)]
    inv = field_inverse(rows)
    prod = mat_mul([[a for a in r] for r in rows], inv)
    # mat_mul works over Grassmann entries; redo over plain scalars
    ident = [[Qi(1), Qi(0)], [Qi(0), Qi(1)]]
    got = [[rows[i][0] * inv[0][j] + rows[i][1] * inv[1][j]
            for j in range(2)] for i in range(2)]
    assert got == ident
    assert prod is not None  # shape check only

    # random square systems over Q(i) and over Q(i)(t)
    rng = random.Random(76)
    draws = (lambda: random_qi(rng),
             lambda: random_qi(rng) + random_qi(rng) * T_PARAM,
             lambda: random_qi(rng) / (T_PARAM + random_qi(rng)))
    for trial in range(30):
        draw = draws[trial % 3]
        size = rng.randint(1, 4 if trial % 3 == 0 else 3)
        a = [[draw() for _ in range(size)] for _ in range(size)]
        b = [draw() for _ in range(size)]
        if field_rank(a) < size:
            with pytest.raises(GrassmannError, match="singular"):
                field_inverse(a)
            continue
        assert _scalar_mat_mul(field_inverse(a), a) == _scalar_identity(size)
        x = field_solve(a, b)
        assert _scalar_mat_mul(a, [[v] for v in x]) == [[v] for v in b]
    # rectangular and rank-deficient inputs
    t = T_PARAM
    wide = [[1, t, 0], [0, 1, t]]
    assert field_rank(wide) == 2
    assert field_rank([list(col) for col in zip(*wide)]) == 2
    assert field_rank([[0, 0, 0], [0, 0, 0]]) == 0
    r1, r2 = [1, t, Qi(0, 1)], [t, 2, t * t]
    deficient = [r1, r2, [u + t * v for u, v in zip(r1, r2)]]
    assert field_rank(deficient) == 2
    with pytest.raises(GrassmannError, match="singular scalar system"):
        field_inverse(deficient)


def test_field_solve_and_inverse_reject_non_square_shapes():
    wide = [[1, 2, 3], [4, 5, 7]]
    tall = [[1, 2], [3, 4], [5, 6]]
    ragged = [[1, 2], [3]]
    for rows, shape in ((wide, "2 rows of 3 columns"),
                        (tall, "3 rows of 2 columns"),
                        (ragged, "2 rows of 1/2 columns")):
        with pytest.raises(GrassmannError, match="square, got " + shape):
            field_solve(rows, [1] * len(rows))
        with pytest.raises(GrassmannError, match="square, got " + shape):
            field_inverse(rows)
    for rhs in ([1], [1, 2, 3]):
        with pytest.raises(GrassmannError,
                           match="right-hand side has %d entries for 2 "
                                 "equations" % len(rhs)):
            field_solve([[1, 2], [3, 4]], rhs)
    assert field_solve([], []) == [] and field_inverse([]) == []


def _eliminated_inverse(rows):
    """The inverse by eliminating [A | I] with the one Gauss-Jordan loop."""
    size = len(rows)
    m = [list(row) + [Qi(int(i == j)) for j in range(size)]
         for i, row in enumerate(rows)]
    if len(_gauss_jordan(m, size)) < size:
        raise GrassmannError("singular scalar system")
    return [row[size:] for row in m]


@st.composite
def qi_matrices(draw):
    """Square matrices of Gaussian rationals, size 1 to 8, with zeros, small
    denominators and complex entries; some made singular by a last row that
    combines the others."""
    size = draw(st.integers(1, 8))
    entry = st.one_of(
        st.just(Qi(0)),
        st.builds(lambda a, b, d: Qi(Fraction(a, d), Fraction(b, d)),
                  st.integers(-4, 4), st.integers(-2, 2), st.integers(1, 4)))
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        factors = draw(st.lists(st.integers(-2, 2), min_size=size - 1,
                                max_size=size - 1))
        rows[-1] = [sum((f * row[j] for f, row in zip(factors, rows)), Qi(0))
                    for j in range(size)]
    return rows


def _m(*rows):
    return [[Qi(*c) if isinstance(c, tuple) else Qi(c) for c in row]
            for row in rows]


@given(qi_matrices())
# first pivots -1, i and -i: a unit pivot other than 1 still divides
@example(rows=_m([-1, 2], [3, 4]))
@example(rows=_m([(0, 1), 2], [3, 4]))
@example(rows=_m([(0, -1), 2], [3, (1, 1)]))
@example(rows=_m([-1, 2, 0], [3, 4, 1], [1, (0, 2), 5]))
# a first pivot that needs a row swap
@example(rows=_m([0, 2], [3, 4]))
@example(rows=_m([0, 1, 2], [0, 3, 1], [5, 1, 1]))
# singular: a zero column, and dependent rows
@example(rows=_m([0, 1], [0, 2]))
@example(rows=_m([1, (0, 1)], [(0, 1), -1]))
@settings(max_examples=300, deadline=None)
def test_field_inverse_matches_elimination(rows):
    try:
        want = _eliminated_inverse(rows)
    except GrassmannError as err:
        with pytest.raises(GrassmannError, match="^%s$" % err):
            field_inverse(rows)
        return
    got = field_inverse(rows)
    assert got == want
    assert [[str(x) for x in row] for row in got] \
        == [[str(x) for x in row] for row in want]


def _scalar_mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Qi(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _scalar_identity(size):
    return [[Qi(int(i == j)) for j in range(size)] for i in range(size)]


def test_field_solve_singular():
    with pytest.raises(GrassmannError):
        field_solve([[Qi(1), Qi(2)], [Qi(2), Qi(4)]], [Qi(1), Qi(0)])


def test_solve_body_invertible_random():
    rng = random.Random(75)
    n = 3
    for _ in range(25):
        size = rng.randint(1, 4)
        mat = [[random_supernumber(rng, n, max_terms=2)
                for _ in range(size)] for _ in range(size)]
        for i in range(size):
            mat[i][i] = mat[i][i] + (i + 2)  # make the body invertible
        rhs = [random_supernumber(rng, n, max_terms=2) for _ in range(size)]
        sol = solve_body_invertible(mat, rhs)
        assert mat_vec(mat, sol) == rhs
    for short_or_long in (rhs[1:], rhs + rhs[:1]):
        with pytest.raises(GrassmannError, match="right-hand side has"):
            solve_body_invertible(mat, short_or_long)


def test_module_rank_report_full_and_degenerate():
    n = 2
    one = SuperNumber.one(n)
    zero = SuperNumber.zero(n)
    soul = SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2)
    rep = module_rank_report([[one, zero], [zero, one], [one, one]])
    assert (rep.rank, rep.kernel_rank, rep.coker_rank) == (2, 0, 1)
    assert not rep.degenerate
    rep2 = module_rank_report([[one, zero], [2 * one, zero]])
    assert rep2.rank == 1 and rep2.kernel_rank == 1 and rep2.coker_rank == 1
    assert rep2.kernel_basis
    # a column that is soul-only cannot be ranked over the field
    rep3 = module_rank_report([[soul, zero], [zero, one]])
    assert rep3.degenerate


def _report_fields(rep):
    return (rep.rows, rep.cols, rep.rank, rep.kernel_rank, rep.coker_rank,
            rep.degenerate, rep.kernel_basis)


def test_module_rank_report_coerces_scalar_entries():
    # all scalars: over Lambda_0, or over Lambda_(n_gen) when it is given
    rep = module_rank_report([[Qi(1), Qi(2)]])
    assert _report_fields(rep) == (1, 2, 1, 1, 0, False,
                                   [[SuperNumber.scalar(0, -2),
                                     SuperNumber.one(0)]])
    rep = module_rank_report([[1, Fraction(1, 2)], [2, Qi(1)]], 3)
    assert (rep.rank, rep.kernel_rank, rep.coker_rank) == (1, 1, 1)
    assert all(x.n == 3 for x in rep.kernel_basis[0])
    # mixed: the first SuperNumber entry fixes n, whatever n_gen says
    g = SuperNumber.gen(2, 1)
    rows = [[0, 1], [g, Qi(0, 1)]]
    lifted = [[SuperNumber.coerce(2, x) for x in row] for row in rows]
    for n_gen in (None, 5):
        assert _report_fields(module_rank_report(rows, n_gen)) \
            == _report_fields(module_rank_report(lifted))
    want = reference_module_rank_report(lifted, 2)
    assert (want.rank, want.degenerate) \
        == (module_rank_report(rows).rank, module_rank_report(rows).degenerate)
    # anything else is a GrassmannError, not an AttributeError
    for bad in ([["x"]], [[1.5, 1]], [[None]], [[1, [2]]],
                [[SuperNumber.one(2), SuperNumber.one(3)]]):
        with pytest.raises(GrassmannError):
            module_rank_report(bad)


@st.composite
def grassmann_matrices(draw):
    """Matrices over Lambda_n, n <= 4, with even or mixed-parity entries that
    are zero, soul-only, arbitrary or units, sometimes with a second row
    that is a unit multiple of the first."""
    n = draw(st.integers(0, 4))
    even = draw(st.booleans())
    souls = [k for size in range(1, n + 1)
             for k in itertools.combinations(range(1, n + 1), size)
             if not (even and size & 1)]
    coeffs = st.builds(Qi, st.integers(-2, 2), st.integers(-1, 1))
    units = st.builds(Qi, st.integers(1, 3), st.integers(-1, 1))
    soul = st.dictionaries(st.sampled_from(souls), coeffs, max_size=3) \
        if souls else st.just({})
    terms = st.one_of(
        st.just({}), soul,
        st.builds(lambda s, b: {**s, (): b}, soul, coeffs),
        st.builds(lambda s, b: {**s, (): b}, soul, units))
    entries = terms.map(lambda t: SuperNumber(n, t))
    nr, nc = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nr >= 2 and draw(st.booleans()):
        c = SuperNumber(n, draw(st.builds(lambda s, b: {**s, (): b},
                                          soul, units)))
        rows[1] = [c * x for x in rows[0]]
    return n, rows


_g = [SuperNumber.gen(3, i) for i in (1, 2, 3)]


@given(grassmann_matrices())
# odd entries: clearing must keep the factor on the left
@example(case=(3, [[_g[0], 1 + _g[1]], [1 + _g[2], _g[0] * _g[1]]]))
@example(case=(3, [[_g[0] * _g[1], _g[2]], [_g[2], _g[0]]]))
@example(case=(2, [[], []]))
@example(case=(2, []))
@settings(max_examples=300, deadline=None)
def test_module_rank_report_matches_reference(case):
    n, rows = case
    got = module_rank_report(rows, n)
    want = reference_module_rank_report(rows, n)
    assert (got.rows, got.cols, got.rank, got.kernel_rank, got.coker_rank,
            got.degenerate, len(got.kernel_basis)) \
        == (want.rows, want.cols, want.rank, want.kernel_rank,
            want.coker_rank, want.degenerate, len(want.kernel_basis))
    for v in got.kernel_basis:
        assert len(v) == got.cols and all(x.n == n for x in v)
        assert all(x.is_zero() for x in mat_vec(rows, v))
    if got.cols:
        assert field_rank([[x.body() for x in row] for row in rows]) \
            == got.rank


_body_scalars = st.one_of(
    st.just(Qi(0)),
    st.builds(Qi, st.integers(-3, 3), st.integers(-2, 2)),
    st.builds(lambda a, b: a + b * T_PARAM, st.integers(-2, 2),
              st.integers(-1, 1)),
    st.builds(lambda a: Qi(1) / (T_PARAM + a), st.integers(-1, 1)))


@st.composite
def body_only_matrices(draw):
    """(n, n_gen, rows): matrices whose entries have no soul, over
    Gaussian rationals and rational functions in t, given as SuperNumbers
    or as bare scalars (then over n_gen generators), with zero rows and
    columns and dependent rows; sometimes one entry gets a soul."""
    n = draw(st.integers(0, 4))
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(_body_scalars, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nr and draw(st.booleans()):
        rows[draw(st.integers(0, nr - 1))] = [Qi(0)] * nc
    if nc and draw(st.booleans()):
        j = draw(st.integers(0, nc - 1))
        for row in rows:
            row[j] = Qi(0)
    if nr >= 2 and draw(st.booleans()):
        f = draw(_body_scalars)
        rows[1] = [f * x for x in rows[0]]
    bare = draw(st.booleans())
    if not bare:
        rows = [[SuperNumber.scalar(n, x) for x in row] for row in rows]
    if n and nr and nc and draw(st.booleans()):
        i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1))
        rows[i][j] = SuperNumber.coerce(n, rows[i][j]) \
            + SuperNumber.gen(n, 1) * (SuperNumber.gen(n, n) if n > 1 else 1)
    return n, (n if bare else None), rows


def _free_columns_by_prefix_rank(bodies, nc):
    """The columns that do not raise the field rank of the columns before
    them: the free columns of the reduced echelon form."""
    cols = [[row[j] for row in bodies] for j in range(nc)]
    free, rank = [], 0
    for j in range(nc):
        r = field_rank(list(zip(*cols[:j + 1]))) if bodies else 0
        if r == rank:
            free.append(j)
        rank = r
    return free


@given(body_only_matrices())
@example(case=(0, None, []))
@example(case=(2, 2, [[0, 0], [0, 0]]))
@example(case=(0, None, [[SuperNumber.scalar(0, Qi(1, 1)),
                          SuperNumber.scalar(0, Qi(0, 1))]]))
@example(case=(3, 3, [[T_PARAM, 1], [T_PARAM * T_PARAM, T_PARAM]]))
@example(case=(2, None, [[SuperNumber.gen(2, 1), SuperNumber.zero(2)],
                         [SuperNumber.zero(2), SuperNumber.one(2)]]))
@settings(max_examples=300, deadline=None)
def test_module_rank_report_scalar_route_matches_reference(case):
    n, n_gen, rows = case
    got = module_rank_report(rows, n_gen)
    lifted = [[SuperNumber.coerce(n, x) for x in row] for row in rows]
    want = reference_module_rank_report(lifted, n)
    assert (got.rows, got.cols, got.rank, got.kernel_rank, got.coker_rank,
            got.degenerate, len(got.kernel_basis)) \
        == (want.rows, want.cols, want.rank, want.kernel_rank,
            want.coker_rank, want.degenerate, len(want.kernel_basis))
    body_only = all(x.soul().is_zero() for row in lifted for x in row)
    if not body_only:
        return
    assert not got.degenerate
    # the basis of the reduced form is unique: one vector per free column,
    # 1 there and 0 at the other free columns, in the kernel
    free = _free_columns_by_prefix_rank(
        [[x.body() for x in row] for row in lifted], got.cols)
    assert len(free) == len(got.kernel_basis)
    for j, v in zip(free, got.kernel_basis):
        assert all(x.n == n and x.soul().is_zero() for x in v)
        assert [v[k] for k in free] == [SuperNumber.scalar(n, int(k == j))
                                        for k in free]
        assert all(x.is_zero() for x in mat_vec(lifted, v))


def test_module_rank_report_route_by_souls(monkeypatch):
    import sgk.linalg as linalg

    seen = []

    def spy(m, ncols):
        seen.append({type(x) for row in m for x in row})
        return _gauss_jordan(m, ncols)

    monkeypatch.setattr(linalg, "_gauss_jordan", spy)
    one, g = SuperNumber.one(2), SuperNumber.gen(2, 1)
    rep = module_rank_report([[one, 2 * one], [Qi(0, 1), T_PARAM]])
    assert seen.pop() <= {Qi, type(T_PARAM)} and rep.rank == 2
    # a soul, even as the only term of an entry, keeps the Grassmann route
    rep = module_rank_report([[one, 2 * one], [g, 2 * g]])
    assert seen.pop() == {SuperNumber} and rep.rank == 1
    assert rep.kernel_basis == [[-2 * one, one]]
    rep = module_rank_report([[one, g], [g, one + g * SuperNumber.gen(2, 2)]])
    assert seen.pop() == {SuperNumber} and rep.rank == 2


def test_mat_helpers():
    n = 1
    one = SuperNumber.one(n)
    two = SuperNumber.scalar(n, 2)
    a = [[one, two], [two, one]]
    v = [one, one]
    assert mat_vec(a, v) == [one + two, one + two]
    sq = mat_mul(a, a)
    assert sq[0][0] == one + two * two
