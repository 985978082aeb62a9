"""Points of the 1|1 projective superspace and the torus action on them."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import reference_proj_equal
from sgk.grassmann import GrassmannError, Qi, SuperNumber, T_PARAM, \
    random_supernumber
from sgk.superspace import (ChartPoint, ProjPoint, as_proj, point_infty,
                            point_one, point_zero, preferred_chart,
                            proj_equal, reduce_point,
                            reduced_bodies_distinct, torus_act_point)


def _eta(n, i):
    return SuperNumber.gen(n, i)


def test_chart_point_parities_enforced():
    with pytest.raises(GrassmannError):
        ChartPoint(2, 1, _eta(2, 1), 0)          # even slot gets odd value
    with pytest.raises(GrassmannError):
        ChartPoint(2, 1, 0, SuperNumber.one(2))  # odd slot gets even value


def test_projective_scaling_invariance():
    n = 2
    lam = 1 + _eta(n, 1) * _eta(n, 2)
    p = ProjPoint(n, 3, 1, _eta(n, 1))
    q = ProjPoint(n, lam * 3, lam, lam * _eta(n, 1))
    assert proj_equal(p, q)
    assert p == q


def test_cross_flavor_equality():
    n = 2
    cp = ChartPoint(n, 1, 5, _eta(n, 1))
    pp = as_proj(cp)
    assert cp == pp
    assert pp == cp
    assert cp == preferred_chart(pp)


def test_chart_two_covers_infinity():
    n = 1
    inf = point_infty(n)
    cp = preferred_chart(inf)
    assert cp.chart == 2 and cp.p.is_zero()
    assert as_proj(cp) == inf
    assert point_zero(n) != point_infty(n)
    assert point_one(n) != point_zero(n)


def test_round_trip_between_charts():
    n = 2
    rng = random.Random(31)
    for _ in range(30):
        p = random_supernumber(rng, n, parity=0, invertible=True)
        pi = random_supernumber(rng, n, parity=1, max_terms=2)
        cp = ChartPoint(n, 1, p, pi)
        other = preferred_chart(ProjPoint(n, SuperNumber.one(n), p.invert(),
                                          p.invert() * pi))
        assert as_proj(other) == as_proj(cp)


def test_reduce_point_strips_soul():
    n = 2
    cp = ChartPoint(n, 1, 2 + _eta(n, 1) * _eta(n, 2), _eta(n, 1))
    red = reduce_point(cp)
    assert red.p == SuperNumber.scalar(n, 2)
    assert red.pi.is_zero()


def test_reduced_bodies_distinct():
    n = 1
    a = ChartPoint(n, 1, 0, 0)
    b = ChartPoint(n, 1, 1, _eta(n, 1))
    c = point_infty(n)
    assert reduced_bodies_distinct([a, b, c])
    d = ChartPoint(n, 1, _eta(n, 1) * 0 + 1, 0)
    assert not reduced_bodies_distinct([b, d])


def test_torus_action_on_points():
    n = 1
    eta = _eta(n, 1)
    p = ChartPoint(n, 1, 4, eta)
    for tv in (Qi(2), Qi(0, 1), T_PARAM):
        moved = torus_act_point(tv, p)
        cp = preferred_chart(moved)
        assert cp.p == p.p
        assert cp.pi == SuperNumber.scalar(n, tv) * eta
    # reduced points are fixed
    q = ChartPoint(n, 2, 7, 0)
    assert torus_act_point(Qi(5), q) == q


def test_torus_action_is_multiplicative():
    n = 2
    p = ChartPoint(n, 1, 3, _eta(n, 1) + 2 * _eta(n, 2))
    ab = torus_act_point(Qi(6), p)
    step = torus_act_point(Qi(2), torus_act_point(Qi(3), p))
    assert ab == step


def test_point_strings():
    n = 2
    assert str(ChartPoint(n, 1, 2, _eta(n, 1))) == "chart1(2; g1)"
    assert str(ProjPoint(n, 1, 0, _eta(n, 1))) == "[1 : 0 : g1]"


# ---------------------------------------------------------------------------
# Cross-multiplied equality and body-only reduction against the chart routes


def _grassmann(n, parity, bodies):
    """Elements over n generators of one parity with up to two soul terms;
    even ones also get a body drawn from `bodies`."""
    souls = [k for size in range(1, n + 1)
             for k in itertools.combinations(range(1, n + 1), size)
             if size % 2 == parity]
    coeffs = st.builds(Qi, st.integers(-2, 2), st.integers(-1, 1))
    soul = st.dictionaries(st.sampled_from(souls), coeffs, max_size=2) \
        if souls else st.just({})
    if parity:
        return soul.map(lambda t: SuperNumber(n, t))
    return st.builds(lambda t, b: SuperNumber(n, {**t, (): b}), soul, bodies)


_bodies = st.one_of(st.just(Qi(0)),
                    st.builds(Qi, st.integers(-2, 2), st.integers(-1, 1)),
                    st.builds(lambda a: a + T_PARAM, st.integers(-1, 1)))


@st.composite
def superpoints(draw, n):
    """A projective point, possibly at infinity or at zero, or a chart
    point in either chart."""
    even, odd = _grassmann(n, 0, _bodies), _grassmann(n, 1, _bodies)
    if draw(st.booleans()):
        return ChartPoint(n, draw(st.sampled_from((1, 2))), draw(even),
                          draw(odd))
    z1, z2 = draw(even), draw(even)
    if not z1.body() and not z2.body():
        z1 = z1 + 1
    return ProjPoint(n, z1, z2, draw(odd))


@st.composite
def point_pairs(draw):
    """(a, b): b independent of a, or a rescaled by an invertible even
    element, or a rescaled with one coordinate nudged by a soul term."""
    n = draw(st.integers(0, 4))
    a = draw(superpoints(n))
    how = draw(st.sampled_from(("other", "scaled", "nudged")))
    if how == "other":
        return a, draw(superpoints(n))
    units = _grassmann(n, 0, st.builds(Qi, st.integers(1, 3),
                                       st.integers(-1, 1)))
    b = as_proj(a).scale(draw(units))
    if how == "nudged":
        slot = draw(st.sampled_from(("Z1", "Z2", "Theta")))
        coords = {"Z1": b.Z1, "Z2": b.Z2, "Theta": b.Theta}
        coords[slot] = coords[slot] + draw(
            _grassmann(n, slot == "Theta", st.just(Qi(0))))
        if not coords["Z1"].body() and not coords["Z2"].body():
            return a, b
        b = ProjPoint(n, coords["Z1"], coords["Z2"], coords["Theta"])
    return a, b


_e = [SuperNumber.gen(3, i) for i in (1, 2, 3)]


@given(point_pairs())
# a scaled copy, a point at infinity and its scaled copy, a finite point
# against an infinite one, the same body with different odd parts, and
# different generator counts
@example(pair=(ChartPoint(3, 1, 2, _e[0]),
               ProjPoint(3, 6 + _e[0] * _e[1], 3 + _e[0] * _e[1] / 2,
                         3 * _e[0] + _e[0] * _e[0])))
@example(pair=(ProjPoint(3, 1 + _e[1] * _e[2], _e[0] * _e[1], _e[2]),
               ProjPoint(3, 2, 2 * _e[0] * _e[1] / (1 + _e[1] * _e[2]),
                         2 * _e[2] / (1 + _e[1] * _e[2]))))
@example(pair=(ChartPoint(3, 1, 0, 0), ChartPoint(3, 2, 0, 0)))
@example(pair=(ProjPoint(3, 0, 1, 0), ProjPoint(3, 1, 0, 0)))
@example(pair=(ChartPoint(3, 1, 1, _e[0]), ChartPoint(3, 1, 1, _e[1])))
@example(pair=(ChartPoint(3, 1, 1, 0), ChartPoint(2, 1, 1, 0)))
@settings(max_examples=300, deadline=None)
def test_proj_equal_matches_chart_division(pair):
    a, b = pair
    want = reference_proj_equal(a, b)
    assert proj_equal(a, b) == proj_equal(b, a) == want
    assert (a == b) == want


@given(st.integers(0, 4).flatmap(superpoints))
@example(pt=ProjPoint(3, 2 + _e[0] * _e[1], _e[1] * _e[2], _e[0]))
@example(pt=ProjPoint(3, 3 + _e[0] * _e[1], 2 + _e[1] * _e[2], _e[0]))
@example(pt=ChartPoint(3, 2, 5 + _e[0] * _e[2], _e[1]))
@settings(max_examples=200, deadline=None)
def test_reduce_point_matches_chart_route(pt):
    cp = preferred_chart(pt)
    want = ChartPoint(cp.n, cp.chart, SuperNumber.scalar(cp.n, cp.p.body()),
                      0)
    got = reduce_point(pt)
    assert (got.n, got.chart, str(got)) == (want.n, want.chart, str(want))
    assert got.p == want.p and got.pi.is_zero()
