"""Values built by the trusted constructors SCMatrix._of, ProjPoint._of,
ChartPoint._of and SuperPoly._of skip the public constructors' checks, so
each one the kernel builds must be a value the public constructor accepts
unchanged: every entry a SuperNumber over the same generator count with the
parity its slot needs, group elements satisfying the constraints, points
with an invertible coordinate, polynomials without a trailing zero.  The
random generators build SuperNumbers, curves and configurations without
the public checks too."""

import random

from sgk.curves import MarkedConfig, SuperCurve, random_config, random_curve
from sgk.grassmann import Qi, SuperNumber, T_PARAM, random_supernumber
from sgk.polyrat import SuperPoly
from sgk.scgroup import (SCMatrix, act_point, lift_sl2, random_sc_matrix,
                         random_sl2_qi, susy)
from sgk.superspace import (ChartPoint, ProjPoint, _want_parity,
                            point_infty, reduce_point, torus_act_point)
from sgk.trees import random_glue_pair

_ODD = ("alpha", "beta", "gamma", "delta")
_FIELDS = ("a", "b", "c", "d", "e") + _ODD


def _checked_matrix(m):
    assert type(m) is SCMatrix
    fields = [getattr(m, f) for f in _FIELDS]
    for f, v in zip(_FIELDS, fields):
        assert _want_parity(m.n, v, f in _ODD, f) is v
    # the validating constructor checks the group constraints and body(e)
    v = SCMatrix(m.n, *fields)
    assert all(getattr(v, f) is getattr(m, f) for f in _FIELDS)


def _checked_point(p):
    if isinstance(p, ProjPoint):
        fields = (p.Z1, p.Z2, p.Theta)
        v = ProjPoint(p.n, *fields)
        assert (v.Z1, v.Z2, v.Theta) == fields
    else:
        assert type(p) is ChartPoint
        v = ChartPoint(p.n, p.chart, p.p, p.pi)
        assert (v.chart, v.p, v.pi) == (p.chart, p.p, p.pi)
        assert v.p is p.p and v.pi is p.pi


def _checked_poly(p):
    assert type(p) is SuperPoly
    assert all(type(c) is SuperNumber and c.n == p.n for c in p.coeffs)
    assert SuperPoly(p.n, p.coeffs).coeffs == p.coeffs


def _points(rng, n):
    even = lambda: random_supernumber(rng, n, parity=0, max_terms=2)
    odd = lambda: random_supernumber(rng, n, parity=1, max_terms=2)
    return [ChartPoint(n, 1, even(), odd()), ChartPoint(n, 2, even(), odd()),
            ProjPoint(n, 1 + even().soul(), even(), odd()),
            ProjPoint(n, even(), 2 + even().soul(), odd()),
            point_infty(n)]


def test_group_elements_from_trusted_constructor_are_valid():
    rng = random.Random(141)
    for n in range(5):
        for _ in range(12):
            m1 = random_sc_matrix(rng, n)
            m2 = random_sc_matrix(rng, n, with_odd=rng.random() < 0.5)
            for m in (m1.mul(m2), m1.neg(), m1.inverse(),
                      m1.mul(m2).inverse(), lift_sl2(n, *random_sl2_qi(rng))):
                _checked_matrix(m)
            if n:
                al = random_supernumber(rng, n, parity=1, max_terms=3)
                be = random_supernumber(rng, n, parity=1, max_terms=3)
                _checked_matrix(susy(n, al, be))
                _checked_matrix(susy(n, al, 0))


def test_points_from_trusted_constructor_are_valid():
    rng = random.Random(142)
    for n in range(5):
        for _ in range(8):
            m = random_sc_matrix(rng, n)
            t = Qi(2) + random_supernumber(rng, n, parity=0).soul()
            for p in _points(rng, n):
                img = act_point(m, p)
                assert type(img) is type(p)
                _checked_point(img)
                _checked_point(reduce_point(p))
                _checked_point(torus_act_point(t, p))
                if isinstance(p, ChartPoint):
                    _checked_point(p.to_proj())
                else:
                    for c in (p.chart1(), p.chart2()):
                        if c is not None:
                            _checked_point(c)


def test_superpolys_from_trusted_constructor_are_valid():
    rng = random.Random(143)
    for n in range(5):
        for _ in range(10):
            a, b = (SuperPoly(n, [random_supernumber(rng, n, max_terms=3)
                                  for _ in range(rng.randint(0, 3))])
                    for _ in range(2))
            c = SuperPoly(n, [T_PARAM, Qi(0, 1)])
            top = SuperPoly(n, [0] * (a.degree() + 1) + [1])
            for p in (a + b, a - b, a * b, -a, a - a, (a + top) - top,
                      a * c, c * a, a * 0, a * SuperNumber.one(n), 2 - a,
                      a + SuperNumber.zero(n)):
                _checked_poly(p)


def _checked_curve(cur):
    # the validating constructor checks degrees, bodies and coprimality
    v = SuperCurve(cur.n, cur.d, cur.P, cur.Q, cur.r)
    assert (v.P, v.Q, v.r) == (cur.P, cur.Q, cur.r)


def test_random_values_from_trusted_constructors_are_valid():
    rng = random.Random(144)
    for n in range(9):
        for d in range(3):
            for parity in (None, 0, 1):
                x = random_supernumber(rng, n, parity, max_terms=4)
                v = SuperNumber(n, dict(x.terms))
                assert (v._d, v._num, v._scalar_terms) == \
                    (x._d, x._num, x._scalar_terms)
            _checked_curve(random_curve(rng, n, d))
            cfg = random_config(rng, n, 3 + d, d)
            v = MarkedConfig(cfg.points, cfg.curve)
            assert v.points == cfg.points
            for p in cfg.points:
                _checked_point(p)
            _checked_curve(cfg.curve)
    for n in (1, 2, 3):
        for cfg in random_glue_pair(rng, n):
            for cur in cfg.curves:
                _checked_curve(cur)
