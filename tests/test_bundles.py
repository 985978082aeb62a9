"""Sections of O(k), the spinor pairing, and the odd-translation matrix."""

import random
from fractions import Fraction

import pytest

from sgk.bundles import (Section, h0_dim, pair_section_with_curve, point_row,
                         sl2_act_section, spinor_section, susy1_matrix,
                         susy1_shift_point, wronskian)
from sgk.curves import SuperCurve
from sgk.grassmann import GrassmannError, Qi, SuperNumber, random_qi, \
    random_supernumber
from sgk.linalg import module_rank_report
from sgk.polyrat import SuperPoly
from sgk.scgroup import act_point, lift_sl2, point_multiplier, \
    random_sl2_qi, susy
from sgk.superspace import ChartPoint, ProjPoint, point_infty, \
    preferred_chart


def test_h0_dim():
    assert [h0_dim(k) for k in (-2, -1, 0, 1, 3)] == [0, 0, 1, 2, 4]


def test_section_degree_bound():
    with pytest.raises(GrassmannError):
        Section(1, 1, [1, 2, 3])
    with pytest.raises(GrassmannError):
        Section(1, -1, [])


def test_frame2_sign_alternation():
    n = 1
    s = Section(n, 2, [1, 2, 3])
    assert s.frame2() == SuperPoly(n, [3, -2, 1])


def test_transition_between_frames():
    # charts are glued by q = -1/z; on the overlap
    # frame2(-1/z) = z^(-k) frame1(z)
    rng = random.Random(91)
    n = 2
    for k in (1, 2, 3):
        s = Section(n, k, [random_supernumber(rng, n, max_terms=2)
                           for _ in range(k + 1)])
        for _ in range(5):
            z = random_supernumber(rng, n, parity=0, invertible=True)
            lhs = s.frame2().eval(-z.invert())
            rhs = z.invert() ** k * s.frame1.eval(z)
            assert lhs == rhs


def test_eval_at_uses_the_points_chart():
    n = 1
    s = Section(n, 1, [2, 5])
    assert s.eval_at(ChartPoint(n, 1, 3, 0)) == SuperNumber.scalar(n, 17)
    # at infinity the second frame reads off the top coefficient
    assert s.eval_at(point_infty(n)) == SuperNumber.scalar(n, 5)


def test_spinor_section_layout():
    n = 2
    al, be = SuperNumber.gen(n, 1), SuperNumber.gen(n, 2)
    s = spinor_section(n, al, be)
    assert s.k == 1
    assert s.frame1 == SuperPoly(n, [al, -be])


def test_sl2_act_section_needs_reduced():
    n = 2
    al, be = SuperNumber.gen(n, 1), SuperNumber.gen(n, 2)
    with pytest.raises(GrassmannError):
        sl2_act_section(susy(n, al, be), spinor_section(n, al, be))


def _frame_points(rng, n, lift):
    """Chart-1, chart-2 and projective points with odd coordinates, half of
    them on the lift's polar locus, whose images leave chart 1."""
    a, b, c, d = lift
    x = SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2)
    pts = []
    poles = (-d / c if c else Qi(0), c / d if d else Qi(0))
    for chart, pole in zip((1, 2), poles):
        for base in (random_qi(rng), pole):
            pts.append(ChartPoint(
                n, chart, base + random_qi(rng) * x,
                random_supernumber(rng, n, parity=1, max_terms=2)))
    pts += [ProjPoint(n, random_qi(rng, nonzero=True) + x, x,
                      SuperNumber.gen(n, 1)),
            ProjPoint(n, x - d, c, SuperNumber.gen(n, 2))]
    return pts


def test_sl2_act_section_frame_factor():
    """(g.s)(g.z) = multiplier^k s(z), the defining pushforward property,
    with each side read in the frame of its point's preferred chart."""
    rng = random.Random(92)
    n = 2
    g1 = SuperNumber.gen(n, 1)
    cases = [(lift_sl2(n, 0, 1, -1, 0), ChartPoint(n, 1, 0, 0), 1),
             (lift_sl2(n, 2, 0, 0, Fraction(1, 2)), ChartPoint(n, 2, 1, g1),
              -2)]
    for m, pt, want in cases:
        assert point_multiplier(m, pt) == want
    for _ in range(40):
        lift = random_sl2_qi(rng)
        m = lift_sl2(n, *lift)
        for pt in _frame_points(rng, n, lift):
            cases.append((m if rng.random() < 0.5 else m.neg(), pt, None))
    charts = set()
    for m, pt, _ in cases:
        k = rng.randint(1, 3)
        s = Section(n, k, [random_supernumber(rng, n, max_terms=2)
                           for _ in range(k + 1)])
        img = act_point(m, pt)
        charts.add((preferred_chart(pt).chart, preferred_chart(img).chart))
        assert sl2_act_section(m, s).eval_at(img) \
            == point_multiplier(m, pt) ** k * s.eval_at(pt)
    assert charts == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_sl2_act_section_is_an_action():
    rng = random.Random(93)
    n = 2
    s = spinor_section(n, SuperNumber.gen(n, 1), SuperNumber.gen(n, 2))
    for _ in range(10):
        m1 = lift_sl2(n, *random_sl2_qi(rng))
        m2 = lift_sl2(n, *random_sl2_qi(rng))
        assert sl2_act_section(m1.mul(m2), s) \
            == sl2_act_section(m2, sl2_act_section(m1, s))


def test_wronskian_and_pairing():
    n = 2
    # phi = z^2 / (z + 1): W = 2z(z+1) - z^2 = z^2 + 2z
    cur = SuperCurve(n, 2, SuperPoly(n, [0, 0, 1]), SuperPoly(n, [1, 1]))
    assert wronskian(cur) == SuperPoly(n, [0, 2, 1])
    al, be = SuperNumber.gen(n, 1), SuperNumber.gen(n, 2)
    pairing = pair_section_with_curve(al, be, cur)
    h = SuperPoly(n, [-al, be])
    assert pairing == h * wronskian(cur)
    assert pairing.degree() <= 2 * cur.d - 1


def test_point_row_frames():
    n = 1
    one = SuperNumber.one(n)
    p = ChartPoint(n, 1, 4, 0)
    assert point_row(p) == [one, -SuperNumber.scalar(n, 4)]
    q = ChartPoint(n, 2, 3, 0)
    assert point_row(q) == [-SuperNumber.scalar(n, 3), -one]
    # row times (alpha, beta) equals the spinor value in that chart
    rng = random.Random(94)
    for pt in (p, q, point_infty(n)):
        al = random_supernumber(rng, n, parity=1)
        be = random_supernumber(rng, n, parity=1)
        row = point_row(pt)
        s = spinor_section(n, al, be)
        assert row[0] * al + row[1] * be == s.eval_at(pt)


def test_susy1_matrix_shape_and_report():
    n = 1
    cur = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]))
    pts = [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)]
    rows = susy1_matrix(pts, cur)
    assert len(rows) == 3 + 2 * cur.d
    rep = module_rank_report(rows)
    assert rep.rank == 2
    assert rep.coker_rank == len(rows) - 2
    assert not rep.degenerate


def test_susy1_shift_point():
    n = 2
    al, be = SuperNumber.gen(n, 1), SuperNumber.gen(n, 2)
    pt = ChartPoint(n, 1, 3, 0)
    moved = susy1_shift_point(al, be, pt)
    assert moved.p == pt.p
    assert moved.pi == al - 3 * be


def test_section_str_not_used_as_literal():
    # the printed form is a human label; the CLI renders sections through its
    # own canonical constructor form instead
    assert str(Section(1, 1, [1, 2])).startswith("O(1) section")
