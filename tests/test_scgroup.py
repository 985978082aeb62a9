"""The automorphism group: constraints, factorization, displayed products."""

import random

import pytest

from sgk.grassmann import GrassmannError, Qi, SuperNumber, \
    random_supernumber
from sgk.curves import P1Point, SuperCurve, act_susy_on_curve
from sgk.scgroup import (NormalizationError, SCMatrix, act_point,
                         chart_pullback, identity, lift_sl2,
                         point_multiplier, random_sc_matrix, random_sl2_qi,
                         reflection, same_automorphism,
                         slice_normalize_one_point, stabilizer_two_points,
                         susy, three_point_normalize, torus_matrix)
from sgk.superspace import (ChartPoint, ProjPoint, _want_parity, as_proj,
                            point_infty, point_one, point_zero,
                            preferred_chart, torus_param)

from _oracles import product_random_sc_matrix


def _gens(n, *idx):
    return tuple(SuperNumber.gen(n, i) for i in idx)


# ---------------------------------------------------------------------------
# Membership and constructors


def test_parity_checks_reject_mixed_and_wrong_parity():
    n = 3
    g1, g2, g3 = _gens(n, 1, 2, 3)
    even, odd = 2 + g1 * g2, g3 + g1 * g2 * g3
    mixed = even + g1
    zero = SuperNumber.zero(n)
    for v in (even, zero, 5):
        assert SuperNumber.coerce(n, v).is_even()
        assert _want_parity(n, v, 0, "Z1") == SuperNumber.coerce(n, v)
    for v in (odd, zero):
        assert v.is_odd()
        assert _want_parity(n, v, 1, "Theta") is v
    for v in (odd, mixed):
        assert not v.is_even()
        with pytest.raises(GrassmannError, match="^Z1 must be even$"):
            _want_parity(n, v, 0, "Z1")
    for v in (even, mixed, 1):
        assert not SuperNumber.coerce(n, v).is_odd()
        with pytest.raises(GrassmannError, match="^Theta must be odd$"):
            _want_parity(n, v, 1, "Theta")
    # and through the public constructors that call them
    with pytest.raises(GrassmannError, match="^a must be even$"):
        SCMatrix(n, mixed, 0, 0, 1, 1, 0, 0, 0, 0, validate=False)
    with pytest.raises(GrassmannError, match="^gamma must be odd$"):
        SCMatrix(n, 1, 0, 0, 1, 1, 0, 0, 1, 0, validate=False)
    with pytest.raises(GrassmannError, match="^matrix entry must be even$"):
        lift_sl2(n, 1, g1, 0, 1)
    with pytest.raises(GrassmannError, match="^Theta must be odd$"):
        ProjPoint(n, 1, 1, mixed)
    with pytest.raises(GrassmannError, match="^base coordinate must be even$"):
        ChartPoint(n, 1, odd, 0)
    # the curve, shear, torus and square-root sites
    cur = SuperCurve(n, 1, [zero, 1], [1], [odd])
    for v in (odd, mixed):
        with pytest.raises(GrassmannError,
                           match="^target coordinates must be even$"):
            P1Point(n, 1, v)
        with pytest.raises(GrassmannError,
                           match="^numerator must have even coefficients$"):
            SuperCurve(n, 1, [1, v], [1])
        with pytest.raises(GrassmannError,
                           match="^torus parameter must be even and "
                                 "invertible$"):
            torus_param(n, 2 + v)
        with pytest.raises(GrassmannError,
                           match="^square root needs an even element$"):
            (2 + v).sqrt_even()
    for v in (even, mixed):
        with pytest.raises(GrassmannError,
                           match="^odd numerator must have odd coefficients$"):
            SuperCurve(n, 1, [zero, 1], [1], [odd, v])
        with pytest.raises(GrassmannError,
                           match="^shear parameters must be odd$"):
            act_susy_on_curve(odd, v, cur)
    assert P1Point(n, even, 1) == P1Point(n, even, 1)
    assert torus_param(n, 2 + even) == 2 + even
    assert (2 + even).sqrt_even() ** 2 == 2 + even
    assert act_susy_on_curve(zero, odd, cur).d == 1


def test_constructors_are_valid():
    n = 3
    al, be = _gens(n, 1, 2)
    for m in (identity(n), reflection(n), lift_sl2(n, 2, 3, 5, 8),
              susy(n, al, be), stabilizer_two_points(n, 7)):
        assert m.is_valid()
        for val in m.check().values():
            assert val.is_zero()


def test_invalid_matrix_rejected():
    n = 1
    with pytest.raises(GrassmannError):
        SCMatrix.from_rows(n, [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
                           validate=True)
    # non-unit e body
    with pytest.raises(GrassmannError):
        SCMatrix.from_rows(n, [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
                           validate=True)


def test_lift_needs_unit_determinant():
    with pytest.raises(GrassmannError):
        lift_sl2(1, 1, 0, 0, 2)


def test_check_reports_residuals():
    n = 1
    m = SCMatrix.from_rows(n, [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
                           validate=False)
    res = m.check()
    assert list(res.keys()) == ["sp", "unit", "odd1", "odd2"]
    assert res["sp"] == SuperNumber.one(n)  # ad - bc - gamma delta - 1 = 1


def test_susy_of_zero_is_identity():
    n = 2
    z = SuperNumber.zero(n)
    assert susy(n, z, z) == identity(n)


# ---------------------------------------------------------------------------
# Group structure


def test_product_closure_random():
    rng = random.Random(81)
    n = 3
    for _ in range(60):
        m = random_sc_matrix(rng, n).mul(random_sc_matrix(rng, n))
        assert m.is_valid()


def test_inverse_round_trip_random():
    rng = random.Random(82)
    n = 3
    ident = identity(n)
    for _ in range(40):
        m = random_sc_matrix(rng, n)
        assert m.mul(m.inverse()) == ident
        assert m.inverse().mul(m) == ident


def test_normalized_and_same_automorphism():
    rng = random.Random(83)
    n = 2
    for _ in range(20):
        m = random_sc_matrix(rng, n)
        mn = m.normalized()
        assert mn.e.body() == Qi(1)
        assert same_automorphism(m, m.neg())
        assert not same_automorphism(m, m.mul(lift_sl2(n, 1, 1, 0, 1)))


def test_decompose_unique_and_exact():
    rng = random.Random(84)
    n = 4
    one = SuperNumber.one(n)
    for _ in range(40):
        m = random_sc_matrix(rng, n)
        quad, (al, be) = m.decompose()
        a, b, c, d = quad
        assert (a * d - b * c) == one
        assert al.is_odd() and be.is_odd()
        assert lift_sl2(n, a, b, c, d).mul(susy(n, al, be)) == m.normalized()


def test_shear_factor_determined_by_odd_row():
    # uniqueness: the shear parameters can be read off the normalized matrix
    rng = random.Random(85)
    n = 3
    for _ in range(20):
        m = random_sc_matrix(rng, n).normalized()
        _, (al, be) = m.decompose()
        assert al == m.alpha and be == m.beta


# ---------------------------------------------------------------------------
# Displayed closed forms


def test_inverse_closed_form():
    rng = random.Random(86)
    n = 3
    one = SuperNumber.one(n)
    for _ in range(25):
        m = random_sc_matrix(rng, n).normalized()
        expected = SCMatrix.from_rows(
            n,
            [[m.d, -m.c, m.beta],
             [-m.b, m.a, -m.alpha],
             [-m.delta, m.gamma, one - m.alpha * m.beta]],
            validate=False)
        assert m.inverse() == expected


def test_shear_conjugation_of_a_lift_displays():
    """Conjugating a lifted fractional-linear map by a shear: both the
    intermediate and the final 3x3 products, entry by entry."""
    n = 2
    sg, tu = _gens(n, 1, 2)
    one = SuperNumber.one(n)
    half = SuperNumber.scalar(n, Qi(1) / Qi(2))
    a, b, c, d = (SuperNumber.scalar(n, v) for v in (2, 3, 5, 8))
    lifted = lift_sl2(n, 2, 3, 5, 8)
    f = one + half * sg * tu
    inter = SCMatrix.from_rows(n, [
        [a * f, c * f, a * tu - c * sg],
        [b * f, d * f, b * tu - d * sg],
        [-sg, -tu, one - sg * tu]], validate=False)
    assert lifted.mul(susy(n, -sg, -tu)) == inter

    st = sg * tu
    final = SCMatrix.from_rows(n, [
        [a * (one + st) - st, c * (one + st), a * tu - c * sg - tu],
        [b * (one + st), d * (one + st) - st, b * tu - d * sg + sg],
        [a * sg + b * tu - sg, c * sg + d * tu - tu,
         (a + d - 2) * st + one]], validate=False)
    conj = susy(n, sg, tu).mul(lifted).mul(susy(n, -sg, -tu))
    assert conj == final
    # the conjugate has nonzero gamma, delta: lifts are not normal
    assert not conj.gamma.is_zero() or not conj.delta.is_zero()


# ---------------------------------------------------------------------------
# Action on points


def test_lift_acts_as_fractional_linear_map():
    n = 1
    m = lift_sl2(n, 2, 3, 5, 8)  # z -> (2z + 3) / (5z + 8)
    for z in (0, 1, -1, 7):
        img = preferred_chart(act_point(m, ChartPoint(n, 1, z, 0)))
        assert img.chart == 1
        assert img.p == SuperNumber.scalar(n, Qi(2 * z + 3) / Qi(5 * z + 8))


def test_action_is_a_right_action():
    rng = random.Random(87)
    n = 2
    agreed = 0
    for k in range(25):
        m1 = random_sc_matrix(rng, n)
        m2 = random_sc_matrix(rng, n)
        pt = ChartPoint(n, 1 + k % 2, random_supernumber(rng, n, parity=0),
                        random_supernumber(rng, n, parity=1, max_terms=2))
        assert act_point(m1.mul(m2), pt) == act_point(m2, act_point(m1, pt))
        # the chart quotient formulas are a second route wherever the image
        # stays in the point's chart
        try:
            img = chart_pullback(m1, pt)
        except GrassmannError as exc:
            assert "leaves the chart" in str(exc)
            continue
        assert img.chart == pt.chart
        assert img == act_point(m1, pt)
        agreed += 1
    assert agreed >= 20


def test_action_covers_infinity():
    n = 1
    m = lift_sl2(n, 0, -1, 1, 0)  # z -> -1/z
    assert act_point(m, point_zero(n)) == point_infty(n)
    assert act_point(m, point_infty(n)) == point_zero(n)


def test_point_multiplier_requires_reduced():
    n = 2
    al, be = _gens(n, 1, 2)
    with pytest.raises(GrassmannError):
        point_multiplier(susy(n, al, be), point_one(n))


def test_three_point_normalization():
    # the theta scale needs an exact square root; draws without one raise
    # and are skipped, the rest must land exactly on (0, 1, infinity)
    from itertools import permutations
    rng = random.Random(88)
    n = 2
    hits = 0
    for bodies in permutations(range(-4, 5), 3):
        pts = [ChartPoint(n, 1, b,
                          random_supernumber(rng, n, parity=1, max_terms=1))
               for b in bodies]
        try:
            m, eps = three_point_normalize(*pts)
        except NormalizationError:
            continue
        hits += 1
        imgs = [act_point(m, p) for p in pts]
        assert imgs[0] == point_zero(n)
        assert imgs[2] == point_infty(n)
        one_img = preferred_chart(imgs[1])
        assert one_img.chart == 1
        assert one_img.p == SuperNumber.one(n)
        assert one_img.pi == eps
        assert eps.is_odd()
    assert hits >= 20


def test_three_point_normalize_needs_distinct_bodies():
    n = 1
    eta = SuperNumber.gen(n, 1)
    a = ChartPoint(n, 1, 1, 0)
    b = ChartPoint(n, 1, 1, eta)
    with pytest.raises(GrassmannError):
        three_point_normalize(a, b, point_infty(n))


def test_one_point_slice_at_infinity():
    # Z2 = 0, so the first lift cannot be upper triangular
    n = 2
    g1 = SuperNumber.gen(n, 1)
    for pt in (ChartPoint(n, 2, 0, g1), ProjPoint(n, 1, 0, g1)):
        m = slice_normalize_one_point(pt)
        img = act_point(m, pt)
        assert m.is_valid() and img == point_zero(n)
        assert preferred_chart(img).chart == 1
        assert preferred_chart(img).pi.is_zero()


def test_stabilizer_fixes_the_slice_points():
    n = 1
    g = stabilizer_two_points(n, 5)
    assert act_point(g, point_zero(n)) == point_zero(n)
    assert act_point(g, point_infty(n)) == point_infty(n)


def test_torus_matrix_shape():
    n = 1
    rows = torus_matrix(n, Qi(3))
    assert rows[0][0] == SuperNumber.one(n)
    assert rows[2][2] == SuperNumber.scalar(n, 3)
    assert rows[0][1].is_zero() and rows[2][0].is_zero()


def test_random_sl2_det_one():
    rng = random.Random(89)
    for _ in range(50):
        a, b, c, d = random_sl2_qi(rng)
        assert a * d - b * c == Qi(1)


def test_random_sc_matrix_matches_the_product_route():
    # same entries and the same generator state after every draw, so every
    # caller sees the elements the product route gave it
    for seed in (0, 409):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in range(9):
            for with_odd in (True, False):
                for _ in range(8):
                    got = random_sc_matrix(rng, n, with_odd)
                    want = product_random_sc_matrix(ref, n, with_odd)
                    assert got == want and str(got) == str(want)
                    assert rng.getstate() == ref.getstate()


def test_random_sc_matrix_stream_is_pinned():
    m = random_sc_matrix(random.Random(0), 4)
    assert str(m) == (
        "[[-1, (-2/3-1/2i), -1/3*g1*g2*g4 + 4*g2*g3*g4], "
        "[-1, (-5/3-1/2i), -1/3*g1*g2*g4 + 4*g2*g3*g4], "
        "[0, 1/3*g1*g2*g4 - 4*g2*g3*g4, -1]]")
