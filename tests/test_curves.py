"""Curves into the projective line, the group actions on them, and the
odd-translation rank bookkeeping."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (action_matches_pointwise, action_matches_symbolic,
                      fields_of, reference_curve_eq, reference_gauge_pair,
                      reference_pivot, reference_random_config,
                      reference_random_curve, reference_susy1_matrix,
                      susy1_square)
from sgk.curves import (MarkedConfig, P1Point, SuperCurve, _gauge_pair,
                        act_config,
                        act_general, act_sl2_on_curve, act_susy_on_curve,
                        eval_curve_at_superpoint, orbit_normalize_points,
                        phi_deformation_dim, psi_space_dim, random_config,
                        random_curve, same_orbit, slice_normalize_one_point,
                        slice_normalize_two_points, susy1_matrix,
                        susy1_report,
                        torus_act_config, torus_act_curve)
from sgk.grassmann import GrassmannError, Qi, SuperNumber, T_PARAM, \
    random_qi, random_supernumber
from sgk.polyrat import SuperPoly
from sgk.scgroup import (act_point, lift_sl2, random_sc_matrix,
                         random_sl2_qi, susy)
from sgk.linalg import module_rank_report
from sgk.superspace import ChartPoint, ProjPoint, point_infty, point_zero


def _gens(n, *idx):
    return tuple(SuperNumber.gen(n, i) for i in idx)


def _random_points(rng, n, count):
    return [ChartPoint(n, 1, random_supernumber(rng, n, parity=0),
                       random_supernumber(rng, n, parity=1, max_terms=2))
            for _ in range(count)]


def _example_curve(n, d, P, Q, r, validate=True):
    """A curve from coefficient lists over n generators, g the generators
    g[1] .. g[n] (g[0] unused), each list a function of g."""
    g = (None,) + _gens(n, *range(1, n + 1))
    return SuperCurve(n, d, P(g), Q(g), r(g), validate=validate)


_t = T_PARAM


# ---------------------------------------------------------------------------
# Target points and curve construction


def test_p1point_projective_equality():
    n = 2
    lam = 2 + _gens(n, 1, 2)[0] * _gens(n, 1, 2)[1]
    p = P1Point(n, 3, 1)
    q = P1Point(n, lam * 3, lam)
    assert p == q
    assert p != P1Point(n, 1, 3)


def test_p1point_needs_an_invertible_coordinate():
    n = 2
    soul = SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2)
    with pytest.raises(GrassmannError):
        P1Point(n, soul, soul)


def test_curve_validation():
    n = 1
    eta = SuperNumber.gen(n, 1)
    # r degree is capped at 2d - 1
    with pytest.raises(GrassmannError):
        SuperCurve(n, 0, SuperPoly(n, [1]), SuperPoly(n, [1]),
                   SuperPoly(n, [eta]))
    with pytest.raises(GrassmannError):
        SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]),
                   SuperPoly(n, [0, 0, eta]))
    # odd numerator must be odd
    with pytest.raises(GrassmannError):
        SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]),
                   SuperPoly(n, [1]))
    ok = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]),
                    SuperPoly(n, [eta, eta]))
    assert ok.r.degree() == 1


def test_curve_equality_is_projective():
    n = 2
    lam = 3 + SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2)
    P, Q = SuperPoly(n, [0, 1]), SuperPoly(n, [1, 2])
    r = SuperPoly(n, [SuperNumber.gen(n, 1)])
    a = SuperCurve(n, 1, P, Q, r)
    b = SuperCurve(n, 1, P * lam, Q * lam, r * (lam * lam))
    assert a == b
    assert a != SuperCurve(n, 1, P, Q)


def _scaled(cur, c):
    """The same curve, given by (c P, c Q, c^2 r)."""
    return SuperCurve(cur.n, cur.d, cur.P * c, cur.Q * c, cur.r * (c * c))


def _even_unit(rng, n, with_t):
    """An even invertible number, with a soul when n >= 2 and t in its body
    when with_t."""
    body = random_qi(rng, nonzero=True)
    c = SuperNumber.scalar(n, body + _t if with_t else body)
    if n < 2:
        return c
    soul = random_supernumber(rng, n, parity=0, max_terms=2).soul()
    if soul.is_zero():
        soul = SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2)
    return c + soul


def _with_coeff_added(cur, field, m, e):
    """cur with e added to coefficient m of field "P", "Q" or "r"; cur
    itself when that is no curve."""
    fields = {"P": cur.P, "Q": cur.Q, "r": cur.r}
    cs = list(fields[field].coeffs)
    cs += [SuperNumber.zero(cur.n)] * (m + 1 - len(cs))
    cs[m] = cs[m] + e
    fields[field] = SuperPoly(cur.n, cs)
    try:
        return SuperCurve(cur.n, cur.d, fields["P"], fields["Q"], fields["r"])
    except GrassmannError:
        return cur


def _perturbed(rng, cur):
    """cur with one coefficient moved: a soul (or 1 below n = 2) added to P
    or Q, or a generator added to r."""
    n, d = cur.n, cur.d
    field = rng.choice("PQr" if n and d else "PQ")
    if field == "r":
        return _with_coeff_added(cur, "r", rng.randrange(2 * d),
                                 SuperNumber.gen(n, rng.randint(1, n)))
    e = SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2) if n >= 2 else 1
    return _with_coeff_added(cur, field, rng.randint(0, d), e)


def _moved_pivot(cur):
    """cur with the body of its pivot coefficient dropped, so the pivot sits
    lower in Q or in P; None when that is no curve."""
    (which, m), c = cur._pivot()
    moved = _with_coeff_added(cur, "QP"[which], m, -c.body())
    return None if moved is cur else moved


@st.composite
def _curve_pairs(draw):
    """(kind, a, b): a curve at n = 0-4 and d = 0-3, t in a body
    coefficient half the time, and a second curve made from it as kind
    says."""
    n, d = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    with_t = draw(st.booleans())
    if d == 0 and draw(st.booleans()):
        # the pivot is in P: Q is nilpotent
        a = SuperCurve(n, 0, SuperPoly(n, [_even_unit(rng, n, with_t)]),
                       SuperPoly(n, [random_supernumber(
                           rng, n, parity=0, max_terms=2).soul()]))
    else:
        a = random_curve(rng, n, d)
        if with_t:
            a = _with_coeff_added(a, "P", 0, _t)
    c = _even_unit(rng, n, draw(st.booleans()))
    kind = draw(st.sampled_from(["scaled", "perturbed", "scaled perturbed",
                                 "moved pivot", "independent"]))
    if kind == "moved pivot":
        moved = _moved_pivot(a)
        if moved is not None:
            return kind, a, _scaled(moved, c)
        kind = "scaled"
    if kind == "scaled":
        return kind, a, _scaled(a, c)
    if kind == "perturbed":
        return kind, a, _perturbed(rng, a)
    if kind == "scaled perturbed":
        return kind, a, _scaled(_perturbed(rng, a), c)
    return kind, a, random_curve(rng, n, d)


@given(pair=_curve_pairs())
# d = 0, the pivot in P, scaled by an even unit with t in its body
@example(pair=("scaled", _example_curve(2, 0, lambda g: [2 + g[1] * g[2]],
                                        lambda g: [3 * g[1] * g[2]],
                                        lambda g: []),
               _example_curve(2, 0, lambda g: [(2 + g[1] * g[2])
                                               * (_t + 1 + g[1] * g[2])],
                              lambda g: [3 * g[1] * g[2] * (_t + 1)],
                              lambda g: [])))
# the same curve with its pivot moved from Q into P
@example(pair=("moved pivot",
               _example_curve(2, 0, lambda g: [2], lambda g: [1 + g[1] * g[2]],
                              lambda g: []),
               _example_curve(2, 0, lambda g: [2], lambda g: [g[1] * g[2]],
                              lambda g: [])))
@settings(max_examples=200, deadline=None)
def test_curve_equality_matches_canonical_forms(pair):
    kind, a, b = pair
    assert (a == b) is reference_curve_eq(a, b)
    assert (b == a) is reference_curve_eq(b, a)
    if kind == "scaled":
        assert a == b
    if kind == "moved pivot":
        assert a != b


def test_eval_curve_examples():
    n = 2
    eta1, eta2 = _gens(n, 1, 2)
    # phi = z^2, psi = eta1 z
    cur = SuperCurve(n, 2, SuperPoly(n, [0, 0, 1]), SuperPoly(n, [1]),
                     SuperPoly(n, [0, eta1]))
    v = eval_curve_at_superpoint(cur, ChartPoint(n, 1, 3, 0))
    assert v == P1Point(n, 9, 1)
    # the odd coordinate feeds the value through psi
    theta = ChartPoint(n, 1, 3, eta2)
    w = eval_curve_at_superpoint(cur, theta)
    assert w == P1Point(n, 9 + eta2 * (eta1 * 3), 1)
    assert w != v
    assert eval_curve_at_superpoint(cur, point_infty(n)) == P1Point(n, 1, 0)


# ---------------------------------------------------------------------------
# Group actions: two independent oracles


def test_act_general_matches_symbolic_pullback():
    rng = random.Random(101)
    n = 3
    for _ in range(20):
        d = rng.randint(0, 2)
        cur = random_curve(rng, n, d)
        m = random_sc_matrix(rng, n)
        assert action_matches_symbolic(m, cur, act_general)


def test_act_general_matches_pointwise_evaluation():
    rng = random.Random(102)
    n = 3
    for _ in range(20):
        d = rng.randint(0, 2)
        cur = random_curve(rng, n, d)
        m = random_sc_matrix(rng, n)
        pts = _random_points(rng, n, 3)
        assert action_matches_pointwise(m, cur, pts, act_general)


def test_act_general_specializes_to_both_factors():
    rng = random.Random(103)
    n = 3
    for _ in range(15):
        cur = random_curve(rng, n, rng.randint(0, 2))
        quad = random_sl2_qi(rng)
        lifted = lift_sl2(n, *quad)
        assert act_general(lifted, cur) == act_sl2_on_curve(lifted, cur)
        al = random_supernumber(rng, n, parity=1, max_terms=2)
        be = random_supernumber(rng, n, parity=1, max_terms=2)
        assert act_general(susy(n, al, be), cur) \
            == act_susy_on_curve(al, be, cur)


def test_act_on_curves_composes_contravariantly():
    # points carry a right action, so pulling functions back flips the order
    rng = random.Random(104)
    n = 2
    for _ in range(10):
        cur = random_curve(rng, n, rng.randint(0, 2))
        m1 = random_sc_matrix(rng, n)
        m2 = random_sc_matrix(rng, n)
        lhs = act_general(m1.mul(m2), cur)
        rhs = act_general(m1, act_general(m2, cur))
        alt = act_general(m2, act_general(m1, cur))
        assert lhs == rhs or lhs == alt


def _short_p_curve(rng, n, d):
    """A curve with deg P0 < d = deg Q0: random_curve's P becomes Q, and
    its Q less the top body coefficient becomes P, drawn again while the
    two bodies share a root or P's body vanishes."""
    while True:
        cur = random_curve(rng, n, d)
        top = SuperPoly(n, [0] * d + [cur.Q.coeff(d).body()])
        try:
            return SuperCurve(n, d, cur.Q - top, cur.P, cur.r)
        except GrassmannError:
            continue


@st.composite
def _gauge_curves(draw):
    n, d = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return _short_p_curve(rng, n, d)
    return random_curve(rng, n, d)


@given(cur=_gauge_curves())
# deg P0 < d, with a soul on P
@example(cur=_example_curve(2, 2, lambda g: [1, 1 + g[1] * g[2]],
                            lambda g: [3, 0, 1],
                            lambda g: [g[1], g[2], 0, g[1]]))
# deg Q0 < d, with a soul on Q
@example(cur=_example_curve(3, 2, lambda g: [-2, 0, 1],
                            lambda g: [1 + g[1] * g[2], 1],
                            lambda g: [g[1], 0, g[3]]))
# no soul on P or Q
@example(cur=_example_curve(1, 3, lambda g: [0, Qi(0, 1), 0, 1],
                            lambda g: [-1, 0, 2],
                            lambda g: [g[1], g[1], 0, 0, 0, g[1]]))
# souls on both P and Q; the series needs its third term at n = 6
@example(cur=_example_curve(6, 2, lambda g: [g[3] * g[4], g[2] * g[3], 1],
                            lambda g: [1, g[4] * g[5], 2 + g[5] * g[6]],
                            lambda g: [g[1], g[6]]))
# t in the bodies
@example(cur=_example_curve(2, 2, lambda g: [_t, 0, 1],
                            lambda g: [-1 + g[1] * g[2], _t],
                            lambda g: [g[2], g[1]]))
# unvalidated: bodies sharing z - 1, and bodies both below degree d
@example(cur=_example_curve(2, 2, lambda g: [-2, 1, 1], lambda g: [-3, 3],
                            lambda g: [g[1]], validate=False))
@example(cur=_example_curve(2, 3, lambda g: [0, 0, 1], lambda g: [1, 1],
                            lambda g: [g[1]], validate=False))
@settings(max_examples=120, deadline=None)
def test_gauge_pair_matches_sylvester_route(cur):
    try:
        want = reference_gauge_pair(cur)
    except GrassmannError as exc:
        assert str(exc) == "singular scalar system"
        with pytest.raises(GrassmannError, match="^singular scalar system$"):
            _gauge_pair(cur)
        return
    X, Y = _gauge_pair(cur)
    assert (X, Y) == want
    assert X * cur.Q - Y * cur.P == cur.r
    assert X.degree() < cur.d and Y.degree() < cur.d


def test_torus_action_on_curves():
    rng = random.Random(105)
    n = 2
    for _ in range(10):
        cur = random_curve(rng, n, rng.randint(1, 3))
        t2 = torus_act_curve(Qi(2), cur)
        assert t2.P == cur.P and t2.Q == cur.Q
        assert t2.r == cur.r * 2
        assert torus_act_curve(Qi(3), t2) == torus_act_curve(Qi(6), cur)
        assert torus_act_curve(T_PARAM, cur).reduced() == cur.reduced()


# ---------------------------------------------------------------------------
# Marked configurations and orbits


def test_act_config_moves_points_and_curve_coherently():
    rng = random.Random(106)
    n = 2
    for _ in range(10):
        cfg = random_config(rng, n, 3, 1)
        m = random_sc_matrix(rng, n)
        moved = act_config(m, cfg)
        assert moved.curve == act_general(m, cfg.curve)
        for p, q in zip(cfg.points, moved.points):
            assert q == act_point(m, p)
        # evaluations travel with the configuration
        for p, q in zip(cfg.points, moved.points):
            assert eval_curve_at_superpoint(moved.curve, q) \
                == eval_curve_at_superpoint(cfg.curve, p)


def test_same_orbit_detects_translates():
    # normal forms need exact square roots, so start from triples whose
    # pairwise-difference product is a perfect square
    rng = random.Random(107)
    n = 2
    bodies = (-2, 0, 2, 6)
    for _ in range(10):
        pts = [ChartPoint(n, 1, v, random_supernumber(rng, n, parity=1,
                                                      max_terms=1))
               for v in bodies]
        m = random_sc_matrix(rng, n)
        moved = [act_point(m, p) for p in pts]
        assert same_orbit(pts, moved)
    # three reduced points are always in one orbit
    a = [ChartPoint(n, 1, v, 0) for v in (-2, 0, 2)]
    b = [ChartPoint(n, 1, v, 0) for v in (-5, -3, -1)]
    assert same_orbit(a, b)


def test_same_orbit_needs_matching_length_and_distinct_bodies():
    n = 1
    a = [ChartPoint(n, 1, v, 0) for v in (-2, 0, 2)]
    assert not same_orbit(a, a[:2])
    clash = [ChartPoint(n, 1, 0, 0), ChartPoint(n, 1, 0, 0),
             ChartPoint(n, 1, 1, 0)]
    with pytest.raises(GrassmannError):
        same_orbit(clash, a)


def test_orbit_normalize_points():
    n = 2
    eta1, eta2 = _gens(n, 1, 2)
    pts = [ChartPoint(n, 1, -2, eta1), ChartPoint(n, 1, 0, eta2),
           ChartPoint(n, 1, 2, 0), ChartPoint(n, 1, 7, eta1 + eta2)]
    eps, rest = orbit_normalize_points(pts)
    assert eps.parity() == 1
    assert len(rest) == 1
    with pytest.raises(GrassmannError):
        orbit_normalize_points(pts[:2])


def test_slice_normalizers():
    rng = random.Random(108)
    n = 2
    cfg = random_config(rng, n, 3, 1)
    two = slice_normalize_two_points(cfg)
    assert two.points[0] == point_zero(n)
    assert two.points[1] == point_infty(n)
    one = slice_normalize_one_point(cfg)
    assert one.points[0] == point_zero(n)


# ---------------------------------------------------------------------------
# Dimension bookkeeping and equivariance


def test_component_dimensions_match_the_index():
    for d in range(0, 5):
        assert psi_space_dim(d) == 2 * d
        assert phi_deformation_dim(d) == 2 * d + 1


def test_susy1_rank_profile_small():
    rng = random.Random(109)
    n = 2
    for k, d in ((3, 0), (1, 1), (2, 1), (4, 2)):
        for _ in range(5):
            rep = susy1_report(random_config(rng, n, k, d))
            if rep.degenerate:
                continue
            assert rep.rank == 2
            assert rep.kernel_rank == 0
            assert rep.coker_rank == k + 2 * d - 2


def test_susy1_matrix_matches_reduced_config_route():
    rng = random.Random(113)
    cases = []
    for _ in range(60):
        n, k, d = rng.randint(0, 4), rng.randint(0, 5), rng.randint(0, 3)
        cases.append(random_config(rng, n, k, d, reduced=rng.random() < 0.2))
    # points at infinity and projective points with a soul, in both charts,
    # and a curve with t in its bodies
    g1, g2, g3 = _gens(3, 1, 2, 3)
    cur = SuperCurve(3, 2, SuperPoly(3, [1 + g1 * g2, T_PARAM, 1]),
                     SuperPoly(3, [2, 0, Qi(0, 1)]),
                     SuperPoly(3, [g3, 0, g1]))
    cases.append(MarkedConfig(
        [ProjPoint(3, 2 + g1 * g3, g2 * g3, g1),
         ProjPoint(3, 1, 3 + g1 * g2, g2), ChartPoint(3, 2, 5, g3),
         ChartPoint(3, 1, T_PARAM, g1 + g2 * g1 * g3)], cur))
    for cfg in cases:
        got, want = susy1_matrix(cfg), reference_susy1_matrix(cfg)
        assert got == want
        assert [[str(x) for x in row] for row in got] \
            == [[str(x) for x in row] for row in want]
        assert all(x.n == cfg.n and x.soul().is_zero()
                   for row in got for x in row)
        rep, ref = susy1_report(cfg), module_rank_report(want)
        assert (rep.rank, rep.kernel_rank, rep.coker_rank, rep.degenerate,
                rep.kernel_basis) == (ref.rank, ref.kernel_rank,
                                      ref.coker_rank, ref.degenerate,
                                      ref.kernel_basis)


def test_susy1_equivariance_square_samples():
    rng = random.Random(110)
    n = 2
    seen = 0
    while seen < 25:
        k = rng.randint(1, 4)
        d = rng.randint(0, 2)
        if k + 2 * d < 3:
            continue
        cfg = random_config(rng, n, k, d)
        got = susy1_square(random_sl2_qi(rng), cfg)
        if got is None:
            continue
        lhs, rhs = got
        assert lhs == rhs
        seen += 1


def test_susy1_cokernel_stable_under_torus():
    rng = random.Random(111)
    n = 2
    for _ in range(10):
        cfg = random_config(rng, n, 3, 1)
        rep = susy1_report(cfg)
        for tv in (Qi(2), Qi(0, 1), Qi(-3) / Qi(5)):
            moved = susy1_report(torus_act_config(tv, cfg))
            assert (moved.rank, moved.coker_rank) \
                == (rep.rank, rep.coker_rank)


def test_random_constructors_are_valid():
    rng = random.Random(112)
    for n in (1, 2):
        for d in (0, 1, 2):
            cur = random_curve(rng, n, d, reduced=True)
            assert cur.is_reduced()
            cfg = random_config(rng, n, 3, d)
            assert cfg.k() == 3 and cfg.curve.d == d


def test_random_curve_souls_are_rarely_zero():
    # at n = 2 the one soul monomial is g1*g2, so a soul coefficient is zero
    # only when its last draw is a zero random_qi, 1/9 * (3/4 + 1/4 * 1/7),
    # about 8.7%; drawing the body monomial too would zero about 44%
    rng = random.Random(118)
    souls = []
    for _ in range(1000):
        cur = random_curve(rng, 2, 1)
        souls += [p.coeff(i).soul() for p in (cur.P, cur.Q) for i in (0, 1)]
    share = sum(c.is_zero() for c in souls) / len(souls)
    assert share < 0.2


def test_curve_string_form():
    n = 1
    eta = SuperNumber.gen(n, 1)
    cur = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]),
                     SuperPoly(n, [eta]))
    text = str(cur)
    assert text.startswith("curve(1; phi = ")
    assert "psi = " in text


# every (n, d) of random_curve and (n, k, d, reduced) of random_config that
# the verify-paper checks draw, plus curves at the edges of n
_SUITE_CURVES = [(1, d) for d in range(3)] + [(0, 2), (3, 1), (8, 2)]
_SUITE_CONFIGS = ([(2, k, d, False) for k in range(1, 7) for d in range(4)
                   if k + 2 * d >= 3]
                  + [(1, 4, 1, False), (1, 3, 1, True), (1, 3, 1, False)])


def test_random_curve_draws_match_the_randint_generator():
    for seed in (0, 3, 411):
        rng, ref = random.Random(seed), random.Random(seed)
        for n, d in _SUITE_CURVES:
            for reduced in (False, True):
                got = random_curve(rng, n, d, reduced)
                want = reference_random_curve(ref, n, d, reduced)
                assert got == want and str(got) == str(want)
                assert fields_of(got) == fields_of(want)
                assert rng.getstate() == ref.getstate()


def test_random_config_draws_match_the_randint_generator():
    for seed in (0, 3, 412):
        rng, ref = random.Random(seed), random.Random(seed)
        for n, k, d, reduced in _SUITE_CONFIGS:
            got = random_config(rng, n, k, d, reduced)
            want = reference_random_config(ref, n, k, d, reduced)
            assert got == want and str(got) == str(want)
            assert fields_of(got) == fields_of(want)
            assert rng.getstate() == ref.getstate()


def _pivot_cases():
    rng = random.Random(413)
    for n in range(9):
        for d in range(4):
            cur = random_curve(rng, n, d)
            yield cur
            yield cur.canonical()
            yield cur.reduced()
    # the pivot in P: a constant curve at infinity, and Q without a body
    for n in (0, 2):
        yield SuperCurve(n, 0, SuperPoly(n, [1]), SuperPoly(n, [0]))
        if n:
            g = SuperNumber.gen(n, 1) * SuperNumber.gen(n, 2)
            yield SuperCurve(n, 0, SuperPoly(n, [3]), SuperPoly(n, [g]),
                             validate=False)
    # Gaussian and t coefficients, and a soul above the body degree
    t = SuperNumber.scalar(2, T_PARAM)
    g12 = SuperNumber.gen(2, 1) * SuperNumber.gen(2, 2)
    yield SuperCurve(2, 2, SuperPoly(2, [1, Qi(0, 1), 2 + g12]),
                     SuperPoly(2, [t, 1 + 3 * g12, g12]), validate=False)
    yield SuperCurve(2, 1, SuperPoly(2, [Qi(1, 2), g12]),
                     SuperPoly(2, [t + g12, Qi(2, -1)]), validate=False)


def test_pivot_matches_the_two_scan_pivot():
    count = 0
    for cur in _pivot_cases():
        (at, lead), (want_at, want) = cur._pivot(), reference_pivot(cur)
        assert at == want_at
        assert lead == want and str(lead) == str(want)
        assert fields_of(lead) == fields_of(want)
        count += 1
    assert count > 100
