"""Stable marked trees, their decorated configurations, and the gluing and
forgetful operations."""

import math
import random
from collections import Counter

import pytest

from _oracles import fields_of, reference_random_glue_pair
from sgk.curves import SuperCurve, eval_curve_at_superpoint, random_curve
from sgk.grassmann import (GrassmannError, Qi, SuperNumber, random_qi,
                           random_supernumber)
from sgk.polyrat import SuperPoly
from sgk.scgroup import act_point, lift_sl2, random_sc_matrix
from sgk.superspace import ChartPoint
from sgk.trees import (StableTree, TreeConfig, act_tree_config,
                       forget_last_mark, glue, random_glue_pair,
                       single_vertex_config, torus_act_tree, validate)


def _const_curve(n, value):
    return SuperCurve(n, 0, SuperPoly(n, [value]), SuperPoly(n, [1]))


def _two_vertex_config(n, c1, c2):
    tree = StableTree(2, [(1, 2)], [1, 1, 2, 2], [0, 0])
    nodal = {(1, 2): ChartPoint(n, 1, 0, 0), (2, 1): ChartPoint(n, 1, 0, 0)}
    marked = [ChartPoint(n, 1, 1, 0), ChartPoint(n, 1, 2, 0),
              ChartPoint(n, 1, 1, 0), ChartPoint(n, 1, 2, 0)]
    return TreeConfig(tree, nodal, marked,
                      [_const_curve(n, c1), _const_curve(n, c2)])


# ---------------------------------------------------------------------------
# Bare trees


def test_stability_rule():
    # a degree-zero vertex needs three special points
    with pytest.raises(GrassmannError):
        StableTree(1, [], [1, 1], [0])
    StableTree(1, [], [1, 1], [1])          # positive degree rescues it
    StableTree(1, [], [1, 1, 1], [0])       # or a third mark
    loose = StableTree(1, [], [1, 1], [0], require_stable=False)
    assert not loose.is_stable()


def test_tree_shape_validation():
    with pytest.raises(GrassmannError):
        StableTree(2, [(1, 1)], [], [1, 1])            # loop
    with pytest.raises(GrassmannError):
        StableTree(2, [(1, 2), (2, 1)], [], [1, 1])    # duplicate edge
    with pytest.raises(GrassmannError):
        StableTree(2, [(1, 3)], [], [1, 1])            # endpoint range
    with pytest.raises(GrassmannError):
        StableTree(3, [(1, 2)], [], [1, 1, 1])         # disconnected
    with pytest.raises(GrassmannError):
        StableTree(1, [], [2], [1])                    # mark off the tree
    with pytest.raises(GrassmannError):
        StableTree(2, [(1, 2)], [], [1])               # degree count


def test_tree_accessors_and_string():
    tree = StableTree(2, [(2, 1)], [1, 2, 2], [1, 0])
    assert tree.k() == 3
    assert tree.edges == ((1, 2),)
    assert tree.edges_at(1) == [(1, 2)]
    assert tree.marks_at(2) == [2, 3]
    assert tree.special_count(2) == 3
    assert sorted(tree.directed_edges()) == [(1, 2), (2, 1)]
    assert str(tree) == \
        "tree(2; edges = [[1, 2]]; marks = [1, 2, 2]; degrees = [1, 0])"
    assert tree == StableTree(2, [(1, 2)], [1, 2, 2], [1, 0])


# ---------------------------------------------------------------------------
# Configurations and diagnostics


def test_config_shape_validation():
    n = 1
    tree = StableTree(1, [], [1, 1, 1], [0])
    with pytest.raises(GrassmannError):
        TreeConfig(tree, {}, [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)],
                   [])                                  # curve count
    with pytest.raises(GrassmannError):
        TreeConfig(tree, {}, [ChartPoint(n, 1, 0, 0)],
                   [_const_curve(n, 3)])                # point count
    with pytest.raises(GrassmannError):
        TreeConfig(tree, {(1, 2): ChartPoint(n, 1, 0, 0)},
                   [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)],
                   [_const_curve(n, 3)])                # nodal off tree
    deg1 = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]))
    with pytest.raises(GrassmannError):
        TreeConfig(tree, {}, [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)],
                   [deg1])                              # degree mismatch


def test_config_entries_are_checked_before_use():
    # a vertex without a curve, or marked points that are not a sequence,
    # give a GrassmannError rather than an AttributeError or TypeError
    n = 1
    tree = StableTree(1, [], [1, 1, 1], [0])
    pts = [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)]
    with pytest.raises(GrassmannError, match="^vertex 1 carries no curve$"):
        TreeConfig(tree, {}, pts, [[1]])
    with pytest.raises(GrassmannError,
                       match="^treecfg marked must be a list$"):
        TreeConfig(tree, {}, 5, [_const_curve(n, 3)])
    # the curve checks still come first
    with pytest.raises(GrassmannError, match="^need one curve per vertex$"):
        TreeConfig(tree, {}, 5, [])


def test_missing_nodal_point_is_reported():
    n = 1
    tree = StableTree(2, [(1, 2)], [1, 1, 2, 2], [0, 0])
    with pytest.raises(GrassmannError, match="missing nodal"):
        TreeConfig(tree, {(1, 2): ChartPoint(n, 1, 0, 0)},
                   [ChartPoint(n, 1, v, 0) for v in (1, 2, 1, 2)],
                   [_const_curve(n, 3), _const_curve(n, 3)])


def test_validate_accepts_a_matching_edge():
    cfg = _two_vertex_config(1, 5, 5)
    diag = validate(cfg)
    assert diag.ok
    assert diag.vertex_clashes == []
    assert all(r.is_zero() for r in diag.edge_residuals.values())


def test_validate_reports_edge_mismatch():
    cfg = _two_vertex_config(1, 5, 7)
    diag = validate(cfg)
    assert not diag.ok
    assert diag.edge_residuals[(1, 2)] == SuperNumber.scalar(1, Qi(-2))


def test_validate_reports_vertex_clash():
    n = 1
    tree = StableTree(1, [], [1, 1, 1], [0])
    pts = [ChartPoint(n, 1, 0, 0), ChartPoint(n, 1, 0, 0),
           ChartPoint(n, 1, 2, 0)]
    diag = validate(TreeConfig(tree, {}, pts, [_const_curve(n, 4)]))
    assert diag.vertex_clashes == [1]
    assert not diag.ok


def test_special_points_order_nodal_first():
    cfg = _two_vertex_config(1, 5, 5)
    pts = cfg.special_points(1)
    assert pts[0] == cfg.nodal[(1, 2)]
    assert pts[1:] == list(cfg.marked[:2])


# ---------------------------------------------------------------------------
# Gluing and forgetting


def test_glue_shapes_and_validity():
    rng = random.Random(201)
    c1, c2 = random_glue_pair(rng, n=2)
    glued = glue(c1, c2)
    assert glued.tree.nv == c1.tree.nv + c2.tree.nv
    assert glued.tree.k() == c1.tree.k() + c2.tree.k() - 2
    assert validate(glued).ok
    # the new edge carries the two old last marks
    v1 = c1.tree.marking[-1]
    v2 = c2.tree.marking[-1] + c1.tree.nv
    assert glued.nodal[(v1, v2)] == c1.marked[-1]
    assert glued.nodal[(v2, v1)] == c2.marked[-1]


GLUE_SEEDS = range(1, 41)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_glue_pairs_are_valid(n):
    # eight pairs per seed; at n = 3 a sampler that rejects nilpotent node
    # mismatches runs out of attempts at seeds 18 and 40
    for seed in GLUE_SEEDS:
        rng = random.Random(seed)
        for _ in range(8):
            c1, c2 = random_glue_pair(rng, n)
            assert validate(c1).ok and validate(c2).ok
            assert validate(glue(c1, c2)).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_glue_pair_rejects_only_points_at_infinity(n):
    # one attempt per call replays the sampler draw by draw; each draw is
    # made again from the saved state as random_glue_pair makes it
    rejected = 0
    for seed in GLUE_SEEDS:
        rng, ref = random.Random(seed), random.Random()
        for _ in range(12):
            ref.setstate(rng.getstate())
            try:
                got = random_glue_pair(rng, n, attempts=1)
            except GrassmannError:
                got = None
            d1, d2 = ref.randint(0, 2), ref.randint(0, 2)
            c1, c2 = random_curve(ref, n, d1), random_curve(ref, n, d2)
            p1, p2 = (ChartPoint(n, 1, random_qi(ref),
                                 random_supernumber(ref, n, parity=1))
                      for _ in range(2))
            assert rng.getstate() == ref.getstate()
            finite = c1.Q.eval(p1.p).is_invertible() and \
                c2.Q.eval(p2.p).is_invertible()
            assert (got is not None) == finite
            if got is None:
                rejected += 1
                continue
            cfg1, cfg2 = got
            c2b = cfg2.curves[0]
            assert cfg1.curves[0] == c1 and cfg1.marked[-1] == p1
            assert cfg2.marked[-1] == p2 and c2b.d == d2
            assert c2b.Q == c2.Q and c2b.r == c2.r
            assert eval_curve_at_superpoint(c2b, p2) == \
                eval_curve_at_superpoint(c1, p1)
    assert rejected > 0


@pytest.mark.parametrize("n", [1, 2])
def test_glue_pair_degrees_are_near_uniform(n):
    # (d1, d2) is drawn uniform on {0, 1, 2}^2 and only draws with a target
    # at infinity are redrawn, so each of the 9 cells is close to
    # Binomial(N, 1/9), sigma = sqrt(N (1/9) (8/9)) = 5.6 at N = 320.  A
    # cell beyond 4 sigma has two-sided probability 6e-5 under the normal
    # approximation, so some cell of 9 exceeds it with probability below
    # 6e-4.  A sampler that shifts by the constant g gives d2 = 0 in 250 of
    # 320 pairs at n = 1, and one whose g misses the nilpotent
    # pi r(p2)/Q(p2)^2 gives it in 267 of 320 at n = 2.
    cells = Counter()
    for seed in GLUE_SEEDS:
        rng = random.Random(seed)
        for _ in range(8):
            c1, c2 = random_glue_pair(rng, n)
            cells[c1.curves[0].d, c2.curves[0].d] += 1
    total = sum(cells.values())
    sigma = math.sqrt(total * (1 / 9) * (8 / 9))
    for d1 in range(3):
        for d2 in range(3):
            assert abs(cells[d1, d2] - total / 9) <= 4 * sigma, cells


def test_glue_requires_matching_targets():
    n = 1
    cfg1 = single_vertex_config(
        [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)], _const_curve(n, 5))
    cfg2 = single_vertex_config(
        [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)], _const_curve(n, 7))
    with pytest.raises(GrassmannError, match="different targets"):
        glue(cfg1, cfg2)
    deg1 = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]))
    bare = single_vertex_config([], deg1)
    with pytest.raises(GrassmannError, match="mark"):
        glue(bare, cfg1)


def test_forget_last_mark():
    n = 1
    cfg = single_vertex_config(
        [ChartPoint(n, 1, v, 0) for v in (0, 1, 2, 3)], _const_curve(n, 5))
    smaller = forget_last_mark(cfg)
    assert smaller.tree.k() == 3
    assert smaller.marked == cfg.marked[:-1]
    with pytest.raises(GrassmannError):
        forget_last_mark(smaller)  # would leave two marks on a rigid vertex
    deg1 = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]))
    empty = single_vertex_config([], deg1)
    with pytest.raises(GrassmannError, match="no mark"):
        forget_last_mark(empty)


# ---------------------------------------------------------------------------
# Group and torus actions


def test_act_tree_config_preserves_validity():
    rng = random.Random(202)
    for _ in range(5):
        c1, c2 = random_glue_pair(rng, n=2)
        glued = glue(c1, c2)
        m = random_sc_matrix(rng, 2)
        moved = act_tree_config(m, glued)
        assert validate(moved).ok
        for key in glued.nodal:
            assert moved.nodal[key] == act_point(m, glued.nodal[key])


def test_act_tree_config_per_vertex():
    rng = random.Random(203)
    c1, c2 = random_glue_pair(rng, n=2)
    glued = glue(c1, c2)
    m1 = random_sc_matrix(rng, 2)
    m2 = random_sc_matrix(rng, 2)
    moved = act_tree_config([m1, m2], glued)
    assert validate(moved).ok
    with pytest.raises(GrassmannError):
        act_tree_config([m1], glued)


def test_glue_commutes_with_the_group():
    rng = random.Random(204)
    for _ in range(5):
        c1, c2 = random_glue_pair(rng, n=2)
        m1 = random_sc_matrix(rng, 2)
        m2 = random_sc_matrix(rng, 2)
        lhs = glue(act_tree_config(m1, c1), act_tree_config(m2, c2))
        rhs = act_tree_config([m1, m2], glue(c1, c2))
        assert lhs == rhs


def test_glue_commutes_with_the_torus():
    # over one generator the node evaluations are torus-fixed (the odd
    # contribution pi * r squares away), so rescaling the two sides and
    # gluing agree on the nose
    rng = random.Random(205)
    for _ in range(5):
        c1, c2 = random_glue_pair(rng, n=1)
        for tv in (Qi(2), Qi(0, 1)):
            lhs = glue(torus_act_tree(tv, c1), torus_act_tree(tv, c2))
            rhs = torus_act_tree(tv, glue(c1, c2))
            assert lhs == rhs


def test_forget_commutes_with_actions():
    rng = random.Random(206)
    n = 2
    for _ in range(5):
        cur = _const_curve(n, 5)
        cfg = single_vertex_config(
            [ChartPoint(n, 1, v, 0) for v in (0, 1, 2, 3)], cur)
        m = random_sc_matrix(rng, n)
        assert forget_last_mark(act_tree_config(m, cfg)) \
            == act_tree_config(m, forget_last_mark(cfg))
        assert forget_last_mark(torus_act_tree(Qi(2), cfg)) \
            == torus_act_tree(Qi(2), forget_last_mark(cfg))


def test_torus_act_tree_scales_odd_parts():
    n = 1
    eta = SuperNumber.gen(n, 1)
    cur = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]),
                     SuperPoly(n, [eta]))
    cfg = single_vertex_config(
        [ChartPoint(n, 1, 0, eta), ChartPoint(n, 1, 1, 0),
         ChartPoint(n, 1, 2, 0)], cur)
    moved = torus_act_tree(Qi(3), cfg)
    assert moved.curves[0].r == cur.r * 3
    twice = torus_act_tree(Qi(2), torus_act_tree(Qi(3), cfg))
    assert twice == torus_act_tree(Qi(6), cfg)


def test_evaluations_travel_with_the_action():
    rng = random.Random(207)
    n = 2
    cur = SuperCurve(n, 1, SuperPoly(n, [0, 1]), SuperPoly(n, [1]),
                     SuperPoly(n, [SuperNumber.gen(n, 1)]))
    pts = [ChartPoint(n, 1, v, 0) for v in (0, 1, 2)]
    cfg = single_vertex_config(pts, cur)
    m = lift_sl2(n, 2, 3, 1, 2)
    moved = act_tree_config(m, cfg)
    for p, q in zip(cfg.marked, moved.marked):
        assert eval_curve_at_superpoint(moved.curves[0], q) \
            == eval_curve_at_superpoint(cfg.curves[0], p)


def test_random_glue_pair_draws_match_the_randint_generator():
    # the gluing check draws at n = 1; n = 2, 3 reach the soul draws
    for seed in (0, 3, 414):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in (1, 1, 1, 2, 3):
            got = random_glue_pair(rng, n)
            want = reference_random_glue_pair(ref, n)
            assert got == want
            assert [str(c) for c in got] == [str(c) for c in want]
            assert fields_of(got) == fields_of(want)
            assert rng.getstate() == ref.getstate()
