"""Stable marked trees and tree-indexed curve configurations.

A tree carries numbered vertices, undirected edges, a marking that places
each of the k marks at a vertex, and a nonnegative degree per vertex; it is
stable when every degree-zero vertex supports at least three special points
(marks plus edge ends).  A configuration decorates the tree with one curve
per vertex, one superpoint per mark, and one superpoint per directed edge
(the nodal coordinate on the source branch).  Validity has two layers: the
special points at each vertex must stay distinct after reduction, and the
two branches at every edge must evaluate to the same target point over the
full coefficient algebra.  Both are reported by a diagnostic rather than
enforced eagerly, so near-miss data can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import (SuperCurve, act_general, eval_curve_at_superpoint,
                     random_curve, torus_act_curve)
from .grassmann import GrassmannError, _below, random_qi, random_supernumber
from .polyrat import SuperPoly
from .scgroup import SCMatrix, act_point
from .superspace import (ChartPoint, as_proj, reduced_bodies_distinct,
                         torus_act_point)


class StableTree:
    """A connected acyclic marked tree with per-vertex degrees."""

    __slots__ = ("nv", "edges", "marking", "degrees")

    def __init__(self, nv, edges, marking, degrees):
        if nv < 1:
            raise GrassmannError("a tree needs at least one vertex")
        self.nv = nv
        es = set()
        for pair in edges:
            a, b = pair
            if a == b:
                raise GrassmannError("loop edge at vertex %d" % a)
            if not (1 <= a <= nv and 1 <= b <= nv):
                raise GrassmannError("edge endpoint out of range")
            key = (min(a, b), max(a, b))
            if key in es:
                raise GrassmannError("duplicate edge %s" % (key,))
            es.add(key)
        self.edges = tuple(sorted(es))
        self.marking = tuple(marking)
        if any(not 1 <= v <= nv for v in self.marking):
            raise GrassmannError("mark placed at a missing vertex")
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.degrees) != nv:
            raise GrassmannError("need one degree per vertex")
        if any(d < 0 for d in self.degrees):
            raise GrassmannError("vertex degrees must be nonnegative")
        if len(self.edges) != nv - 1 or not self._connected():
            raise GrassmannError("edges must form a connected acyclic graph")
        if not self.is_stable():
            raise GrassmannError("unstable tree: a degree-zero vertex has "
                                 "fewer than three special points")

    def _connected(self):
        adj = {v: [] for v in range(1, self.nv + 1)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.nv

    def k(self):
        return len(self.marking)

    def edges_at(self, v):
        return [e for e in self.edges if v in e]

    def marks_at(self, v):
        return [i + 1 for i, w in enumerate(self.marking) if w == v]

    def special_count(self, v):
        return len(self.edges_at(v)) + len(self.marks_at(v))

    def is_stable(self):
        return all(self.degrees[v - 1] > 0 or self.special_count(v) >= 3
                   for v in range(1, self.nv + 1))

    def directed_edges(self):
        out = []
        for a, b in self.edges:
            out.append((a, b))
            out.append((b, a))
        return sorted(out)

    def __eq__(self, other):
        if not isinstance(other, StableTree):
            return NotImplemented
        return (self.nv, self.edges, self.marking, self.degrees) == \
            (other.nv, other.edges, other.marking, other.degrees)

    def __str__(self):
        return "tree(%d; edges = [%s]; marks = [%s]; degrees = [%s])" % (
            self.nv,
            ", ".join("[%d, %d]" % e for e in self.edges),
            ", ".join(str(v) for v in self.marking),
            ", ".join(str(d) for d in self.degrees))

    __repr__ = __str__


class TreeConfig:
    """A tree whose vertices carry curves and whose marks and edge ends
    carry superpoints."""

    __slots__ = ("n", "tree", "nodal", "marked", "curves")

    def __init__(self, tree: StableTree, nodal, marked, curves):
        self.tree = tree
        self.curves = tuple(curves)
        if len(self.curves) != tree.nv:
            raise GrassmannError("need one curve per vertex")
        for v, cur in enumerate(self.curves, start=1):
            if not isinstance(cur, SuperCurve):
                raise GrassmannError("vertex %d carries no curve" % v)
            if cur.n != self.curves[0].n:
                raise GrassmannError("configuration mixes generator counts")
            if cur.d != tree.degrees[v - 1]:
                raise GrassmannError(
                    "vertex %d curve degree %d does not match the tree's %d"
                    % (v, cur.d, tree.degrees[v - 1]))
        self.n = self.curves[0].n
        if not isinstance(marked, (list, tuple)):
            raise GrassmannError("treecfg marked must be a list")
        self.marked = tuple(as_proj(p) for p in marked)
        if len(self.marked) != tree.k():
            raise GrassmannError("need one point per mark")
        want = set(tree.directed_edges())
        got = {}
        for key, pt in dict(nodal).items():
            a, b = key
            if (a, b) not in want:
                raise GrassmannError("nodal point on missing edge %s"
                                     % (key,))
            got[(a, b)] = as_proj(pt)
        if set(got) != want:
            missing = sorted(want - set(got))
            raise GrassmannError("missing nodal points: %s" % missing)
        self.nodal = got
        if any(p.n != self.n for p in self.marked) or \
           any(p.n != self.n for p in self.nodal.values()):
            raise GrassmannError("configuration mixes generator counts")

    def special_points(self, v):
        """Nodal then marked points living at vertex v, in label order."""
        pts = [self.nodal[(v, b)] for (a, b) in self.tree.directed_edges()
               if a == v]
        pts += [self.marked[i - 1] for i in self.tree.marks_at(v)]
        return pts

    def __eq__(self, other):
        if not isinstance(other, TreeConfig):
            return NotImplemented
        if self.n != other.n or self.tree != other.tree:
            return False
        return self.marked == other.marked and self.curves == other.curves \
            and all(self.nodal[k] == other.nodal[k] for k in self.nodal)

    def __str__(self):
        nodal = ", ".join(
            "[%d, %d, %s]" % (a, b, self.nodal[(a, b)])
            for (a, b) in sorted(self.nodal))
        return ("treecfg(tree = %s; nodal = [%s]; marked = [%s]; "
                "curves = [%s])") % (
            self.tree, nodal,
            ", ".join(str(p) for p in self.marked),
            ", ".join(str(c) for c in self.curves))

    __repr__ = __str__


@dataclass
class TreeDiagnostic:
    """Exact validity data: which vertices clash, what each edge misses by."""

    vertex_clashes: list
    edge_residuals: dict

    @property
    def ok(self):
        return not self.vertex_clashes and \
            all(r.is_zero() for r in self.edge_residuals.values())


def validate(cfg: TreeConfig) -> TreeDiagnostic:
    clashes = []
    for v in range(1, cfg.tree.nv + 1):
        if not reduced_bodies_distinct(cfg.special_points(v)):
            clashes.append(v)
    residuals = {}
    for a, b in cfg.tree.edges:
        va = eval_curve_at_superpoint(cfg.curves[a - 1], cfg.nodal[(a, b)])
        vb = eval_curve_at_superpoint(cfg.curves[b - 1], cfg.nodal[(b, a)])
        residuals[(a, b)] = va.U * vb.V - vb.U * va.V
    return TreeDiagnostic(clashes, residuals)


def torus_act_tree(t, cfg: TreeConfig) -> TreeConfig:
    """Rescale every odd coordinate, vertex by vertex."""
    return TreeConfig(
        cfg.tree,
        {k: torus_act_point(t, p) for k, p in cfg.nodal.items()},
        [torus_act_point(t, p) for p in cfg.marked],
        [torus_act_curve(t, c) for c in cfg.curves])


def single_vertex_config(points, curve: SuperCurve) -> TreeConfig:
    """The one-vertex tree whose marks carry the given points."""
    tree = StableTree(1, [], [1] * len(points), [curve.d])
    return TreeConfig(tree, {}, list(points), [curve])


def glue(c1: TreeConfig, c2: TreeConfig) -> TreeConfig:
    """Join two configurations along their last marks.

    The last mark of each side becomes a nodal point of a new edge; the
    images under the two curves must already agree as target points (the
    fiber-product condition), so the glued configuration passes validation
    whenever the inputs did.
    """
    k1, k2 = c1.tree.k(), c2.tree.k()
    if k1 < 1 or k2 < 1:
        raise GrassmannError("gluing needs a mark on each side")
    if c1.n != c2.n:
        raise GrassmannError("gluing mixes generator counts")
    v1 = c1.tree.marking[k1 - 1]
    v2 = c2.tree.marking[k2 - 1]
    ev1 = eval_curve_at_superpoint(c1.curves[v1 - 1], c1.marked[k1 - 1])
    ev2 = eval_curve_at_superpoint(c2.curves[v2 - 1], c2.marked[k2 - 1])
    if ev1 != ev2:
        raise GrassmannError(
            "gluing points map to different targets: %s vs %s" % (ev1, ev2))
    off = c1.tree.nv
    edges = list(c1.tree.edges) + \
        [(a + off, b + off) for a, b in c2.tree.edges] + \
        [(v1, v2 + off)]
    marking = list(c1.tree.marking[:-1]) + \
        [v + off for v in c2.tree.marking[:-1]]
    degrees = list(c1.tree.degrees) + list(c2.tree.degrees)
    tree = StableTree(c1.tree.nv + c2.tree.nv, edges, marking, degrees)
    nodal = dict(c1.nodal)
    nodal.update({(a + off, b + off): p for (a, b), p in c2.nodal.items()})
    nodal[(v1, v2 + off)] = c1.marked[k1 - 1]
    nodal[(v2 + off, v1)] = c2.marked[k2 - 1]
    marked = list(c1.marked[:-1]) + list(c2.marked[:-1])
    curves = list(c1.curves) + list(c2.curves)
    return TreeConfig(tree, nodal, marked, curves)


def forget_last_mark(cfg: TreeConfig) -> TreeConfig:
    """Drop the last mark; fails if the bare tree would become unstable."""
    k = cfg.tree.k()
    if k < 1:
        raise GrassmannError("no mark to forget")
    tree = StableTree(cfg.tree.nv, cfg.tree.edges, cfg.tree.marking[:-1],
                      cfg.tree.degrees)
    return TreeConfig(tree, cfg.nodal, cfg.marked[:-1], cfg.curves)


def act_tree_config(m, cfg: TreeConfig) -> TreeConfig:
    """Apply an automorphism to every vertex, or one element per vertex.

    Each vertex's curve is reparametrized and its special points are moved
    by the element assigned to that vertex, so both layers of validity are
    preserved (per-vertex actions leave every evaluation unchanged).
    """
    if isinstance(m, SCMatrix):
        ms = [m] * cfg.tree.nv
    else:
        ms = list(m)
        if len(ms) != cfg.tree.nv:
            raise GrassmannError("need one group element per vertex")
    nodal = {(a, b): act_point(ms[a - 1], p)
             for (a, b), p in cfg.nodal.items()}
    marked = [act_point(ms[cfg.tree.marking[j] - 1], p)
              for j, p in enumerate(cfg.marked)]
    curves = [act_general(ms[v], c) for v, c in enumerate(cfg.curves)]
    return TreeConfig(cfg.tree, nodal, marked, curves)


def random_glue_pair(rng, n=1, attempts=400):
    """Two random single-vertex configurations whose last marks match.

    Each draw takes curves c1, c2 of degrees d1, d2 uniform in 0..2 and
    last marks p1, p2, and then shifts c2 by a multiple of its denominator
    so that it sends p2 where c1 sends p1.  Write w for the target of p1
    under c1 and v for that of p2 under c2.  A draw with either target at
    infinity (w.V or v.V not invertible, which for v means that Q(p2) is
    not) is discarded and redrawn; no other draw is.  Otherwise
    g = w.U/w.V - v.U/v.V is even, and c2 is replaced by the curve with
    numerator P + g Q, the same Q and the same r:

    * it sends p2 to w.  In chart 1 the image of p is
      [P(p) Q(p) + pi r(p) : Q(p)^2], of value P(p)/Q(p) + pi r(p)/Q(p)^2;
      the shift adds g Q(p)/Q(p) = g to it, so the value becomes w.U/w.V,
      and two targets with invertible V are equal when their values are.
      The even nilpotent pi r(p)/Q(p)^2, which vanishes at n = 1, is part
      of v, so g absorbs it at every n.
    * its bodies stay coprime: gcd(P0 + g0 Q0, Q0) = gcd(P0, Q0) = 1 for
      the bodies P0, Q0, g0, since a common factor of any two of P0 + g0 Q0,
      P0 and Q0 divides the third.  So P0 + g0 Q0 is zero only when Q0 is a
      unit and d2 = 0, where a zero body numerator is allowed.
    * its degree stays <= d2, and max(deg P0 + g0 Q0, deg Q0) = d2: either
      deg Q0 = d2, or deg P0 = d2 > deg Q0 and adding g0 Q0 keeps the top
      term.
    """
    for _ in range(attempts):
        d1, d2 = _below(rng, 3), _below(rng, 3)
        c1 = random_curve(rng, n, d1)
        c2 = random_curve(rng, n, d2)
        p1 = ChartPoint(n, 1, random_qi(rng),
                        random_supernumber(rng, n, parity=1))
        p2 = ChartPoint(n, 1, random_qi(rng),
                        random_supernumber(rng, n, parity=1))
        w = eval_curve_at_superpoint(c1, p1)
        v = eval_curve_at_superpoint(c2, p2)
        if not (w.V.is_invertible() and v.V.is_invertible()):
            continue
        gap = w.U * w.V.invert() - v.U * v.V.invert()
        # valid: the bodies stay coprime and realize d2, as shown above
        c2b = SuperCurve(n, d2, c2.P + SuperPoly(n, [gap]) * c2.Q, c2.Q, c2.r,
                         validate=False)
        cfg1 = single_vertex_config(
            [ChartPoint(n, 1, p1.p + 1, 0), ChartPoint(n, 1, p1.p + 2, 0),
             p1], c1)
        cfg2 = single_vertex_config(
            [ChartPoint(n, 1, p2.p + 1, 0), ChartPoint(n, 1, p2.p + 2, 0),
             p2], c2b)
        return cfg1, cfg2
    raise GrassmannError("could not build a matching glue pair")
