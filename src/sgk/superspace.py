"""Superpoints of the projective superline.

A point carries homogeneous coordinates [Z1 : Z2 : Theta] with Z1, Z2 even,
Theta odd, and at least one of Z1, Z2 invertible.  The two affine charts use
(z1, theta1) = (Z1/Z2, Theta/Z2) and (z2, theta2) = (-Z2/Z1, Theta/Z1); the
transition on the overlap is z2 = -1/z1, theta2 = theta1/z1, whose sign makes
both charts superconformal for the same odd distribution.  Equality is
projective: two coordinate triples agree when they differ by an invertible
even scale.  It is decided by cross-multiplying with the coordinate both
points can divide by, Z2 or else Z1, so no inverse and no chart point is
built.
"""

from __future__ import annotations

from .grassmann import GrassmannError, SuperNumber
from .scalars import _new, _quote


def _want_parity(n, v, parity: int, what: str) -> SuperNumber:
    """v as an element of Lambda_n that is even (parity 0) or odd (parity
    1); zero is both.  GrassmannError "<what> must be even/odd" otherwise."""
    x = SuperNumber.coerce(n, v)
    if not (x.is_odd() if parity else x.is_even()):
        raise GrassmannError(
            "%s must be %s" % (what, "odd" if parity else "even"))
    return x


class ProjPoint:
    """A point of the superline in homogeneous coordinates."""

    __slots__ = ("n", "Z1", "Z2", "Theta")

    def __init__(self, n, Z1, Z2, Theta):
        self.n = n
        self.Z1 = _want_parity(n, Z1, 0, "Z1")
        self.Z2 = _want_parity(n, Z2, 0, "Z2")
        self.Theta = _want_parity(n, Theta, 1, "Theta")
        if not (self.Z1.is_invertible() or self.Z2.is_invertible()):
            raise GrassmannError("homogeneous coordinates with no invertible entry")

    @staticmethod
    def _of(n, Z1, Z2, Theta):
        """Trusted constructor: Z1, Z2 even and Theta odd over n
        generators, with Z1 or Z2 invertible."""
        pt = _new(ProjPoint)
        pt.n = n
        pt.Z1 = Z1
        pt.Z2 = Z2
        pt.Theta = Theta
        return pt

    def scale(self, lam):
        lam = SuperNumber.coerce(self.n, lam)
        if not lam.is_invertible():
            raise GrassmannError("projective scale must be invertible")
        return ProjPoint(self.n, self.Z1 * lam, self.Z2 * lam, self.Theta * lam)

    def chart1(self):
        """Chart-1 coordinates, or None when Z2 is not invertible."""
        if not self.Z2.is_invertible():
            return None
        inv = self.Z2.invert()
        return ChartPoint._of(self.n, 1, self.Z1 * inv, self.Theta * inv)

    def chart2(self):
        if not self.Z1.is_invertible():
            return None
        inv = self.Z1.invert()
        return ChartPoint._of(self.n, 2, -(self.Z2 * inv), self.Theta * inv)

    def __eq__(self, other):
        if not isinstance(other, (ProjPoint, ChartPoint)):
            return NotImplemented
        return proj_equal(self, other)

    def __str__(self):
        return "[%s : %s : %s]" % (self.Z1, self.Z2, self.Theta)

    __repr__ = __str__


class ChartPoint:
    """A point in one affine chart: an even base with an odd coordinate."""

    __slots__ = ("n", "chart", "p", "pi")

    def __init__(self, n, chart, p, pi):
        if chart not in (1, 2):
            raise GrassmannError("chart must be 1 or 2")
        self.n = n
        self.chart = chart
        self.p = _want_parity(n, p, 0, "base coordinate")
        self.pi = _want_parity(n, pi, 1, "odd coordinate")

    @staticmethod
    def _of(n, chart, p, pi):
        """Trusted constructor: chart 1 or 2, p even and pi odd over n
        generators."""
        pt = _new(ChartPoint)
        pt.n = n
        pt.chart = chart
        pt.p = p
        pt.pi = pi
        return pt

    def to_proj(self):
        one = SuperNumber.one(self.n)
        if self.chart == 1:
            return ProjPoint._of(self.n, self.p, one, self.pi)
        return ProjPoint._of(self.n, one, -self.p, self.pi)

    def __eq__(self, other):
        if not isinstance(other, (ProjPoint, ChartPoint)):
            return NotImplemented
        return proj_equal(self, other)

    def __str__(self):
        return "chart%d(%s; %s)" % (self.chart, self.p, self.pi)

    __repr__ = __str__


def as_proj(pt) -> ProjPoint:
    if isinstance(pt, ProjPoint):
        return pt
    if isinstance(pt, ChartPoint):
        return pt.to_proj()
    raise GrassmannError("not a superpoint: %s" % _quote(pt))


def proj_equal(a: ProjPoint, b: ProjPoint) -> bool:
    """Projective equality, cross-multiplied in a chart both points admit.

    With Z2 invertible on both sides, Z1a/Z2a = Z1b/Z2b and
    Theta_a/Z2a = Theta_b/Z2b hold exactly when Z1a Z2b = Z1b Z2a and
    Theta_a Z2b = Theta_b Z2a, since even elements are central; otherwise
    the same test runs with Z1 as the scale.
    """
    a, b = as_proj(a), as_proj(b)
    if a.n != b.n:
        return False
    if a.Z2.is_invertible() and b.Z2.is_invertible():
        sa, sb, ea, eb = a.Z2, b.Z2, a.Z1, b.Z1
    elif a.Z1.is_invertible() and b.Z1.is_invertible():
        sa, sb, ea, eb = a.Z1, b.Z1, a.Z2, b.Z2
    else:
        return False
    return ea * sb == eb * sa and a.Theta * sb == b.Theta * sa


def point_zero(n):
    return ChartPoint(n, 1, 0, 0)


def point_one(n):
    return ChartPoint(n, 1, 1, 0)


def point_infty(n):
    return ChartPoint(n, 2, 0, 0)


def torus_param(n, t) -> SuperNumber:
    """Validate a torus parameter: an even invertible element."""
    tt = SuperNumber.coerce(n, t)
    if not tt.is_invertible() or not tt.is_even():
        raise GrassmannError("torus parameter must be even and invertible")
    return tt


def torus_act_point(t, pt):
    """The odd-coordinate scaling z -> z, theta -> t*theta."""
    if isinstance(pt, ProjPoint):
        tt = torus_param(pt.n, t)
        return ProjPoint._of(pt.n, pt.Z1, pt.Z2, tt * pt.Theta)
    pt = preferred_chart(pt)
    tt = torus_param(pt.n, t)
    return ChartPoint._of(pt.n, pt.chart, pt.p, tt * pt.pi)


def preferred_chart(pt) -> ChartPoint:
    """The chart a point is read in: a ChartPoint's own, and for a ProjPoint
    chart 1 when Z2 is invertible, chart 2 otherwise."""
    if isinstance(pt, ChartPoint):
        return pt
    if isinstance(pt, ProjPoint):
        c = pt.chart1()
        return c if c is not None else pt.chart2()
    raise GrassmannError("not a superpoint: %s" % _quote(pt))


def odd_normal_part(pt):
    """The odd coordinate of a point in its preferred chart."""
    return preferred_chart(pt).pi


def reduce_point(pt) -> ChartPoint:
    """Forget the nilpotents: body base coordinate, zero odd coordinate."""
    chart, base = reduced_base(pt)
    n = pt.n
    return ChartPoint._of(n, chart, SuperNumber.scalar(n, base),
                          SuperNumber.zero(n))


def reduced_base(pt):
    """(chart, scalar body of the base coordinate) of the point's
    preferred chart.

    Only the bodies of Z1 and Z2 are read: the base coordinate has body
    Z1/Z2, or -Z2/Z1 at infinity.
    """
    if isinstance(pt, ChartPoint):
        return pt.chart, pt.p.body()
    P = as_proj(pt)
    x, y = P.Z1.body(), P.Z2.body()
    return (1, x / y) if y else (2, -(y / x))


def reduced_bodies_distinct(pts) -> bool:
    """Pairwise distinctness of the points' bodies on the projective line."""
    seen = []
    for p in pts:
        P = as_proj(p)
        x, y = P.Z1.body(), P.Z2.body()
        for (x0, y0) in seen:
            if (x * y0 - x0 * y).is_zero():
                return False
        seen.append((x, y))
    return True


def point_from_scalars(n, base, pi=0, at_infinity=False):
    if at_infinity:
        return ChartPoint(n, 2, base, pi)
    return ChartPoint(n, 1, base, pi)
