"""Line-bundle sections on the underlying projective line, and the odd
normal-direction maps attached to a marked curve.

A Section models a global section of O(k): a polynomial of degree at most k
in the first chart, with the second-chart form determined by the twisted
transition that matches the superline's charts (z2 = -1/z1).  The degree-one
sections are spanned by the two-parameter family
    s(alpha, beta) = alpha - beta z1 = -(alpha z2 + beta)  (second frame),
and that family drives both the odd translations of marked points and the
odd deformations of a curve.  susy1_matrix stacks the two effects into one
exact linear map so ranks and kernels can be read off.
"""

from __future__ import annotations

from .grassmann import GrassmannError, SuperNumber
from .polyrat import SuperPoly, chart2_poly, even_wronskian, homog_subst
from .superspace import ChartPoint, preferred_chart


def h0_dim(k: int) -> int:
    """dim H^0 of O(k) on the projective line."""
    return k + 1 if k >= 0 else 0


class Section:
    """A global section of O(k), stored by its first-chart polynomial."""

    __slots__ = ("n", "k", "frame1")

    def __init__(self, n, k, coeffs):
        if k < 0:
            raise GrassmannError("O(k) has no sections for k < 0")
        self.n = n
        self.k = k
        poly = coeffs if isinstance(coeffs, SuperPoly) else SuperPoly(n, coeffs)
        if poly.degree() > k:
            raise GrassmannError(
                "degree %d data cannot be a section of O(%d)"
                % (poly.degree(), k))
        self.frame1 = poly

    def frame2(self) -> SuperPoly:
        """The second-chart polynomial: (-1)^k times the chart-2 form of
        frame1, so that frame2(-1/z) = z^(-k) frame1(z)."""
        p = chart2_poly(self.frame1, self.k)
        return -p if self.k & 1 else p

    def eval_at(self, pt) -> SuperNumber:
        """The section's coefficient in the frame of the point's chart."""
        cp = preferred_chart(pt)
        if cp.chart == 1:
            return self.frame1.eval(cp.p)
        return self.frame2().eval(cp.p)

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return self.n == other.n and self.k == other.k \
            and self.frame1 == other.frame1

    def __str__(self):
        return "O(%d) section %s" % (self.k, self.frame1)

    __repr__ = __str__


def spinor_section(n, alpha, beta) -> Section:
    """The degree-one section alpha - beta z1; the parameters are usually odd
    but the helper does not insist, since the same span is used evenly in
    rank computations."""
    return Section(n, 1, [alpha, -SuperNumber.coerce(n, beta)])


def sl2_act_section(m, s: Section) -> Section:
    """Push a section forward along an even lift.

    The new first-chart form is sum_j c_j (d w - b)^j (-c w + a)^(k-j), which
    satisfies (g.s)(g.z) = (c z + d)^(-k) s(z); for k = 1 this reproduces the
    parameter rotation (alpha, beta) -> (a alpha + b beta, c alpha + d beta).
    """
    if not m.is_reduced():
        raise GrassmannError("section pushforward needs an even lift")
    mm = m.normalized()
    n = s.n
    num = SuperPoly.linear(n, -mm.b, mm.d)
    den = SuperPoly.linear(n, mm.a, -mm.c)
    return Section(n, s.k, homog_subst(s.frame1, num, den, s.k))


def pair_section_with_curve(alpha, beta, curve) -> SuperPoly:
    """The odd curve deformation -<s(alpha, beta), d phi> in cleared form.

    For phi = P/Q the pairing <s, d phi> is (alpha - beta z) W / Q^2 with the
    Wronskian W = P'Q - P Q', so the returned numerator polynomial is
    (beta z - alpha) W, a polynomial of degree at most 2 deg - 1.
    """
    n = curve.n
    W = wronskian(curve)
    h = SuperPoly.linear(n, -SuperNumber.coerce(n, alpha),
                         SuperNumber.coerce(n, beta))
    return h * W


def wronskian(curve) -> SuperPoly:
    """P'Q - PQ', in one pass (polyrat.even_wronskian); its degree drops to
    2d - 2 because top terms cancel."""
    return even_wronskian(curve.P, curve.Q)


def point_row(pt) -> list:
    """The value of s(alpha, beta) at a point, as a row of coefficients
    (of alpha, of beta) in the frame belonging to the point's chart."""
    cp = preferred_chart(pt)
    return chart_row(cp.n, cp.chart, cp.p)


def chart_row(n, chart, p) -> list:
    """point_row of a point with base coordinate p in the given chart."""
    one = SuperNumber.one(n)
    if chart == 1:
        return [one, -p]
    return [-p, -one]


def deformation_rows(n, d, w) -> list:
    """The 2d rows of the odd curve deformation (beta z - alpha) W, from
    the coefficients w of the Wronskian W, constant term first: row m is
    [-w_m, w_(m-1)]."""
    zero = SuperNumber.zero(n)
    w = list(w) + [zero] * (2 * d - len(w))
    return [[-w[m], w[m - 1] if m else zero] for m in range(2 * d)]


def susy1_matrix(points, curve):
    """The combined odd-translation map of a marked curve, as a matrix.

    Domain: the (alpha, beta) plane of degree-one sections.  Codomain: one
    odd normal direction per marked point (in that point's frame) followed
    by the 2d coefficients of the odd curve deformation (beta z - alpha) W.
    Row count is len(points) + 2d.
    """
    return [point_row(p) for p in points] + deformation_rows(
        curve.n, curve.d, wronskian(curve).coeffs)


def susy1_shift_point(alpha, beta, pt) -> ChartPoint:
    """Translate one marked point by the flow of s = s(alpha, beta): the
    base stays put and the odd coordinate gains the value of s there."""
    cp = preferred_chart(pt)
    s = spinor_section(cp.n, alpha, beta)
    return ChartPoint(cp.n, cp.chart, cp.p, cp.pi + s.eval_at(cp))
