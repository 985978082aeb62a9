"""The superconformal automorphisms of the projective superline.

A group element is a 3x3 supermatrix acting on homogeneous row coordinates
from the right, v -> v.M, laid out as

    [ a  c  gamma ]
    [ b  d  delta ]
    [ alpha  beta  e ]

with even Latin and odd Greek entries subject to four polynomial constraints:

    a d - b c - gamma delta = 1
    e^2 + 2 alpha beta      = 1
    c alpha - a beta        = e gamma
    d alpha - b beta        = e delta

The constraints force body(e) = +-1, and the two global signs +-M act the
same way, so every element has a unique representative with body(e) = 1.
Every such representative factors as an even Moebius lift times a purely odd
shear, which is what decompose() returns.
An even lift moves the spinor frames of a point by point_multiplier, each
frame read in the preferred chart of its point.
"""

from __future__ import annotations

from fractions import Fraction

from .grassmann import (
    GrassmannError,
    Qi,
    SuperNumber,
    dot,
    random_qi,
    random_supernumber,
    scalar_lex_positive,
)
from .scalars import _new
from .superspace import (ChartPoint, ProjPoint, _want_parity, as_proj,
                         preferred_chart, reduced_bodies_distinct)

HALF = Qi(Fraction(1, 2))


class NormalizationError(GrassmannError):
    """A normal form does not exist over the exact scalar field."""


class SCMatrix:
    """One superconformal automorphism, stored by its nine matrix entries."""

    __slots__ = ("n", "a", "b", "c", "d", "e",
                 "alpha", "beta", "gamma", "delta")

    def __init__(self, n, a, b, c, d, e, alpha, beta, gamma, delta,
                 validate=True):
        self.n = n
        self.a = _want_parity(n, a, 0, "a")
        self.b = _want_parity(n, b, 0, "b")
        self.c = _want_parity(n, c, 0, "c")
        self.d = _want_parity(n, d, 0, "d")
        self.e = _want_parity(n, e, 0, "e")
        self.alpha = _want_parity(n, alpha, 1, "alpha")
        self.beta = _want_parity(n, beta, 1, "beta")
        self.gamma = _want_parity(n, gamma, 1, "gamma")
        self.delta = _want_parity(n, delta, 1, "delta")
        if validate:
            bad = {k: v for k, v in self.check().items() if not v.is_zero()}
            if bad:
                raise GrassmannError(
                    "matrix violates the group constraints: %s"
                    % ", ".join("%s = %s" % kv for kv in sorted(bad.items())))
            eb = self.e.body()
            if eb != Qi(1) and eb != Qi(-1):
                raise GrassmannError("body of e must be +1 or -1, got %s" % eb)

    @staticmethod
    def _of(n, a, b, c, d, e, alpha, beta, gamma, delta):
        """Trusted constructor: Latin entries even, Greek entries odd, all
        over n generators; the group constraints are not checked."""
        m = _new(SCMatrix)
        m.n = n
        m.a, m.b, m.c, m.d, m.e = a, b, c, d, e
        m.alpha, m.beta, m.gamma, m.delta = alpha, beta, gamma, delta
        return m

    @staticmethod
    def from_rows(n, rows, validate=True):
        (a, c, gamma), (b, d, delta), (alpha, beta, e) = rows
        return SCMatrix(n, a, b, c, d, e, alpha, beta, gamma, delta,
                        validate=validate)

    def rows(self):
        return [[self.a, self.c, self.gamma],
                [self.b, self.d, self.delta],
                [self.alpha, self.beta, self.e]]

    def check(self):
        """Residuals of the defining constraints; all zero for group elements."""
        one = SuperNumber.one(self.n)
        return {
            "sp": self.a * self.d - self.b * self.c
                  - self.gamma * self.delta - one,
            "unit": self.e * self.e + Qi(2) * self.alpha * self.beta - one,
            "odd1": self.c * self.alpha - self.a * self.beta
                    - self.e * self.gamma,
            "odd2": self.d * self.alpha - self.b * self.beta
                    - self.e * self.delta,
        }

    # -- group structure

    def mul(self, other: "SCMatrix") -> "SCMatrix":
        if self.n != other.n:
            raise GrassmannError("generator count mismatch in product")
        n = self.n
        cols = list(zip(*other.rows()))
        (a, c, gamma), (b, d, delta), (alpha, beta, e) = [
            [dot(n, row, col) for col in cols] for row in self.rows()]
        return SCMatrix._of(n, a, b, c, d, e, alpha, beta, gamma, delta)

    def __mul__(self, other):
        if isinstance(other, SCMatrix):
            return self.mul(other)
        return NotImplemented

    def neg(self):
        return SCMatrix._of(self.n, -self.a, -self.b, -self.c, -self.d,
                            -self.e, -self.alpha, -self.beta, -self.gamma,
                            -self.delta)

    def normalized(self):
        """The representative of {M, -M} whose e has body +1."""
        if self.e.body() == Qi(-1):
            return self.neg()
        return self

    def inverse(self):
        m = self.normalized()
        one = SuperNumber.one(self.n)
        inv = SCMatrix._of(m.n, m.d, -m.b, -m.c, m.a,
                           one - m.alpha * m.beta, -m.delta, m.gamma,
                           m.beta, -m.alpha)
        if self.e.body() == Qi(-1):
            return inv.neg()
        return inv

    def decompose(self):
        """Split the body(e)=1 representative as lift(l) . shear(alpha, beta).

        Returns ((a, b, c, d), (alpha, beta)) where the even quadruple has
        exact determinant one.
        """
        m = self.normalized()
        scale = SuperNumber.one(self.n) - m.alpha * m.beta / 2
        return ((m.a * scale, m.b * scale, m.c * scale, m.d * scale),
                (m.alpha, m.beta))

    def is_reduced(self):
        """True when all four odd entries vanish (an even Moebius lift)."""
        return (self.alpha.is_zero() and self.beta.is_zero()
                and self.gamma.is_zero() and self.delta.is_zero())

    def __eq__(self, other):
        if not isinstance(other, SCMatrix):
            return NotImplemented
        return self.n == other.n and all(
            getattr(self, f) == getattr(other, f)
            for f in ("a", "b", "c", "d", "e", "alpha", "beta",
                      "gamma", "delta"))

    def __str__(self):
        return "[[%s, %s, %s], [%s, %s, %s], [%s, %s, %s]]" % (
            self.a, self.c, self.gamma,
            self.b, self.d, self.delta,
            self.alpha, self.beta, self.e)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Constructors for the standard families


def identity(n):
    return lift_sl2(n, 1, 0, 0, 1)


def lift_sl2(n, a, b, c, d):
    """The even automorphism acting as z -> (a z + b)/(c z + d); a d - b c = 1."""
    a, b, c, d = (_want_parity(n, v, 0, "matrix entry")
                  for v in (a, b, c, d))
    det = a * d - b * c
    if det != SuperNumber.one(n):
        raise GrassmannError("Moebius lift needs determinant one, got %s" % det)
    zero = SuperNumber.zero(n)
    one = SuperNumber.one(n)
    return SCMatrix._of(n, a, b, c, d, one, zero, zero, zero, zero)


def susy(n, alpha, beta):
    """The purely odd factor with parameters (alpha, beta).

    These elements do not form a subgroup once two or more generators are
    in play; composing two of them picks up an even Moebius part.
    """
    alpha = _want_parity(n, alpha, 1, "alpha")
    beta = _want_parity(n, beta, 1, "beta")
    one = SuperNumber.one(n)
    zero = SuperNumber.zero(n)
    diag = one + alpha * beta / 2
    return SCMatrix._of(n, diag, zero, zero, diag, one - alpha * beta,
                        alpha, beta, -beta, alpha)


def reflection(n):
    """diag(-1, -1, 1): fixes every even point and flips odd coordinates."""
    return lift_sl2(n, -1, 0, 0, -1)


def torus_matrix(n, t):
    """The odd-scaling diag(1, 1, t).  Not superconformal unless t^2 = 1;
    returned as plain rows for callers that act with it directly."""
    tt = SuperNumber.coerce(n, t)
    one = SuperNumber.one(n)
    zero = SuperNumber.zero(n)
    return [[one, zero, zero], [zero, one, zero], [zero, zero, tt]]


# ---------------------------------------------------------------------------
# Actions on points


def act_point(m: SCMatrix, pt):
    """The right action on a superpoint; returns the input's flavor."""
    want_chart = isinstance(pt, ChartPoint)
    P = as_proj(pt)
    if P.n != m.n:
        raise GrassmannError("generator count mismatch between matrix and point")
    v = (P.Z1, P.Z2, P.Theta)
    Z1, Z2, Theta = [dot(m.n, v, col) for col in zip(*m.rows())]
    if not (Z1.is_invertible() or Z2.is_invertible()):
        raise GrassmannError("homogeneous coordinates with no invertible entry")
    img = ProjPoint._of(m.n, Z1, Z2, Theta)
    return preferred_chart(img) if want_chart else img


def point_multiplier(m: SCMatrix, pt) -> SuperNumber:
    """The factor f of an even lift at a point: (g.s)(g.z) = f^k s(z) for
    every section s of O(k), with s(z) read in the frame of the point's
    preferred chart and (g.s)(g.z) in that of its image's.

    f = e/W for the point's coordinates [Z1 : Z2] in its preferred chart,
    W the coordinate the image's chart divides by: c Z1 + d Z2 when that is
    invertible, else a Z1 + b Z2 (ad - bc = 1 makes one of them
    invertible).  A matrix with an odd entry is rejected.
    """
    if not m.is_reduced():
        raise GrassmannError("frame multiplier needs an even lift")
    P = preferred_chart(pt).to_proj()
    W = m.c * P.Z1 + m.d * P.Z2
    if not W.is_invertible():
        W = m.a * P.Z1 + m.b * P.Z2
    return m.e / W


def same_automorphism(m1: SCMatrix, m2: SCMatrix) -> bool:
    """Projective equality: the two matrices act identically on all points."""
    return m1.normalized() == m2.normalized()


# ---------------------------------------------------------------------------
# Normal forms


def _homog(pt):
    P = as_proj(pt)
    return P.Z1, P.Z2, P.Theta


def three_point_normalize(p1, p2, p3):
    """The unique automorphism sending the triple to (0, 1, infinity).

    The middle image keeps a residual odd coordinate eps, the one invariant
    of a marked triple, and the returned pair is (matrix, eps).  The global
    sign ambiguity is resolved by making the first nonzero coefficient of
    eps positive, falling back to the entries of the even block when eps
    vanishes.  Raises NormalizationError when point bodies collide or when
    the needed square root leaves the scalar field.
    """
    pts = (p1, p2, p3)
    n = as_proj(p1).n
    if any(as_proj(p).n != n for p in pts):
        raise GrassmannError("points live over different generator counts")
    if not reduced_bodies_distinct(pts):
        raise NormalizationError("marked points must have distinct bodies")
    (X1, Y1, _), (X2, Y2, _), (X3, Y3, _) = map(_homog, pts)
    u = X2 * Y3 - X3 * Y2
    v = X2 * Y1 - X1 * Y2
    w3 = X1 * Y3 - X3 * Y1
    det = u * v * w3
    try:
        root = det.sqrt_even()
    except GrassmannError as exc:
        raise NormalizationError(
            "normal form needs a square root outside the scalar field: %s"
            % exc) from None
    rinv = root.invert()
    m1 = lift_sl2(n,
                  Y1 * u * rinv, -X1 * u * rinv,
                  Y3 * v * rinv, -X3 * v * rinv)
    m12 = _clear_odd(m1, p1, p3)
    q2 = act_point(m12, as_proj(p2)).chart1()
    s = q2.p.invert().sqrt_even()
    m3 = lift_sl2(n, s, 0, 0, s.invert())
    eps = q2.pi * s
    m = m12.mul(m3)
    if not _sign_ok(m, eps):
        m = m.mul(reflection(n))
        eps = -eps
    return m, eps


def _sign_ok(m: SCMatrix, eps: SuperNumber) -> bool:
    if not eps.is_zero():
        key = min(eps.terms, key=lambda k: (len(k), k))
        return scalar_lex_positive(eps.terms[key])
    mm = m.normalized()
    for entry in (mm.a, mm.b, mm.c, mm.d):
        b = entry.body()
        if not b.is_zero():
            return scalar_lex_positive(b)
    return True


def slice_normalize_two_points(p1, p2):
    """An automorphism carrying (p1, p2) to (0, infinity) with zero odd parts.

    Unlike the three-point form no square root is needed, so this never
    leaves the field; the residual freedom is the diagonal torus
    diag(a, 1/a, 1) together with the odd stabilizer of the slice.
    """
    n = as_proj(p1).n
    if not reduced_bodies_distinct((p1, p2)):
        raise NormalizationError("marked points must have distinct bodies")
    (X1, Y1, _), (X2, Y2, _) = map(_homog, (p1, p2))
    w = X1 * Y2 - X2 * Y1
    winv = w.invert()
    return _clear_odd(lift_sl2(n, Y1, -X1, Y2 * winv, -X2 * winv), p1, p2)


def slice_normalize_one_point(p1):
    """An automorphism carrying p1 to the origin with zero odd part."""
    P = as_proj(p1)
    n = P.n
    X1, Y1, _ = _homog(P)
    if Y1.is_invertible():
        m1 = lift_sl2(n, Y1, -X1, 0, Y1.invert())
    else:
        m1 = lift_sl2(n, Y1, -X1, X1.invert(), 0)
    return _clear_odd(m1, P)


def _clear_odd(m1, at_zero, at_infinity=None):
    """m1 times the shear that clears the odd coordinates m1 leaves on the
    images of at_zero, read in the first chart, and of at_infinity, read in
    the second."""
    q1 = act_point(m1, as_proj(at_zero)).chart1()
    beta = 0
    if at_infinity is not None:
        beta = act_point(m1, as_proj(at_infinity)).chart2().pi
    return m1.mul(susy(m1.n, -q1.pi, beta))


def stabilizer_two_points(n, a):
    """The residual torus diag(a, 1/a, 1) of the two-point slice."""
    a = _want_parity(n, a, 0, "a")
    if not a.is_invertible():
        raise GrassmannError("diagonal parameter must be invertible")
    return lift_sl2(n, a, 0, 0, a.invert())


# ---------------------------------------------------------------------------
# Random elements


def random_sl2_qi(rng):
    """A random determinant-one quadruple (a, b, c, d) over the rationals."""
    x = random_qi(rng)
    y = random_qi(rng)
    u = random_qi(rng, nonzero=True)
    # [[u,0],[0,1/u]] . [[1,0],[x,1]] . [[1,y],[0,1]] in the (a,b,c,d) chart
    a, b, c, d = u, u * y, x / u, (Qi(1) + x * y) / u
    return a, b, c, d


def random_sc_matrix(rng, n, with_odd=True):
    """A random group element, exercising both factors and both signs.

    The element is lift(a, b, c, d) . susy(alpha, beta), times the
    reflection with probability 1/2, negated with probability 1/4; the odd
    factor is the identity when with_odd is false or n = 0.  Its entries are
    written out instead of multiplied.  With D = 1 + alpha beta / 2 and
    E = 1 - alpha beta, the rows of lift . susy are

        [ a D    c D    c alpha - a beta ]
        [ b D    d D    d alpha - b beta ]
        [ alpha  beta   E                ]

    The reflection diag(-1, -1, 1) on the right negates the first two
    columns, which is the same product with a, b, c, d, alpha and beta
    negated, since D, E and the odd column are unchanged by that flip; -M
    negates every entry.  Both signs are put on the scalar quadruple and the
    odd pair before the entries are formed: the quadruple takes the product
    r s of the reflection sign r and the sign s of -M, the third row's
    alpha and beta take r s as well, and the odd column is
    (r s c)(r alpha) - (r s a)(r beta) = s (c alpha - a beta), so alpha and
    beta are negated at most once.  E takes s.  The rng is read in a fixed
    order: the quadruple, alpha, beta, the reflection draw, then the sign
    draw.
    """
    quad = random_sl2_qi(rng)
    one = SuperNumber.one(n)
    alpha = beta = SuperNumber.zero(n)
    if with_odd and n >= 1:
        alpha = random_supernumber(rng, n, parity=1, max_terms=2)
        beta = random_supernumber(rng, n, parity=1, max_terms=2)
    flip = rng.random() < 0.5
    neg = rng.random() < 0.25
    ab = alpha * beta
    scale = one + ab * HALF
    e = -one + ab if neg else one - ab
    # (alpha, beta) times r for the odd column and times r s for the third
    # row; with r = s = -1 that row keeps the drawn pair
    odd = row = (alpha, beta)
    if flip or neg:
        minus = (-alpha, -beta)
        odd = minus if flip else odd
        row = minus if flip != neg else row
    if flip != neg:
        quad = [-v for v in quad]
    a, b, c, d = (SuperNumber.scalar(n, v) for v in quad)
    return SCMatrix._of(n, a * scale, b * scale, c * scale, d * scale, e,
                        row[0], row[1], c * odd[0] - a * odd[1],
                        d * odd[0] - b * odd[1])
