"""Degree-d maps from the superline to the projective line, and the group
actions on them.

A curve is stored through its first-chart component fields: an even rational
map phi = P/Q (P, Q of degree at most d with coprime bodies) and an odd
field psi = r/Q^2 with r of degree at most 2d - 1.  In these terms the full
map reads X = phi(z) + theta psi(z), and all three stored polynomials are
global data: the second-chart expressions come out of the signed coefficient
reversal, so regularity never has to be imposed after the fact.

The even Moebius lifts act by precomposition with the inverse, which on the
stored data is a homogeneous substitution.  The odd shears act through the
closed form derived from the inverse shear's chart expression

    z  ->  z + theta h,   theta ->  h + theta (1 - alpha beta / 2),

with h = beta z - alpha: writing r = X1 Q - Y1 P for the (unique, odd)
gauge pair of degree < d turns the shifted curve back into the standard
shape with numerator P + h X1, denominator Q + h Y1, and odd numerator
h W + (1 - alpha beta / 2) r - 2 h X1 Y1, W the Wronskian of (P, Q).
The gauge pair is solved as a polynomial Bezout equation through one
cofactor of the bodies, polyrat.inverse_mod (see _gauge_pair).
"""

from __future__ import annotations

from .bundles import chart_row, deformation_rows, wronskian
from .grassmann import (GrassmannError, Qi, ScalarPoly, SuperNumber,
                        _below, _draw_masks, _random_sum, random_qi,
                        random_supernumber)
from .linalg import field_rank, module_rank_report
from .polyrat import (SuperPoly, chart2_poly, coprime_bodies, homog_subst,
                      inverse_mod)
from .scalars import _new
from .scgroup import HALF, SCMatrix, act_point, reflection
from .scgroup import slice_normalize_one_point as _slice_one
from .scgroup import slice_normalize_two_points as _slice_two
from .scgroup import three_point_normalize
from .superspace import (
    ProjPoint,
    as_proj,
    preferred_chart,
    reduce_point,
    reduced_base,
    reduced_bodies_distinct,
    torus_act_point,
    torus_param,
)


class P1Point:
    """A point of the target projective line: an even pair [U : V]."""

    __slots__ = ("n", "U", "V")

    def __init__(self, n, U, V):
        self.n = n
        self.U = SuperNumber.coerce(n, U)
        self.V = SuperNumber.coerce(n, V)
        if not (self.U.is_even() and self.V.is_even()):
            raise GrassmannError("target coordinates must be even")
        if not (self.U.is_invertible() or self.V.is_invertible()):
            raise GrassmannError("target point with no invertible coordinate")

    def __eq__(self, other):
        if not isinstance(other, P1Point):
            return NotImplemented
        return self.n == other.n and \
            (self.U * other.V - other.U * self.V).is_zero()

    def __str__(self):
        return "[%s : %s]" % (self.U, self.V)

    __repr__ = __str__


def _parity_poly(n, coeffs, what, odd=False):
    p = coeffs if isinstance(coeffs, SuperPoly) else SuperPoly(n, coeffs)
    if p.n != n:
        raise GrassmannError("generator count mismatch in %s" % what)
    if not (p.is_odd() if odd else p.is_even()):
        raise GrassmannError("%s must have %s coefficients"
                             % (what, "odd" if odd else "even"))
    return p


class SuperCurve:
    """A degree-d map in component fields (phi, psi) = (P/Q, r/Q^2)."""

    __slots__ = ("n", "d", "P", "Q", "r")

    def __init__(self, n, d, P, Q, r=None, validate=True):
        if d < 0:
            raise GrassmannError("curve degree must be nonnegative")
        self.n = n
        self.d = d
        self.P = _parity_poly(n, P, "numerator")
        self.Q = _parity_poly(n, Q, "denominator")
        self.r = _parity_poly(n, r if r is not None else (), "odd numerator",
                              odd=True)
        if validate:
            self._validate()

    def _validate(self):
        d = self.d
        if self.P.degree() > d or self.Q.degree() > d:
            raise GrassmannError("component degree above the curve degree")
        bP, bQ = self.P.body_poly(), self.Q.body_poly()
        if bP.is_zero() and bQ.is_zero():
            raise GrassmannError("curve with nilpotent image everywhere")
        if bP.is_zero() or bQ.is_zero():
            # a one-sided body is a constant map hitting a chart boundary
            if d != 0:
                raise GrassmannError(
                    "degree %d curve needs both body components" % d)
        else:
            if max(bP.degree(), bQ.degree()) != d:
                raise GrassmannError(
                    "body degree %d does not realize degree %d"
                    % (max(bP.degree(), bQ.degree()), d))
            if not coprime_bodies(bP, bQ):
                raise GrassmannError("body components share a root")
        if self.r.degree() > 2 * d - 1:
            raise GrassmannError("odd numerator degree above 2d - 1")

    # the scaling (P, Q, r) -> (c P, c Q, c^2 r) changes nothing; the
    # canonical representative pins the top body-bearing coefficient of Q
    # (or of P for the constant-infinity case) to one

    def _pivot(self):
        """(position, coefficient) of the pivot: the top invertible
        coefficient of Q, else of P.  Scaling by an invertible c keeps the
        position, because c x is invertible exactly when x is."""
        for which, poly in enumerate((self.Q, self.P)):
            m = poly.body_degree()
            if m >= 0:
                return (which, m), poly.coeff(m)
        raise GrassmannError("curve with no invertible coefficient")

    def canonical(self) -> "SuperCurve":
        lam = self._pivot()[1].invert()
        return SuperCurve(self.n, self.d, self.P * lam, self.Q * lam,
                          self.r * (lam * lam), validate=False)

    def is_reduced(self):
        if not self.r.is_zero():
            return False
        return self.P.soul().is_zero() and self.Q.soul().is_zero()

    def reduced(self) -> "SuperCurve":
        """Forget every nilpotent: body coefficients, vanishing psi."""
        body = lambda p: SuperPoly.from_body(self.n, p.body_poly())
        return SuperCurve(self.n, self.d, body(self.P), body(self.Q),
                          validate=False)

    def __eq__(self, other):
        if not isinstance(other, SuperCurve):
            return NotImplemented
        if self.n != other.n or self.d != other.d:
            return False
        # equal fields are equal curves.  Otherwise the canonical forms
        # agree when the pivots sit at the same position and the cross
        # products do: pa and pb are even, invertible and central, so
        # Q / pa == Q' / pb exactly when Q pb == Q' pa; with pa == pb that
        # needs equal fields
        if self.Q == other.Q and self.P == other.P and self.r == other.r:
            return True
        (at, pa), (other_at, pb) = self._pivot(), other._pivot()
        if at != other_at or pa == pb:
            return False
        return (self.Q * pb == other.Q * pa and self.P * pb == other.P * pa
                and self.r * (pb * pb) == other.r * (pa * pa))

    def __str__(self):
        c = self.canonical()
        qq = c.Q * c.Q
        return "curve(%d; phi = (%s) / (%s); psi = (%s) / (%s))" % (
            self.d, c.P, c.Q, c.r, qq)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Evaluation


def eval_curve_at_superpoint(cur: SuperCurve, pt) -> P1Point:
    """The image phi(p) + pi psi(p) of a domain point, as a target point.

    The point picks its own chart; crossing the target chart is handled by
    switching to the [P^2 : PQ -+ pi r] representative, whose equivalence to
    the plain one is exact because the odd cross terms square to zero.
    """
    cp = preferred_chart(pt)
    if cp.n != cur.n:
        raise GrassmannError("generator count mismatch in evaluation")
    d = cur.d
    if cp.chart == 1:
        P, Q, r = cur.P, cur.Q, cur.r
        sign = Qi(1)
    else:
        P = chart2_poly(cur.P, d)
        Q = chart2_poly(cur.Q, d)
        r = chart2_poly(cur.r, 2 * d - 1)
        sign = Qi(-1)
    p, pi = cp.p, cp.pi
    Pv, Qv, rv = P.eval(p), Q.eval(p), r.eval(p)
    odd = pi * rv * sign
    if Qv.is_invertible():
        return P1Point(cur.n, Pv * Qv + odd, Qv * Qv)
    if not Pv.is_invertible():
        raise GrassmannError("evaluation at a point where the map is singular")
    return P1Point(cur.n, Pv * Pv, Pv * Qv - odd)


# ---------------------------------------------------------------------------
# Group actions


def _as_quadruple(g, n):
    if isinstance(g, SCMatrix):
        if g.n != n:
            raise GrassmannError("generator count mismatch in curve action")
        if not g.is_reduced():
            raise GrassmannError("even action needs a reduced element")
        m = g.normalized()
        return m.a, m.b, m.c, m.d
    a, b, c, d = (SuperNumber.coerce(n, v) for v in g)
    if a * d - b * c != SuperNumber.one(n):
        raise GrassmannError("curve action needs determinant one")
    return a, b, c, d


def act_sl2_on_curve(g, cur: SuperCurve) -> SuperCurve:
    """Precompose with the inverse Moebius map z -> (d z - b)/(-c z + a).

    On the cleared polynomials this is the homogeneous substitution at
    total degree d (and 2d - 1 for the odd numerator); the extra frame
    factor (-c z + a)^(-1) on psi is exactly absorbed by the mismatch of
    those two totals.
    """
    a, b, c, d = _as_quadruple(g, cur.n)
    n, deg = cur.n, cur.d
    num = SuperPoly.linear(n, -b, d)
    den = SuperPoly.linear(n, a, -c)
    P = homog_subst(cur.P, num, den, deg)
    Q = homog_subst(cur.Q, num, den, deg)
    if cur.r.is_zero():
        r = SuperPoly.zero(n)
    else:
        r = homog_subst(cur.r, num, den, 2 * deg - 1)
    return SuperCurve(n, deg, P, Q, r)


def _gauge_pair(cur: SuperCurve):
    """The odd pair (X1, Y1) of degree < d with X1 Q - Y1 P = r.

    With bodies P0, Q0 and souls Ps, Qs, the body equation X Q0 - Y P0 = R,
    deg X, Y < d, is solved modulo F, the body of degree d (Q0 first): the
    other body G has an inverse s mod F, the unknown on G is R s (or -R s)
    mod F and the one on F an exact quotient by F.  The full solution is the
    terminating series sum_k (-B^-1 N)^k B^-1 r, B^-1 that body solve and
    N(X, Y) = Qs X - Ps Y nilpotent.  Bodies with a common factor, or with
    no F, raise the singular-system error.
    """
    n, d = cur.n, cur.d
    if d == 0:
        return SuperPoly.zero(n), SuperPoly.zero(n)
    P0, Q0 = cur.P.body_poly(), cur.Q.body_poly()
    q_is_f = Q0.degree() == d
    F, G = (Q0, P0) if q_is_f else (P0, Q0)
    s = inverse_mod(G, F) if F.degree() == d else None
    if s is None:
        raise GrassmannError("singular scalar system")
    F, G, s = (SuperPoly.from_body(n, p) for p in (F, G, s))

    def body_solve(R):
        if q_is_f:
            Y = (-R * s).divmod(F)[1]
            return (R + Y * G).divmod(F)[0], Y
        X = (R * s).divmod(F)[1]
        return X, (X * G - R).divmod(F)[0]

    Ps, Qs = cur.P.soul(), cur.Q.soul()
    X, Y = tX, tY = body_solve(cur.r)
    for _ in range(n):
        if tX.is_zero() and tY.is_zero():
            break
        tX, tY = body_solve(Ps * tY - Qs * tX)
        X, Y = X + tX, Y + tY
    return X, Y


def act_susy_on_curve(alpha, beta, cur: SuperCurve) -> SuperCurve:
    """The odd shear with parameters (alpha, beta) on a curve."""
    n = cur.n
    alpha = SuperNumber.coerce(n, alpha)
    beta = SuperNumber.coerce(n, beta)
    if not (alpha.is_odd() and beta.is_odd()):
        raise GrassmannError("shear parameters must be odd")
    h = SuperPoly.linear(n, -alpha, beta)
    X1, Y1 = _gauge_pair(cur)
    U = cur.P + h * X1
    V = cur.Q + h * Y1
    scale = SuperNumber.one(n) - alpha * beta * HALF
    r_new = h * wronskian(cur) + cur.r * scale - h * (X1 * Y1) * Qi(2)
    return SuperCurve(n, cur.d, U, V, r_new)


def act_general(m: SCMatrix, cur: SuperCurve) -> SuperCurve:
    """The full group action, routed through the lift-shear factorization.

    Right actions reverse order under composition, so the lift goes first:
    act(m1 . m2) = act(m2) after act(m1).
    """
    quad, (alpha, beta) = m.decompose()
    out = act_sl2_on_curve(quad, cur)
    if alpha.is_zero() and beta.is_zero():
        return out
    return act_susy_on_curve(alpha, beta, out)


def torus_act_curve(t, cur: SuperCurve) -> SuperCurve:
    """(phi, psi) -> (phi, t psi), the odd rescaling of curves."""
    tt = torus_param(cur.n, t)
    return SuperCurve(cur.n, cur.d, cur.P, cur.Q, cur.r * tt,
                      validate=False)


# ---------------------------------------------------------------------------
# Marked configurations


class MarkedConfig:
    """Marked points together with a curve, over one Grassmann algebra."""

    __slots__ = ("n", "points", "curve")

    def __init__(self, points, curve: SuperCurve):
        pts = [as_proj(p) for p in points]
        self.n = curve.n
        if any(p.n != self.n for p in pts):
            raise GrassmannError("configuration mixes generator counts")
        if not reduced_bodies_distinct(pts):
            raise GrassmannError("reduced marked points must be distinct")
        self.points = tuple(pts)
        self.curve = curve

    @staticmethod
    def _of(points, curve):
        """Trusted constructor: a tuple of ProjPoints over curve.n whose
        reduced bodies are distinct."""
        cfg = _new(MarkedConfig)
        cfg.n = curve.n
        cfg.points = points
        cfg.curve = curve
        return cfg

    def k(self):
        return len(self.points)

    def reduced(self) -> "MarkedConfig":
        return MarkedConfig([reduce_point(p) for p in self.points],
                            self.curve.reduced())

    def __eq__(self, other):
        if not isinstance(other, MarkedConfig):
            return NotImplemented
        return self.n == other.n and self.curve == other.curve and \
            len(self.points) == len(other.points) and \
            all(p == q for p, q in zip(self.points, other.points))

    def __str__(self):
        return "cfg(points = [%s]; curve = %s)" % (
            ", ".join(str(p) for p in self.points), self.curve)

    __repr__ = __str__


def act_config(m: SCMatrix, cfg: MarkedConfig) -> MarkedConfig:
    return MarkedConfig([act_point(m, p) for p in cfg.points],
                        act_general(m, cfg.curve))


def torus_act_config(t, cfg: MarkedConfig) -> MarkedConfig:
    return MarkedConfig([torus_act_point(t, p) for p in cfg.points],
                        torus_act_curve(t, cfg.curve))


# ---------------------------------------------------------------------------
# Normal forms on configurations


def orbit_normalize_points(points):
    """Send the first three points to (0, 1_eps, infinity); map the rest.

    Returns (eps, [images of the remaining points]).
    """
    pts = [as_proj(p) for p in points]
    if len(pts) < 3:
        raise GrassmannError("orbit normal form needs at least three points")
    m, eps = three_point_normalize(pts[0], pts[1], pts[2])
    return eps, [act_point(m, p) for p in pts[3:]]


def same_orbit(points1, points2) -> bool:
    """Equality of marked-point tuples modulo the full group.

    Normal forms are compared directly and against the sign twist
    (eps, z_i) ~ (-eps, reflected z_i); the twist matters when eps = 0,
    where the normalizer's sign convention has nothing to grab onto.
    """
    if len(points1) != len(points2):
        return False
    e1, rest1 = orbit_normalize_points(points1)
    e2, rest2 = orbit_normalize_points(points2)
    if e1 == e2 and all(p == q for p, q in zip(rest1, rest2)):
        return True
    refl = reflection(as_proj(points1[0]).n)
    return e1 == -e2 and all(p == act_point(refl, q)
                             for p, q in zip(rest1, rest2))


def slice_normalize_two_points(cfg: MarkedConfig) -> MarkedConfig:
    """Move the first two marked points to a bare 0 and infinity."""
    if cfg.k() < 2:
        raise GrassmannError("two-point slice needs at least two points")
    m = _slice_two(cfg.points[0], cfg.points[1])
    return act_config(m, cfg)


def slice_normalize_one_point(cfg: MarkedConfig) -> MarkedConfig:
    """Move the first marked point to a bare 0."""
    if cfg.k() < 1:
        raise GrassmannError("one-point slice needs a marked point")
    m = _slice_one(cfg.points[0])
    return act_config(m, cfg)


# ---------------------------------------------------------------------------
# Odd translation maps of a configuration


def susy1_matrix(cfg: MarkedConfig):
    """The odd-translation matrix of the reduced configuration.

    Rows: one odd normal direction per marked point, then the 2d
    coefficients of the odd curve deformation; columns: the two parameters
    of a degree-one section.  Only bodies enter: each point's reduced base
    coordinate and the Wronskian of the reduced curve, so no reduced
    configuration is built; the entries are SuperNumbers without a soul.
    """
    n, cur = cfg.n, cfg.curve
    rows = [chart_row(n, chart, SuperNumber.scalar(n, base))
            for chart, base in map(reduced_base, cfg.points)]
    return rows + deformation_rows(n, cur.d, wronskian(cur.reduced()).coeffs)


def susy1_report(cfg: MarkedConfig):
    return module_rank_report(susy1_matrix(cfg))


# ---------------------------------------------------------------------------
# Dimension bookkeeping


def psi_space_dim(d: int) -> int:
    """Count the monomials admissible as odd numerators in degree d."""
    ref = SuperCurve(1, d, SuperPoly(1, [0] * d + [1]), SuperPoly(1, [1]))
    eta = SuperNumber.gen(1, 1)
    count = 0
    for m in range(2 * d + 2):
        try:
            SuperCurve(1, d, ref.P, ref.Q,
                       SuperPoly(1, [0] * m + [eta]))
        except GrassmannError:
            continue
        count += 1
    return count


def phi_deformation_dim(d: int) -> int:
    """Pairs (P, Q) of degree at most d, modulo the common rescaling."""
    P = SuperPoly(1, [0] * d + [1])
    Q = SuperPoly(1, [1])
    vec = [P.coeff(i).body() for i in range(d + 1)] + \
          [Q.coeff(i).body() for i in range(d + 1)]
    return 2 * (d + 1) - field_rank([vec])


# ---------------------------------------------------------------------------
# Random data for the property suites


def random_curve(rng, n, d, reduced=False) -> SuperCurve:
    while True:
        bp = [random_qi(rng) for _ in range(d)] + [random_qi(rng, nonzero=True)]
        bq = [random_qi(rng) for _ in range(d + 1)]
        if all(c.is_zero() for c in bq):
            bq[0] = Qi(1)
        if coprime_bodies(ScalarPoly(bp), ScalarPoly(bq)):
            break
    P = SuperPoly(n, bp)
    Q = SuperPoly(n, bq)
    r = SuperPoly.zero(n)
    if not reduced:
        if n >= 2:
            # one or two terms on the nonempty even monomials
            souls = _draw_masks(n, 0)[1:]
            soul = lambda: _random_sum(rng, n, souls, 1 + _below(rng, 2))
            P = P + SuperPoly(n, [soul() for _ in range(d + 1)])
            Q = Q + SuperPoly(n, [soul() for _ in range(d + 1)])
        if d > 0 and n >= 1:
            r = SuperPoly(n, [random_supernumber(rng, n, parity=1,
                                                 max_terms=2)
                              for _ in range(2 * d)])
    # valid by construction: coprime bodies, the top body coefficient of P
    # nonzero, and 2d coefficients of r
    return SuperCurve(n, d, P, Q, r, validate=False)


def random_config(rng, n, k, d, reduced=False) -> MarkedConfig:
    bodies = []
    while len(bodies) < k:
        c = random_qi(rng)
        if all(c != b for b in bodies):
            bodies.append(c)
    one = SuperNumber.one(n)
    pts = []
    for c in bodies:
        pi = SuperNumber.zero(n) if reduced or n == 0 else \
            random_supernumber(rng, n, parity=1, max_terms=2)
        # the chart-1 point c|pi, with the distinct body c
        pts.append(ProjPoint._of(n, SuperNumber.scalar(n, c), one, pi))
    return MarkedConfig._of(tuple(pts),
                            random_curve(rng, n, d, reduced=reduced))
