"""Independent recomputation routes used to cross-check the library.

Two oracles for the group action on curves:

* a pointwise one — evaluate the image curve at the image point and compare
  with the original evaluation; and
* a symbolic one — pull the curve's component pair back through the raw
  coordinate substitution of the inverse matrix, using a tiny superfield
  algebra built here from scratch (fractions of polynomials plus an explicit
  theta-component product rule).  It shares no code path with the library's
  gauge construction.

Plus the equivariance square for the odd-translation matrix, assembled from
its displayed block structure.

References for the scalar and monomial core: FractionQi, a Gaussian
rational on a pair of Fractions (the representation Qi had before it moved
to a canonical integer triple); _merge_indices, the product of two index
tuples with its transposition sign, as the library computed it before its
sign rows; reference_dot and reference_product, the
schoolbook Grassmann sum of products on index tuples and Qi/RatT values,
without the bitmask monomials, the integer form, the body-only fast paths or
the trusted constructor; reference_invert, the terminating geometric series
on those products; and fraction_random_qi, random_qi as it was drawn through
two Fractions.

product_random_supernumber and product_random_sc_matrix are the two
generators as they were before they were built by construction: the draw
subsets rebuilt and the parity part taken on every call, and the group
element formed by SCMatrix products of the lift, the shear, the reflection
and the sign.  reference_random_curve, reference_random_config and
reference_random_glue_pair are the three curve generators as they were
before the one sampler: every integer draw through rng.randint or
rng.choice, and every soul built by the public SuperNumber constructor; they
draw their scalars through fraction_random_qi and their odd parts through
product_random_supernumber.  reference_pivot is SuperCurve._pivot as it
was: the body degree and the coefficient from two scans of the polynomial.
fields_of lists every stored field of a value, nested, so the differential
tests of the generators compare term order and the integer forms as well as
values.

reference_module_rank_report is the rank report as it was computed before
module_rank_report became a reading of the one Gauss-Jordan loop: a full
pivot search on body units with row and column operations, and a tracker of
the column operations from which the kernel basis is read.

reference_susy1_matrix is the odd-translation matrix of a configuration as
it was built before curves.susy1_matrix read bodies: the reduced
configuration made in full, then bundles.susy1_matrix on its points and
its curve, with the Wronskian as a SuperPoly product.

reference_coprime_bodies is the coprimality test for curve bodies as it was
before the modular certificate: exact Euclid over Q(i) or Q(i)(t).

reference_gauge_pair is the odd gauge pair of a shear as it was solved
before the Bezout cofactor: the 2d x 2d Sylvester-style system of
X1 Q - Y1 P = r, one row per coefficient of z^m, m < 2d, solved by
linalg.solve_body_invertible.

reference_curve_eq is curve equality as it was before cross products:
both curves brought to their canonical forms, each through the inverse of
its pivot, and the three fields compared.

reference_homog_subst is the homogeneous substitution as it was before
Horner's rule: every power of num and den built in full and each term
num^j * den^(total - j) * c_j formed as a product of two dense polynomials.
susy1_square uses it, so the equivariance oracle does not share the path it
checks.  reference_proj_equal is projective equality as it was before
cross-multiplication: both points divided into a chart they both admit and
the chart coordinates compared.

ReferencePoly is the dense scalar polynomial as it was before the integer
form: a tuple of Qi or RatT coefficients, each operation a loop of scalar
operations, and gcd by Euclid over the scalar field.  reference_make_rat is
make_rat on it (gcd, exact division, denominator made monic), and
reference_ratt_str and reference_bits print and size its result as RatT and
cli did.

ReferenceSuperPoly is SuperPoly as it was before its integer form: a
tuple of SuperNumber coefficients, a grassmann.dot per product
coefficient, and sums, negation and derivative coefficient by coefficient.
reference_poly_homog_subst is homog_subst on it (Horner's rule in
polynomial products), and reference_wronskian is P'Q - PQ' on it as two
products and a difference, as bundles.wronskian computed it before it
ran polyrat.even_wronskian.

reference_tokenize is the script lexer as it was before it dropped the
newlines inside brackets: it emits every newline, and the parser skipped
the ones it met at bracket depth above zero.  reference_size,
reference_inverse_size and reference_z_degree are the three size estimates
of script values as cli kept them before one _size returned all three:
(bits, t-degree) of a value, the same of its inverse, and the z-degree of a
rational expression.
"""

import itertools
import math
from fractions import Fraction

from sgk.bundles import susy1_matrix as bundles_susy1_matrix
from sgk.cli import (_MAX_LITERAL_DIGITS, _PUNCT, MAX_SCALAR_BITS, CLIError,
                     RatFunc, Token)
from sgk.curves import (MarkedConfig, SuperCurve, act_point,
                        eval_curve_at_superpoint, susy1_matrix)
from sgk.grassmann import (QI_ONE, QI_ZERO, GrassmannError, Qi, RatT,
                           ScalarPoly, SuperNumber, as_scalar, dot, random_qi,
                           scalar_is_zero)
from sgk.linalg import ModuleRankReport, mat_mul, solve_body_invertible
from sgk.polyrat import SuperPoly, coprime_bodies
from sgk.scgroup import (SCMatrix, lift_sl2, random_sl2_qi, reflection,
                          susy)
from sgk.superspace import ChartPoint, as_proj, preferred_chart
from sgk.trees import single_vertex_config


class Frac:
    """A quotient of two polynomials, compared by cross products."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @staticmethod
    def const(n, c):
        return Frac(SuperPoly.const(n, c), SuperPoly.const(n, 1))

    def add(self, o):
        return Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    def mul(self, o):
        return Frac(self.num * o.num, self.den * o.den)

    def flip(self):
        return Frac(*(SuperPoly(p.n, [c.grade_flip() for c in p.coeffs])
                      for p in (self.num, self.den)))

    def eq(self, o):
        return (self.num * o.den - o.num * self.den).is_zero()


class SField:
    """F0 + theta * F1.  The product moves theta left with a grade flip:
    (F G)_1 = flip(F0) G1 + F1 G0."""

    __slots__ = ("f0", "f1")

    def __init__(self, f0, f1):
        self.f0 = f0
        self.f1 = f1

    def add(self, o):
        return SField(self.f0.add(o.f0), self.f1.add(o.f1))

    def mul(self, o):
        return SField(self.f0.mul(o.f0),
                      self.f0.flip().mul(o.f1).add(self.f1.mul(o.f0)))

    def eq(self, o):
        return self.f0.eq(o.f0) and self.f1.eq(o.f1)


def _sfield_const(n, c):
    return SField(Frac.const(n, c), Frac.const(n, 0))


def _horner(coeffs, n, zt):
    acc = _sfield_const(n, 0)
    for c in reversed(coeffs):
        acc = acc.mul(zt).add(_sfield_const(n, c))
    return acc


def _inv_even(F):
    """Inverse of an even superfield: H0 = 1/F0,
    H1 = -1/flip(F0) * F1 * 1/F0."""
    inv0 = Frac(F.f0.den, F.f0.num)
    fl = F.f0.flip()
    h1 = Frac(fl.den, fl.num).mul(F.f1).mul(inv0)
    return SField(inv0, Frac(-h1.num, h1.den))


def curve_as_superfield(cur) -> SField:
    return SField(Frac(cur.P, cur.Q), Frac(cur.r, cur.Q * cur.Q))


def pullback_superfield(m, cur) -> SField:
    """The curve's component pair composed with the inverse substitution.

    Writing the inverse matrix's rows as (a', c', gamma' / b', d', delta' /
    alpha', beta', e'), a row vector (z, 1, theta) lands on

        z~     = (a'z + b' + theta alpha') / (c'z + d' + theta beta')
        theta~ = (gamma'z + delta' + theta e') / (c'z + d' + theta beta')

    which this expands to first order in theta and feeds into the component
    pair by superfield Horner evaluation.  No gauge choices, no derived
    identities.
    """
    n, d = cur.n, cur.d
    mi = m.inverse()
    znum = SuperPoly.linear(n, mi.b, mi.a)
    zden = SuperPoly.linear(n, mi.d, mi.c)
    gpoly = SuperPoly.linear(n, mi.delta, mi.gamma)
    den2 = zden * zden
    zt = SField(Frac(znum, zden),
                Frac(zden * SuperPoly.const(n, mi.alpha)
                     - znum * SuperPoly.const(n, mi.beta), den2))
    tt = SField(Frac(gpoly, zden),
                Frac(zden * SuperPoly.const(n, mi.e)
                     + gpoly * SuperPoly.const(n, mi.beta), den2))
    p_at = _horner([cur.P.coeff(i) for i in range(d + 1)], n, zt)
    q_at = _horner([cur.Q.coeff(i) for i in range(d + 1)], n, zt)
    r_at = _horner([cur.r.coeff(i)
                    for i in range(max(cur.r.degree() + 1, 1))], n, zt)
    q_inv = _inv_even(q_at)
    phi = p_at.mul(q_inv)
    psi = r_at.mul(q_inv).mul(q_inv)
    return phi.add(tt.mul(psi))


def action_matches_symbolic(m, cur, act_fn) -> bool:
    """act_fn(m, cur) agrees with the raw-substitution pullback."""
    return curve_as_superfield(act_fn(m, cur)).eq(pullback_superfield(m, cur))


def action_matches_pointwise(m, cur, pts, act_fn) -> bool:
    """Evaluating the moved curve at moved points reproduces the original
    values."""
    img = act_fn(m, cur)
    for pt in pts:
        if eval_curve_at_superpoint(img, act_point(m, pt)) \
                != eval_curve_at_superpoint(cur, pt):
            return False
    return True


def susy1_square(m_quad, cfg):
    """Both sides of the odd-translation equivariance square, or None when
    the draw is out of generic position (a point at the pole or away from
    the first chart).

    Left: the moved configuration's matrix times the parameter rotation
    [[a, b], [c, d]].  Right: the block scaling — each point row by
    1/(c p + d), the deformation rows by the degree-(2d-1) substitution
    representation — times the original matrix.
    """
    from sgk.curves import act_config
    from sgk.scgroup import lift_sl2

    n = cfg.n
    a, b, c, d = m_quad
    m = lift_sl2(n, a, b, c, d)
    red = cfg.reduced()
    pts = [preferred_chart(p) for p in red.points]
    if any(p.chart != 1 for p in pts):
        return None
    if any(preferred_chart(act_point(m, p)).chart != 1 for p in pts):
        return None
    k = len(pts)
    dd = cfg.curve.d
    m_x = susy1_matrix(cfg)
    m_gx = susy1_matrix(act_config(m, cfg))
    rot = [[SuperNumber.scalar(n, a), SuperNumber.scalar(n, b)],
           [SuperNumber.scalar(n, c), SuperNumber.scalar(n, d)]]
    lhs = mat_mul(m_gx, rot)
    zero = SuperNumber.zero(n)
    cs, ds = SuperNumber.scalar(n, c), SuperNumber.scalar(n, d)
    size = k + 2 * dd
    block = [[zero] * size for _ in range(size)]
    for i, p in enumerate(pts):
        den = cs * p.p + ds
        if not den.body():
            return None
        block[i][i] = den.invert()
    numl = SuperPoly.linear(n, -b, d)
    denl = SuperPoly.linear(n, a, -c)
    for j in range(2 * dd):
        img = reference_homog_subst(SuperPoly(n, [0] * j + [1]), numl, denl,
                                    2 * dd - 1)
        for i in range(2 * dd):
            block[k + i][k + j] = img.coeff(i)
    rhs = mat_mul(block, m_x)
    return lhs, rhs


# ---------------------------------------------------------------------------
# The scalar and monomial core


def _frac_sqrt(f):
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def _frac_str(f):
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


class FractionQi:
    """re + im*i with Fraction components, every operation on Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(v):
        return v if isinstance(v, FractionQi) else FractionQi(v)

    def is_zero(self):
        return not self.re and not self.im

    def __add__(self, other):
        o = FractionQi.lift(other)
        return FractionQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = FractionQi.lift(other)
        return FractionQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return FractionQi.lift(other) - self

    def __mul__(self, other):
        o = FractionQi.lift(other)
        return FractionQi(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = FractionQi.lift(other)
        n2 = o.re * o.re + o.im * o.im
        if not n2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionQi((self.re * o.re + self.im * o.im) / n2,
                          (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        return FractionQi.lift(other) / self

    def __neg__(self):
        return FractionQi(-self.re, -self.im)

    def __pow__(self, k):
        base = FractionQi(1) / self if k < 0 else self
        out = FractionQi(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        o = FractionQi.lift(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def conj(self):
        return FractionQi(self.re, -self.im)

    def sqrt(self):
        """The root whose first nonzero part is positive, or None."""
        if self.is_zero():
            return FractionQi(0)
        if not self.im:
            r = _frac_sqrt(self.re)
            if r is not None:
                return FractionQi(r)
            r = _frac_sqrt(-self.re)
            return None if r is None else FractionQi(0, r)
        norm = _frac_sqrt(self.re * self.re + self.im * self.im)
        if norm is None:
            return None
        u = _frac_sqrt((self.re + norm) / 2)
        if not u:
            return None
        cand = FractionQi(u, self.im / (2 * u))
        return cand if cand * cand == self else None

    def __str__(self):
        if not self.im:
            return _frac_str(self.re)
        return "(%s%s%si)" % (_frac_str(self.re),
                              "+" if self.im >= 0 else "-",
                              _frac_str(abs(self.im)))


def _merge_indices(a, b):
    """Merge two disjoint sorted index tuples, counting transpositions.

    Returns (merged tuple, sign) or None when the tuples intersect, in which
    case the product of monomials vanishes.
    """
    out = []
    inv = 0
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            inv += la - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1 if inv & 1 else 1)


def reference_dot(n, xs, ys):
    """sum(x * y for x, y in zip(xs, ys)) term pair by term pair through
    _merge_indices, built by the validating constructor.  All products go
    into one dict, and a coefficient whose sum reaches zero is deleted at
    once, so a monomial that comes back later goes to the end: the result
    has the library's key order as well as its value."""
    out = {}
    for x, y in zip(xs, ys):
        for ka, va in x.terms.items():
            for kb, vb in y.terms.items():
                merged = _merge_indices(ka, kb)
                if merged is None:
                    continue
                key, sign = merged
                c = va * vb
                s = out.get(key, QI_ZERO) + (-c if sign < 0 else c)
                if scalar_is_zero(s):
                    del out[key]
                else:
                    out[key] = s
    return SuperNumber(n, out)


def reference_product(x, y):
    """x * y by reference_dot."""
    return reference_dot(x.n, [x], [y])


def reference_invert(x):
    """1/x as (1/b) * sum_k u^k with u = 1 - x/b and b the body of x, every
    product taken by reference_product; u is nilpotent, so n + 1 terms
    suffice."""
    n = x.n
    binv = SuperNumber(n, {(): 1 / x.body()})
    one = SuperNumber(n, {(): 1})
    u = one - reference_product(x, binv)
    out, power = one, u
    for _ in range(n):
        out = out + power
        power = reference_product(power, u)
    return reference_product(out, binv)


def fraction_random_qi(rng, nonzero=False):
    """random_qi with its real and imaginary parts drawn as Fractions."""
    while True:
        re = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        im = Fraction(0)
        if rng.random() < 0.25:
            im = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        q = Qi(re, im)
        if not nonzero or not q.is_zero():
            return q


def product_random_supernumber(rng, n, parity=None, max_terms=3,
                               invertible=False):
    """random_supernumber as it was drawn before its subset tables: the
    subsets rebuilt on every call and the parity part always taken."""
    subsets = [()] if parity in (0, None) else []
    pool = list(range(1, n + 1))
    for size in range(1, n + 1):
        if parity is not None and size % 2 != parity:
            continue
        for combo in itertools.combinations(pool, size):
            subsets.append(combo)
    terms = {}
    count = rng.randint(1, max_terms)
    for _ in range(count):
        if not subsets:
            break
        key = rng.choice(subsets)
        terms[key] = random_qi(rng)
    x = SuperNumber(n, terms)
    if invertible:
        b = Qi(rng.choice((1, 2, -1, 3)), 0)
        x = x.soul() + SuperNumber.scalar(n, b)
    if parity == 0:
        x = x.even_part()
    elif parity == 1:
        x = x.odd_part()
    return x


def product_random_sc_matrix(rng, n, with_odd=True):
    """random_sc_matrix as it was built before its closed form: the lift
    times the shear, times the reflection, negated, each by SCMatrix.mul."""
    a, b, c, d = random_sl2_qi(rng)
    m = lift_sl2(n, a, b, c, d)
    if with_odd and n >= 1:
        alpha = product_random_supernumber(rng, n, parity=1, max_terms=2)
        beta = product_random_supernumber(rng, n, parity=1, max_terms=2)
        m = m.mul(susy(n, alpha, beta))
    if rng.random() < 0.5:
        m = m.mul(reflection(n))
    if rng.random() < 0.25:
        m = m.neg()
    return m


def reference_random_curve(rng, n, d, reduced=False):
    """random_curve as it was drawn through rng.randint and rng.choice, its
    souls built by the public SuperNumber constructor from index tuples."""
    while True:
        bp = [fraction_random_qi(rng) for _ in range(d)] + \
            [fraction_random_qi(rng, nonzero=True)]
        bq = [fraction_random_qi(rng) for _ in range(d + 1)]
        if all(c.is_zero() for c in bq):
            bq[0] = Qi(1)
        if coprime_bodies(ScalarPoly(bp), ScalarPoly(bq)):
            break
    P = SuperPoly(n, bp)
    Q = SuperPoly(n, bq)
    r = SuperPoly.zero(n)
    if not reduced:
        if n >= 2:
            souls = [c for size in range(2, n + 1, 2)
                     for c in itertools.combinations(range(1, n + 1), size)]
            soul = lambda: SuperNumber(n, {rng.choice(souls):
                                           fraction_random_qi(rng)
                                           for _ in range(rng.randint(1, 2))})
            P = P + SuperPoly(n, [soul() for _ in range(d + 1)])
            Q = Q + SuperPoly(n, [soul() for _ in range(d + 1)])
        if d > 0 and n >= 1:
            r = SuperPoly(n, [product_random_supernumber(rng, n, parity=1,
                                                         max_terms=2)
                              for _ in range(2 * d)])
    return SuperCurve(n, d, P, Q, r)


def reference_random_config(rng, n, k, d, reduced=False):
    """random_config as it was drawn, on reference_random_curve."""
    bodies = []
    while len(bodies) < k:
        c = fraction_random_qi(rng)
        if all(c != b for b in bodies):
            bodies.append(c)
    pts = []
    for c in bodies:
        pi = SuperNumber.zero(n) if reduced or n == 0 else \
            product_random_supernumber(rng, n, parity=1, max_terms=2)
        pts.append(ChartPoint(n, 1, c, pi))
    return MarkedConfig(pts, reference_random_curve(rng, n, d,
                                                    reduced=reduced))


def reference_random_glue_pair(rng, n=1, attempts=400):
    """random_glue_pair as it was drawn through rng.randint, on
    reference_random_curve."""
    for _ in range(attempts):
        d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
        c1 = reference_random_curve(rng, n, d1)
        c2 = reference_random_curve(rng, n, d2)
        p1 = ChartPoint(n, 1, fraction_random_qi(rng),
                        product_random_supernumber(rng, n, parity=1))
        p2 = ChartPoint(n, 1, fraction_random_qi(rng),
                        product_random_supernumber(rng, n, parity=1))
        w = eval_curve_at_superpoint(c1, p1)
        v = eval_curve_at_superpoint(c2, p2)
        if not (w.V.is_invertible() and v.V.is_invertible()):
            continue
        gap = w.U * w.V.invert() - v.U * v.V.invert()
        c2b = SuperCurve(n, d2, c2.P + SuperPoly(n, [gap]) * c2.Q, c2.Q, c2.r)
        cfg1 = single_vertex_config(
            [ChartPoint(n, 1, p1.p + 1, 0), ChartPoint(n, 1, p1.p + 2, 0),
             p1], c1)
        cfg2 = single_vertex_config(
            [ChartPoint(n, 1, p2.p + 1, 0), ChartPoint(n, 1, p2.p + 2, 0),
             p2], c2b)
        return cfg1, cfg2
    raise GrassmannError("could not build a matching glue pair")


def reference_pivot(cur):
    """SuperCurve._pivot as it was: the body degree of Q, else of P, from
    one scan of the polynomial, and its coefficient from a second."""
    for which, poly in enumerate((cur.Q, cur.P)):
        m = max([k >> 8 for k in poly._num if not k & 0xFF], default=-1)
        if m >= 0:
            return (which, m), poly.coeff(m)
    raise GrassmannError("curve with no invertible coefficient")


def fields_of(x):
    """Every stored field of a value, nested: the integer or scalar form of
    each SuperNumber and SuperPoly with its term order, the triple of each
    Qi, and the slots of the other classes."""
    if isinstance(x, (SuperNumber, SuperPoly)):
        return (type(x).__name__, x.n, x._d,
                tuple((k, fields_of(v)) for k, v in x._num.items()))
    if isinstance(x, Qi):
        return x.a, x.b, x.d
    if isinstance(x, (tuple, list)):
        return tuple(fields_of(v) for v in x)
    if isinstance(x, dict):
        return tuple((fields_of(k), fields_of(v)) for k, v in x.items())
    slots = getattr(type(x), "__slots__", None)
    if slots is not None:
        return (type(x).__name__,) + tuple(fields_of(getattr(x, name))
                                           for name in slots)
    return x


def reference_module_rank_report(rows, n_gen=None) -> ModuleRankReport:
    """Pivot on body-unit entries to split off the free part of the map.

    When the leftover block (after all body pivots are used) is nonzero, its
    image sits inside the soul and the kernel/cokernel are not free modules;
    such inputs are flagged degenerate and the reported ranks refer to the
    free part only.
    """
    if not rows or not rows[0]:
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        return ModuleRankReport(nr, nc, 0, nc, nr, False,
                                _identity(nc, n_gen or 0))
    n = rows[0][0].n
    nr, nc = len(rows), len(rows[0])
    work = [list(r) for r in rows]
    # track column operations so a kernel basis can be reconstructed
    colops = _identity(nc, n)
    rank = 0
    used_rows = set()
    used_cols = set()
    for _ in range(min(nr, nc)):
        piv = None
        for i in range(nr):
            if i in used_rows:
                continue
            for j in range(nc):
                if j in used_cols:
                    continue
                if not scalar_is_zero(work[i][j].body()):
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        inv = work[pi][pj].invert()
        # clear the pivot row across all other columns (column operations)
        for j in range(nc):
            if j == pj or j in used_cols:
                continue
            f = inv * work[pi][j]
            for i in range(nr):
                work[i][j] = work[i][j] - work[i][pj] * f
            for i in range(nc):
                colops[i][j] = colops[i][j] - colops[i][pj] * f
        # clear the pivot column down the other rows (row operations; these
        # do not touch colops)
        for i in range(nr):
            if i == pi:
                continue
            f = work[i][pj] * inv
            for j in range(nc):
                work[i][j] = work[i][j] - f * work[pi][j]
        used_rows.add(pi)
        used_cols.add(pj)
        rank += 1
    residue_nonzero = any(
        not work[i][j].is_zero()
        for i in range(nr) if i not in used_rows
        for j in range(nc) if j not in used_cols
    )
    kernel_basis = []
    for j in range(nc):
        if j not in used_cols and not residue_nonzero:
            kernel_basis.append([colops[i][j] for i in range(nc)])
    return ModuleRankReport(
        rows=nr,
        cols=nc,
        rank=rank,
        kernel_rank=nc - rank if not residue_nonzero else 0,
        coker_rank=nr - rank,
        degenerate=residue_nonzero,
        kernel_basis=kernel_basis,
    )


def _identity(k, n):
    one = SuperNumber.one(n)
    zero = SuperNumber.zero(n)
    return [[one if i == j else zero for j in range(k)] for i in range(k)]


def reference_susy1_matrix(cfg):
    """The odd-translation matrix of cfg.reduced(), by bundles.susy1_matrix."""
    red = cfg.reduced()
    return bundles_susy1_matrix(list(red.points), red.curve)


def reference_coprime_bodies(p, q) -> bool:
    """True when the two body polynomials share no root (unit gcd)."""
    if p.is_zero() or q.is_zero():
        return not (p.is_zero() and q.is_zero())
    return p.gcd(q).degree() == 0


def reference_gauge_pair(cur):
    """(X1, Y1) of degree < d with X1 Q - Y1 P = r, from the Sylvester rows."""
    n, d = cur.n, cur.d
    if d == 0:
        return SuperPoly.zero(n), SuperPoly.zero(n)
    rows = []
    for m in range(2 * d):
        rows.append([cur.Q.coeff(m - j) for j in range(d)]
                    + [-cur.P.coeff(m - j) for j in range(d)])
    sol = solve_body_invertible(rows, [cur.r.coeff(m) for m in range(2 * d)])
    return SuperPoly(n, sol[:d]), SuperPoly(n, sol[d:])


def reference_curve_eq(a, b) -> bool:
    """Equality of two curves by their canonical forms' fields."""
    if a.n != b.n or a.d != b.d:
        return False
    a, b = a.canonical(), b.canonical()
    return a.P == b.P and a.Q == b.Q and a.r == b.r


def reference_homog_subst(poly, num, den, total):
    """sum_j num^j * den^(total - j) * c_j from the full lists of powers."""
    n = poly.n
    out = SuperPoly.zero(n)
    if poly.is_zero():
        return out
    num_pows = [SuperPoly.const(n, 1)]
    den_pows = [SuperPoly.const(n, 1)]
    for _ in range(total):
        num_pows.append(num_pows[-1] * num)
        den_pows.append(den_pows[-1] * den)
    for j, c in enumerate(poly.coeffs):
        if c.is_zero():
            continue
        out = out + num_pows[j] * den_pows[total - j] * c
    return out


def reference_proj_equal(a, b) -> bool:
    """Projective equality by comparing chart coordinates."""
    a, b = as_proj(a), as_proj(b)
    if a.n != b.n:
        return False
    ca, cb = a.chart1(), b.chart1()
    if ca is None or cb is None:
        ca, cb = a.chart2(), b.chart2()
        if ca is None or cb is None:
            return False
    return ca.p == cb.p and ca.pi == cb.pi


class ReferencePoly:
    """A dense polynomial in t on a tuple of scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        return self.coeffs[-1] if self.coeffs else QI_ZERO

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ReferencePoly(out)

    def __sub__(self, other):
        return self + ReferencePoly([-c for c in other.coeffs])

    def __mul__(self, other):
        if not isinstance(other, ReferencePoly):
            s = as_scalar(other)
            return ReferencePoly([c * s for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [QI_ZERO] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return ReferencePoly(out)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other):
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ReferencePoly(), self
        quo = [QI_ZERO] * (dq + 1)
        inv_lead = QI_ONE / other.lead()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            quo[k] = c
            for j, oc in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * oc
        return ReferencePoly(quo), ReferencePoly(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (QI_ONE / a.lead())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(str(c))
            else:
                tpow = "t" if i == 1 else "t^%d" % i
                parts.append(tpow if c == QI_ONE else "%s*%s" % (c, tpow))
        return " + ".join(parts)


def reference_make_rat(num, den):
    """num/den reduced: a Qi for a constant, else a pair (num, den) of
    coprime ReferencePolys with den monic."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in rational function")
    if num.is_zero():
        return QI_ZERO
    g = num.gcd(den)
    if g.degree() > 0:
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    inv = QI_ONE / den.lead()
    num, den = num * inv, den * inv
    if den.degree() == 0 and num.degree() == 0:
        return num.coeffs[0]
    return num, den


def reference_ratt_str(v):
    if isinstance(v, Qi):
        return str(v)
    num, den = v
    if den.coeffs == (QI_ONE,):
        return "(%s)" % num
    return "((%s)/(%s))" % (num, den)


def reference_bits(v):
    """cli's size estimate of a Qi, or of a reduced pair, in bits."""
    if isinstance(v, Qi):
        return max(v.a.bit_length(), v.b.bit_length(), v.d.bit_length())
    return sum(map(reference_bits, v[0].coeffs + v[1].coeffs))


def reference_tokenize(text):
    """The tokens of a script, every newline included."""
    toks = []
    i, line, col = 0, 1, 1
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            toks.append(Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch.isdecimal():
            j = i
            while j < size and text[j].isdecimal():
                j += 1
            if j - i > _MAX_LITERAL_DIGITS:
                raise CLIError("number literal exceeds the scalar size limit "
                               "of %d bits" % MAX_SCALAR_BITS, line, col)
            if j < size and text[j] == "i" and \
                    (j + 1 >= size or not (text[j + 1].isalnum()
                                           or text[j + 1] == "_")):
                toks.append(Token("imag", text[i:j], line, col))
                j += 1
            else:
                toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise CLIError("unexpected character %r" % ch, line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def reference_size(v):
    """(bits, degree in t) of a value's scalars."""
    if isinstance(v, Qi):
        return max(v.a.bit_length(), v.b.bit_length(), v.d.bit_length()), 0
    if isinstance(v, RatT):
        return (_reference_poly_bits(v.num) + _reference_poly_bits(v.den),
                max(v.num.degree(), v.den.degree()))
    if isinstance(v, RatFunc):
        parts = v.num.coeffs + v.den.coeffs
    elif isinstance(v, SuperNumber):
        parts = v._scalars().values()
    elif isinstance(v, SCMatrix):
        parts = [x for row in v.rows() for x in row]
    else:
        return 0, 0
    bits = degree = 0
    for x in parts:
        b, d = reference_size(x)
        bits += b
        degree += d
    return bits, degree


def _reference_poly_bits(p):
    d = p._d
    if not d:
        return sum(reference_size(c)[0] for c in p.coeffs)
    if d == 1:
        return sum([a.bit_length() or 1 for a in p._num])
    return sum([max((a // g).bit_length(), (d // g).bit_length())
                for a in p._num for g in (math.gcd(a, d),)])


def reference_inverse_size(v):
    """reference_size of 1/v."""
    bits, degree = reference_size(v)
    if isinstance(v, SuperNumber):
        k = len(v._num)
        return 2 * k * bits, k * degree
    return bits, degree


def reference_z_degree(v):
    """The larger degree in z of a rational expression's numerator and
    denominator, 0 for other values."""
    return max(v.num.degree(), v.den.degree()) if isinstance(v, RatFunc) else 0


class ReferenceSuperPoly:
    """A polynomial in z on a tuple of SuperNumber coefficients, with the
    arithmetic SuperPoly had before its integer form: every coefficient of a
    product one grassmann.dot over the pairs that meet in it, sums and
    negation coefficient by coefficient, Horner's rule in SuperPoly products
    for homog_subst, long division by dot, and eval by Horner."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=()):
        self.n = n
        cs = [SuperNumber.coerce(n, c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def _coerced(self, other):
        if isinstance(other, ReferenceSuperPoly):
            return other
        return ReferenceSuperPoly(self.n, (other,))

    def __add__(self, other):
        a, b = list(self.coeffs), list(self._coerced(other).coeffs)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] = a[i] + c
        return ReferenceSuperPoly(self.n, a)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceSuperPoly(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __rsub__(self, other):
        return self._coerced(other) + (-self)

    def __mul__(self, other):
        a, b = self.coeffs, self._coerced(other).coeffs
        if not a or not b:
            return ReferenceSuperPoly(self.n)
        out = []
        for k in range(len(a) + len(b) - 1):
            lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
            out.append(dot(self.n, a[lo:hi + 1],
                           [b[k - i] for i in range(lo, hi + 1)]))
        return ReferenceSuperPoly(self.n, out)

    def __rmul__(self, other):
        return self._coerced(other) * self

    def __pow__(self, k):
        out = ReferenceSuperPoly(self.n, (1,))
        for _ in range(k):
            out = out * self
        return out

    def eval(self, x):
        x = SuperNumber.coerce(self.n, x)
        out = SuperNumber.zero(self.n)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def divmod(self, other):
        n, a, b = self.n, self.coeffs, self._coerced(other).coeffs
        m, shift = len(b) - 1, len(a) - len(b)
        if shift < 0:
            return ReferenceSuperPoly(n), self
        inv = b[-1].invert()
        quo = [None] * (shift + 1)
        for k in range(shift, -1, -1):
            top = a[k + m] - dot(n, quo[k + 1:k + m + 1], b[m - 1::-1])
            quo[k] = top * inv
        rem = [a[i] - dot(n, quo[:i + 1], b[i::-1]) for i in range(m)]
        return ReferenceSuperPoly(n, quo), ReferenceSuperPoly(n, rem)

    def derivative(self):
        return ReferenceSuperPoly(self.n, [self.coeffs[i] * Qi(i) for i in
                                           range(1, len(self.coeffs))])

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append("(%s)" % c)
            elif i == 1:
                parts.append("(%s)*z" % c)
            else:
                parts.append("(%s)*z^%d" % (c, i))
        return " + ".join(parts)


def reference_poly_homog_subst(poly, num, den, total):
    """homog_subst on ReferenceSuperPolys: Horner's rule in num and den."""
    cs = poly.coeffs
    if not cs:
        return ReferenceSuperPoly(poly.n)
    den_pow = den ** (total - len(cs) + 1)
    acc = den_pow * cs[-1]
    for c in reversed(cs[:-1]):
        den_pow = den_pow * den
        acc = num * acc
        if not c.is_zero():
            acc = acc + den_pow * c
    return acc


def reference_wronskian(P, Q):
    """P'Q - PQ' on ReferenceSuperPolys, as two products and a
    difference."""
    return P.derivative() * Q - P * Q.derivative()
