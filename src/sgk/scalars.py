"""Exact scalars: Gaussian rationals and rational functions in one parameter.

Coefficients of the Grassmann algebra (sgk.grassmann, which re-exports
every public name here) are exact: Gaussian rationals (class Qi), optionally
extended by a single transcendental even parameter t (class RatT, a reduced
fraction of polynomials in t over the Gaussian rationals).  ScalarPoly is
the one dense polynomial class over these scalars: RatT stores its
numerator and denominator in it, and body-level coprimality checks run on
it.  There is no floating point anywhere in this module.

A Qi is a canonical integer triple (a, b, d) meaning (a + b*i)/d, with d > 0
and gcd(a, b, d) == 1; each ring operation works on the integers and divides
by one gcd.  Qi(re, im) takes ints or Fractions, re and im read back as
Fractions, and a Qi hashes like its Fraction components.

A ScalarPoly with only real Qi coefficients has the integer form of
FLINT's fmpq_poly: one denominator _d > 0 and a tuple _num of int
numerators, constant term first, with no trailing zero and gcd(_d, every
numerator) == 1.  Others keep _d == 0 and their scalars in _num.  Both
forms are canonical, so equal polynomials have equal fields.  On integer
forms +, -, * and divmod run on the ints with one gcd per result, and gcd
(so make_rat) is primitive Euclid over Z[t]: pseudo-remainders divided by
their content (Knuth, TAOCP vol. 2, 4.6.1).
"""

from __future__ import annotations

import math
from fractions import Fraction


class GrassmannError(ValueError):
    """Raised for malformed or incompatible Grassmann-algebra operands."""


def square_and_multiply(x, k, one):
    """x ** k for an int k >= 0, starting from `one`; the base is squared
    only while bits of k remain.  Qi, RatT, SuperNumber and SuperPoly powers
    all run this loop."""
    out = one
    while k:
        if k & 1:
            out = x * out
        k >>= 1
        if k:
            x = x * x
    return out


# ---------------------------------------------------------------------------
# Gaussian rationals


def _frac_sqrt(f: Fraction):
    """Exact square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class Qi:
    """A Gaussian rational (a + b*i)/d, stored as the canonical integer
    triple of the module docstring; a sum of two values over the same
    denominator skips the cross multiplication, and results over d == 1
    skip the gcd."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        # over the least common denominator the triple is already canonical
        d = dr if dr == di else dr // math.gcd(dr, di) * di
        self.a = re.numerator * (d // dr)
        self.b = im.numerator * (d // di)
        self.d = d

    @staticmethod
    def _of(a, b, d):
        """Trusted constructor for a triple that is already canonical."""
        q = _new(Qi)
        q.a = a
        q.b = b
        q.d = d
        return q

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    # -- helpers

    @staticmethod
    def coerce(v):
        if isinstance(v, Qi):
            return v
        if isinstance(v, int):
            return Qi._of(int(v), 0, 1)
        if isinstance(v, Fraction):
            return Qi._of(v.numerator, 0, v.denominator)
        return None

    def is_zero(self):
        return not self.a and not self.b

    # -- ring operations

    def __add__(self, other):
        if type(other) is not Qi:
            other = Qi.coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        if d == other.d:
            return _canonical(self.a + other.a, self.b + other.b, d)
        d2 = other.d
        return _canonical(self.a * d2 + other.a * d, self.b * d2 + other.b * d,
                          d * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Qi:
            other = Qi.coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        if d == other.d:
            return _canonical(self.a - other.a, self.b - other.b, d)
        d2 = other.d
        return _canonical(self.a * d2 - other.a * d, self.b * d2 - other.b * d,
                          d * d2)

    def __rsub__(self, other):
        o = Qi.coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is not Qi:
            other = Qi.coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if b1 or b2:
            return _canonical(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                              self.d * other.d)
        return _canonical(a1 * a2, 0, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Qi:
            other = Qi.coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2)
        #   = d2 (a1 + b1 i)(a2 - b2 i) / (d1 (a2^2 + b2^2))
        n2 = a2 * a2 + b2 * b2
        if not n2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        d2 = other.d
        return _canonical(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2),
                          self.d * n2)

    def __rtruediv__(self, other):
        o = Qi.coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Qi._of(-self.a, -self.b, self.d)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (QI_ONE / self) ** (-k)
        return square_and_multiply(self, k, QI_ONE)

    def __eq__(self, other):
        if type(other) is not Qi:
            if isinstance(other, RatT):
                return other == self
            other = Qi.coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if not self.b:
            if self.d == 1:
                return hash(self.a)
            return hash(Fraction(self.a, self.d))
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.a or self.b)

    def conj(self):
        return Qi._of(self.a, -self.b, self.d)

    def sqrt(self):
        """An exact square root in Q(i) or None.

        The returned root is the one whose first nonzero part (real, then
        imaginary) is positive, which makes the choice deterministic.
        """
        if self.is_zero():
            return Qi(0)
        re, im = self.re, self.im
        if not im:
            r = _frac_sqrt(re)
            if r is not None:
                return Qi(r)
            r = _frac_sqrt(-re)
            if r is not None:
                return Qi(0, r)
            return None
        norm = _frac_sqrt(re * re + im * im)
        if norm is None:
            return None
        u2 = (re + norm) / 2
        u = _frac_sqrt(u2)
        if u is None or not u:
            return None
        v = im / (2 * u)
        cand = Qi(u, v)
        if cand * cand == self:
            if cand.a < 0 or (not cand.a and cand.b < 0):
                cand = -cand
            return cand
        return None

    def __str__(self):
        if not self.b:
            return _frac_str(self.re)
        im = self.im
        return "(%s%s%si)" % (_frac_str(self.re), "+" if im >= 0 else "-",
                              _frac_str(abs(im)))

    __repr__ = __str__


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


_new = object.__new__


def _canonical(a, b, d):
    """The Qi (a + b*i)/d for integers a, b and d > 0, divided by their gcd."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    q = _new(Qi)
    q.a = a
    q.b = b
    q.d = d
    return q


QI_ZERO = Qi(0)
QI_ONE = Qi(1)
QI_I = Qi(0, 1)


# ---------------------------------------------------------------------------
# Scalar polynomials, and rational functions in one parameter t over Q(i)


class ScalarPoly:
    """Dense univariate polynomial with scalar (Qi or RatT) coefficients,
    printed in the variable t (RatT's numerator and denominator, curve
    bodies in z); coeffs is the tuple of scalars, made once per value."""

    __slots__ = ("_d", "_num", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Qi) else as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._coeffs = self._num = cs = tuple(cs)
        self._d = 0
        d = 1
        for c in cs:
            if type(c) is not Qi or c.b:
                return
            if d % c.d:
                d = math.lcm(d, c.d)
        # canonical over the lcm of canonical denominators
        self._d = d
        self._num = tuple([c.a * (d // c.d) for c in cs])

    @property
    def coeffs(self):
        cs = self._coeffs
        if cs is None:
            d = self._d
            cs = self._coeffs = tuple([_canonical(a, 0, d) for a in self._num])
        return cs

    @staticmethod
    def const(c):
        return ScalarPoly((c,))

    def degree(self):
        return len(self._num) - 1

    def is_zero(self):
        return not self._num

    def lead(self):
        if self._coeffs is None:
            return _canonical(self._num[-1], 0, self._d)
        return self._coeffs[-1] if self._coeffs else QI_ZERO

    def __add__(self, other):
        if self._d and other._d:
            return _int_sum(self, other._num, other._d)
        return ScalarPoly(_sum(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if self._d and other._d:
            return _int_sum(self, [-x for x in other._num], other._d)
        return self + (-other)

    def __neg__(self):
        if self._d:
            return _int_of(tuple([-x for x in self._num]), self._d)
        return ScalarPoly([-c for c in self._num])

    def __mul__(self, other):
        if type(other) is not ScalarPoly:
            s = other if isinstance(other, Qi) else as_scalar(other)
            if self._d and type(s) is Qi and not s.b:
                return _int_poly([x * s.a for x in self._num], self._d * s.d)
            return ScalarPoly([c * s for c in self.coeffs])
        if self._d and other._d:
            return _int_poly(_product(self._num, other._num, 0),
                             self._d * other._d)
        return ScalarPoly(_product(self.coeffs, other.coeffs, QI_ZERO))

    def derivative(self):
        if self._d:
            return _int_poly([k * x for k, x in enumerate(self._num)][1:],
                             self._d)
        return ScalarPoly([c * k for k, c in enumerate(self._num)][1:])

    def __eq__(self, other):
        if not isinstance(other, ScalarPoly):
            return False
        if self._d == other._d:
            return self._num == other._num
        # a coefficient RatT.lift(2) keeps the scalar form
        return not (self._d and other._d) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other):
        """Exact polynomial division with remainder over the scalar field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self._d and other._d:
            # s*a = q*b + r gives self = (q*db/(s*da)) * other + r/(s*da)
            s, q, r = _pseudo_divmod(self._num, other._num)
            d = s * self._d
            return (_int_poly([x * other._d for x in q], d), _int_poly(r, d))
        rem, b = list(self.coeffs), other.coeffs
        quo = [QI_ZERO] * max(len(rem) - len(b) + 1, 0)
        inv_lead = QI_ONE / b[-1]
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = rem[k + len(b) - 1] * inv_lead
            if c:
                for j, y in enumerate(b):
                    rem[k + j] = rem[k + j] - c * y
        return ScalarPoly(quo), ScalarPoly(rem)

    def gcd(self, other):
        """The monic gcd, by primitive Euclid on two integer forms."""
        if self._d and other._d:
            a, b = _primitive(self._num), _primitive(other._num)
            while b:
                a, b = b, _primitive(_pseudo_rem(a, b))
            if not a:
                return _POLY_ZERO
            lead = a[-1]
            return _int_of(tuple(a if lead > 0 else [-x for x in a]), abs(lead))
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (QI_ONE / a.lead())

    def sqrt(self):
        """Exact polynomial square root, or None."""
        if self.is_zero():
            return ScalarPoly()
        d = self.degree()
        if d % 2:
            return None
        m = d // 2
        lead_root = self.lead().sqrt()
        if lead_root is None:
            return None
        # Solve for the root coefficients top down.  The t^(m+k) coefficient
        # of r^2 is 2*r_m*r_k plus a convolution of already known r_i with
        # k < i < m, so each step is a single division by 2*r_m.
        r = [QI_ZERO] * (m + 1)
        r[m] = lead_root
        inv2rm = QI_ONE / (Qi(2) * lead_root)
        for k in range(m - 1, -1, -1):
            acc = self.coeffs[m + k]
            for i in range(k + 1, m):
                acc = acc - r[i] * r[m + k - i]
            r[k] = acc * inv2rm
        cand = ScalarPoly(r)
        if cand * cand == self:
            return cand
        return None

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                tpow = "t" if i == 1 else "t^%d" % i
                parts.append(str(c) if not i else tpow if c == QI_ONE
                             else "%s*%s" % (c, tpow))
        return " + ".join(parts) or "0"

    __repr__ = __str__


# the former name of ScalarPoly, kept for existing importers
QiPoly = ScalarPoly


def _int_of(num, d):
    """Trusted constructor: num is a canonical int tuple over d."""
    p = _new(ScalarPoly)
    p._d = d
    p._num = num
    p._coeffs = None
    return p


def _int_poly(num, d):
    """sum(num[k] * t^k) / d for a list num of ints and an int d != 0,
    made canonical by one gcd."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _POLY_ZERO
    if d < 0:
        d = -d
        num = [-x for x in num]
    if d != 1:
        g = math.gcd(d, *num)
        if g != 1:
            d //= g
            num = [x // g for x in num]
    return _int_of(tuple(num), d)


def _int_sum(p, b, db):
    """p + b/db for p in integer form and int numerators b."""
    a, d = p._num, p._d
    if d != db:
        g = math.gcd(d, db)
        a = [x * (db // g) for x in a]
        b = [x * (d // g) for x in b]
        d = d // g * db
    return _int_poly(_sum(a, b), d)


def _sum(a, b):
    """a + b on coefficient lists of ints or of scalars."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def _product(a, b, zero):
    """a * b on coefficient lists of ints or of scalars."""
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(r):
    """The ints r without trailing zeros, over their content."""
    r = list(r)
    while r and not r[-1]:
        r.pop()
    g = math.gcd(*r)
    return [x // g for x in r] if g > 1 else r


def _pseudo_divmod(a, b):
    """(s, q, r) with s*a == q*b + r and len(r) < len(b) for int sequences
    a and b, b without trailing zero.  A step scales by s's least factor
    that lets b's lead divide the top term: none when b divides a over Z."""
    lb, nb = b[-1], len(b)
    r, s = list(a), 1
    q = [0] * max(len(a) - nb + 1, 0)
    for k in range(len(a) - nb, -1, -1):
        c = r[k + nb - 1]
        if not c:
            continue
        if c % lb:
            m = abs(lb) // math.gcd(c, lb)
            r = [x * m for x in r]
            q = [x * m for x in q]
            s *= m
            c *= m
        f = q[k] = c // lb
        for j, y in enumerate(b):
            r[k + j] -= f * y
    return s, q, r[:nb - 1]


def _pseudo_rem(a, b):
    """_pseudo_divmod(a, b)[2] without the quotient: a step rescales
    the terms under the one it clears."""
    lb, nb = b[-1], len(b)
    r = list(a)
    for k in range(len(a) - nb, -1, -1):
        c = r.pop()
        if not c:
            continue
        if c % lb:
            m = abs(lb) // math.gcd(c, lb)
            r = [x * m for x in r]
            c *= m
        f = c // lb
        for j in range(nb - 1):
            r[k + j] -= f * b[j]
    return r


_POLY_ZERO = ScalarPoly()
_POLY_ONE = _int_of((1,), 1)


class RatT:
    """A reduced fraction num/den of ScalarPoly values: the field Q(i)(t).

    Every value is canonical, num and den coprime and den monic, so equal
    values have equal fields.  Results come back through _reduced or
    make_rat, so constants collapse to plain Qi values.  RatT.lift(c) wraps
    a constant as c/1 without collapsing it; it compares and hashes like c.

    make_rat's polynomial gcd runs only where a common factor can arise:
    for a sum or difference of two fractions whose denominators are both
    non-constant, for a product of two non-constant values that are not
    both polynomials, and for a quotient of two non-constant values.  Every
    other result is reduced by construction and skips the gcd; for instance
    (n + p*d)/d shares no factor with d, and a constant c divided by n/d is
    c*d/n with n made monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ScalarPoly, den: ScalarPoly):
        self.num = num
        self.den = den

    @staticmethod
    def lift(v):
        if isinstance(v, (RatT, ScalarPoly)):
            return v if isinstance(v, RatT) else RatT(v, _POLY_ONE)
        q = Qi.coerce(v)
        return None if q is None else RatT(ScalarPoly((q,)), _POLY_ONE)

    def _is_const(self):
        return len(self.den._num) == 1 and len(self.num._num) <= 1

    def __add__(self, other):
        return self._plus(other, ScalarPoly.__add__)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, ScalarPoly.__sub__)

    def _plus(self, o, op):
        """self + o or self - o, as op adds or subtracts polynomials."""
        if type(o) is not RatT:
            c = Qi.coerce(o)
            if c is None:
                return NotImplemented
            return _reduced(op(self.num, self.den * c), self.den)
        if len(o.den._num) == 1:
            return _reduced(op(self.num, o.num * self.den), self.den)
        if len(self.den._num) == 1:
            return _reduced(op(self.num * o.den, o.num), o.den)
        return make_rat(op(self.num * o.den, o.num * self.den),
                        self.den * o.den)

    def __rsub__(self, o):
        c = Qi.coerce(o)
        if c is None:
            return NotImplemented
        return _reduced(self.den * c - self.num, self.den)

    def __mul__(self, o):
        if type(o) is not RatT:
            c = Qi.coerce(o)
            if c is None:
                return NotImplemented
            return _reduced(self.num * c, self.den)
        # p * (n/d) is reduced when p is a constant or d is 1
        if len(o.den._num) == 1 and (len(o.num._num) <= 1
                                     or len(self.den._num) == 1):
            return _reduced(self.num * o.num, self.den)
        if self._is_const():
            return _reduced(self.num * o.num, o.den)
        return make_rat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatT.lift(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if o._is_const():
            return _reduced(self.num * (QI_ONE / o.num.lead()), self.den)
        if self._is_const():
            inv = QI_ONE / o.num.lead()
            return _reduced(o.den * (self.num.lead() * inv), o.num * inv)
        return make_rat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = RatT.lift(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        return RatT(-self.num, self.den)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (1 / self) ** (-k)
        return square_and_multiply(self, k, QI_ONE)

    def __eq__(self, other):
        o = RatT.lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._is_const():
            return hash(self.num.lead())
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self):
        return self.num.is_zero()

    def sqrt(self):
        rn, rd = self.num.sqrt(), self.den.sqrt()
        if rn is None or rd is None:
            return None
        root = make_rat(rn, rd)
        if root * root == self:
            return root
        return None

    def __str__(self):
        if self.den == _POLY_ONE:
            return "(%s)" % self.num
        return "((%s)/(%s))" % (self.num, self.den)

    __repr__ = __str__


def _reduced(num: ScalarPoly, den: ScalarPoly):
    """num/den for coprime num and monic den; constants come back as Qi."""
    if num.is_zero():
        return QI_ZERO
    if len(den._num) == 1 and len(num._num) == 1:
        return num.lead()
    return RatT(num, den)


def make_rat(num: ScalarPoly, den: ScalarPoly):
    """Reduced Qi-or-RatT value num/den; constants come back as Qi."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in rational function")
    if num.is_zero():
        return QI_ZERO
    g = num.gcd(den)
    if num._d and den._d:
        a, b = num._num, den._num
        if len(g._num) > 1:
            # g's numerators are primitive, so g divides both over Z
            a = _pseudo_divmod(a, g._num)[1]
            b = _pseudo_divmod(b, g._num)[1]
        # (a/dn) / (b/dd) = a*dd / (b*dn), both over b's lead
        lb = b[-1]
        return _reduced(_int_poly([x * den._d for x in a], num._d * lb),
                        _int_poly(list(b), lb))
    if g.degree() > 0:
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
    lead_inv = QI_ONE / den.lead()
    return _reduced(num * lead_inv, den * lead_inv)


T_PARAM = RatT(ScalarPoly((QI_ZERO, QI_ONE)), _POLY_ONE)

# The scalar field as used throughout the package.
Scalar = (Qi, RatT)


def as_scalar(v):
    """Coerce an int, Fraction, Qi, or RatT into a scalar; error otherwise.
    A bool is refused: it is an int to Python, but not a number."""
    if isinstance(v, (Qi, RatT)):
        return v
    q = None if isinstance(v, bool) else Qi.coerce(v)
    if q is None:
        raise GrassmannError("not a scalar: %s" % _quote(v))
    return q


def _quote(v) -> str:
    """v as an error message quotes it: a value and each item of a list by
    str, so that they read as the script prints them, and a Python string
    by repr, so that it does not read as a name."""
    if isinstance(v, list):
        return "[%s]" % ", ".join(_quote(x) for x in v)
    return repr(v) if isinstance(v, str) else str(v)


def is_scalar(v):
    return isinstance(v, (int, Fraction, Qi, RatT))


def scalar_is_zero(s):
    return as_scalar(s).is_zero()


def scalar_sqrt(s):
    """Exact square root of a scalar, or None when it leaves the field."""
    s = as_scalar(s)
    return s.sqrt()


def scalar_lex_positive(s):
    """Deterministic positivity used by normal-form sign conventions.

    Gaussian rationals: positive real part wins, then positive imaginary
    part.  Rational functions: decided on the leading numerator coefficient.
    Zero counts as not positive.
    """
    s = as_scalar(s)
    if isinstance(s, RatT):
        s = s.num.lead()
    if s.a:
        return s.a > 0
    return s.b > 0
