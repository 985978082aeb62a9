"""Exact arithmetic in a complex Grassmann algebra with few generators.

Values are elements of Lambda_n (x) C for 0 <= n <= 8, written on the basis
of products of anticommuting generators g1, ..., gn.  Coefficients are exact:
Gaussian rationals (class Qi), optionally extended by a single transcendental
even parameter t (class RatT, a reduced fraction of polynomials in t over the
Gaussian rationals).  ScalarPoly is the one dense polynomial class over these
scalars: RatT stores its numerator and denominator in it, and body-level
coprimality checks run on it.  There is no floating point anywhere in this
module.

A Qi is a canonical integer triple (a, b, d) meaning (a + b*i)/d, with d > 0
and gcd(a, b, d) == 1; each ring operation works on the integers and divides
by one gcd.  Qi(re, im) takes ints or Fractions, re and im read back as
Fractions, and a Qi hashes like its Fraction components.

A SuperNumber is stored as a mapping from strictly increasing index tuples to
nonzero scalar coefficients, so g2*g1 is represented as -1 times the basis
monomial (1, 2).  The product of two basis monomials (their merged tuple and
the sign of the transpositions that sort it, or None when they share a
generator) is computed once by _merge_indices and kept in the module-level
table _PRODUCTS, filled as products need it; it holds at most
4 ** MAX_GENERATORS = 65536 pairs.  The public SuperNumber constructor
validates indices and coefficients; results the class builds itself (sums,
products, negation, parity and projection parts, inverses) and the
constructors scalar, zero and one (and coerce, which goes through scalar)
go through the same __init__ with _trusted=True, which skips the checks;
those constructors still check n and coerce and drop a zero scalar.  A
product with a body-only operand scales the other operand's coefficients
without monomial merging, and the inverse of a body-only value is the
scalar inverse.

dot(n, xs, ys) is the package's one sum-of-products kernel: it returns
x1*y1 + x2*y2 + ... as one SuperNumber, accumulating every product into a
single term dict through the loop the product itself runs (_accumulate), so
no SuperNumber is built per product or per partial sum.  The left factor of
each product comes from xs, which fixes the signs of odd-by-odd terms.
Group products, point actions, SuperPoly products and the Grassmann linear
solver are built on it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


MAX_GENERATORS = 8


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
    """A Gaussian rational (a + b*i)/d, stored as a canonical integer triple.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so equal values
    have equal triples and equality is a tuple comparison.  Ring operations
    work on the integers and divide by one gcd of the result; a sum of two
    values over the same denominator skips the cross multiplication, and
    results over d == 1 skip the gcd.  The components are also readable as
    Fractions through the re and im properties.
    """

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
        q = _new_qi(Qi)
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
        # the hashes of the Fraction components, so a real value hashes
        # like the int or Fraction it equals
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


_new_qi = object.__new__


def _canonical(a, b, d):
    """The Qi (a + b*i)/d for integers a, b and d > 0, divided by their gcd."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    q = _new_qi(Qi)
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
    """Dense univariate polynomial with scalar (Qi or RatT) coefficients.

    RatT keeps its numerator and denominator as ScalarPoly values in t with
    Qi coefficients; coprimality checks on curve bodies use the same class
    with coefficients that may themselves involve t.  Printed forms use t as
    the variable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # as_scalar is defined below RatT; _POLY_ONE never reaches it
        cs = [c if isinstance(c, Qi) else as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return ScalarPoly((c,))

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
        return ScalarPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ScalarPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            s = other if isinstance(other, Qi) else as_scalar(other)
            return ScalarPoly([c * s for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ScalarPoly()
        out = [QI_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return ScalarPoly(out)

    def __eq__(self, other):
        return isinstance(other, ScalarPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other):
        """Exact polynomial division with remainder over the scalar field."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ScalarPoly(), self
        quo = [QI_ZERO] * (dq + 1)
        inv_lead = QI_ONE / other.lead()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            quo[k] = c
            if not c.is_zero():
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return ScalarPoly(quo), ScalarPoly(rem)

    def gcd(self, other):
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
            acc = self.coeffs[m + k] if m + k < len(self.coeffs) else QI_ZERO
            for i in range(k + 1, m):
                j = m + k - i
                if k + 1 <= j <= m - 1:
                    acc = acc - r[i] * r[j]
            r[k] = acc * inv2rm
        cand = ScalarPoly(r)
        if cand * cand == self:
            return cand
        return None

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
            else:
                tpow = "t" if i == 1 else "t^%d" % i
                if c == QI_ONE:
                    parts.append(tpow)
                else:
                    parts.append("%s*%s" % (cs, tpow))
        return " + ".join(parts)

    __repr__ = __str__


# the former name of ScalarPoly, kept for existing importers
QiPoly = ScalarPoly

_POLY_ONE = ScalarPoly((QI_ONE,))


def _as_poly(v):
    if isinstance(v, ScalarPoly):
        return v
    q = Qi.coerce(v)
    if q is None:
        return None
    return ScalarPoly((q,))


class RatT:
    """A reduced fraction num/den of ScalarPoly values: the field Q(i)(t).

    Every value is canonical: num and den are coprime and den is monic.
    Arithmetic results come back through _reduced or make_rat, so constants
    collapse to plain Qi values and code elsewhere can treat Qi and RatT
    uniformly.  RatT.lift(c) wraps a constant as c/1 without collapsing it;
    that operand is reduced too, and it compares and hashes like c.

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
        if isinstance(v, RatT):
            return v
        p = _as_poly(v)
        if p is None:
            return None
        return RatT(p, _POLY_ONE)

    def _is_const(self):
        return self.den.degree() == 0 and self.num.degree() <= 0

    def __add__(self, other):
        o = RatT.lift(other)
        if o is None:
            return NotImplemented
        if o.den.degree() == 0:
            return _reduced(self.num + o.num * self.den, self.den)
        if self.den.degree() == 0:
            return _reduced(self.num * o.den + o.num, o.den)
        return make_rat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = RatT.lift(other)
        if o is None:
            return NotImplemented
        if o.den.degree() == 0:
            return _reduced(self.num - o.num * self.den, self.den)
        if self.den.degree() == 0:
            return _reduced(self.num * o.den - o.num, o.den)
        return make_rat(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = RatT.lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = RatT.lift(other)
        if o is None:
            return NotImplemented
        # p * (n/d) is reduced when p is a constant or d is 1
        if o.den.degree() == 0 and (o.num.degree() <= 0
                                    or self.den.degree() == 0):
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
        if o is None:
            return NotImplemented
        return o / self

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
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        if self._is_const():
            return hash(self.num.lead())
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self):
        return self.num.is_zero()

    def sqrt(self):
        rn = self.num.sqrt()
        rd = self.den.sqrt()
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
    if den.degree() == 0 and num.degree() == 0:
        return num.coeffs[0]
    return RatT(num, den)


def make_rat(num: ScalarPoly, den: ScalarPoly):
    """Reduced Qi-or-RatT value num/den; constants come back as Qi."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in rational function")
    if num.is_zero():
        return QI_ZERO
    g = num.gcd(den)
    if g.degree() > 0:
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
    lead_inv = QI_ONE / den.lead()
    return _reduced(num * lead_inv, den * lead_inv)


T_PARAM = RatT(ScalarPoly((QI_ZERO, QI_ONE)), _POLY_ONE)

# The scalar field as used throughout the package.
Scalar = (Qi, RatT)


def as_scalar(v):
    """Coerce an int, Fraction, Qi, or RatT into a scalar; error otherwise."""
    if isinstance(v, (Qi, RatT)):
        return v
    q = Qi.coerce(v)
    if q is None:
        raise GrassmannError("not a scalar: %r" % (v,))
    return q


def is_scalar(v):
    return isinstance(v, (int, Fraction, Qi, RatT))


def scalar_is_zero(s):
    if isinstance(s, RatT):
        return s.is_zero()
    return as_scalar(s).is_zero()


def scalar_sqrt(s):
    """Exact square root of a scalar, or None when it leaves the field."""
    s = as_scalar(s)
    return s.sqrt()


def scalar_str(s):
    return str(as_scalar(s))


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


# ---------------------------------------------------------------------------
# Grassmann numbers


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


# _merge_indices(ka, kb), memoized as _PRODUCTS[ka][kb] when a product first
# needs it.  Index tuples are subsets of 1..MAX_GENERATORS, so the table holds
# at most 4 ** MAX_GENERATORS = 65536 entries.
_PRODUCTS = {}
_UNSEEN = object()


def _accumulate(out, ta, tb):
    """Add the product of the term dicts ta and tb, ta on the left, into the
    term dict out, deleting every coefficient whose sum reaches zero."""
    get = out.get
    other_terms = tb.items()
    for ka, va in ta.items():
        row = _PRODUCTS.get(ka)
        if row is None:
            row = _PRODUCTS[ka] = {}
        for kb, vb in other_terms:
            merged = row.get(kb, _UNSEEN)
            if merged is _UNSEEN:
                merged = row[kb] = _merge_indices(ka, kb)
            if merged is None:
                continue
            key, sign = merged
            c = va * vb
            prev = get(key)
            if prev is None:
                out[key] = -c if sign < 0 else c
                continue
            s = prev - c if sign < 0 else prev + c
            if s.is_zero():
                del out[key]
            else:
                out[key] = s


def _check_generators(n):
    if not isinstance(n, int) or not 0 <= n <= MAX_GENERATORS:
        raise GrassmannError(
            "generator count must be an integer between 0 and %d, got %r"
            % (MAX_GENERATORS, n))


class SuperNumber:
    """An element of Lambda_n (x) C with exact scalar coefficients.

    The public constructor validates n, every index tuple and every
    coefficient, and drops zero coefficients.  Results the class builds
    itself pass _trusted=True with a dict that already satisfies those
    invariants, which skips the checks.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None, *, _trusted=False):
        if _trusted:
            self.n = n
            self.terms = terms
            return
        _check_generators(n)
        self.n = n
        clean = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            if any(not isinstance(i, int) or not 1 <= i <= n for i in idx):
                raise GrassmannError("generator index out of range in %r" % (idx,))
            if list(idx) != sorted(set(idx)):
                raise GrassmannError("indices must be strictly increasing, got %r" % (idx,))
            coeff = as_scalar(coeff)
            if not scalar_is_zero(coeff):
                clean[idx] = coeff
        self.terms = clean

    # -- constructors

    @staticmethod
    def scalar(n, c):
        _check_generators(n)
        c = c if type(c) is Qi else as_scalar(c)
        return SuperNumber(n, {} if c.is_zero() else {(): c}, _trusted=True)

    @staticmethod
    def zero(n):
        _check_generators(n)
        return SuperNumber(n, {}, _trusted=True)

    @staticmethod
    def one(n):
        _check_generators(n)
        return SuperNumber(n, {(): QI_ONE}, _trusted=True)

    @staticmethod
    def gen(n, i):
        if not 1 <= i <= n:
            raise GrassmannError("generator g%d does not exist for n=%d" % (i, n))
        return SuperNumber(n, {(i,): 1})

    @staticmethod
    def coerce(n, v):
        if isinstance(v, SuperNumber):
            if v.n != n:
                raise GrassmannError(
                    "generator count mismatch: %d vs %d" % (v.n, n))
            return v
        return SuperNumber.scalar(n, v)

    # -- structure queries

    def is_zero(self):
        return not self.terms

    def body(self):
        return self.terms.get((), QI_ZERO)

    def soul(self):
        return SuperNumber(self.n, {k: v for k, v in self.terms.items() if k},
                           _trusted=True)

    def parity(self):
        """0 for even, 1 for odd, None for mixed; zero counts as even."""
        ps = {len(k) & 1 for k in self.terms}
        if not ps:
            return 0
        if len(ps) > 1:
            return None
        return ps.pop()

    def is_even(self):
        return not any(len(k) & 1 for k in self.terms)

    def is_odd(self):
        return all(len(k) & 1 for k in self.terms)

    def even_part(self):
        return SuperNumber(self.n, {k: v for k, v in self.terms.items()
                                    if not len(k) & 1}, _trusted=True)

    def odd_part(self):
        return SuperNumber(self.n, {k: v for k, v in self.terms.items()
                                    if len(k) & 1}, _trusted=True)

    def parity_split(self):
        return self.even_part(), self.odd_part()

    def grade_flip(self):
        """The grade involution: odd terms change sign."""
        return SuperNumber(self.n, {k: (-v if len(k) & 1 else v)
                                    for k, v in self.terms.items()},
                           _trusted=True)

    def coeff(self, idx):
        return self.terms.get(tuple(idx), QI_ZERO)

    def embed(self, m):
        if m < self.n:
            raise GrassmannError("cannot embed Lambda_%d into Lambda_%d"
                                 % (self.n, m))
        return SuperNumber(m, dict(self.terms))

    # -- ring operations

    def _coerced(self, other):
        if isinstance(other, SuperNumber):
            if other.n != self.n:
                raise GrassmannError(
                    "generator count mismatch: %d vs %d" % (self.n, other.n))
            return other
        if is_scalar(other):
            return SuperNumber.scalar(self.n, other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            prev = out.get(k)
            if prev is None:
                # 0 + v collapses a RatT constant such as RatT.lift(2) to Qi
                out[k] = v if type(v) is Qi else QI_ZERO + v
                continue
            s = prev + v
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return SuperNumber(self.n, out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return SuperNumber(self.n, {k: -v for k, v in self.terms.items()},
                           _trusted=True)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        # a body-only factor scales the other one: every monomial product is
        # trivial, and a product of nonzero field elements is nonzero
        a, b = self.terms, o.terms
        if len(a) == 1 and () in a:
            s = a[()]
            return SuperNumber(self.n, {k: s * v for k, v in b.items()},
                               _trusted=True)
        if len(b) == 1 and () in b:
            s = b[()]
            return SuperNumber(self.n, {k: v * s for k, v in a.items()},
                               _trusted=True)
        out = {}
        _accumulate(out, a, b)
        return SuperNumber(self.n, out, _trusted=True)

    def __rmul__(self, other):
        # scalars are central, so reflected multiplication needs no signs
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, other):
        if is_scalar(other):
            return self * SuperNumber.scalar(self.n, 1 / as_scalar(other))
        if isinstance(other, SuperNumber):
            return self * other.invert()
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        return square_and_multiply(self, k, SuperNumber.one(self.n))

    def invert(self):
        """Multiplicative inverse; requires an invertible body."""
        b = self.body()
        if scalar_is_zero(b):
            raise GrassmannError("not invertible: body is zero")
        binv = 1 / b
        if len(self.terms) == 1:
            return SuperNumber(self.n, {(): binv}, _trusted=True)
        u = SuperNumber.one(self.n) - self * binv
        # u is nilpotent: u^(n+1) = 0, so the geometric series terminates
        out = SuperNumber.one(self.n)
        power = u
        for _ in range(self.n):
            if power.is_zero():
                break
            out = out + power
            power = power * u
        return out * binv

    def sqrt_even(self):
        """Square root of an even element whose body has a scalar root."""
        if not self.is_even():
            raise GrassmannError("square root needs an even element")
        b = self.body()
        root = scalar_sqrt(b)
        if root is None or scalar_is_zero(b):
            raise GrassmannError(
                "no exact square root for body %s" % scalar_str(b))
        u = self / b - SuperNumber.one(self.n)
        out = SuperNumber.zero(self.n)
        power = SuperNumber.one(self.n)
        coeff = Fraction(1)
        for k in range(self.n + 1):
            if power.is_zero():
                break
            out = out + power * Qi(coeff)
            coeff = coeff * (Fraction(1, 2) - k) / (k + 1)
            power = power * u
        return out * root

    # -- comparison and display

    def __eq__(self, other):
        if isinstance(other, SuperNumber):
            return self.n == other.n and self.terms == other.terms
        if is_scalar(other):
            return self == SuperNumber.scalar(self.n, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    def _term_str(self, idx, coeff):
        mono = "*".join("g%d" % i for i in idx)
        if not idx:
            return scalar_str(coeff)
        if coeff == QI_ONE:
            return mono
        if coeff == Qi(-1):
            return "-" + mono
        return "%s*%s" % (scalar_str(coeff), mono)

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (len(k), k))
        parts = [self._term_str(k, self.terms[k]) for k in keys]
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self):
        return "<%s | n=%d>" % (self, self.n)


# ---------------------------------------------------------------------------
# Module-level operation names


def mul(x: SuperNumber, y: SuperNumber) -> SuperNumber:
    return x * y


def dot(n, xs, ys) -> SuperNumber:
    """The sum of x * y over the pairs of zip(xs, ys), as one SuperNumber.

    The left factor of each product comes from xs, which fixes the signs of
    odd-by-odd products.  All pairs accumulate into one term dict through
    the monomial table _PRODUCTS, the loop the product itself runs, so the
    result equals sum((x * y for x, y in zip(xs, ys)), SuperNumber.zero(n))
    without building a SuperNumber per product or per partial sum.  Every
    entry must be a SuperNumber over n generators.
    """
    _check_generators(n)
    out = {}
    for x, y in zip(xs, ys):
        if x.n != y.n:
            raise GrassmannError(
                "generator count mismatch: %d vs %d" % (x.n, y.n))
        if x.n != n:
            raise GrassmannError(
                "generator count mismatch: %d vs %d" % (n, x.n))
        _accumulate(out, x.terms, y.terms)
    return SuperNumber(n, out, _trusted=True)


def invert(x: SuperNumber) -> SuperNumber:
    return x.invert()


def parity_split(x: SuperNumber):
    return x.parity_split()


def reduce(x: SuperNumber):
    """The body of x: its image under the projection killing all generators."""
    return x.body()


def embed(x: SuperNumber, m: int) -> SuperNumber:
    return x.embed(m)


# ---------------------------------------------------------------------------
# Randomized element generators (used by tests and the CLI check suite)


def random_qi(rng, nonzero=False):
    while True:
        p, q = rng.randint(-4, 4), rng.choice((1, 1, 2, 3))
        r, s = 0, 1
        if rng.random() < 0.25:
            r, s = rng.randint(-3, 3), rng.choice((1, 2))
        # p/q + (r/s) i over the denominator q*s
        x = _canonical(p * s, r * q, q * s)
        if not nonzero or not x.is_zero():
            return x


def random_supernumber(rng, n, parity=None, max_terms=3, invertible=False):
    """A random element, optionally of pure parity or with invertible body."""
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
