"""Polynomials with SuperNumber coefficients.

SuperPoly carries full Grassmann coefficients and provides the evaluation,
derivative, and homogeneous-substitution operations that curve and bundle
actions are built from.  Its body is a grassmann.ScalarPoly, the dense
polynomial over the scalar field (Gaussian rationals, possibly with the
transcendental t), and coprimality checks run on those bodies.

A SuperPoly is stored like a SuperNumber, in one dict for the whole
polynomial: the term z^i g_mask has the key (i << MAX_GENERATORS) | mask,
and its value is an int numerator over one common denominator _d > 0 in
lowest terms (the integer form), or, when some coefficient is Gaussian or
a RatT, the scalar itself with _d == 0; no entry is zero, so the top key
gives the degree.  A SuperNumber's dict is then a constant polynomial's,
so both classes take their ring operations from grassmann._Graded, whose
products are one pass of the product loop _accumulate and one gcd.
SuperPoly supplies the hooks _coerced, which takes a SuperPoly, a
SuperNumber or a scalar, and _make, the trusted constructor _poly; it
keeps _scalars, ==, eval (Horner's rule on the dict), divmod and printing,
and has no hash, inverse or negative power.  coeffs, the tuple of
SuperNumber coefficients, is built on first read only, for printing and
divmod; a coefficient read from it or from coeff(i) has the integer form
in lowest terms exactly when all its scalars are real Qi.

homog_subst runs Horner's rule in the two factors num and den, O(d^2)
coefficient products for the linear factors of a Moebius map, and keeps the
factor order num, den, coefficient in every term, so odd coefficients
anywhere come out with the right signs.  It works on the integer dicts of
the three polynomials and divides by one gcd at the end.

Coprimality is first decided by a modular certificate (coprime_bodies):
the two bodies are mapped into F_p[z] by a ring map that sends i to a
square root of -1 mod p and t to a fixed t0, and Euclid runs on the images
with machine-sized integers.  When every denominator and both leading
coefficients survive the map and the images have a constant gcd, the bodies
are coprime.  The certificate is one-sided: it never says "not coprime",
and where it does not apply the exact Euclid over Q(i) or Q(i)(t) decides.
This is the first step of Brown's modular gcd (J. ACM 18, 1971; von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 6).
"""

from __future__ import annotations

import math

from .grassmann import (
    MAX_GENERATORS,
    QI_ONE,
    GrassmannError,
    Qi,
    ScalarPoly,
    SuperNumber,
    _accumulate,
    _fields,
    _Graded,
    _lowest,
    _product,
    _scaled,
    dot,
    is_scalar,
)
from .scalars import _canonical, _int_poly, _new


# The points of the coprimality certificate, tried in turn: a prime
# p = 1 (mod 4), a square root r of -1 mod p, and the value t0 given to t.
CERTIFICATE_POINTS = ((1000000009, 430477711, 1000003),
                      (998244353, 86583718, 1234567))


def coprime_bodies(p: ScalarPoly, q: ScalarPoly) -> bool:
    """True when the two body polynomials share no root (unit gcd).

    Each point (prime, r, t0) of CERTIFICATE_POINTS gives a ring map from
    Z[i][t] onto F_prime, i -> r and t -> t0.  Let A be Z[i][t] localized
    at its kernel: a local UFD with fraction field Q(i)(t), whose elements
    are the scalars whose denominators do not map to zero.  If every
    coefficient of p and q lies in A and both leading coefficients map to
    nonzero values (so they are units of A), then by Gauss's lemma over A
    the monic gcd of p and q lies in A[z] and divides both there; its image
    is a monic common factor of the images, of the same degree.  So when
    Euclid in F_prime[z] ends in a constant, the bodies are coprime.  When
    no point certifies this, the exact gcd over Q(i) or Q(i)(t) decides, so
    every False comes from exact Euclid.
    """
    if p.is_zero() or q.is_zero():
        return not (p.is_zero() and q.is_zero())
    for prime, r, t0 in CERTIFICATE_POINTS:
        a = _fp_image(p, prime, r, t0)
        b = _fp_image(q, prime, r, t0)
        # both images exist and both leading coefficients survive
        if a and b and a[0] and b[0] and _fp_coprime(a, b, prime):
            return True
    return p.gcd(q).degree() == 0


def inverse_mod(a: ScalarPoly, f: ScalarPoly):
    """The s with deg s < deg f and a * s = 1 mod f, for deg f > 0, or None
    when a and f share a factor of positive degree.

    Extended Euclid keeping only the cofactor of a: every remainder r_k of
    f, a mod f, ... is s_k * a mod f, so the first constant one, c, gives
    s = s_k / c, and a zero one means the gcd came before it.
    """
    r0, r1 = f, a.divmod(f)[1]
    s0, s1 = ScalarPoly(), ScalarPoly((1,))
    while r1.degree() > 0:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r1.is_zero():
        return None
    return s1 * (1 / r1.lead())


def _fp_image(poly: ScalarPoly, prime, r, t0):
    """The coefficients of poly mapped to F_prime, leading coefficient
    first, or None when a denominator maps to zero.  An integer-form poly
    needs one inverse, of its common denominator."""
    d = poly._d
    if d:
        if not d % prime:
            return None
        inv = pow(d, -1, prime)
        return [a * inv % prime for a in reversed(poly._num)]
    out = []
    for c in reversed(poly._num):
        if type(c) is Qi:
            x = _fp_value(c, prime, r)
        else:
            num = _fp_at(c.num, prime, r, t0)
            den = _fp_at(c.den, prime, r, t0)
            x = None if num is None or not den else \
                num * pow(den, -1, prime) % prime
        if x is None:
            return None
        out.append(x)
    return out


def _fp_value(c: Qi, prime, r):
    """(a + b*r)/d mod prime for c = (a + b*i)/d, or None when prime | d."""
    d = c.d % prime
    if not d:
        return None
    x = c.a + c.b * r
    return x % prime if d == 1 else x * pow(d, -1, prime) % prime


def _fp_at(poly: ScalarPoly, prime, r, t0):
    """The image of poly(t0) in F_prime for poly over Q(i), or None."""
    image = _fp_image(poly, prime, r, t0)
    if image is None:
        return None
    acc = 0
    for x in image:
        acc = (acc * t0 + x) % prime
    return acc


def _fp_coprime(a, b, prime):
    """True when the polynomials a and b over F_prime, coefficient lists
    with a nonzero leading coefficient first, have a constant gcd."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a = list(a)
        nb = len(b)
        inv = pow(b[0], -1, prime)
        for k in range(len(a) - nb + 1):
            c = a[k] * inv % prime
            if c:
                for j in range(1, nb):
                    a[k + j] = (a[k + j] - c * b[j]) % prime
        rem = a[len(a) - nb + 1:]
        k = 0
        while k < len(rem) and not rem[k]:
            k += 1
        if k == len(rem):
            return False  # b divides a: a gcd of positive degree
        a, b = b, rem[k:]
    return True


def _poly(n, num, d):
    """Trusted constructor: the fields num, d in canonical form."""
    p = _new(SuperPoly)
    p.n = n
    p._num = num
    p._d = d
    p._coeffs = None
    return p


class SuperPoly(_Graded):
    """Univariate polynomial in z with SuperNumber coefficients, stored in
    one dict from term keys to int numerators over _d, or to scalars (see
    the module docstring); coeffs is built on first read."""

    __slots__ = ("_coeffs",)
    _make = staticmethod(_poly)

    def __init__(self, n, coeffs=()):
        self.n = n
        self._num, self._d = _gather(
            [SuperNumber.coerce(n, c) for c in coeffs])
        self._coeffs = None

    @staticmethod
    def _of(n, cs):
        """Trusted constructor: cs a list of SuperNumbers over n
        generators."""
        return _poly(n, *_gather(cs))

    @staticmethod
    def const(n, c):
        return SuperPoly(n, (c,))

    @staticmethod
    def zero(n):
        return SuperPoly(n)

    @staticmethod
    def linear(n, a0, a1):
        """The polynomial a0 + a1*z."""
        return SuperPoly(n, (a0, a1))

    @staticmethod
    def from_body(n, p: ScalarPoly):
        """The polynomial with the scalar coefficients of p."""
        if not p._d:
            return SuperPoly(n, p.coeffs)
        return _poly(n, {i * _Z: a for i, a in enumerate(p._num) if a}, p._d)

    @property
    def coeffs(self):
        cs = self._coeffs
        if cs is None:
            cs = self._coeffs = tuple([_number(self.n, self._d, b)
                                       for b in _blocks(self._num)])
        return cs

    def _scalars(self):
        """The dict from keys to scalar coefficients."""
        d = self._d
        if not d:
            return self._num
        return {k: _canonical(v, 0, d) for k, v in self._num.items()}

    def degree(self):
        return max(self._num) >> _SHIFT if self._num else -1

    def body_degree(self):
        """The degree of the body polynomial: the top power of z whose
        coefficient is invertible, or -1.  The body key of z^i is
        i << _SHIFT, so it is found by lookups from the top degree down."""
        num = self._num
        if num:
            for m in range(max(num) >> _SHIFT, -1, -1):
                if m << _SHIFT in num:
                    return m
        return -1

    def coeff(self, i):
        return _number(self.n, self._d, {k & _LOW: v for k, v in
                                         self._num.items()
                                         if k >> _SHIFT == i})

    def body_poly(self) -> ScalarPoly:
        out = [0] * (self.degree() + 1)
        for k, v in self._num.items():
            if not k & _LOW:
                out[k >> _SHIFT] = v
        return _int_poly(out, self._d) if self._d else ScalarPoly(out)

    def _coerced(self, other):
        if isinstance(other, SuperPoly):
            if other.n != self.n:
                raise GrassmannError("generator count mismatch in polynomials")
            return other
        if isinstance(other, SuperNumber) or is_scalar(other):
            # a SuperNumber's dict is a constant polynomial's
            return SuperNumber.coerce(self.n, other)
        return None

    def __eq__(self, other):
        if isinstance(other, SuperPoly):
            return self._same(other)
        return NotImplemented

    def eval(self, x):
        """The value at x, by Horner's rule on the dict.  In integer form,
        with x = X/e and m the degree, e^m times the value is A_0 / _d for
        A_m = C_m and A_i = A_(i+1) X + e^(m-i) C_i, so one gcd ends it."""
        x = SuperNumber.coerce(self.n, x)
        if not self._num:
            return SuperNumber.zero(self.n)
        if self._d and x._d:
            cs, X, e = _blocks(self._num), x._num, x._d
            d = self._d * e ** (len(cs) - 1)
        else:
            cs, X, e, d = _blocks(self._scalars()), x._scalars(), 1, 0
        acc, scale = {}, 1
        for c in reversed(cs):
            step = dict(c) if scale == 1 else {k: v * scale
                                               for k, v in c.items()}
            _accumulate(step, acc, X)
            acc, scale = step, scale * e
        num, d = _lowest(d, acc)
        return SuperNumber(self.n, num, d)

    def divmod(self, other):
        """Long division; the divisor's leading coefficient must have a body.

        With a divisor b of degree m, q_k = (a_(k+m) - sum_(j>k) q_j
        b_(k+m-j)) / b_m top down and r_i = a_i - sum_j q_j b_(i-j): one dot
        per coefficient, the quotient on the left as in a = q * b + r.
        """
        o = self._coerced(other)
        if o is None or o.is_zero():
            raise GrassmannError("polynomial division by zero")
        if isinstance(o, SuperNumber):
            o = SuperPoly._of(self.n, [o])
        if not o.coeffs[-1].is_invertible():
            raise GrassmannError("division needs an invertible leading "
                                 "coefficient")
        n, a, b = self.n, self.coeffs, o.coeffs
        m, shift = len(b) - 1, len(a) - len(b)
        if shift < 0:
            return SuperPoly(n), self
        inv = b[-1].invert()
        quo = [None] * (shift + 1)
        for k in range(shift, -1, -1):
            top = a[k + m] - dot(n, quo[k + 1:k + m + 1], b[m - 1::-1])
            quo[k] = top * inv
        rem = [a[i] - dot(n, quo[:i + 1], b[i::-1]) for i in range(m)]
        return SuperPoly._of(n, quo), SuperPoly._of(n, rem)

    def derivative(self):
        return _poly(self.n, *_lowest(self._d, {
            k - _Z: v * (k >> _SHIFT) for k, v in self._num.items()
            if k >= _Z}))

    def __str__(self):
        if not self._num:
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

    __repr__ = __str__


# A key's low byte is the monomial's mask, the bits above it the power of z.
_SHIFT = MAX_GENERATORS
_Z = 1 << _SHIFT
_LOW = _Z - 1


def _gather(cs):
    """(num, d) of the polynomial with the SuperNumber coefficients cs:
    the integer form over the lcm of their denominators, in lowest terms
    because each coefficient is, unless one of them has the scalar form;
    then _fields decides from all the scalars."""
    d = 1
    for c in cs:
        if not c._d:
            return _fields({i * _Z + k: v for i, c in enumerate(cs)
                            for k, v in c._scalars().items()})
        if d % c._d:
            d = d // math.gcd(d, c._d) * c._d
    return {i * _Z + k: v * (d // c._d) for i, c in enumerate(cs)
            for k, v in c._num.items()}, d


def _blocks(num):
    """The values of num as dicts from masks, one per power of z, z^0
    first, up to the top power."""
    out = [{} for _ in range((max(num) >> _SHIFT) + 1 if num else 0)]
    for k, v in num.items():
        out[k >> _SHIFT][k & _LOW] = v
    return out


def _number(n, d, terms):
    """The SuperNumber with the mask-keyed coefficients terms, ints over d
    or, for d == 0, scalars: in integer form and lowest terms exactly when
    every scalar is a real Qi."""
    if d:
        return SuperNumber(n, *_lowest(d, terms))
    num, d = _fields(terms)
    x = SuperNumber(n, num, d)
    x._scalar_terms = terms
    return x


def homog_subst(poly: SuperPoly, num: SuperPoly, den: SuperPoly, total: int) -> SuperPoly:
    """Substitute z -> num/den and clear denominators up to degree `total`.

    Returns sum_j num^j * den^(total - j) * c_j, the standard way a Moebius
    change of coordinate acts on a polynomial regarded as a degree-`total`
    form.  `total` must be at least the degree of `poly`.

    Horner's rule in the two factors: starting from den^(total - m) * c_m,
    m the degree, each step multiplies the sum by num from the left and adds
    den^(total - j) * c_j, so every term keeps its factor order (num, then
    den, then c_j) and the sum stays exact for odd coefficients; with
    linear num and den that is O(d^2) coefficient products.  In integer
    form num = N/e and den = D/e over e, the lcm of their denominators, and
    the sum is homogeneous of degree `total` in (num, den), so it runs on
    the integer dicts of N, D and poly and is divided by one gcd at the end.
    """
    if total < poly.degree():
        raise GrassmannError("substitution bound below polynomial degree")
    n = poly.n
    if poly.is_zero():
        return SuperPoly.zero(n)
    if poly._d and num._d and den._d:
        e = math.lcm(num._d, den._d)
        N, D = _scaled(num, e // num._d), _scaled(den, e // den._d)
        terms, d, den_pow = poly._num, e ** total * poly._d, {0: 1}
    else:
        N, D, terms = num._scalars(), den._scalars(), poly._scalars()
        d, den_pow = 0, {0: QI_ONE}
    cs = _blocks(terms)
    for _ in range(total - len(cs) + 1):
        den_pow = _product(den_pow, D)
    acc = _product(den_pow, cs[-1])
    for c in reversed(cs[:-1]):
        den_pow = _product(den_pow, D)
        step = {}
        _accumulate(step, N, acc)
        if c:
            _accumulate(step, den_pow, c)
        acc = step
    return _poly(n, *_lowest(d, acc))


def even_wronskian(P: SuperPoly, Q: SuperPoly) -> SuperPoly:
    """P'Q - PQ' for P and Q with even coefficients, in one product pass.

    Even coefficients commute, so the sum is sum_(i > j) (i - j)(p_i q_j -
    p_j q_i) z^(i+j-1): each coefficient of P meets each coefficient of Q
    of another degree once, weighted by the difference of the degrees, and
    the products p_i q_i, which cancel in P'Q - PQ', are never formed.
    """
    if P._d and Q._d:
        pn, qn = P._num, Q._num
    else:
        pn, qn = P._scalars(), Q._scalars()
    rows = {}
    for k, v in pn.items():
        rows.setdefault(k >> _SHIFT, {})[k] = v
    out = {}
    for i, row in rows.items():
        _accumulate(out, row, {k: (i - (k >> _SHIFT)) * v
                               for k, v in qn.items() if k >> _SHIFT != i})
    # p_i q_j sits at the key of z^(i+j); its power is z^(i+j-1)
    return _poly(P.n, *_lowest(P._d * Q._d,
                               {k - _Z: v for k, v in out.items()}))


def reverse_coeffs(poly: SuperPoly, total: int) -> SuperPoly:
    """The degree-`total` reversal z^total * poly(1/z): the coefficients
    flipped."""
    return _reflected(poly, total, 0)


def chart2_poly(poly: SuperPoly, total: int) -> SuperPoly:
    """The second-chart form of a degree-`total` polynomial: substitute
    z -> -1/z and clear z^total, giving sum_j (-1)^j c_j z^(total - j),
    the reversal of poly(-z)."""
    return _reflected(poly, total, _Z)


def _reflected(poly, total, flip):
    """z^total * poly(1/z), with the coefficients of the odd powers of z
    negated when flip is _Z (and none when it is 0)."""
    if total < poly.degree():
        raise GrassmannError("reversal bound below polynomial degree")
    return _poly(poly.n, {(total - (k >> _SHIFT)) * _Z + (k & _LOW):
                          -v if k & flip else v
                          for k, v in poly._num.items()}, poly._d)
