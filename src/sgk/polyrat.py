"""Polynomials with SuperNumber coefficients.

SuperPoly carries full Grassmann coefficients and provides the evaluation,
derivative, and homogeneous-substitution operations that curve and bundle
actions are built from.  Its body is a grassmann.ScalarPoly, the dense
polynomial over the scalar field (Gaussian rationals, possibly with the
transcendental t), and coprimality checks run on those bodies.

homog_subst runs Horner's rule in the two factors num and den, O(d^2)
coefficient products for the linear factors of a Moebius map, and keeps the
factor order num, den, coefficient in every term, so odd coefficients
anywhere come out with the right signs.

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

from .grassmann import (
    GrassmannError,
    Qi,
    ScalarPoly,
    SuperNumber,
    dot,
    is_scalar,
    square_and_multiply,
)
from .scalars import _new


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


class SuperPoly:
    """Dense univariate polynomial in z with SuperNumber coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=()):
        self.n = n
        cs = [SuperNumber.coerce(n, c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _of(n, cs):
        """Trusted constructor: cs a list of SuperNumbers over n generators;
        trailing zeros are dropped."""
        while cs and cs[-1].is_zero():
            cs.pop()
        p = _new(SuperPoly)
        p.n = n
        p.coeffs = tuple(cs)
        return p

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

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return SuperNumber.zero(self.n)

    def body_poly(self) -> ScalarPoly:
        return ScalarPoly([c.body() for c in self.coeffs])

    def map_coeffs(self, f):
        return SuperPoly(self.n, [f(c) for c in self.coeffs])

    def _coerced(self, other):
        if isinstance(other, SuperPoly):
            if other.n != self.n:
                raise GrassmannError("generator count mismatch in polynomials")
            return other
        if isinstance(other, SuperNumber) or is_scalar(other):
            return SuperPoly.const(self.n, other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        a, b = list(self.coeffs), list(o.coeffs)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] = a[i] + c
        return SuperPoly._of(self.n, a)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly._of(self.n, [-c for c in self.coeffs])

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

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return SuperPoly._of(self.n, [])
        # a constant factor scales the other one's coefficients, still from
        # its own side
        if len(a) == 1:
            c = a[0]
            return SuperPoly._of(self.n, [c * y for y in b])
        if len(b) == 1:
            c = b[0]
            return SuperPoly._of(self.n, [x * c for x in a])
        out = []
        for k in range(len(a) + len(b) - 1):
            # coefficient k is the sum of a[i] * b[k - i]
            lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
            out.append(dot(self.n, a[lo:hi + 1],
                           [b[k - i] for i in range(lo, hi + 1)]))
        return SuperPoly._of(self.n, out)

    def __rmul__(self, other):
        # left and right products differ for odd cofactors; SuperNumber
        # multiplication carries the signs, so order just has to be kept
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return square_and_multiply(self, k, SuperPoly.const(self.n, 1))

    def __eq__(self, other):
        if isinstance(other, SuperPoly):
            return self.n == other.n and self.coeffs == other.coeffs
        return NotImplemented

    def eval(self, x):
        x = SuperNumber.coerce(self.n, x)
        out = SuperNumber.zero(self.n)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def divmod(self, other):
        """Long division; the divisor's leading coefficient must have a body.

        With a divisor b of degree m, q_k = (a_(k+m) - sum_(j>k) q_j
        b_(k+m-j)) / b_m top down and r_i = a_i - sum_j q_j b_(i-j): one dot
        per coefficient, the quotient on the left as in a = q * b + r.
        """
        o = self._coerced(other)
        if o is None or o.is_zero():
            raise GrassmannError("polynomial division by zero")
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
        return SuperPoly(self.n, [self.coeffs[i] * Qi(i)
                                  for i in range(1, len(self.coeffs))])

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

    __repr__ = __str__


def homog_subst(poly: SuperPoly, num: SuperPoly, den: SuperPoly, total: int) -> SuperPoly:
    """Substitute z -> num/den and clear denominators up to degree `total`.

    Returns sum_j num^j * den^(total - j) * c_j, the standard way a Moebius
    change of coordinate acts on a polynomial regarded as a degree-`total`
    form.  `total` must be at least the degree of `poly`.

    Horner's rule in the two factors: starting from den^(total - m) * c_m,
    m the degree, each step multiplies the sum by num from the left and adds
    den^(total - j) * c_j, so every term keeps its factor order (num, then
    den, then c_j) and the sum stays exact for odd coefficients; with
    linear num and den that is O(d^2) coefficient products.
    """
    if total < poly.degree():
        raise GrassmannError("substitution bound below polynomial degree")
    if poly.is_zero():
        return SuperPoly.zero(poly.n)
    cs = poly.coeffs
    den_pow = den ** (total - len(cs) + 1)
    acc = den_pow * cs[-1]
    for c in reversed(cs[:-1]):
        den_pow = den_pow * den
        acc = num * acc
        if not c.is_zero():
            acc = acc + den_pow * c
    return acc


def reverse_coeffs(poly: SuperPoly, total: int) -> SuperPoly:
    """The degree-`total` reversal z^total * poly(1/z) (coefficients flipped)."""
    if total < poly.degree():
        raise GrassmannError("reversal bound below polynomial degree")
    zero = SuperNumber.zero(poly.n)
    cs = [zero] * (total + 1)
    for i, c in enumerate(poly.coeffs):
        cs[total - i] = c
    return SuperPoly(poly.n, cs)


def chart2_poly(poly: SuperPoly, total: int) -> SuperPoly:
    """The second-chart form of a degree-`total` polynomial: substitute
    z -> -1/z and clear z^total, giving sum_j (-1)^j c_j z^(total - j),
    the reversal of poly(-z)."""
    alternating = [-c if j & 1 else c for j, c in enumerate(poly.coeffs)]
    return reverse_coeffs(SuperPoly(poly.n, alternating), total)
