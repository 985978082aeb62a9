"""Exact arithmetic in a complex Grassmann algebra with few generators.

Values are elements of Lambda_n (x) C for 0 <= n <= 8, written on the basis
of products of anticommuting generators g1, ..., gn, with the exact scalars
of sgk.scalars as coefficients (Gaussian rationals Qi, and rational
functions RatT in one parameter t); this module re-exports those names.

A SuperNumber built from real Qi coefficients is stored in integer form,
the layout of FLINT's fmpq_poly: one common denominator d > 0 and one
integer numerator per nonzero term, keyed by the monomial's int bitmask,
bit i - 1 standing for g_i.  The form is canonical, gcd(d, every numerator)
== 1, so two values in integer form are equal exactly when their fields
are.  A value with an imaginary part or a RatT coefficient keeps a dict
from masks to scalars instead (d == 0), and so does every result of
arithmetic with such an operand, even when its coefficients come out real.
SuperNumber.terms is a read-only mapping from increasing index tuples to
Qi/RatT coefficients, converted on demand, in the order the terms were
made; a sum that reaches zero deletes its term at once, so a term made
again later goes to the end.

polyrat.SuperPoly keeps the same two forms, with the key (i << 8) | mask
for the term z^i g_mask, so a SuperNumber's dict is a constant
polynomial's.  _accumulate is the one product loop of both classes: keys
ka, kb multiply when ka & 0xFF & kb == 0, to the key ka + kb, with the
sign of g_ka * g_kb read off a row of bytes built for the low byte of ka on
first use (_sign_row).  It runs on ints or on scalars; _sum and _times are
the sums and products of both classes, divided by one gcd (_lowest).  The
base class _Graded holds the ring operations of both once (+, -, *,
negation, ** k for k >= 0, soul, the parity tests, the field comparison);
each class supplies the hooks _coerced, which takes the other operand and
raises its own mismatch error, and _make, its trusted constructor.
_scalars, ==, negative powers and the constructors stay per class.

The public SuperNumber constructor validates indices and coefficients;
results the class builds itself and the constructors scalar, zero and one
(and coerce, through scalar) pass their fields positionally to the same
__init__, which skips the checks; those constructors still check n and
coerce and drop a zero scalar.  The random generators build through it
too (_random_sum), and draw every integer through _below.  A product with
a body-only operand scales the other operand's numerators, and the inverse
of a body-only value is the scalar inverse.

dot(n, xs, ys) returns x1*y1 + x2*y2 + ... as one SuperNumber,
accumulating every product over the lcm of the pairs' denominators into a
single dict, so no SuperNumber is built per product or per partial sum.
The left factor of each product comes from xs, which fixes the signs of
odd-by-odd terms.  Group products, point actions, SuperPoly division and
the Grassmann linear solver are built on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

from .scalars import (  # noqa: F401  (re-exported scalar layer)
    QI_I,
    QI_ONE,
    QI_ZERO,
    T_PARAM,
    GrassmannError,
    Qi,
    QiPoly,
    RatT,
    Scalar,
    ScalarPoly,
    as_scalar,
    is_scalar,
    make_rat,
    scalar_is_zero,
    scalar_lex_positive,
    scalar_sqrt,
    square_and_multiply,
)
from .scalars import _canonical


MAX_GENERATORS = 8


# ---------------------------------------------------------------------------
# Grassmann numbers


# A monomial is an int bitmask, bit i - 1 standing for g_i.  _KEYS[m] is the
# increasing index tuple of mask m and _MASKS maps the tuple back.  The
# byte tables _ODD, _EVEN and _SOUL select masks by degree: odd, even,
# nonzero.
def _index_tuples():
    keys = [()]
    for g in range(1, MAX_GENERATORS + 1):
        # a mask with top bit g - 1 is a lower mask with g appended
        keys += [k + (g,) for k in keys]
    return tuple(keys)


_KEYS = _index_tuples()
_MASKS = {k: m for m, k in enumerate(_KEYS)}
_ODD = bytes(len(k) & 1 for k in _KEYS)
_EVEN = bytes(1 - p for p in _ODD)
_SOUL = bytes(1 if m else 0 for m in range(1 << MAX_GENERATORS))

# _SIGNS[ka][kb] is 1 when g_ka * g_kb = -g_(ka|kb) for disjoint ka and kb,
# that is when an odd number of pairs i in ka, j in kb have i > j.  A row is
# built by _sign_row when a product first needs it.
_SIGNS = [None] * (1 << MAX_GENERATORS)


def _sign_row(ka):
    # the sign parity is a sum over the generators j of kb of the parity of
    # the generators of ka above j
    above = [bin(ka >> (j + 1)).count("1") & 1 for j in range(MAX_GENERATORS)]
    row = bytearray(1 << MAX_GENERATORS)
    for kb in range(1, len(row)):
        low = kb & -kb
        row[kb] = row[kb ^ low] ^ above[low.bit_length() - 1]
    row = _SIGNS[ka] = bytes(row)
    return row


def _accumulate(out, ta, tb):
    """Add the product of the coefficient dicts ta and tb, ta on the left,
    into out, deleting every coefficient whose sum reaches zero.

    A key's low byte is a monomial's mask and its higher bits a power of z
    (none for a SuperNumber), so two keys with disjoint masks multiply to
    their sum.  The coefficients may be ints, Qi or RatT values: the loop
    only multiplies, adds, negates and tests them for zero."""
    get = out.get
    other_terms = tb.items()
    for ka, va in ta.items():
        ma = ka & 0xFF
        signs = _SIGNS[ma]
        if signs is None:
            signs = _sign_row(ma)
        for kb, vb in other_terms:
            if ma & kb:
                continue
            key = ka + kb
            c = va * vb
            prev = get(key)
            if prev is None:
                out[key] = -c if signs[kb & 0xFF] else c
                continue
            s = prev - c if signs[kb & 0xFF] else prev + c
            if s:
                out[key] = s
            else:
                del out[key]


def _product(ta, tb):
    """The coefficient dict of the product of the coefficient dicts ta and
    tb, ints or scalars.  A body-only factor scales the other one: every
    monomial product is trivial, and a product of nonzero coefficients is
    nonzero."""
    if len(ta) == 1 and 0 in ta:
        s = ta[0]
        return {k: s * v for k, v in tb.items()}
    if len(tb) == 1 and 0 in tb:
        s = tb[0]
        return {k: v * s for k, v in ta.items()}
    out = {}
    _accumulate(out, ta, tb)
    return out


def _lowest(d, num):
    """(num, d) for the integer form num / d, divided by the gcd of d and
    every numerator; the scalar form (d == 0) comes back unchanged."""
    if d > 1:
        g = d
        for v in num.values():
            g = math.gcd(g, v)
            if g == 1:
                return num, d
        d //= g
        num = {k: v // g for k, v in num.items()}
    return num, d


def _scaled(x, f):
    """The numerators of the integer-form x, times f."""
    return x._num if f == 1 else {k: v * f for k, v in x._num.items()}


def _times(x, y):
    """(num, d) of x * y, x and y SuperNumbers or SuperPolys: one pass of
    the product loop, on ints when both have the integer form."""
    if not (x._num and y._num):
        return {}, 1
    d = x._d * y._d
    if d == 1:
        return _product(x._num, y._num), 1
    if not d:
        return _product(x._scalars(), y._scalars()), 0
    return _lowest(d, _product(x._num, y._num))


def _sum(x, y):
    """(num, d) of x + y, x and y SuperNumbers or SuperPolys.  Over the lcm
    of two canonical denominators a sum of disjoint terms is canonical, so
    only a sum with shared keys needs _lowest.  On scalars, a term new to x
    is added to 0, which collapses a RatT constant such as RatT.lift(2)."""
    da, db = x._d, y._d
    # x + 0 keeps the fields of x; 0 + y on scalars may collapse a RatT
    if not y._num:
        return x._num, da
    if not x._num and db:
        return y._num, db
    if not (da and db):
        out = dict(x._scalars())
        for k, v in y._scalars().items():
            prev = out.get(k)
            if prev is None:
                out[k] = v if type(v) is Qi else QI_ZERO + v
                continue
            s = prev + v
            if s:
                out[k] = s
            else:
                del out[k]
        return out, 0
    if da == db:
        d, fb = da, 1
        out = dict(x._num)
    else:
        d = da // math.gcd(da, db) * db
        fa, fb = d // da, d // db
        out = _scaled(x, fa) if fa != 1 else dict(x._num)
    shared = False
    get = out.get
    for k, v in y._num.items():
        if fb != 1:
            v *= fb
        prev = get(k)
        if prev is not None:
            shared = True
            v += prev
            if not v:
                del out[k]
                continue
        out[k] = v
    return _lowest(d, out) if shared else (out, d)


def _check_generators(n):
    if not isinstance(n, int) or not 0 <= n <= MAX_GENERATORS:
        raise GrassmannError(
            "generator count must be an integer between 0 and %d, got %r"
            % (MAX_GENERATORS, n))


def _fields(terms):
    """(numerators, denominator) of the value with the mask-keyed nonzero
    scalar coefficients `terms`: the integer form when every coefficient is
    a real Qi, else (terms, 0)."""
    d = 1
    for v in terms.values():
        if type(v) is not Qi or v.b:
            return terms, 0
        if d % v.d:
            d = d // math.gcd(d, v.d) * v.d
    # over the least common denominator no prime divides every numerator,
    # since it would divide the numerator and the denominator of one Qi
    return {k: v.a * (d // v.d) for k, v in terms.items()}, d


class _TermsView(Mapping):
    """A SuperNumber's terms: a read-only mapping from increasing index
    tuples to its nonzero coefficients (Qi or RatT), in the order its terms
    were made.  Coefficients are converted when they are read."""

    __slots__ = ("_x",)

    def __init__(self, x):
        self._x = x

    def __len__(self):
        return len(self._x._num)

    def __iter__(self):
        return map(_KEYS.__getitem__, self._x._num)

    def __contains__(self, idx):
        return _MASKS.get(idx, -1) in self._x._num

    def __getitem__(self, idx):
        m = _MASKS.get(idx, -1)
        if m not in self._x._num:
            raise KeyError(idx)
        return self._x._coeff(m)

    def _dict(self):
        return {_KEYS[k]: v for k, v in self._x._scalars().items()}

    def items(self):
        return self._dict().items()

    def values(self):
        return self._x._scalars().values()

    def __repr__(self):
        return repr(self._dict())


class _Graded:
    """The ring operations of SuperNumber and polyrat.SuperPoly on their
    shared fields n, _d and _num.  A subclass supplies _coerced(other), the
    other operand as a value of the class or a SuperNumber over the same n,
    or None for a type it does not take, and _make(n, num, d), its trusted
    constructor, for results.  A SuperNumber does not take a SuperPoly, so a
    mixed operation falls through to the SuperPoly's reflected method."""

    __slots__ = ("n", "_d", "_num")

    def is_zero(self):
        return not self._num

    def is_even(self):
        for k in self._num:
            if _ODD[k & 0xFF]:
                return False
        return True

    def is_odd(self):
        for k in self._num:
            if not _ODD[k & 0xFF]:
                return False
        return True

    def _part(self, keep):
        """The sum of the terms whose masks m have keep[m] set."""
        num = {k: v for k, v in self._num.items() if keep[k & 0xFF]}
        return self._make(self.n, *_lowest(self._d, num))

    def _signed(self, flip):
        """The value with the terms whose masks m have flip[m] set negated."""
        num = {k: -v if flip[k & 0xFF] else v for k, v in self._num.items()}
        return self._make(self.n, num, self._d)

    def soul(self):
        return self._part(_SOUL)

    def __neg__(self):
        return self._make(self.n, {k: -v for k, v in self._num.items()},
                          self._d)

    def __add__(self, other):
        o = other if type(other) is type(self) and other.n == self.n \
            else self._coerced(other)
        if o is None:
            return NotImplemented
        num, d = _sum(self, o)
        return self._make(self.n, num, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is type(self) and other.n == self.n \
            else self._coerced(other)
        if o is None:
            return NotImplemented
        num, d = _sum(self, -o)
        return self._make(self.n, num, d)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._make(self.n, *_sum(o, -self))

    def __mul__(self, other):
        o = other if type(other) is type(self) and other.n == self.n \
            else self._coerced(other)
        if o is None:
            return NotImplemented
        num, d = _times(self, o)
        return self._make(self.n, num, d)

    def __rmul__(self, other):
        # other is the left factor, which fixes the signs of odd-by-odd terms
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        num, d = _times(o, self)
        return self._make(self.n, num, d)

    def __pow__(self, k):
        """self ** k for an int k >= 0; for k < 0 the power of the inverse
        of a SuperNumber, since a SuperPoly has no inverse."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if not isinstance(self, SuperNumber):
                return NotImplemented
            return self.invert() ** -k
        return square_and_multiply(self, k, self._make(self.n, {0: 1}, 1))

    def _same(self, other):
        """self == other for another value of the class: the fields when
        both have the integer form, else the scalars."""
        if self.n != other.n:
            return False
        if self._d and other._d:
            return self._d == other._d and self._num == other._num
        return self._scalars() == other._scalars()


class SuperNumber(_Graded):
    """An element of Lambda_n (x) C with exact scalar coefficients.

    A value built from real Qi coefficients, and every result of arithmetic
    on such values, has the integer form: one denominator _d > 0 and, in
    _num, one int numerator per nonzero term, keyed by the monomial's
    bitmask in the order the terms were made.  The form is canonical: no
    numerator is zero and gcd(_d, every numerator) == 1.  A value with an
    imaginary part or a RatT coefficient anywhere, and every result of
    arithmetic with such a value, has _d == 0 and keeps its nonzero
    scalars, keyed the same way, in _num; == compares the scalars whenever
    one side has this form.  The terms property reads either as a mapping
    from index tuples to scalars.  _scalar_terms is that dict from masks to
    scalars once it exists: _num itself for the scalar form, and for the
    integer form the Qi coefficients it was built from by the public
    constructor or scalar, or else the ones converted on first use.

    The public constructor SuperNumber(n, terms) validates n, every index
    tuple and every coefficient, and drops zero coefficients.  Results the
    class builds itself pass their fields, SuperNumber(n, _num, _d), which
    already satisfy those invariants and skip the checks; so do the results
    of the ring operations from _Graded, whose _make is the class itself.
    """

    __slots__ = ("_scalar_terms",)

    def __init__(self, n, terms=None, _den=None):
        if _den is not None:
            self.n = n
            self._num = terms
            self._d = _den
            self._scalar_terms = None if _den else terms
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
                clean[_MASKS[idx]] = coeff
        self._num, self._d = _fields(clean)
        self._scalar_terms = clean

    # -- constructors

    @staticmethod
    def scalar(n, c):
        _check_generators(n)
        if type(c) is not Qi:
            c = as_scalar(c)
            if type(c) is not Qi:
                if c.is_zero():
                    return SuperNumber(n, {}, 1)
                return SuperNumber(n, {0: c}, 0)
        if c.b:
            return SuperNumber(n, {0: c}, 0)
        if not c.a:
            return SuperNumber(n, {}, 1)
        x = SuperNumber(n, {0: c.a}, c.d)
        x._scalar_terms = {0: c}
        return x

    @staticmethod
    def zero(n):
        _check_generators(n)
        return SuperNumber(n, {}, 1)

    @staticmethod
    def one(n):
        _check_generators(n)
        return SuperNumber(n, {0: 1}, 1)

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

    # -- coefficients

    terms = property(_TermsView)

    def _coeff(self, m):
        """The coefficient of the monomial with mask m."""
        made = self._scalar_terms
        if made is not None:
            return made.get(m, QI_ZERO)
        v = self._num.get(m)
        return QI_ZERO if v is None else _canonical(v, 0, self._d)

    def _scalars(self):
        """The coefficients as a dict from masks to scalars, made once."""
        out = self._scalar_terms
        if out is None:
            d = self._d
            out = {k: _canonical(v, 0, d) for k, v in self._num.items()}
            self._scalar_terms = out
        return out

    # -- structure queries

    def body(self):
        return self._coeff(0)

    def is_invertible(self):
        """True when the body is nonzero; no scalar is built."""
        return 0 in self._num

    def parity(self):
        """0 for even, 1 for odd, None for mixed; zero counts as even."""
        ps = set(map(_ODD.__getitem__, self._num))
        if not ps:
            return 0
        if len(ps) > 1:
            return None
        return ps.pop()

    def even_part(self):
        return self._part(_EVEN)

    def odd_part(self):
        return self._part(_ODD)

    def parity_split(self):
        return self.even_part(), self.odd_part()

    def grade_flip(self):
        """The grade involution: odd terms change sign."""
        return self._signed(_ODD)

    def coeff(self, idx):
        m = _MASKS.get(tuple(idx))
        return QI_ZERO if m is None else self._coeff(m)

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

    def invert(self):
        """Multiplicative inverse; requires an invertible body."""
        b = self.body()
        if scalar_is_zero(b):
            raise GrassmannError("not invertible: body is zero")
        binv = 1 / b
        if len(self._num) == 1:
            return SuperNumber.scalar(self.n, binv)
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
                "no exact square root for body %s" % b)
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
            return self._same(other)
        if is_scalar(other):
            return self._same(SuperNumber.scalar(self.n, other))
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    def _term_str(self, idx, coeff):
        mono = "*".join("g%d" % i for i in idx)
        if not idx:
            return str(coeff)
        if coeff == QI_ONE:
            return mono
        if coeff == Qi(-1):
            return "-" + mono
        return "%s*%s" % (coeff, mono)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = self._scalars()
        keys = sorted(terms, key=lambda m: (len(_KEYS[m]), _KEYS[m]))
        parts = [self._term_str(_KEYS[m], terms[m]) for m in keys]
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self):
        return "<%s | n=%d>" % (self, self.n)


SuperNumber._make = SuperNumber


# ---------------------------------------------------------------------------
# The sum-of-products kernel


def dot(n, xs, ys) -> SuperNumber:
    """The sum of x * y over the pairs of zip(xs, ys), as one SuperNumber.

    The left factor of each product comes from xs, which fixes the signs of
    odd-by-odd products.  All pairs accumulate into one coefficient dict
    through the loop the product itself runs, so the result equals
    sum((x * y for x, y in zip(xs, ys)), SuperNumber.zero(n)) without
    building a SuperNumber per product or per partial sum.  When every entry
    has the integer form, the lcm d of the pairs' denominators is computed
    first and each pair's left numerators are scaled by d // (x._d * y._d),
    so every product is summed over d; otherwise every pair runs on its
    scalar coefficients.  Every entry must be a SuperNumber over n
    generators.
    """
    _check_generators(n)
    pairs = list(zip(xs, ys))
    d = 1
    for x, y in pairs:
        if x.n != n or y.n != n:
            if x.n != y.n:
                raise GrassmannError(
                    "generator count mismatch: %d vs %d" % (x.n, y.n))
            raise GrassmannError(
                "generator count mismatch: %d vs %d" % (n, x.n))
        dp = x._d * y._d
        if not dp:
            d = 0
        elif d and d % dp:
            d = d // math.gcd(d, dp) * dp
    out = {}
    if not d:
        for x, y in pairs:
            if x._num and y._num:
                _accumulate(out, x._scalar_terms or x._scalars(),
                            y._scalar_terms or y._scalars())
        return SuperNumber(n, out, 0)
    # every pair is summed over d, the lcm of the pairs' denominators
    for x, y in pairs:
        if x._num and y._num:
            _accumulate(out, _scaled(x, d // (x._d * y._d)), y._num)
    return SuperNumber(n, *_lowest(d, out))


# ---------------------------------------------------------------------------
# Randomized element generators (used by tests and the paper suite)


def _below(rng, k):
    """A uniform int in 0..k - 1 for k >= 1, drawn as CPython's Random draws
    randrange(k): k.bit_length() bits from rng.getrandbits, drawn again while
    they read k or more.  rng.randint(a, b) is a + _below(rng, b - a + 1) and
    rng.choice(seq) is seq[_below(rng, len(seq))], so every generator here
    reads the same stream as those calls, through getrandbits alone."""
    bits = k.bit_length()
    r = rng.getrandbits(bits)
    while r >= k:
        if k < 1:
            raise ValueError("empty range for a draw below %d" % k)
        r = rng.getrandbits(bits)
    return r


@functools.cache
def _qi_tables():
    """(reals, gaussians): every value random_qi returns, by its draws.
    The draws p in -4..4 and q in (1, 1, 2, 3) give reals[4 i + j] = p/q for
    their indices i, j; with r in -3..3 and s in (1, 2) as well they give
    gaussians[14 (4 i + j) + 2 k + l] = p/q + (r/s) i.  Built on the first
    draw; a Qi is immutable, so the draws share them."""
    ps, qs, rs, ss = range(-4, 5), (1, 1, 2, 3), range(-3, 4), (1, 2)
    # p/q + (r/s) i over the denominator q*s
    reals = tuple([_canonical(p, 0, q) for p in ps for q in qs])
    gaussians = tuple([_canonical(p * s, r * q, q * s) for p in ps
                       for q in qs for r in rs for s in ss])
    return reals, gaussians


def random_qi(rng, nonzero=False):
    """A Gaussian rational p/q, p in -4..4 and q in (1, 1, 2, 3), plus
    (r/s) i, r in -3..3 and s in (1, 2), with probability 1/4; drawn again
    while zero when nonzero.  The rng is read in the order p, q, the
    probability draw, r, s."""
    reals, gaussians = _qi_tables()
    while True:
        i = 4 * _below(rng, 9) + _below(rng, 4)
        if rng.random() < 0.25:
            x = gaussians[14 * i + 2 * _below(rng, 7) + _below(rng, 2)]
        else:
            x = reals[i]
        if not nonzero or x.a or x.b:
            return x


@functools.cache
def _draw_masks(n, parity):
    """The masks random_supernumber draws from: the empty mask unless the
    parity is odd, then the subsets of 1..n by size, in lexicographic order
    of their index tuples within a size, keeping the sizes of that parity."""
    masks = [0] if parity in (0, None) else []
    for size in range(1, n + 1):
        if parity is None or size % 2 == parity:
            masks += [_MASKS[s] for s in
                      itertools.combinations(range(1, n + 1), size)]
    return tuple(masks)


def _random_sum(rng, n, masks, count):
    """The SuperNumber of count draws, each a mask of masks and a random_qi
    coefficient; a mask drawn again keeps its place and takes the later
    coefficient, and zero coefficients are dropped at the end, as the
    public constructor drops them from a dict built the same way."""
    terms = {}
    for _ in range(count):
        # the mask is drawn first: an assignment evaluates its right side
        # before the subscript on its left
        m = masks[_below(rng, len(masks))]
        terms[m] = random_qi(rng)
    clean = {m: c for m, c in terms.items() if c.a or c.b}
    x = SuperNumber(n, *_fields(clean))
    x._scalar_terms = clean
    return x


def random_supernumber(rng, n, parity=None, max_terms=3, invertible=False):
    """A random element, optionally of pure parity or with invertible body.

    Each of 1..max_terms draws picks a monomial of the wanted parity and a
    random_qi coefficient, so a value asked for with a parity has it when
    built; an odd value then drops the body that invertible adds.
    """
    _check_generators(n)
    masks = _draw_masks(n, parity)
    count = 1 + _below(rng, max_terms)
    x = _random_sum(rng, n, masks, count if masks else 0)
    if invertible:
        b = Qi((1, 2, -1, 3)[_below(rng, 4)], 0)
        x = x.soul() + SuperNumber.scalar(n, b)
        if parity == 1:
            x = x.odd_part()
    return x
