"""Command-line front end.

A small expression language over the package's values (Grassmann numbers,
group matrices, points, sections, curves, configurations, trees), a script
runner with assertion reports, a REPL, and the `verify-paper` command, which
runs the exact checks of sgk.paper.  The parser is hand-written recursive
descent: the grammar is small and error spans should point at the offending
token.

Grammar sketch (statements are separated by semicolons and by newlines
outside brackets; tokenize drops a newline inside brackets):

    statement  = "set" "generators" NUM
               | "let" IDENT "=" expr
               | "assert_eq" "(" expr "," expr ")"
               | "assert_zero" "(" expr ")"
               | "assert_error" "(" expr ")"
               | expr
    expr       = term (("+" | "-") term)*
    term       = unary (("*" | "/") unary)*
    unary      = ("-" | "+") unary | power
    power      = atom ("^" unary)?
    atom       = NUM | NUM"i" | "(" expr ")" | list | point | IDENT
               | IDENT "(" args ")" | literal
    list       = "[" (expr ("," expr)*)? "]"
    point      = "[" expr ":" expr (":" expr)? "]"
    literal    = "sc" 3x3-rows | "sl2" 2x2-rows
               | "sec" "(" NUM ";" expr ("," expr)* ")"
               | "chart1" "(" expr ";" expr ")" | "chart2" ...
               | "curve" "(" NUM ";" "phi" "=" expr ";" "psi" "=" expr ")"
               | "cfg" "(" "points" "=" expr ";" "curve" "=" expr ")"
               | "tree" "(" NUM ";" "edges" "=" expr ";" "marks" "=" expr
                         ";" "degrees" "=" expr ")"
               | "treecfg" "(" "tree" "=" expr ";" "nodal" "=" expr ";"
                           "marked" "=" expr ";" "curves" "=" expr ")"

The literals with fields in parentheses (`chart1`, `chart2`, `curve`, `cfg`,
`tree`, `treecfg`) share one parsing rule, driven by the _FIELD_LITERALS
table.  Every literal is evaluated by one rule: its fields are evaluated,
then the builder that _LITERALS gives for its head checks their types and
builds the value.  Likewise the built-in functions are the keys of
_FUNCTIONS, which gives each one its implementation and the type each
argument must have; `act`, `torus` and `reduce` choose the library function
by the type of their last argument.

Inside a `curve` literal the name `z` is the coordinate; `t` is always the
transcendental scalar parameter, `g1` .. `g8` the odd generators.

An error of the library raised while an expression is evaluated is reported
at the operator, at the literal's head, or, prefixed by the function's name,
at the call that raised it; one raised while an assertion compares its
values, at the assertion's keyword.  Expressions nest at most MAX_NESTING
levels deep (each "(", "[", sign and exponent is one level); deeper input is
a syntax error.  An exponent is an integer of absolute value at most
MAX_EXPONENT; a larger one is an error at the "^", raised before any power
is computed.  Scalars stay below MAX_SCALAR_BITS: a longer number literal is
an error at the literal, and an operator, power or function call whose
result would be larger, as estimated from the operands, is an error at that
operator or call before it runs; the size of a value bound by `let` is
taken once, when it is bound.  The degree d of a `curve` and k of a `sec`
is at most MAX_DEGREE; a larger one is an error at the literal's head,
raised before any of its fields is evaluated.  The degree in t of scalars
is at most MAX_T_DEGREE, and the degree in z of rational expressions at
most MAX_Z_DEGREE, both estimated and refused like their size.  A script
holds at most MAX_SCRIPT_BYTES bytes of UTF-8, checked before it is
tokenized, and at most MAX_STATEMENTS statements; a longer one is a syntax
error at the first character or statement past the limit, and nothing of it
runs.  `run --format json` reports any syntax error as the one `error`
record of its report, anchored at the error's line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .bundles import Section, sl2_act_section
from .curves import (MarkedConfig, P1Point, SuperCurve, act_config,
                     act_general, eval_curve_at_superpoint, same_orbit,
                     susy1_report, torus_act_config, torus_act_curve)
from .grassmann import GrassmannError, Qi, RatT, SuperNumber, T_PARAM
# cli.SUITE is paper.SUITE itself: perfbench/tracer.py wraps its entries in
# place through this name.
from .paper import SUITE, record, verify_paper  # noqa: F401
from .polyrat import SuperPoly
from .scgroup import (SCMatrix, act_point, identity, lift_sl2, reflection,
                      same_automorphism, susy, three_point_normalize)
from .superspace import ChartPoint, ProjPoint, reduce_point, torus_act_point
from .trees import (StableTree, TreeConfig, act_tree_config,
                    forget_last_mark, glue, torus_act_tree)
from .trees import validate as validate_tree


class CLIError(Exception):
    """Lexical, syntax, or evaluation error with a source position."""

    def __init__(self, msg, line=None, col=None):
        self.line = line
        if line is not None and col is not None:
            msg = "line %d:%d: %s" % (line, col, msg)
        elif line is not None:
            msg = "line %d: %s" % (line, msg)
        super().__init__(msg)


# ---------------------------------------------------------------------------
# Lexer


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%r, %r, %d:%d)" % (self.kind, self.text,
                                         self.line, self.col)


_PUNCT = "+-*/^()[],;:="


def tokenize(text):
    """The tokens of a script, ending with one "eof" token.  A newline
    inside brackets is dropped: it does not end a statement."""
    toks = []
    i, line, col, depth = 0, 1, 1, 0
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
            if depth <= 0:
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
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise CLIError("unexpected character %r" % ch, line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser


# Literals with fields in parentheses: head -> (leading number?, field words,
# None for a field without one).  "curve(1; phi = x; psi = y)" parses to
# ("curve", 1, x, y, line, col).
_FIELD_LITERALS = {
    "chart1": (False, (None, None)),
    "chart2": (False, (None, None)),
    "curve": (True, ("phi", "psi")),
    "cfg": (False, ("points", "curve")),
    "tree": (True, ("edges", "marks", "degrees")),
    "treecfg": (False, ("tree", "nodal", "marked", "curves")),
}

_LITERAL_HEADS = ("sec", *_FIELD_LITERALS)

# Deepest sub-expression nesting the parser accepts.  Every nested "(", "[",
# unary sign and exponent passes through parse_unary, which counts one level
# each; the limit keeps both recursive descent and evaluation well inside
# Python's recursion limit, so deep input gets a CLIError, not a crash.
MAX_NESTING = 100

# Largest exponent magnitude `^` accepts.  The degree of a power of `t`, or
# of a rational function in the curve variable, grows linearly with the
# exponent, so without a bound a single `^` could run for hours.
MAX_EXPONENT = 1000

# Largest size, in bits, of the scalars a script may build.  Python refuses
# to turn an int of more than 4300 decimal digits (about 14,000 bits) into a
# string, so a larger coefficient could be computed but never printed.  The
# evaluator estimates a result's size from its operands before it runs the
# operation (see _size), and the limit leaves room below the printing bound
# for the slack of that estimate.
MAX_SCALAR_BITS = 8192

# A decimal literal of d digits has at most d * log2(10) < 10 * d / 3 bits.
_MAX_LITERAL_DIGITS = MAX_SCALAR_BITS * 3 // 10

# Largest degree d of a `curve` literal and k of a `sec` literal.  The cost
# of acting on a curve grows with its degree: a general group element acts
# through an odd shear, whose gauge pair is one Bezout cofactor and a few
# polynomial divisions, and at n = 8 that act takes about 0.01 s at d = 16,
# 0.06 s at d = 32 and 0.2 s at d = 40 on a 2-vCPU Xeon (an even lift alone
# takes 0.08 s at d = 80).  The bound stays at 16 because a curve whose
# bodies share a factor is refused by exact Euclid over Q(i)(t).  With
# integer coefficients that takes 0.02 s at d = 8, 0.05 s at d = 10 and
# 1.0 s at d = 16.  With t in the coefficients it is far slower: for
# phi = ((z - t) A) / ((z - t) B), A and B of degree d - 1 with coefficients
# a + b t (|a|, |b| <= 9), it takes 0.01 s at d = 4, 0.08 s at d = 5,
# 0.7 s at d = 6, 9.4 s at d = 7 and 54 s at d = 8 (ROADMAP, open item 1).
MAX_DEGREE = 16

# Largest degree in z of a rational expression in a curve literal, estimated
# from the operands as the degree in t is (see _size).  The printed form
# psi = (r) / (Q^2) of a degree-d curve reaches the estimate 4d - 1 at its
# "/" and in the sum that spells out Q^2, so every curve of MAX_DEGREE fits.
MAX_Z_DEGREE = 4 * MAX_DEGREE

# Largest degree in t of the scalars a script may build, estimated from the
# operands before an operation runs, as their size is (see _size).  The
# script "let a = (t^d + 3*t + 1) / (t^(d-1) + 2*t + 5)", "let b = a * a +
# a", "let c = (t^d - 1) / (t^(d/2) - 1)" reaches the estimate 3d at its
# "+" and runs in 0.14 s at d = 320, 0.65 s at d = 666 (estimate 1998) and
# 1.7 s at d = 1000 on a 2-vCPU Xeon; make_rat's gcd sets that cost.
MAX_T_DEGREE = 2000

# Longest script, in bytes of UTF-8, and most statements in one script.
# Work grows with the length before a single statement runs: on a 2-vCPU
# Xeon, 512 KiB of "1;" tokenizes in 0.96 s and parses in 0.94 s, and
# 10,000 statements such as "let a = (1 + 2*g1) * (3 - g2*g3) + 4/7"
# (390 KB) tokenize, parse and run in 0.4, 0.4 and 1.8 s.  A 1.1 MB script
# of 40,000 such statements ran for 4.9 s with no bound, and a 100 MB one
# would build tens of millions of tokens.  The size is checked before the
# script is tokenized, the count while it is parsed.
MAX_SCRIPT_BYTES = 512 * 1024
MAX_STATEMENTS = 10000


class Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind) -> Token:
        t = self.advance()
        if t.kind != kind:
            raise CLIError("expected %r, got %r" % (kind, t.text or t.kind),
                           t.line, t.col)
        return t

    def expect_word(self, word) -> Token:
        t = self.advance()
        if t.kind != "ident" or t.text != word:
            raise CLIError("expected %r, got %r" % (word, t.text or t.kind),
                           t.line, t.col)
        return t

    # -- statements

    def parse_script(self):
        stmts = []
        while True:
            while self.toks[self.pos].kind == "newline":
                self.pos += 1
            t = self.toks[self.pos]
            if t.kind == "eof":
                break
            if len(stmts) == MAX_STATEMENTS:
                raise CLIError("script exceeds the limit of %d statements"
                               % MAX_STATEMENTS, t.line, t.col)
            stmts.append(self.parse_statement())
            t = self.toks[self.pos]
            if t.kind in ("newline", ";"):
                self.pos += 1
            elif t.kind != "eof":
                raise CLIError("unexpected %r after statement" % t.text,
                               t.line, t.col)
        return stmts

    def parse_statement(self):
        t = self.peek()
        if t.kind == "ident" and t.text == "set":
            self.advance()
            self.expect_word("generators")
            num = self.expect("num")
            return ("set_gen", int(num.text), t.line)
        if t.kind == "ident" and t.text == "let":
            self.advance()
            name = self.expect("ident")
            self.expect("=")
            return ("let", name.text, self.parse_expr(), t.line)
        if t.kind == "ident" and t.text in ("assert_eq", "assert_zero",
                                            "assert_error"):
            kw = self.advance()
            self.expect("(")
            args = self.parse_comma_tail([self.parse_expr()])
            self.expect(")")
            want = 2 if kw.text == "assert_eq" else 1
            if len(args) != want:
                raise CLIError("%s takes %d argument(s), got %d"
                               % (kw.text, want, len(args)), kw.line, kw.col)
            return (kw.text, args, kw.line, kw.col)
        return ("expr", self.parse_expr(), t.line)

    # -- expressions

    def parse_comma_tail(self, items):
        """items, extended by the expressions of a ", expr ..." tail."""
        while self.peek().kind == ",":
            self.advance()
            items.append(self.parse_expr())
        return items

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            node = ("binop", op.kind, node, self.parse_term(),
                    op.line, op.col)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            node = ("binop", op.kind, node, self.parse_unary(),
                    op.line, op.col)
        return node

    def parse_unary(self):
        t = self.peek()
        if self.nesting > MAX_NESTING:
            raise CLIError("expression nested deeper than %d levels"
                           % MAX_NESTING, t.line, t.col)
        self.nesting += 1
        if t.kind == "-":
            self.advance()
            node = ("neg", self.parse_unary(), t.line, t.col)
        elif t.kind == "+":
            self.advance()
            node = self.parse_unary()
        else:
            node = self.parse_power()
        self.nesting -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "^":
            op = self.advance()
            return ("pow", base, self.parse_unary(), op.line, op.col)
        return base

    def parse_atom(self):
        t = self.advance()
        if t.kind == "num":
            return ("num", int(t.text), t.line, t.col)
        if t.kind == "imag":
            return ("imag", int(t.text), t.line, t.col)
        if t.kind == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "[":
            return self.parse_bracket(t)
        if t.kind == "ident":
            return self.parse_ident(t)
        raise CLIError("unexpected %r" % (t.text or t.kind), t.line, t.col)

    def parse_bracket(self, t):
        if self.peek().kind == "]":
            self.advance()
            return ("list", [], t.line, t.col)
        first = self.parse_expr()
        if self.peek().kind == ":":
            self.advance()
            second = self.parse_expr()
            if self.peek().kind == ":":
                self.advance()
                third = self.parse_expr()
                self.expect("]")
                return ("proj", first, second, third, t.line, t.col)
            self.expect("]")
            return ("target", first, second, t.line, t.col)
        items = self.parse_comma_tail([first])
        self.expect("]")
        return ("list", items, t.line, t.col)

    def parse_rows(self, nrows, ncols):
        self.expect("[")
        rows = []
        for i in range(nrows):
            if i:
                self.expect(",")
            self.expect("[")
            row = [self.parse_expr()]
            for _ in range(ncols - 1):
                self.expect(",")
                row.append(self.parse_expr())
            self.expect("]")
            rows.append(row)
        self.expect("]")
        return rows

    def parse_ident(self, t):
        name = t.text
        nxt = self.peek()
        if name == "sc" and nxt.kind == "[":
            return ("sc", self.parse_rows(3, 3), t.line, t.col)
        if name == "sl2" and nxt.kind == "[":
            return ("sl2", self.parse_rows(2, 2), t.line, t.col)
        if nxt.kind == "(" and name in _LITERAL_HEADS:
            return self.parse_literal(name, t)
        if nxt.kind == "(":
            self.advance()
            args = []
            if self.peek().kind != ")":
                args = self.parse_comma_tail([self.parse_expr()])
            self.expect(")")
            return ("call", name, args, t.line, t.col)
        return ("ident", name, t.line, t.col)

    def parse_literal(self, name, t):
        self.expect("(")
        if name == "sec":
            k = int(self.expect("num").text)
            self.expect(";")
            coeffs = self.parse_comma_tail([self.parse_expr()])
            self.expect(")")
            return ("sec", k, coeffs, t.line, t.col)
        lead, words = _FIELD_LITERALS[name]
        fields = [int(self.expect("num").text)] if lead else []
        for word in words:
            if fields:
                self.expect(";")
            if word:
                self.expect_word(word)
                self.expect("=")
            fields.append(self.parse_expr())
        self.expect(")")
        return (name, *fields, t.line, t.col)


def parse_text(text):
    _check_script_size(text)
    return Parser(tokenize(text)).parse_script()


def _check_script_size(text):
    """CLIError at the first character that ends past MAX_SCRIPT_BYTES
    bytes of UTF-8; only that many characters are encoded."""
    head = text[:MAX_SCRIPT_BYTES + 1].encode("utf-8")
    if len(head) <= MAX_SCRIPT_BYTES:
        return
    kept = head[:MAX_SCRIPT_BYTES].decode("utf-8", "ignore")
    raise CLIError("script exceeds the size limit of %d bytes"
                   % MAX_SCRIPT_BYTES, kept.count("\n") + 1,
                   len(kept) - kept.rfind("\n"))


# ---------------------------------------------------------------------------
# Values


class RatFunc:
    """A quotient of polynomials; only lives inside curve literals."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n, num: SuperPoly, den: SuperPoly):
        if den.is_zero():
            raise GrassmannError("zero denominator in rational expression")
        self.n = n
        self.num = num
        self.den = den

    @staticmethod
    def coordinate(n):
        return RatFunc(n, SuperPoly.linear(n, 0, 1), SuperPoly.const(n, 1))

    @staticmethod
    def lift(n, v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, SuperNumber):
            return RatFunc(n, SuperPoly.const(n, v), SuperPoly.const(n, 1))
        raise GrassmannError("cannot use %s in a rational expression"
                             % _typename(v))

    def add(self, o):
        return RatFunc(self.n, self.num * o.den + o.num * self.den,
                       self.den * o.den)

    def sub(self, o):
        return RatFunc(self.n, self.num * o.den - o.num * self.den,
                       self.den * o.den)

    def mul(self, o):
        return RatFunc(self.n, self.num * o.num, self.den * o.den)

    def div(self, o):
        if o.num.is_zero():
            raise GrassmannError("division by zero")
        return RatFunc(self.n, self.num * o.den, self.den * o.num)

    def neg(self):
        return RatFunc(self.n, -self.num, self.den)

    def pow(self, k):
        num, den = self.num, self.den
        if k < 0:
            if num.is_zero():
                raise GrassmannError("division by zero")
            num, den, k = den, num, -k
        return RatFunc(self.n, num ** k, den ** k)

    def __str__(self):
        return "(%s) / (%s)" % (self.num, self.den)


def _size(v, inverse=False):
    """(bits, t-degree, z-degree): the size of a value's scalars, for the
    MAX_SCALAR_BITS estimate, their degree in t, for MAX_T_DEGREE, and for a
    rational expression the larger degree in z of its numerator and
    denominator, for MAX_Z_DEGREE; with inverse, the size of 1/v.

    A Gaussian rational counts the bit length of its widest integer, a
    rational function in t the bits of its coefficients and the larger
    degree of its numerator and denominator; any other value the sums over
    its scalar coefficients (0 for values without any).  A coefficient of a
    sum or product of two values is then at most _size(a) + _size(b) bits
    wide, give or take a carry per term, and of at most that degree, because
    each term of one operand meets each term of the other at most once; the
    degree in z adds the same way, and multiplies by |k| under ^.
    Inverting a Gaussian rational squares its norm, and the inverse of a
    number with a soul sums up to one power of the soul per further term
    over a power of the body, so its bits and its degree grow with the term
    count; a rational expression inverts by swapping.
    """
    if isinstance(v, (Qi, RatT)):
        return _scalar_size(v) + (0,)
    z_degree = 0
    if isinstance(v, SuperNumber):
        numbers = (v,)
    elif isinstance(v, SCMatrix):
        numbers = [x for row in v.rows() for x in row]
    elif isinstance(v, RatFunc):
        numbers = (v.num, v.den)
        z_degree = max(v.num.degree(), v.den.degree())
    else:
        return 0, 0, 0
    bits = degree = 0
    for x in numbers:
        # the integer form's terms a / d, each reduced by gcd(a, d) as its
        # Qi coefficient is; else the scalars themselves
        d = x._d
        if d == 1:
            bits += sum([a.bit_length() for a in x._num.values()])
        elif d:
            bits += sum([max((a // g).bit_length(), (d // g).bit_length())
                         for a in x._num.values() for g in (math.gcd(a, d),)])
        else:
            for c in x._num.values():
                b, deg = _scalar_size(c)
                bits += b
                degree += deg
    if inverse:
        return _inverse_size(v, (bits, degree, z_degree))
    return bits, degree, z_degree


# _size(t): one bit for each coefficient 0 and 1 of the numerator t and
# one for the denominator 1; degree 1 in t
_T_SIZE = (3, 1, 0)


def _inverse_size(v, size):
    """_size(v, inverse=True), given size = _size(v)."""
    if isinstance(v, SuperNumber):
        k = len(v._num)
        return 2 * k * size[0], k * size[1], 0
    return size


def _scalar_size(c):
    """(bits, t-degree) of a Qi or RatT scalar."""
    if type(c) is Qi:
        return _qi_bits(c), 0
    return (_poly_bits(c.num) + _poly_bits(c.den),
            max(c.num.degree(), c.den.degree()))


def _qi_bits(c):
    return max(c.a.bit_length(), c.b.bit_length(), c.d.bit_length())


def _poly_bits(p):
    """The bits of a polynomial's Qi coefficients, read from the integer
    form where it has one: each coefficient a/d reduced by gcd(a, d)."""
    d = p._d
    if not d:
        return sum([_qi_bits(c) for c in p.coeffs])
    if d == 1:
        return sum([a.bit_length() or 1 for a in p._num])
    return sum([max((a // g).bit_length(), (d // g).bit_length())
                for a in p._num for g in (math.gcd(a, d),)])


def _check_size(sizes, line, col, k=1):
    """CLIError at (line, col) when k times the sum of the _size triples
    passes a limit."""
    bits, degree, z_degree = (k * sum([s[i] for s in sizes])
                              for i in range(3))
    if bits > MAX_SCALAR_BITS:
        raise CLIError("result would exceed the scalar size limit of %d bits"
                       % MAX_SCALAR_BITS, line, col)
    if degree > MAX_T_DEGREE:
        raise CLIError("result would exceed the degree limit of %d in t"
                       % MAX_T_DEGREE, line, col)
    if z_degree > MAX_Z_DEGREE:
        raise CLIError("result would exceed the degree limit of %d in z"
                       % MAX_Z_DEGREE, line, col)


def _typename(v):
    names = {
        SuperNumber: "number", SCMatrix: "matrix", Section: "section",
        SuperCurve: "curve", MarkedConfig: "configuration",
        StableTree: "tree", TreeConfig: "tree configuration",
        ChartPoint: "point", ProjPoint: "point", P1Point: "target point",
        RatFunc: "rational expression", bool: "boolean", list: "list",
    }
    return names.get(type(v), type(v).__name__)


def format_value(v) -> str:
    """Canonical, re-parseable form of any expression value."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, SuperNumber):
        return str(v)
    if isinstance(v, SCMatrix):
        return "sc" + str(v)
    if isinstance(v, Section):
        coeffs = ", ".join(str(v.frame1.coeff(i)) for i in range(v.k + 1))
        return "sec(%d; %s)" % (v.k, coeffs)
    if isinstance(v, list):
        return "[%s]" % ", ".join(format_value(x) for x in v)
    return str(v)


# ---------------------------------------------------------------------------
# Evaluator


_GEN_NAMES = {"g%d" % k: k for k in range(1, 9)}


class Evaluator:
    """Evaluates parsed expressions over a fixed generator count."""

    def __init__(self, n=3):
        self.n = n
        self.vars = {}
        # name -> (value, _size(value)) of each let binding
        self._bound = {}
        # the value of t, made once per generator count
        self._t = None

    def set_generators(self, n, line=None):
        if not 0 <= n <= 8:
            raise CLIError("generator count must be between 0 and 8", line)
        self.n = n

    def lookup(self, name, line, col):
        if name in self.vars:
            return self.vars[name]
        if name == "true":
            return True
        if name == "false":
            return False
        if name == "t":
            if self._t is None or self._t.n != self.n:
                self._t = SuperNumber.scalar(self.n, T_PARAM)
            return self._t
        if name == "refl":
            return reflection(self.n)
        if name == "identity":
            return identity(self.n)
        if name in _GEN_NAMES:
            k = _GEN_NAMES[name]
            if k > self.n:
                raise CLIError("generator %s needs at least %d generators "
                               "(current setting: %d)" % (name, k, self.n),
                               line, col)
            return SuperNumber.gen(self.n, k)
        raise CLIError("unknown identifier %r" % name, line, col)

    def _bind(self, name, value):
        """Bind name to value, and keep the value's size for its operands."""
        self.vars[name] = value
        self._bound[name] = (value, _size(value))

    # -- helpers

    def _operand_size(self, node, v, inverse=False):
        """_size(v, inverse) of the value v of node.  A number literal's
        size is its bit length, and t's is fixed; a variable's is read from
        its binding while the variable still holds that very value."""
        kind = node[0]
        if kind == "num":
            size = (node[1].bit_length(), 0, 0)
        elif kind != "ident":
            return _size(v, inverse)
        elif v is self._t:
            size = _T_SIZE
        else:
            bound = self._bound.get(node[1])
            if bound is None or bound[0] is not v:
                return _size(v, inverse)
            size = bound[1]
        return _inverse_size(v, size) if inverse else size

    def _arith(self, op, a, b, line, col):
        if isinstance(a, SCMatrix) and isinstance(b, SCMatrix):
            if op == "*":
                return a.mul(b)
            raise CLIError("matrices only combine with *", line, col)
        if isinstance(a, RatFunc) or isinstance(b, RatFunc):
            x = RatFunc.lift(self.n, a)
            y = RatFunc.lift(self.n, b)
            return {"+": x.add, "-": x.sub, "*": x.mul, "/": x.div}[op](y)
        if isinstance(a, SuperNumber) and isinstance(b, SuperNumber):
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return a * b.invert()
        raise CLIError("cannot apply %r to %s and %s"
                       % (op, _typename(a), _typename(b)), line, col)

    def eval(self, node, local=None):
        """The value of an expression node.  A library error raised while
        evaluating the node itself gets the node's line and column; every
        node ends with the (line, col) of its operator or head token."""
        try:
            kind = node[0]
            if kind == "num":
                return SuperNumber.scalar(self.n, node[1])
            if kind == "imag":
                return SuperNumber.scalar(self.n, Qi(0, node[1]))
            if kind == "ident":
                _, name, line, col = node
                if local and name in local:
                    return local[name]
                return self.lookup(name, line, col)
            if kind == "neg":
                v = self.eval(node[1], local)
                if isinstance(v, SuperNumber):
                    return -v
                if isinstance(v, RatFunc):
                    return v.neg()
                if isinstance(v, SCMatrix):
                    return v.neg()
                raise CLIError("cannot negate %s" % _typename(v),
                               node[2], node[3])
            if kind == "binop":
                _, op, lhs, rhs, line, col = node
                a = self.eval(lhs, local)
                b = self.eval(rhs, local)
                _check_size([self._operand_size(lhs, a),
                             self._operand_size(rhs, b, op == "/")],
                            line, col)
                return self._arith(op, a, b, line, col)
            if kind == "pow":
                _, base, expo, line, col = node
                v = self.eval(base, local)
                k = _as_int(self.eval(expo, local), "exponent")
                if abs(k) > MAX_EXPONENT:
                    raise CLIError("exponent exceeds the limit of %d in "
                                   "absolute value" % MAX_EXPONENT, line, col)
                _check_size([self._operand_size(base, v, k < 0)], line, col,
                            abs(k))
                if isinstance(v, RatFunc):
                    return v.pow(k)
                if isinstance(v, SuperNumber):
                    if k < 0:
                        return v.invert() ** (-k)
                    return v ** k
                raise CLIError("cannot raise %s to a power" % _typename(v),
                               line, col)
            build = _LITERALS.get(kind)
            if build is not None:
                if kind in ("curve", "sec") and node[1] > MAX_DEGREE:
                    raise CLIError("%s degree %d exceeds the limit of %d"
                                   % (kind, node[1], MAX_DEGREE), *node[-2:])
                if kind == "curve":
                    local = dict(local or {}, z=RatFunc.coordinate(self.n))
                return build(self.n, *[self._field(f, local)
                                       for f in node[1:-2]])
            if kind == "call":
                return self._call(node, local)
            raise CLIError("unhandled expression node %r" % kind)
        except GrassmannError as exc:
            raise CLIError(str(exc), node[-2], node[-1]) from None

    def _field(self, f, local):
        """A literal field's value; a list of nodes gives a list of values."""
        if isinstance(f, tuple):
            return self.eval(f, local)
        if isinstance(f, list):
            return [self._field(e, local) for e in f]
        return f

    # -- function calls

    def _call(self, node, local):
        _, name, arg_nodes, line, col = node
        entry = _FUNCTIONS.get(name)
        if entry is None:
            raise CLIError("unknown function %r" % name, line, col)
        impl, *wants = entry
        args = [self.eval(e, local) for e in arg_nodes]
        if len(args) != len(wants):
            raise CLIError("%s takes %d argument(s), got %d"
                           % (name, len(wants), len(args)), line, col)
        _check_size([self._operand_size(e, v)
                     for e, v in zip(arg_nodes, args)], line, col)
        try:
            for want, v in zip(wants, args):
                if isinstance(want, dict):
                    impl = next((fn for cls, fn in want.items()
                                 if isinstance(v, cls)), None)
                    ok = impl is not None
                else:
                    ok = want is None or isinstance(v, want)
                if not ok:
                    raise GrassmannError("%s does not apply to a %s"
                                         % (name, _typename(v)))
            if impl is susy:
                return susy(self.n, *args)
            return impl(*args)
        except GrassmannError as exc:
            raise CLIError("%s: %s" % (name, exc), line, col) from None


# mul, inv and sameorbit check their own argument types: their messages
# differ from the table's "<name> does not apply to a <type>".

def _mul(a, b):
    if isinstance(a, SCMatrix) and isinstance(b, SCMatrix):
        return a.mul(b)
    if isinstance(a, SuperNumber) and isinstance(b, SuperNumber):
        return a * b
    raise GrassmannError("mul expects two matrices or two numbers")


def _inv(v):
    if isinstance(v, SCMatrix):
        return v.inverse()
    if isinstance(v, SuperNumber):
        return v.invert()
    raise GrassmannError("inv expects a matrix or a number")


def _same_orbit(a, b):
    if not isinstance(a, list) or not isinstance(b, list):
        raise GrassmannError("sameorbit expects two point lists")
    return same_orbit(a, b)


def _decompose(m):
    quad, (al, be) = m.decompose()
    return [lift_sl2(m.n, *quad), susy(m.n, al, be)]


def _susy1(cfg):
    rep = susy1_report(cfg)
    return [SuperNumber.scalar(cfg.n, r)
            for r in (rep.rank, rep.kernel_rank, rep.coker_rank)]


_POINT = (ChartPoint, ProjPoint)

# name: (implementation, wanted type of each argument).  The arity is the
# number of wanted types.  A wanted type is a class, None for any value, or a
# dict from class to the library function that then implements the call; an
# argument of any other type is "<name> does not apply to a <type>".  susy
# also gets the generator count, ahead of its arguments.
_FUNCTIONS = {
    "mul": (_mul, None, None),
    "inv": (_inv, None),
    "inverse": (_inv, None),
    "check": (lambda m: list(m.check().values()), SCMatrix),
    "decompose": (_decompose, SCMatrix),
    "act": (None, SCMatrix, {_POINT: act_point, Section: sl2_act_section,
                             SuperCurve: act_general,
                             MarkedConfig: act_config,
                             TreeConfig: act_tree_config}),
    "normalize3": (lambda *pts: list(three_point_normalize(*pts)),
                   None, None, None),
    "susy": (susy, None, None),
    "susy1": (_susy1, MarkedConfig),
    "torus": (None, SuperNumber, {_POINT: torus_act_point,
                                  SuperCurve: torus_act_curve,
                                  MarkedConfig: torus_act_config,
                                  TreeConfig: torus_act_tree}),
    "glue": (glue, TreeConfig, TreeConfig),
    "forget": (forget_last_mark, TreeConfig),
    "body": (lambda v: SuperNumber.scalar(v.n, v.body()), SuperNumber),
    "soul": (SuperNumber.soul, SuperNumber),
    "evalc": (eval_curve_at_superpoint, SuperCurve, None),
    "validate": (lambda cfg: validate_tree(cfg).ok, TreeConfig),
    "sameauto": (same_automorphism, SCMatrix, SCMatrix),
    "sameorbit": (_same_orbit, None, None),
    "reduce": (None, {_POINT: reduce_point, SuperCurve: SuperCurve.reduced,
                      MarkedConfig: MarkedConfig.reduced}),
}


def _as_int(v, what):
    """v as a Python int, when it is an integer number; else an error."""
    if isinstance(v, SuperNumber) and v.soul().is_zero():
        b = v.body()
        if isinstance(b, Qi) and not b.b and b.d == 1:
            return b.a
    raise GrassmannError("%s must be an integer" % what)


def _check(ok, message):
    if not ok:
        raise GrassmannError(message)


def _sl2(n, rows):
    (a, c), (b, d) = rows
    return lift_sl2(n, a, b, c, d)


def _section(n, k, coeffs):
    _check(len(coeffs) == k + 1, "sec(%d; ...) needs %d coefficients, got %d"
           % (k, k + 1, len(coeffs)))
    return Section(n, k, coeffs)


def _curve(n, d, phi, psi):
    phi, psi = RatFunc.lift(n, phi), RatFunc.lift(n, psi)
    quo, rem = (psi.num * phi.den * phi.den).divmod(psi.den)
    _check(rem.is_zero(), "psi is not of the form r / Q^2 for the phi "
           "denominator")
    return SuperCurve(n, d, phi.num, phi.den, quo)


def _cfg(n, points, curve):
    _check(isinstance(points, list), "cfg points must be a list")
    _check(isinstance(curve, SuperCurve), "cfg curve must be a curve")
    return MarkedConfig(points, curve)


def _tree(n, nv, edges, marks, degrees):
    _check(isinstance(edges, list) and all(
        isinstance(e, list) and len(e) == 2 for e in edges),
        "edges must be a list of [a, b] pairs")
    pairs = [tuple(_as_int(x, "edge endpoint") for x in e) for e in edges]
    _check(isinstance(marks, list), "tree marks must be a list")
    marking = [_as_int(v, "mark vertex") for v in marks]
    _check(isinstance(degrees, list), "tree degrees must be a list")
    return StableTree(nv, pairs, marking,
                      [_as_int(v, "degree") for v in degrees])


def _treecfg(n, tree, nodal, marked, curves):
    # TreeConfig checks `marked` itself, after the curves whose errors lead
    _check(isinstance(tree, StableTree), "treecfg tree must be a tree literal")
    _check(isinstance(nodal, list), "treecfg nodal must be a list")
    points = {}
    for item in nodal:
        _check(isinstance(item, list) and len(item) == 3,
               "nodal entries must be [a, b, point]")
        points[(_as_int(item[0], "nodal vertex"),
                _as_int(item[1], "nodal vertex"))] = item[2]
    _check(isinstance(curves, list), "treecfg curves must be a list")
    return TreeConfig(tree, points, marked, curves)


# head: builder(n, *fields), given the generator count and the literal's
# evaluated fields in source order: a leading number (sec, curve, tree) as an
# int, a list of nodes (items, rows, coefficients) as a list of values.
_LITERALS = {
    "list": lambda n, items: items,
    "target": P1Point,
    "proj": ProjPoint,
    "chart1": lambda n, p, pi: ChartPoint(n, 1, p, pi),
    "chart2": lambda n, p, pi: ChartPoint(n, 2, p, pi),
    "sc": lambda n, rows: SCMatrix.from_rows(n, rows, validate=True),
    "sl2": _sl2,
    "sec": _section,
    "curve": _curve,
    "cfg": _cfg,
    "tree": _tree,
    "treecfg": _treecfg,
}


# ---------------------------------------------------------------------------
# Script execution and reports


def _values_equal(a, b):
    """(equal, residual-string-or-None)."""
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False, "length %d vs %d" % (len(a), len(b))
        for x, y in zip(a, b):
            eq, res = _values_equal(x, y)
            if not eq:
                return False, res
        return True, None
    if isinstance(a, bool) and isinstance(b, bool):
        return a is b, None if a is b else "%s vs %s" % (format_value(a),
                                                         format_value(b))
    if isinstance(a, SuperNumber) and isinstance(b, SuperNumber):
        diff = a - b
        if diff.is_zero():
            return True, None
        return False, str(diff)
    if type(a) is not type(b) and not (
            isinstance(a, (ChartPoint, ProjPoint))
            and isinstance(b, (ChartPoint, ProjPoint))):
        return False, "type mismatch: %s vs %s" % (_typename(a),
                                                   _typename(b))
    eq = (a == b)
    return bool(eq), None if eq else "values differ"


def _value_is_zero(v):
    if isinstance(v, SuperNumber):
        return v.is_zero()
    if isinstance(v, list):
        return all(_value_is_zero(x) for x in v)
    return False


class ScriptRunner:
    """Executes statements, collecting one report record per assertion
    (and one per statement that raised)."""

    def __init__(self, n=3, echo=None):
        self.ev = Evaluator(n)
        self.records = []
        self.echo = echo
        self.assert_count = 0
        self.stmt_count = 0

    def _say(self, text):
        if self.echo is not None:
            self.echo.write(text + "\n")

    def _record(self, rid, line, status, residual, t0):
        self.records.append(record(rid, "line-%d" % line, status, residual,
                                   t0))

    def run(self, stmts):
        for stmt in stmts:
            self.stmt_count += 1
            kind = stmt[0]
            if kind in ("assert_eq", "assert_zero", "assert_error"):
                self._run_assert(stmt)
                continue
            t0 = time.perf_counter()
            try:
                if kind == "set_gen":
                    self.ev.set_generators(stmt[1], stmt[2])
                elif kind == "let":
                    value = self.ev.eval(stmt[2])
                    self.ev._bind(stmt[1], value)
                    # only an echoed value is formatted
                    if self.echo is not None:
                        self._say("%s = %s" % (stmt[1], format_value(value)))
                else:
                    value = self.ev.eval(stmt[1])
                    if self.echo is not None:
                        self._say(format_value(value))
            except (CLIError, GrassmannError) as exc:
                self._record("stmt-%d" % self.stmt_count, stmt[-1],
                             "error", str(exc), t0)
                self._say("error: %s" % exc)
        return self.records

    def _run_assert(self, stmt):
        kind, args, line, col = stmt
        self.assert_count += 1
        rid = "assert-%d" % self.assert_count
        t0 = time.perf_counter()
        if kind == "assert_error":
            try:
                self.ev.eval(args[0])
            except (CLIError, GrassmannError):
                self._record(rid, line, "pass", None, t0)
                self._say("pass  %s" % rid)
                return
            self._record(rid, line, "fail", "no error raised", t0)
            self._say("FAIL  %s: no error raised" % rid)
            return
        try:
            values = [self.ev.eval(e) for e in args]
            try:
                if kind == "assert_eq":
                    equal, residual = _values_equal(*values)
                    status = "pass" if equal else "fail"
                elif _value_is_zero(values[0]):
                    status, residual = "pass", None
                else:
                    status, residual = "fail", format_value(values[0])
            except GrassmannError as exc:
                # a comparison error is reported at the assert keyword
                raise CLIError(str(exc), line, col) from None
        except CLIError as exc:
            self._record(rid, line, "error", str(exc), t0)
            self._say("error %s: %s" % (rid, exc))
            return
        self._record(rid, line, status, residual, t0)
        if status == "pass":
            self._say("pass  %s" % rid)
        else:
            self._say("FAIL  %s: residual %s" % (rid, residual))


def _report_ok(records):
    return all(r["status"] == "pass" for r in records)


def _print_text_report(records, out):
    for r in records:
        mark = "pass" if r["status"] == "pass" else r["status"].upper()
        tail = "" if r["residual"] is None else "  residual: %s" % r["residual"]
        out.write("%-5s %-24s %-36s %5d ms%s\n"
                  % (mark, r["id"], r["anchor"], r["millis"], tail))
    npass = sum(1 for r in records if r["status"] == "pass")
    out.write("%d check(s), %d passed, %d failed or errored\n"
              % (len(records), npass, len(records) - npass))


def _emit_report(records, fmt, out, extra=None):
    ok = _report_ok(records)
    if fmt == "json":
        payload = {"ok": ok, "checks": records}
        payload.update(extra or {})
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        _print_text_report(records, out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry points


def _cmd_run(args):
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 1
    else:
        text = sys.stdin.read()
    t0 = time.perf_counter()
    try:
        stmts = parse_text(text)
    except CLIError as exc:
        sys.stderr.write("syntax error: %s\n" % exc)
        if args.format == "json":
            refused = record("syntax", "line-%d" % exc.line, "error",
                             str(exc), t0)
            _emit_report([refused], "json", sys.stdout,
                         extra={"generators": args.generators})
        return 1
    echo = sys.stdout if args.format == "text" else None
    runner = ScriptRunner(n=args.generators, echo=echo)
    records = runner.run(stmts)
    return _emit_report(records, args.format, sys.stdout,
                        extra={"generators": runner.ev.n})


def _cmd_repl(args):
    runner = ScriptRunner(n=args.generators, echo=sys.stdout)
    sys.stdout.write("exact supergeometry calculator; "
                     "empty line or exit to leave\n")
    while True:
        try:
            line = input("sgk> ")
        except EOFError:
            break
        line = line.strip()
        if not line or line in ("exit", "quit"):
            break
        try:
            stmts = parse_text(line)
        except CLIError as exc:
            sys.stdout.write("syntax error: %s\n" % exc)
            continue
        runner.run(stmts)
    return 0


def _cmd_verify(args):
    select = None
    if args.select:
        select = []
        for chunk in args.select:
            select.extend(s.strip() for s in chunk.split(",") if s.strip())
    try:
        records = verify_paper(select=select, seed=args.seed)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return _emit_report(records, args.format, sys.stdout,
                        extra={"seed": args.seed})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgk",
        description="exact computations in genus-zero supergeometry")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a script file (or stdin)")
    p_run.add_argument("file", nargs="?", help="script path; stdin if absent")
    p_run.add_argument("--generators", type=int, default=3,
                       help="initial generator count (default 3)")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.set_defaults(fn=_cmd_run)

    p_repl = sub.add_parser("repl", help="interactive prompt")
    p_repl.add_argument("--generators", type=int, default=3)
    p_repl.set_defaults(fn=_cmd_repl)

    p_ver = sub.add_parser("verify-paper",
                           help="run the built-in exact-check suite")
    p_ver.add_argument("--select", action="append",
                       help="comma-separated check ids to run")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized draws (default 0)")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
