"""Randomized checks of the script front end: a grammar fuzzer over
`sgk run --format json`, the lexer against the one that kept every newline,
and the size estimate of script values against the three estimates it
replaced."""

import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgk.cli import (_FIELD_LITERALS, _FUNCTIONS, _LITERAL_HEADS,
                     _MAX_LITERAL_DIGITS, CLIError, RatFunc, _size, main,
                     tokenize)
from sgk.curves import random_curve
from sgk.grassmann import Qi, SuperNumber, T_PARAM
from sgk.polyrat import SuperPoly
from sgk.scgroup import lift_sl2, random_sc_matrix

from _oracles import (reference_inverse_size, reference_size,
                      reference_tokenize, reference_z_degree)
from test_cli import CORPUS


# ---------------------------------------------------------------------------
# Grammar fuzzer


_LONG_NUMBER = "9" * (_MAX_LITERAL_DIGITS + 1)
_LEAVES = ["0", "1", "2", "3", "7", "12", "2i", "t", "g1", "g2", "g3", "g4",
           "z", "refl", "identity", "true", "false", "a", "b", "nothing",
           "9" * _MAX_LITERAL_DIGITS, _LONG_NUMBER] + CORPUS
_HEADS = sorted(set(_FUNCTIONS) | set(_LITERAL_HEADS) | {"sc", "sl2"})
# a newline inside brackets does not end the statement
_GAPS = st.sampled_from(["", " ", "\n", " \n  ", "\n# note\n"])


def _wrap(draw, items, open_, close, sep):
    """items between open_ and close, a gap drawn after open_ and after each
    separator, and one before close."""
    parts = [open_]
    for k, item in enumerate(items):
        parts += [sep if k else "", draw(_GAPS), item]
    return "".join(parts) + draw(_GAPS) + close


@st.composite
def _bracketed(draw, inner, open_, close, seps, max_items):
    items = draw(st.lists(inner, max_size=max_items))
    return _wrap(draw, items, open_, close, draw(st.sampled_from(seps)))


@st.composite
def _field_literal(draw, inner):
    """A literal with its fields named and in order, as the parser wants."""
    head = draw(st.sampled_from(sorted(_FIELD_LITERALS)))
    lead, words = _FIELD_LITERALS[head]
    fields = ["%d" % draw(st.integers(0, 3))] if lead else []
    fields += [("%s = " % word if word else "") + draw(inner)
               for word in words]
    return head + _wrap(draw, fields, "(", ")", ";")


def _extend(inner):
    rows = _bracketed(inner, "[", "]", [", "], 3)
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner)
        .map(" ".join),
        st.tuples(st.sampled_from(["-", "+"]), inner).map("".join),
        _bracketed(inner, "(", ")", [", "], 1),
        _bracketed(inner, "[", "]", [", ", " : "], 3),
        st.tuples(st.sampled_from(_HEADS),
                  _bracketed(inner, "(", ")", [", ", "; "], 3)).map("".join),
        st.tuples(st.sampled_from(["sc", "sl2"]),
                  _bracketed(rows, "[", "]", [", "], 3)).map("".join),
        st.tuples(st.integers(0, 2), _bracketed(inner, "", ")", [", "], 3))
        .map(lambda x: "sec(%d; %s" % x),
        _field_literal(inner),
    )


_EXPRS = st.recursive(st.sampled_from(_LEAVES), _extend, max_leaves=8)
_SOUP = st.lists(st.sampled_from(
    ["(", ")", "[", "]", ",", ";", ":", "=", "+", "^", "\n", "let", "a",
     "sc", "curve", "phi", "psi", "set", "generators", "1", "t", "g1",
     "# c", "?"]), max_size=8).map(" ".join)
_STATEMENTS = st.one_of(
    _EXPRS,
    _EXPRS.map("let a = {}".format),
    _EXPRS.map("let b = {}".format),
    st.tuples(_EXPRS, _EXPRS).map(lambda x: "assert_eq(%s, %s)" % x),
    _EXPRS.map("assert_zero({})".format),
    _EXPRS.map("assert_error({})".format),
    st.integers(0, 9).map("set generators {}".format),
    _SOUP,
)
_SCRIPTS = st.tuples(
    st.lists(_STATEMENTS, max_size=5),
    st.lists(st.sampled_from(["\n", "; ", "\n\n", "  # end\n"]),
             min_size=5, max_size=5),
).map(lambda x: "".join(s + sep for s, sep in zip(*x)))


def _run_json(text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--format", "json"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@given(text=_SCRIPTS)
@settings(max_examples=200, deadline=3000)
def test_run_json_reports_any_script(text):
    code, out = _run_json(text)
    assert code in (0, 1)
    report = json.loads(out)
    assert report["ok"] is (code == 0)
    last = text.count("\n") + 1
    for rec in report["checks"]:
        m = re.fullmatch(r"line-([0-9]+)", rec["anchor"])
        assert m and 1 <= int(m.group(1)) <= last, rec


# ---------------------------------------------------------------------------
# Lexer


_TEXT_PIECES = list("abgiztxyz_019 \t\r\n#+-*/^()[],;:=.!\"") + [
    "²", "٣", "ⅰ", "é", "́", "½",
    "12i", "3i_", "g1", "let", "# note", "(\n", "]\n", _LONG_NUMBER]


def _kept(toks):
    """The tokens, less the newlines at bracket depth above zero."""
    depth = 0
    out = []
    for t in toks:
        if t.kind in ("(", "["):
            depth += 1
        elif t.kind in (")", "]"):
            depth -= 1
        elif t.kind == "newline" and depth > 0:
            continue
        out.append((t.kind, t.text, t.line, t.col))
    return out


def _lexed(lexer, text):
    try:
        return lexer(text), None
    except CLIError as exc:
        return None, str(exc)


@given(text=st.lists(st.sampled_from(_TEXT_PIECES), max_size=40)
       .map("".join))
@example(text="sc[[1, 0, 0],\n [0, 1, 0],\n [0, 0, 1]]\n2")
@example(text="(1 # note\n+ 2)\n)\n(\n")
@settings(max_examples=400, deadline=None)
def test_tokenize_drops_only_the_newlines_inside_brackets(text):
    got, got_err = _lexed(tokenize, text)
    want, want_err = _lexed(reference_tokenize, text)
    assert got_err == want_err
    if want is not None:
        assert [(t.kind, t.text, t.line, t.col) for t in got] == _kept(want)


# ---------------------------------------------------------------------------
# Size estimate


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_real = st.one_of(st.builds(Qi, _fractions), st.sampled_from(
    [Qi(2 ** 70 + 1), Qi(Fraction(-3, 2 ** 40 + 1))]))
_gaussian = st.builds(Qi, _fractions, _fractions.filter(bool))
_ratt = st.builds(lambda a, b, k: (T_PARAM ** k + a) / (T_PARAM + b),
                  st.one_of(_real, _gaussian), _real, st.integers(1, 3))
_scalars = st.one_of(_real, _gaussian, _ratt)
_NUMBERS = [st.dictionaries(st.sets(st.integers(1, max(n, 1)), max_size=n)
                            .map(lambda s: tuple(sorted(s))),
                            _scalars, max_size=4)
            .map(lambda terms, n=n: SuperNumber(n, terms))
            for n in range(5)]
_POLYS = [st.lists(_NUMBERS[n], max_size=4)
          .map(lambda cs, n=n: SuperPoly(n, cs)) for n in range(5)]


@st.composite
def _script_values(draw):
    kind = draw(st.sampled_from(["scalar", "number", "matrix", "rational",
                                 "other"]))
    if kind == "scalar":
        return draw(_scalars)
    n = draw(st.integers(0, 4))
    numbers = _NUMBERS[n]
    if kind == "number":
        return draw(numbers)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "matrix":
        m = random_sc_matrix(rng, n)
        if draw(st.booleans()):
            m = m.mul(lift_sl2(n, T_PARAM, 0, 0, 1 / T_PARAM))
        return m
    if kind == "rational":
        polys = _POLYS[n]
        return RatFunc(n, draw(polys),
                       draw(polys.filter(lambda p: not p.is_zero())))
    if draw(st.booleans()):
        return random_curve(rng, n, 1)
    return draw(st.sampled_from([True, [], [SuperNumber.one(n)]]))


@given(v=_script_values())
@settings(max_examples=200, deadline=None)
def test_size_matches_the_estimates_it_replaced(v):
    z_degree = reference_z_degree(v)
    assert _size(v) == reference_size(v) + (z_degree,)
    assert _size(v, inverse=True) == reference_inverse_size(v) + (z_degree,)
