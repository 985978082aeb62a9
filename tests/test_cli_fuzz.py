"""Randomized checks of the script front end: a grammar fuzzer over
`sgk run` in both formats, the lexer against the one that kept every newline,
and the size estimate of script values, bound or not, against the three
estimates it replaced."""

import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgk.cli as cli
from sgk.cli import (_FIELD_LITERALS, _FUNCTIONS, _LITERAL_HEADS,
                     _MAX_LITERAL_DIGITS, CLIError, Evaluator, RatFunc,
                     ScriptRunner, _size, main, parse_text, tokenize)
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


def _run(text, fmt="json"):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--format", fmt])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _run_records(text, fmt):
    """(exit code, records) of `sgk run --format fmt` on text, each record
    as (id, anchor, status, residual); records are None when the run
    printed no report."""
    with mock.patch.object(cli, "_emit_report",
                           wraps=cli._emit_report) as emit:
        code, _ = _run(text, fmt)
    if not emit.called:
        return code, None
    return code, [(r["id"], r["anchor"], r["status"], r["residual"])
                  for r in emit.call_args.args[0]]


@contextlib.contextmanager
def _checked_operand_sizes():
    """Make every operand size the evaluator uses assert that it equals the
    reference estimate of its operand; yields the list of sized values."""
    sized = []
    operand_size = Evaluator._operand_size

    def checked(self, node, v, inverse=False):
        size = operand_size(self, node, v, inverse)
        want = reference_inverse_size(v) if inverse else reference_size(v)
        assert size == want + (reference_z_degree(v),), (node, size)
        sized.append(v)
        return size

    with mock.patch.object(Evaluator, "_operand_size", checked):
        yield sized


@given(text=_SCRIPTS)
@settings(max_examples=200, deadline=3000)
def test_run_json_reports_any_script(text):
    code, out = _run(text)
    assert code in (0, 1)
    report = json.loads(out)
    assert report["ok"] is (code == 0)
    last = text.count("\n") + 1
    for rec in report["checks"]:
        m = re.fullmatch(r"line-([0-9]+)", rec["anchor"])
        assert m and 1 <= int(m.group(1)) <= last, rec


@given(text=_SCRIPTS)
@settings(max_examples=200, deadline=3000)
def test_text_and_json_runs_give_the_same_records(text):
    # a text run formats every value it echoes, a JSON run none, so a value
    # whose formatting raised would show only as a missing record
    with _checked_operand_sizes():
        code, records = _run_records(text, "json")
        text_code, text_records = _run_records(text, "text")
    assert text_code == code
    if text_records is None:
        # a refused script: the text run reports it on stderr only
        assert [r[0] for r in records] == ["syntax"]
    else:
        assert text_records == records


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


def _runner(text, n=3):
    runner = ScriptRunner(n)
    runner.run(parse_text(text))
    return runner


def test_bound_operand_sizes_match_the_reference():
    with _checked_operand_sizes() as sized, \
            mock.patch.object(cli, "_size", wraps=_size) as size_calls:
        # rebinding: a * a reads the old binding, then a holds the product
        runner = _runner("let a = 2/3 + g1*g2 + t*g3\nlet a = a * a\n"
                         "let b = a * a + 1 / a\nb^2")
        size_calls.reset_mock()
        runner.run(parse_text("a * a; mul(a, b); b^-2"))
        assert size_calls.call_count == 0
        # the curve literal's z is the coordinate, not the variable z
        runner.run(parse_text("let z = 5 + g1*g2\n"
                              "let c = curve(1; phi = (z + 1) / (z - 1); "
                              "psi = (g1) / ((z - 1)^2))\nz * z"))
        assert any(isinstance(v, RatFunc) for v in sized)
        # the bound values keep their sizes when the generator count moves
        runner.run(parse_text("set generators 2\na * b\n"
                              "set generators 4\nb / a\nz * g4"))
        # a value written straight into vars has no binding; one written
        # over a binding no longer matches it
        runner.ev.vars["w"] = runner.ev.vars["b"] * runner.ev.vars["b"]
        runner.ev.vars["a"] = runner.ev.vars["w"] * runner.ev.vars["b"]
        size_calls.reset_mock()
        runner.run(parse_text("w * a; a^3; mul(a, w)"))
        assert size_calls.call_count == 5
    assert [r["status"] for r in runner.records] == ["error"]
    assert "generator count mismatch" in runner.records[0]["residual"]


def test_literal_and_t_operands_are_sized_from_the_node():
    # 0, and 10^(k - 1) and 10^k - 1 for every digit count k up to the bound
    digits = range(1, _MAX_LITERAL_DIGITS + 1)
    literals = ["0"] + ["1" + "0" * (k - 1) for k in digits] \
        + ["9" * k for k in digits]
    ev = Evaluator(3)
    with mock.patch.object(cli, "_size", wraps=_size) as size_calls:
        for text in literals:
            ((_, node, _),) = parse_text(text)
            v = ev.eval(node)
            for inverse in (False, True):
                want = reference_inverse_size(v) if inverse \
                    else reference_size(v)
                got = ev._operand_size(node, v, inverse)
                assert got == want + (0,) == _size(v, inverse), text
        assert size_calls.call_count == 0
    assert len(literals[-1]) == _MAX_LITERAL_DIGITS
    with _checked_operand_sizes() as sized, \
            mock.patch.object(cli, "_size", wraps=_size) as size_calls:
        # t at every generator count, as an operand, an inverse and a base
        runner = _runner("t * 2; 3 / t; t^2; set generators 0\nt + 1\n"
                         "set generators 8\nt - t; mul(t, 1)")
        assert size_calls.call_count == 0
        # a variable named t is sized from its binding, as any variable
        runner.run(parse_text("let t = 7\nt * t; 1 / t"))
        assert size_calls.call_count == 1
    assert len(sized) == 15
    assert runner.records == []


_K = "2^1000 * 2^1000 * 2^1000 * 2^1000"


def test_bound_operands_are_refused_where_they_were():
    scalar = "result would exceed the scalar size limit of 8192 bits"
    degree = "result would exceed the degree limit of 2000 in t"
    cases = [
        ("let a = %s\nlet b = a * a\nlet c = b * a\n" % _K,
         ["line 3:11: " + scalar]),
        ("let a = %s + g1\nlet b = a * a\nlet c = a * b\n"
         "let d = mul(a, b)\n" % _K,
         ["line 3:11: " + scalar, "line 4:9: " + scalar]),
        ("let a = 2^300 + g1*g2\nlet b = 1 / a\nlet c = a^30\n"
         "let d = b^30\n", ["line 3:10: " + scalar, "line 4:10: " + scalar]),
        ("let m = sl2[[2^1000*2^1000, 0], [0, 1/(2^1000*2^1000)]]\n"
         "let k = mul(m, m)\nlet j = mul(k, m)\n", ["line 3:9: " + scalar]),
        ("let p = t^900 + 1\nlet q = p * p\nlet r = q + p*p\n"
         "let s = q * p\n", ["line 3:11: " + degree, "line 4:11: " + degree]),
        ("let p = t^700 + g1\nlet q = 1 / p\nlet r = p^3\n",
         ["line 3:10: " + degree]),
        ("let a = t^1000 * t^500\nlet a = a * a\nlet b = t^600\n"
         "let b = b * b\nlet b = b * b\n",
         ["line 2:11: " + degree, "line 5:11: " + degree]),
    ]
    for text, want in cases:
        with _checked_operand_sizes():
            runner = _runner(text)
        assert [r["residual"] for r in runner.records] == want, text
