"""The script language: tokenizing, parsing, evaluation, reports, and the
command-line entry points."""

import builtins
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sgk.cli import (_FUNCTIONS, _LITERALS, _MAX_LITERAL_DIGITS,
                     MAX_DEGREE, MAX_EXPONENT, MAX_NESTING, MAX_SCALAR_BITS,
                     MAX_SCRIPT_BYTES, MAX_STATEMENTS, MAX_T_DEGREE,
                     MAX_Z_DEGREE, CLIError, Evaluator,
                     RatFunc, ScriptRunner, format_value, main, parse_text,
                     tokenize, verify_paper)
from sgk.grassmann import GrassmannError, Qi, RatT, SuperNumber, T_PARAM
from sgk.paper import CheckFailure
from sgk.polyrat import SuperPoly

# literals that must survive parse -> format -> parse unchanged
CORPUS = [
    "0",
    "3/2",
    "(1/2-3i)",
    "-2*g1 + g3 + g1*g2*g3",
    "(t)",
    "sc[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
    "sc[[1 + 1/2*g1*g2, 0, -g2], [0, 1 + 1/2*g1*g2, g1], "
    "[g1, g2, 1 - g1*g2]]",
    "sec(1; g1, -g2)",
    "chart1(1/2; g1)",
    "chart2(0; g1 - g3 + g1*g2*g3)",
    "[1 : 2 : g1]",
    "[3 : 1]",
    "curve(1; phi = (z) / (1); psi = (g1) / (1))",
    "cfg(points = [chart1(0; 0), chart1(1; 0), chart1(2; 0)]; "
    "curve = curve(1; phi = (z) / (1); psi = (g1 + g1*z) / (1)))",
    "tree(2; edges = [[1, 2]]; marks = [1, 2, 2]; degrees = [1, 0])",
    "treecfg(tree = tree(2; edges = [[1, 2]]; marks = [1, 1, 2, 2]; "
    "degrees = [0, 0]); "
    "nodal = [[1, 2, chart1(0; 0)], [2, 1, chart1(0; 0)]]; "
    "marked = [chart1(1; 0), chart1(2; 0), chart1(1; 0), chart1(2; 0)]; "
    "curves = [curve(0; phi = (5) / (1); psi = (0) / (1)), "
    "curve(0; phi = (5) / (1); psi = (0) / (1))])",
]


def _eval_one(text, n=3):
    stmts = parse_text(text)
    assert len(stmts) == 1 and stmts[0][0] == "expr"
    return Evaluator(n).eval(stmts[0][1])


def _run_main(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    return main(argv)


# ---------------------------------------------------------------------------
# Tokenizer and parser


def test_tokenize_basics():
    toks = tokenize("let x = 3/2 + 2i  # trailing comment\n")
    kinds = [t.kind for t in toks]
    assert "#" not in kinds
    words = [t.text for t in toks if t.kind in ("ident", "num", "imag")]
    assert words[:2] == ["let", "x"]
    assert any(t.kind == "imag" for t in toks)


def test_newlines_are_transparent_inside_brackets():
    text = "sc[[1, 0, 0],\n [0, 1, 0],\n [0, 0, 1]]\n"
    stmts = parse_text(text)
    assert len(stmts) == 1


def test_parse_rejects_malformed_input():
    for bad in (
            "let = 3",
            "sc[[1, 0], [0, 1]]",
            "assert_eq(1)",
            "curve(1; phi = (z) / (1))",
            "1 +",
            "[1 : 2 : 3 : 4]",
            "let a = 2\u00b2",         # a superscript digit is no digit
            "set generators \u00b2",
    ):
        with pytest.raises(CLIError):
            parse_text(bad)
    # one level past the nesting limit, through each recursive rule
    deep = MAX_NESTING + 1
    for bad in ("(" * deep + "2" + ")" * deep,
                "[" * deep + "2" + "]" * deep,
                "-" * deep + "2",
                "^".join(["1"] * (deep + 1))):
        with pytest.raises(CLIError, match="^line 1:[0-9]+: expression nested "
                           "deeper than %d levels" % MAX_NESTING):
            parse_text(bad)
    # at the limit everything still parses and evaluates
    k = MAX_NESTING
    assert _eval_one("(" * k + "2" + ")" * k) == SuperNumber.scalar(3, 2)
    assert _eval_one("-" * k + "2") == SuperNumber.scalar(3, 2)
    assert _eval_one("^".join(["1"] * (k + 1))) == SuperNumber.scalar(3, 1)
    assert format_value(_eval_one("[" * k + "2" + "]" * k)) \
        == "[" * k + "2" + "]" * k


def test_corpus_round_trips():
    for text in CORPUS:
        value = _eval_one(text)
        printed = format_value(value)
        again = _eval_one(printed)
        assert format_value(again) == printed, text
        from sgk.cli import _values_equal
        assert _values_equal(value, again)[0], text


def test_power_parsing():
    assert _eval_one("2 ^ -2") == SuperNumber.scalar(3, Qi(1) / Qi(4))
    assert _eval_one("2 ^ 3 ^ 2") == SuperNumber.scalar(3, Qi(512))
    assert _eval_one("-2 ^ 2") == SuperNumber.scalar(3, Qi(-4))


def test_exponent_limit(tmp_path, capsys, monkeypatch):
    # at the limit a cheap scalar base still evaluates, in both signs
    k = MAX_EXPONENT
    assert _eval_one("2^%d" % k) == SuperNumber.scalar(3, Qi(2 ** k))
    assert _eval_one("(-2)^-%d" % k) \
        == SuperNumber.scalar(3, Qi(1) / Qi(2 ** k))

    # one over the limit is refused at the "^" before any power is taken
    def no_work(*args):
        raise AssertionError("a power was computed")

    for name in ("__pow__", "invert"):
        monkeypatch.setattr(SuperNumber, name, no_work)
    monkeypatch.setattr(RatFunc, "pow", no_work)
    for text, col in (("t^%d" % (k + 1), 2),
                      ("g1 + 2^-%d" % (k + 1), 7),
                      ("(t + 1)^(1000 * 1000000)", 8),
                      ("curve(1; phi = (z + 1)^%d / (1); psi = (g1) / (1))"
                       % (k + 1), 23)):
        with pytest.raises(CLIError, match="^line 1:%d: exponent exceeds the "
                           "limit of %d in absolute value$" % (col, k)):
            _eval_one(text)
    monkeypatch.undo()

    script = tmp_path / "big.sgk"
    script.write_text("let a = 2\nassert_eq(a^%d, 1)\n" % (k + 1))
    assert main(["run", str(script)]) == 1
    captured = capsys.readouterr()
    assert "line 2:12: exponent exceeds the limit" in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


def test_scalar_size_limit(tmp_path, capsys, monkeypatch):
    limit = MAX_SCALAR_BITS

    def run(text, **values):
        ev = Evaluator(3)
        ev.vars.update({k: SuperNumber.scalar(3, v) for k, v in values.items()})
        return ev.eval(parse_text(text)[0][1])

    # operands built outside the checks: a = 2^8100 has 8101 bits, so the
    # estimate bits(a) + bits(b) reaches the limit exactly for b = 2^(limit
    # - 8102) and passes it by one for b twice that; p = 2^100 has 101 bits,
    # and a power counts |k| * bits(base), twice that for a negative k
    a, top = 2 ** 8100, limit - 8102
    kp, kq = limit // 101, limit // 202
    under = [("x * b", 2 ** (8100 + top), dict(x=a, b=2 ** top)),
             ("x + b", a + 2 ** top, dict(x=a, b=2 ** top)),
             ("mul(x, b)", 2 ** (8100 + top), dict(x=a, b=2 ** top)),
             ("x / b", Qi(a, 0) / 2 ** (top // 2 - 1),
              dict(x=a, b=2 ** (top // 2 - 1))),
             ("p^%d" % kp, 2 ** (100 * kp), dict(p=2 ** 100)),
             ("p^-%d" % kq, Qi(1) / 2 ** (100 * kq), dict(p=2 ** 100)),
             ("9" * _MAX_LITERAL_DIGITS, int("9" * _MAX_LITERAL_DIGITS), {})]
    for text, want, values in under:
        got = run(text, **values)
        assert got == SuperNumber.scalar(3, want), text
        assert str(got)  # the coefficient still prints
    over = [("x * b", 3, dict(x=a, b=2 ** (top + 1))),
            ("x - b", 3, dict(x=a, b=2 ** (top + 1))),
            ("x / b", 3, dict(x=a, b=2 ** (top // 2))),
            ("p^%d" % (kp + 1), 2, dict(p=2 ** 100)),
            ("p^-%d" % (kq + 1), 2, dict(p=2 ** 100)),
            ("g1 * (p^%d)" % (kp + 1), 8, dict(p=2 ** 100)),
            # a call counts the sum of its arguments' sizes
            ("mul(x, b)", 1, dict(x=a, b=2 ** (top + 1)))]

    # over the limit is refused at the operator before anything is computed
    def no_work(*args):
        raise AssertionError("an operation was computed")

    for name in ("__add__", "__sub__", "__mul__", "__pow__", "invert"):
        monkeypatch.setattr(SuperNumber, name, no_work)
    for text, col, values in over:
        with pytest.raises(CLIError, match="^line 1:%d: result would exceed "
                           "the scalar size limit of %d bits$" % (col, limit)):
            run(text, **values)
    monkeypatch.undo()
    with pytest.raises(CLIError, match="^line 1:5: number literal exceeds the "
                       "scalar size limit of %d bits$" % limit):
        tokenize("1 + " + "9" * (_MAX_LITERAL_DIGITS + 1))

    for text, message in (
            ("let a = (2^1000)^1000\na\n",
             "line 1:17: result would exceed the scalar size limit"),
            ("let m = sl2[[2^1000, 0], [0, 2^-1000]]\nlet a = mul(m, m)\n"
             "let b = mul(a, a)\nlet c = mul(b, b)\nlet d = mul(c, c)\nd\n",
             "line 4:9: result would exceed the scalar size limit"),
            ("let b = %s\nb\n" % ("7" * (_MAX_LITERAL_DIGITS + 1)),
             "line 1:9: number literal exceeds the scalar size limit")):
        script = tmp_path / "big.sgk"
        script.write_text(text)
        assert main(["run", str(script)]) == 1
        captured = capsys.readouterr()
        assert message in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err


def test_t_degree_limit(tmp_path, capsys, monkeypatch):
    limit = MAX_T_DEGREE

    def run(text, **values):
        ev = Evaluator(3)
        ev.vars.update({k: SuperNumber.scalar(3, v) for k, v in values.items()})
        return ev.eval(parse_text(text)[0][1])

    # operands built outside the checks: x = t^1200 has degree 1200, so the
    # estimate deg(x) + deg(b) reaches the limit exactly for b of degree
    # limit - 1200 and passes it by one for b of one degree more; a power
    # counts |k| * deg(base), and so does a negative one, because inverting
    # a rational function swaps its numerator and denominator
    x, top = T_PARAM ** 1200, limit - 1200
    b = 1 / (T_PARAM ** top + 1)
    kp = limit // 12
    under = [("x * b", x * b, dict(x=x, b=b)),
             ("x - b", x - b, dict(x=x, b=b)),
             ("x / b", x / b, dict(x=x, b=b)),
             ("mul(x, b)", x * b, dict(x=x, b=b)),
             ("p^%d" % kp, T_PARAM ** (12 * kp), dict(p=T_PARAM ** 12)),
             ("p^-%d" % kp, 1 / T_PARAM ** (12 * kp), dict(p=T_PARAM ** 12))]
    for text, want, values in under:
        assert run(text, **values) == SuperNumber.scalar(3, want), text
    b = T_PARAM ** (top + 1)
    over = [("x * b", 3, dict(x=x, b=b)),
            ("x + b", 3, dict(x=x, b=b)),
            ("x / b", 3, dict(x=x, b=b)),
            ("p^%d" % (kp + 1), 2, dict(p=T_PARAM ** 12)),
            ("p^-%d" % (kp + 1), 2, dict(p=T_PARAM ** 12)),
            ("g1 * (p^%d)" % (kp + 1), 8, dict(p=T_PARAM ** 12)),
            ("mul(x, b)", 1, dict(x=x, b=b))]

    # over the limit is refused at the operator before anything is computed
    def no_work(*args):
        raise AssertionError("an operation was computed")

    for cls, names in ((SuperNumber, ("__add__", "__sub__", "__mul__",
                                      "__pow__", "invert")),
                       (RatT, ("__add__", "__radd__", "__sub__", "__rsub__",
                               "__mul__", "__rmul__", "__truediv__",
                               "__rtruediv__", "__pow__"))):
        for name in names:
            monkeypatch.setattr(cls, name, no_work)
    for text, col, values in over:
        with pytest.raises(CLIError, match="^line 1:%d: result would exceed "
                           "the degree limit of %d in t$" % (col, limit)):
            run(text, **values)
    monkeypatch.undo()

    script = tmp_path / "deg.sgk"
    script.write_text("let a = t^1000\nlet b = a * a * a\nb\n")
    assert main(["run", str(script)]) == 1
    captured = capsys.readouterr()
    assert "line 2:15: result would exceed the degree limit" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_script_size_limit(monkeypatch):
    import sgk.cli as cli

    limit = MAX_SCRIPT_BYTES
    seen = []

    def no_work(text):
        seen.append(len(text))
        return [cli.Token("eof", "", 1, 1)]

    # a script of exactly the limit reaches the tokenizer; one byte more is
    # refused at the first character past the limit, and so is a two-byte
    # character that would end past it, before anything is tokenized
    monkeypatch.setattr(cli, "tokenize", no_work)
    assert limit % 2 == 0
    at_limit = "1\n" * (limit // 2)
    assert parse_text(at_limit) == [] and seen == [limit]
    for text, where in ((at_limit + "1", "%d:1" % (limit // 2 + 1)),
                        ("#" + "x" * (limit - 2) + "\u00e9", "1:%d" % limit),
                        ("1;" * limit, "1:%d" % (limit + 1))):
        with pytest.raises(CLIError, match="^line %s: script exceeds the "
                           "size limit of %d bytes$" % (where, limit)):
            parse_text(text)
    assert seen == [limit]
    assert parse_text("#" + "x" * (limit - 3) + "\u00e9") == []


def test_statement_limit(tmp_path, capsys, monkeypatch):
    k = MAX_STATEMENTS
    assert len(parse_text("1\n" * k)) == k
    assert len(parse_text("\n".join(["1; 2"] * (k // 2)))) == k

    def no_work(*args):
        raise AssertionError("a statement ran")

    # one statement more is refused where it starts, and nothing runs
    monkeypatch.setattr(Evaluator, "eval", no_work)
    for text, where in (("1\n" * (k + 1), "%d:1" % (k + 1)),
                        ("\n" + "1;" * (k + 1), "2:%d" % (2 * k + 1))):
        with pytest.raises(CLIError, match="^line %s: script exceeds the "
                           "limit of %d statements$" % (where, k)):
            parse_text(text)
        script = tmp_path / "long.sgk"
        script.write_text(text)
        assert main(["run", str(script)]) == 1
        captured = capsys.readouterr()
        assert "line %s: script exceeds the limit" % where in captured.err
        assert "Traceback" not in captured.out + captured.err


def test_degree_limit(tmp_path, capsys, monkeypatch):
    k = MAX_DEGREE

    def curve(d, psi="g1"):
        return "curve(%d; phi = (z^%d + 2) / (z + 1); psi = (%s) / (1))" \
            % (d, d, psi)

    def sec(d, c0="1"):
        return "sec(%d; %s)" % (d, ", ".join([c0] + ["1"] * d))

    # at the limit both literals build, and a general group element acts
    assert _eval_one(curve(k)).d == k and _eval_one(sec(k)).k == k
    moved = _eval_one("act(mul(sl2[[2, 3], [1, 2]], susy(g1, g2)), %s)"
                      % curve(k))
    assert moved.d == k

    # with the _LITERALS entries patched to fail, the limit lets the literal
    # through and refuses one degree more at its head, before any field
    # (here the unbound name `nope`) is evaluated
    def no_build(*args):
        raise AssertionError("the literal was built")

    monkeypatch.setitem(_LITERALS, "curve", no_build)
    monkeypatch.setitem(_LITERALS, "sec", no_build)
    for text in (curve(k), sec(k)):
        with pytest.raises(AssertionError, match="the literal was built"):
            _eval_one(text)
    for text, kind in ((curve(k + 1, psi="nope"), "curve"),
                       (sec(k + 1, c0="nope"), "sec")):
        with pytest.raises(CLIError, match="^line 1:2: %s degree %d exceeds "
                           "the limit of %d$" % (kind, k + 1, k)):
            _eval_one("[%s]" % text)
    monkeypatch.undo()

    script = tmp_path / "deg.sgk"
    script.write_text("let a = 2\nlet c = %s\n" % curve(k + 1))
    assert main(["run", str(script)]) == 1
    captured = capsys.readouterr()
    assert "line 2:9: curve degree %d exceeds the limit of %d" % (k + 1, k) \
        in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


def test_z_degree_limit(tmp_path, capsys, monkeypatch):
    limit = MAX_Z_DEGREE

    def zpow(k):
        return RatFunc(3, SuperPoly(3, [0] * k + [1]), SuperPoly(3, [1]))

    def run(text, **values):
        ev = Evaluator(3)
        ev.vars.update(values)
        return ev.eval(parse_text(text)[0][1])

    # operands built outside the checks: x = z^40, so deg(x) + deg(b)
    # reaches the limit exactly for b = z^(limit - 40) and passes it by one
    # for b of one degree more; a power counts |k| * deg(base) in both signs
    x, top, kp = zpow(40), limit - 40, limit // 4
    b = zpow(top)
    for text, want in (("x * b", x.mul(b)), ("x - b", x.sub(b)),
                       ("x / b", x.div(b)), ("p^%d" % kp, zpow(4 * kp)),
                       ("p^-%d" % kp, zpow(0).div(zpow(4 * kp)))):
        assert str(run(text, x=x, b=b, p=zpow(4))) == str(want), text
    b = zpow(top + 1)
    over = [("x * b", 3), ("x + b", 3), ("x - b", 3), ("x / b", 3),
            ("p^%d" % (kp + 1), 2), ("p^-%d" % (kp + 1), 2)]

    # over the limit is refused at the operator before anything is computed
    def no_work(*args):
        raise AssertionError("an operation was computed")

    for name in ("add", "sub", "mul", "div", "pow"):
        monkeypatch.setattr(RatFunc, name, no_work)
    for name in ("__mul__", "__pow__"):
        monkeypatch.setattr(SuperPoly, name, no_work)
    for text, col in over:
        with pytest.raises(CLIError, match="^line 1:%d: result would exceed "
                           "the degree limit of %d in z$" % (col, limit)):
            run(text, x=x, b=b, p=zpow(4))

    # a power of z past the limit in a literal ends its script in one error
    # record, at once; the product of six factors ran 4.9 s before it failed,
    # and the power of a power ran past 30 s
    message = "line 1:26: result would exceed the degree limit of %d in z" \
        % limit
    for phi in ("(z^1000 + 1)^1000", " * ".join(["(z^1000 + 1)"] * 6)):
        script = tmp_path / "zdeg.sgk"
        script.write_text("let c = curve(1; phi = %s / (1); psi = 0)\n" % phi)
        t0 = time.perf_counter()
        assert main(["run", "--format", "json", str(script)]) == 1
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        records = json.loads(captured.out)["checks"]
        assert [(r["status"], r["residual"]) for r in records] \
            == [("error", message)]
        assert "Traceback" not in captured.out + captured.err
    monkeypatch.undo()

    # a literal whose psi reaches the limit at its "/" still builds
    k, half = MAX_DEGREE, limit // 2
    cur = _eval_one("curve(%d; phi = (z^%d + 2) / (z + 1); psi = (g1*z^%d) "
                    "/ (z^%d))" % (k, k, half, half))
    g1 = SuperNumber.gen(3, 1)
    assert cur.d == k and cur.r == SuperPoly(3, [g1, g1 * 2, g1])


def test_imaginary_literal():
    v = _eval_one("2i * 2i")
    assert v == SuperNumber.scalar(3, Qi(-4))


def test_generator_guard():
    with pytest.raises(CLIError, match="at least 4"):
        _eval_one("g4", n=3)
    assert _eval_one("g4", n=4) == SuperNumber.gen(4, 4)


def test_function_arity_and_unknown_names():
    with pytest.raises(CLIError):
        _eval_one("mul(identity)")
    with pytest.raises(CLIError):
        _eval_one("frobnicate(1)")
    with pytest.raises(CLIError):
        _eval_one("nosuchvar")


# ---------------------------------------------------------------------------
# Built-ins and keyword literals, pinned


# Values the pinned calls below use, bound with two generators.
PIN_PRELUDE = """\
set generators 2
let m = sc[[2, 1, 0], [3, 2, 0], [0, 0, 1]]
let x = 2 + g1*g2
let p = chart1(1; g1)
let q = [1 : 2 : g1]
let s = sec(1; g1, g2)
let c = curve(1; phi = (z) / (1); psi = (g1) / (1))
let pts = [chart1(0; 0), chart1(1; 0), chart1(2; 0)]
let u = [chart1(0; 0), chart1(1; 0), [1 : 0 : 0], chart1(2; g1)]
let k = cfg(points = pts;
          curve = curve(0; phi = (5) / (1); psi = (0) / (1)))
let tc = treecfg(tree = tree(1; edges = []; marks = [1, 1, 1, 1];
                             degrees = [0]);
                 nodal = [];
                 marked = [chart1(0; 0), chart1(1; 0), chart1(2; 0),
                           chart1(3; 0)];
                 curves = [curve(0; phi = (5) / (1); psi = (0) / (1))])
"""

# (expression, printed value or "error: <message>"): every built-in once per
# dispatch branch, with a wrong type in each argument position and with a
# wrong arity, and each keyword literal with a field missing and a field
# misspelled.  The strings were produced by the front end before its
# built-ins became one table, and must not change with it.
FRONT_END_PINS = [
    ("mul(m, m)",
     "sc[[7, 4, 0], [12, 7, 0], [0, 0, 1]]"),
    ("mul(x, g1)",
     "2*g1"),
    ("mul(x, m)",
     "error: line 1:1: mul: mul expects two matrices or two numbers"),
    ("mul(m, x)",
     "error: line 1:1: mul: mul expects two matrices or two numbers"),
    ("mul(m)",
     "error: line 1:1: mul takes 2 argument(s), got 1"),
    ("inv(m)",
     "sc[[2, -1, 0], [-3, 2, 0], [0, 0, 1]]"),
    ("inv(x)",
     "1/2 - 1/4*g1*g2"),
    ("inv(p)",
     "error: line 1:1: inv: inv expects a matrix or a number"),
    ("inv(m, m)",
     "error: line 1:1: inv takes 1 argument(s), got 2"),
    ("inverse(m)",
     "sc[[2, -1, 0], [-3, 2, 0], [0, 0, 1]]"),
    ("inverse(p)",
     "error: line 1:1: inverse: inv expects a matrix or a number"),
    ("inverse()",
     "error: line 1:1: inverse takes 1 argument(s), got 0"),
    ("check(m)",
     "[0, 0, 0, 0]"),
    ("check(x)",
     "error: line 1:1: check: check does not apply to a number"),
    ("check()",
     "error: line 1:1: check takes 1 argument(s), got 0"),
    ("decompose(m)",
     "[sc[[2, 1, 0], [3, 2, 0], [0, 0, 1]], sc[[1, 0, 0], [0, 1, 0], "
     "[0, 0, 1]]]"),
    ("decompose(x)",
     "error: line 1:1: decompose: decompose does not apply to a number"),
    ("decompose(m, m)",
     "error: line 1:1: decompose takes 1 argument(s), got 2"),
    ("act(m, p)",
     "chart1(5/3; 1/3*g1)"),
    ("act(m, q)",
     "[8 : 5 : g1]"),
    ("act(m, s)",
     "sec(1; 2*g1 - 3*g2, -g1 + 2*g2)"),
    ("act(m, c)",
     "curve(1; phi = ((3) + (-2)*z) / ((-2) + (1)*z); psi = ((2*g1) + "
     "(-g1)*z) / ((4) + (-4)*z + (1)*z^2))"),
    ("act(m, k)",
     "cfg(points = [[3 : 2 : 0], [5 : 3 : 0], [7 : 4 : 0]]; curve = "
     "curve(0; phi = ((5)) / ((1)); psi = (0) / ((1))))"),
    ("act(m, tc)",
     "treecfg(tree = tree(1; edges = []; marks = [1, 1, 1, 1]; degrees "
     "= [0]); nodal = []; marked = [[3 : 2 : 0], [5 : 3 : 0], [7 : 4 : "
     "0], [9 : 5 : 0]]; curves = [curve(0; phi = ((5)) / ((1)); psi = "
     "(0) / ((1)))])"),
    ("act(x, p)",
     "error: line 1:1: act: act does not apply to a number"),
    ("act(m, x)",
     "error: line 1:1: act: act does not apply to a number"),
    ("act(m)",
     "error: line 1:1: act takes 2 argument(s), got 1"),
    ("normalize3(chart1(0; g1), chart1(1; 0), [1 : 0 : 0])",
     "[sc[[-1, 0, 0], [0, -1, -g1], [g1, 0, 1]], g1]"),
    ("normalize3(x, chart1(1; 0), [1 : 0 : 0])",
     "error: line 1:1: normalize3: not a superpoint: 2 + g1*g2"),
    ("normalize3(chart1(0; g1), x, [1 : 0 : 0])",
     "error: line 1:1: normalize3: not a superpoint: 2 + g1*g2"),
    ("normalize3(chart1(0; g1), chart1(1; 0), x)",
     "error: line 1:1: normalize3: not a superpoint: 2 + g1*g2"),
    ("normalize3(p, p)",
     "error: line 1:1: normalize3 takes 3 argument(s), got 2"),
    ("susy(g1, g2)",
     "sc[[1 + 1/2*g1*g2, 0, -g2], [0, 1 + 1/2*g1*g2, g1], [g1, g2, 1 - "
     "g1*g2]]"),
    ("susy(x, g2)",
     "error: line 1:1: susy: alpha must be odd"),
    ("susy(g1, x)",
     "error: line 1:1: susy: beta must be odd"),
    ("susy(g1)",
     "error: line 1:1: susy takes 2 argument(s), got 1"),
    ("susy1(k)",
     "[2, 0, 1]"),
    ("susy1(x)",
     "error: line 1:1: susy1: susy1 does not apply to a number"),
    ("susy1(k, k)",
     "error: line 1:1: susy1 takes 1 argument(s), got 2"),
    ("torus(2, p)",
     "chart1(1; 2*g1)"),
    ("torus(2, q)",
     "[1 : 2 : 2*g1]"),
    ("torus(t, c)",
     "curve(1; phi = ((1)*z) / ((1)); psi = (((t)*g1)) / ((1)))"),
    ("torus(2, k)",
     "cfg(points = [[0 : 1 : 0], [1 : 1 : 0], [2 : 1 : 0]]; curve = "
     "curve(0; phi = ((5)) / ((1)); psi = (0) / ((1))))"),
    ("torus(2, tc)",
     "treecfg(tree = tree(1; edges = []; marks = [1, 1, 1, 1]; degrees "
     "= [0]); nodal = []; marked = [[0 : 1 : 0], [1 : 1 : 0], [2 : 1 : "
     "0], [3 : 1 : 0]]; curves = [curve(0; phi = ((5)) / ((1)); psi = "
     "(0) / ((1)))])"),
    ("torus(m, p)",
     "error: line 1:1: torus: torus does not apply to a matrix"),
    ("torus(2, s)",
     "error: line 1:1: torus: torus does not apply to a section"),
    ("torus(2)",
     "error: line 1:1: torus takes 2 argument(s), got 1"),
    ("glue(tc, tc)",
     "treecfg(tree = tree(2; edges = [[1, 2]]; marks = [1, 1, 1, 2, 2, "
     "2]; degrees = [0, 0]); nodal = [[1, 2, [3 : 1 : 0]], [2, 1, [3 : "
     "1 : 0]]]; marked = [[0 : 1 : 0], [1 : 1 : 0], [2 : 1 : 0], [0 : 1 "
     ": 0], [1 : 1 : 0], [2 : 1 : 0]]; curves = [curve(0; phi = ((5)) / "
     "((1)); psi = (0) / ((1))), curve(0; phi = ((5)) / ((1)); psi = "
     "(0) / ((1)))])"),
    ("glue(x, tc)",
     "error: line 1:1: glue: glue does not apply to a number"),
    ("glue(tc, x)",
     "error: line 1:1: glue: glue does not apply to a number"),
    ("glue(tc)",
     "error: line 1:1: glue takes 2 argument(s), got 1"),
    ("forget(tc)",
     "treecfg(tree = tree(1; edges = []; marks = [1, 1, 1]; degrees = "
     "[0]); nodal = []; marked = [[0 : 1 : 0], [1 : 1 : 0], [2 : 1 : "
     "0]]; curves = [curve(0; phi = ((5)) / ((1)); psi = (0) / ((1)))])"),
    ("forget(x)",
     "error: line 1:1: forget: forget does not apply to a number"),
    ("forget()",
     "error: line 1:1: forget takes 1 argument(s), got 0"),
    ("body(x)",
     "2"),
    ("body(m)",
     "error: line 1:1: body: body does not apply to a matrix"),
    ("body()",
     "error: line 1:1: body takes 1 argument(s), got 0"),
    ("soul(x)",
     "g1*g2"),
    ("soul(m)",
     "error: line 1:1: soul: soul does not apply to a matrix"),
    ("soul(x, x)",
     "error: line 1:1: soul takes 1 argument(s), got 2"),
    ("evalc(c, p)",
     "[1 : 1]"),
    ("evalc(x, p)",
     "error: line 1:1: evalc: evalc does not apply to a number"),
    ("evalc(c, x)",
     "error: line 1:1: evalc: not a superpoint: 2 + g1*g2"),
    ("evalc(c)",
     "error: line 1:1: evalc takes 2 argument(s), got 1"),
    ("validate(tc)",
     "true"),
    ("validate(x)",
     "error: line 1:1: validate: validate does not apply to a number"),
    ("validate()",
     "error: line 1:1: validate takes 1 argument(s), got 0"),
    ("sameauto(m, m)",
     "true"),
    ("sameauto(x, m)",
     "error: line 1:1: sameauto: sameauto does not apply to a number"),
    ("sameauto(m, x)",
     "error: line 1:1: sameauto: sameauto does not apply to a number"),
    ("sameauto(m)",
     "error: line 1:1: sameauto takes 2 argument(s), got 1"),
    ("sameorbit(u, u)",
     "true"),
    ("sameorbit(x, u)",
     "error: line 1:1: sameorbit: sameorbit expects two point lists"),
    ("sameorbit(u, x)",
     "error: line 1:1: sameorbit: sameorbit expects two point lists"),
    ("sameorbit(u)",
     "error: line 1:1: sameorbit takes 2 argument(s), got 1"),
    ("reduce(p)",
     "chart1(1; 0)"),
    ("reduce(q)",
     "chart1(1/2; 0)"),
    ("reduce(c)",
     "curve(1; phi = ((1)*z) / ((1)); psi = (0) / ((1)))"),
    ("reduce(k)",
     "cfg(points = [[0 : 1 : 0], [1 : 1 : 0], [2 : 1 : 0]]; curve = "
     "curve(0; phi = ((5)) / ((1)); psi = (0) / ((1))))"),
    ("reduce(x)",
     "error: line 1:1: reduce: reduce does not apply to a number"),
    ("reduce()",
     "error: line 1:1: reduce takes 1 argument(s), got 0"),
    ("frobnicate(1)",
     "error: line 1:1: unknown function 'frobnicate'"),
    ("curve(phi = (z) / (1); psi = (g1) / (1))",
     "error: line 1:7: expected 'num', got 'phi'"),
    ("curve(1; phi = (z) / (1))",
     "error: line 1:25: expected ';', got ')'"),
    ("curve(1; phi = (z) / (1); psy = (g1) / (1))",
     "error: line 1:27: expected 'psi', got 'psy'"),
    ("cfg(points = pts)",
     "error: line 1:17: expected ';', got ')'"),
    ("cfg(points = pts; curv = c)",
     "error: line 1:19: expected 'curve', got 'curv'"),
    ("tree(1; edges = []; marks = [1, 1, 1])",
     "error: line 1:38: expected ';', got ')'"),
    ("tree(1; edges = []; mark = [1, 1, 1]; degrees = [0])",
     "error: line 1:21: expected 'marks', got 'mark'"),
    ("tree(edges = []; marks = [1, 1, 1]; degrees = [0])",
     "error: line 1:6: expected 'num', got 'edges'"),
    ("treecfg(tree = tree(1; edges = []; marks = [1, 1, 1]; degrees = "
     "[0]); nodal = []; marked = pts)",
     "error: line 1:95: expected ';', got ')'"),
    ("treecfg(tree = tree(1; edges = []; marks = [1, 1, 1]; degrees = "
     "[0]); nodal = []; marks = pts; curves = [])",
     "error: line 1:83: expected 'marked', got 'marks'"),
    ("cfg(points = c; curve = c)",
     "error: line 1:1: cfg points must be a list"),
    ("cfg(points = pts; curve = pts)",
     "error: line 1:1: cfg curve must be a curve"),
    ("treecfg(tree = c; nodal = []; marked = pts; curves = [])",
     "error: line 1:1: treecfg tree must be a tree literal"),
]


def _outcome(ev, text):
    try:
        return format_value(ev.eval(parse_text(text)[0][1]))
    except CLIError as exc:
        return "error: %s" % exc


def test_front_end_pins():
    runner = ScriptRunner(n=2)
    assert runner.run(parse_text(PIN_PRELUDE)) == []
    for text, want in FRONT_END_PINS:
        assert _outcome(runner.ev, text) == want, text


def test_literal_errors_carry_line_and_column(tmp_path, capsys):
    # a library error raised while building a literal is reported at the
    # literal's head token, like operator and call errors
    cases = [
        ("let a = sl2[[1, 1], [1, 1]]", 9,
         "Moebius lift needs determinant one, got 0"),
        ("  chart1(g1; 0)", 3, "base coordinate must be even"),
        ("chart2(0; 1)", 1, "odd coordinate must be odd"),
        ("let b = 1 + [g1 : 1]", 13, "target coordinates must be even"),
        ("[0 : 0 : 0]", 1, "homogeneous coordinates with no invertible entry"),
        ("let m = sc[[2, 0, 0], [0, 1, 0], [0, 0, 1]]", 9,
         "matrix violates the group constraints: sp = 1"),
        ("sec(0; [1])", 1, "not a scalar: [1]"),
        ("curve(1; phi = (z*z) / (1); psi = 0)", 1,
         "component degree above the curve degree"),
        ("curve(1; phi = [1]; psi = 0)", 1,
         "cannot use list in a rational expression"),
        ("cfg(points = [1]; curve = curve(0; phi = (5) / (1); psi = 0))", 1,
         "not a superpoint: 1"),
        (" tree(1; edges = [[1, 1]]; marks = []; degrees = [1])", 2,
         "loop edge at vertex 1"),
        ("treecfg(tree = tree(1; edges = []; marks = [1, 1, 1]; "
         "degrees = [0]); nodal = []; marked = [chart1(0; 0)]; "
         "curves = [curve(0; phi = (5) / (1); psi = 0)])", 1,
         "need one point per mark"),
    ]
    script = tmp_path / "lit.sgk"
    script.write_text("".join(text + "\n" for text, _, _ in cases))
    assert main(["run", str(script), "--format", "json",
                 "--generators", "2"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["status"], c["residual"]) for c in checks] == [
        ("error", "line %d:%d: %s" % (i, col, message))
        for i, (_, col, message) in enumerate(cases, 1)]


# Tree configuration fields that a hostile-input case below replaces.
_TC = {"tree": "tree(1; edges = []; marks = [1, 1, 1]; degrees = [0])",
       "nodal": "[]", "marked": "[chart1(0; 0), chart1(1; 0), chart1(2; 0)]",
       "curves": "[curve(0; phi = (5) / (1); psi = 0)]"}


def _treecfg(**fields):
    return "treecfg(%s)" % "; ".join(
        "%s = %s" % (k, fields.get(k, v)) for k, v in _TC.items())


# (script, outcome of `sgk run --format json`): the syntax error on stderr,
# or the residual of the one error record.
HOSTILE_INPUTS = [
    ("let a = 2\u00b2\n",
     "syntax error: line 1:10: unexpected character '\u00b2'"),
    ("set generators \u00b2\n",
     "syntax error: line 1:16: unexpected character '\u00b2'"),
    ("chart1(true; 0)\n", "line 1:1: not a scalar: True"),
    ("let s = sec(0; true)\n", "line 1:9: not a scalar: True"),
    ("let a = g1\nset generators 4\nassert_eq(a, g1)\n",
     "line 3:1: generator count mismatch: 3 vs 4"),
    ("tree(1; edges = []; marks = 5; degrees = [0])\n",
     "line 1:1: tree marks must be a list"),
    ("let x = tree(1; edges = []; marks = [1, 1, 1]; degrees = 5)\n",
     "line 1:9: tree degrees must be a list"),
    (_treecfg(nodal="5") + "\n", "line 1:1: treecfg nodal must be a list"),
    ("\n  " + _treecfg(marked="5") + "\n",
     "line 2:3: treecfg marked must be a list"),
    (_treecfg(curves="[[1]]") + "\n", "line 1:1: vertex 1 carries no curve"),
]


@pytest.mark.parametrize("script, outcome", HOSTILE_INPUTS)
def test_hostile_input_is_reported_with_a_position(script, outcome, capsys,
                                                   monkeypatch):
    assert _run_main(["run", "--format", "json"], script, monkeypatch) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if outcome.startswith("syntax error: "):
        assert captured.err == outcome + "\n"
        # the refused script's report holds the one error record
        message = outcome[len("syntax error: "):]
        payload = json.loads(captured.out)
        assert payload["ok"] is False and len(payload["checks"]) == 1
        rec = payload["checks"][0]
        assert (rec["id"], rec["anchor"], rec["status"], rec["residual"]) \
            == ("syntax", "line-1", "error", message)
    else:
        errors = [c for c in json.loads(captured.out)["checks"]
                  if c["status"] == "error"]
        assert [c["residual"] for c in errors] == [outcome]


def test_booleans_are_not_scalars():
    runner = ScriptRunner(n=2)
    assert _outcome(runner.ev, "[true, false]") == "[true, false]"
    assert _outcome(runner.ev, "true + 1") == \
        "error: line 1:6: cannot apply '+' to boolean and number"
    assert _outcome(runner.ev, "chart2(0; false)") == \
        "error: line 1:1: not a scalar: False"


def test_matrix_operators_and_negation():
    runner = ScriptRunner(n=2)
    assert runner.run(parse_text(PIN_PRELUDE)) == []
    same = [("m * m", "mul(m, m)"),
            ("-m", "mul(m, sc[[-1, 0, 0], [0, -1, 0], [0, 0, -1]])"),
            ("curve(1; phi = -z / (1 + z); psi = g1 / (1 + z)^2)",
             "curve(1; phi = (-1*z) / (1 + z); psi = g1 / (1 + z)^2)")]
    for lhs, rhs in same:
        assert _outcome(runner.ev, lhs) == _outcome(runner.ev, rhs)
        assert not _outcome(runner.ev, lhs).startswith("error")
    assert _outcome(runner.ev, "sameauto(-m, m)") == "true"
    assert _outcome(runner.ev, "m + m") == \
        "error: line 1:3: matrices only combine with *"
    assert _outcome(runner.ev, "  -sec(1; 1, 2)") == \
        "error: line 1:3: cannot negate section"
    assert _outcome(runner.ev, "-[1 : 2]") == \
        "error: line 1:1: cannot negate target point"


def test_every_literal_head_has_a_builder():
    heads = {parse_text(text)[0][1][0]
             for text in CORPUS + ["[1, 2]", "sl2[[1, 0], [0, 1]]"]}
    assert set(_LITERALS) == heads - {"num", "binop", "ident"}


def test_readme_lists_every_built_in():
    # the README's "Functions" list has one "- `name(args)`: ..." item per
    # built-in, aliases side by side
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    items = readme.split("\nFunctions, ")[1].split("\n\n")[1].split("\n- ")
    names = [name for item in items
             for name in re.findall(r"`(\w+)\(", item.split(":")[0])]
    assert sorted(names) == sorted(_FUNCTIONS)


# ---------------------------------------------------------------------------
# Script runner and report records


def test_script_records_and_continuation():
    text = """
set generators 2
let m = sc[[2, 1, 0], [3, 2, 0], [0, 0, 1]]
assert_zero(check(m))
assert_eq(mul(m, inv(m)), identity)
inv(g1)
assert_eq(1, 2)
assert_error(inv(g1))
"""
    runner = ScriptRunner(n=3, echo=None)
    records = runner.run(parse_text(text))
    by_id = {r["id"]: r for r in records}
    assert by_id["assert-1"]["status"] == "pass"
    assert by_id["assert-2"]["status"] == "pass"
    assert by_id["stmt-5"]["status"] == "error"   # inv of a nilpotent
    assert by_id["assert-3"]["status"] == "fail"
    assert by_id["assert-3"]["residual"] == "-1"
    assert by_id["assert-4"]["status"] == "pass"  # the error was expected
    assert all(r["anchor"].startswith("line-") for r in records)


# (assertion, status, residual) of its one record
ASSERT_OUTCOMES = [
    ("assert_eq(true, true)", "pass", None),
    ("assert_eq(true, false)", "fail", "true vs false"),
    ("assert_eq(1, true)", "fail", "type mismatch: number vs boolean"),
    ("assert_eq([1, 2], [1, 2, 3])", "fail", "length 2 vs 3"),
    ("assert_eq([1, [2, g1]], [1, [2, 3]])", "fail", "-3 + g1"),
    ("assert_error(1 + 1)", "fail", "no error raised"),
]


@pytest.mark.parametrize("text, status, residual", ASSERT_OUTCOMES)
def test_assertion_records(text, status, residual):
    records = ScriptRunner(n=3).run(parse_text(text))
    assert [(r["status"], r["residual"]) for r in records] \
        == [(status, residual)]


def test_let_binding_and_echo(capsys):
    runner = ScriptRunner(n=2, echo=None)

    class Out:
        def __init__(self):
            self.lines = []

        def write(self, s):
            self.lines.append(s)

    out = Out()
    runner.echo = out
    runner.run(parse_text("let a = 2 + g1\na * a\n"))
    text = "".join(out.lines)
    assert "a = 2 + g1" in text
    assert "4 + 4*g1" in text


# ---------------------------------------------------------------------------
# Command-line entry points


def test_run_passing_script(tmp_path, capsys):
    script = tmp_path / "ok.sgk"
    script.write_text(
        "set generators 2\n"
        "let m = susy(g1, g2)\n"
        "assert_eq(mul(m, inv(m)), identity)\n"
        "assert_zero(check(m))\n")
    assert main(["run", str(script)]) == 0
    out = capsys.readouterr().out
    assert "pass  assert-1" in out
    assert "2 check(s), 2 passed" in out


def test_run_failing_script_exits_one(tmp_path, capsys):
    script = tmp_path / "bad.sgk"
    script.write_text("assert_eq(1, 2)\n")
    assert main(["run", str(script)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_python_m_sgk_runs_the_command_line():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sgk", "verify-paper", "--select",
         "sp21-closure", "--seed", "3"],
        cwd=src, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pass  sp21-closure")


def test_run_reads_stdin(monkeypatch, capsys):
    assert _run_main(["run"], "1 + 1\n", monkeypatch) == 0
    assert "2" in capsys.readouterr().out


def test_run_reports_syntax_errors(tmp_path, capsys):
    script = tmp_path / "syn.sgk"
    script.write_text("let = 3\n")
    assert main(["run", str(script)]) == 1
    assert "syntax error" in capsys.readouterr().err
    # nesting far past the limit is a syntax error, not a RecursionError
    script.write_text("(" * 3000 + "1" + ")" * 3000 + "\n")
    assert main(["run", str(script)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("syntax error: line 1:")
    assert "Traceback" not in captured.err + captured.out


def test_run_json_reports_a_refused_script(tmp_path, capsys):
    k = MAX_STATEMENTS
    script = tmp_path / "refused.sgk"
    for text, line, message in (
            ("let a = (1", 1, "line 1:11: expected ')', got 'eof'"),
            ("1\n" * (k + 1), k + 1, "line %d:1: script exceeds the limit "
             "of %d statements" % (k + 1, k))):
        script.write_text(text)
        assert main(["run", str(script), "--format", "json",
                     "--generators", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "syntax error: %s\n" % message
        payload = json.loads(captured.out)
        for rec in payload["checks"]:
            del rec["millis"]
        assert payload == {"ok": False, "generators": 2, "checks": [
            {"id": "syntax", "anchor": "line-%d" % line, "status": "error",
             "residual": message}]}


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/path.sgk"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_json_report(tmp_path, capsys):
    script = tmp_path / "r.sgk"
    script.write_text("assert_eq(2 + 2, 4)\nassert_eq(0, 1)\n")
    assert main(["run", str(script), "--format", "json",
                 "--generators", "2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["generators"] == 2
    assert [c["status"] for c in payload["checks"]] == ["pass", "fail"]
    for rec in payload["checks"]:
        assert set(rec) == {"id", "anchor", "status", "residual", "millis"}


# A script in t whose residuals print rational functions as scalars, as
# Grassmann coefficients, as matrix entries and inside curve components.
T_SCRIPT = """\
set generators 2
let p = t + 1/2
let q = t - 3
let a = p / q
assert_eq(a, a + 1)
assert_zero(p * q)
assert_zero(1 / a + (2 + 1i)*g1)
assert_zero(a^3 - 1/(t^2 + 1)*g1*g2)
assert_zero((t + 2i)^(-2)*g1 + 3/a)
assert_eq(a * q, p + 1/t)
let m = mul(sl2[[t, 2], [1/2, (1 + 1)/t]], susy(t*g1, 3*g2))
assert_zero(m)
assert_zero(inv(m))
let c = curve(1; phi = (t*z + 1) / (z + 2); psi = (t*g2) / ((z + 2)^2))
assert_zero(torus(2, c))
assert_zero(act(m, c))
assert_eq(mul(m, m), m)
assert_error(1 / (t - t))
1 / (p - p)
"""

# (id, anchor, status, residual) of each record of `sgk run --format json`
T_SCRIPT_CHECKS = [
    ("assert-1", "line-5", "fail",
      "-1"),
    ("assert-2", "line-6", "fail",
      "(-3/2 + -5/2*t + t^2)"),
    ("assert-3", "line-7", "fail",
      "((-3 + t)/(1/2 + t)) + (2+1i)*g1"),
    ("assert-4", "line-8", "fail",
      "((1/8 + 3/4*t + 3/2*t^2 + t^3)/(-27 + 27*t + -9*t^2 + t^3)"
      ") + ((-1)/(1 + t^2))*g1*g2"),
    ("assert-5", "line-9", "fail",
      "((-9 + 3*t)/(1/2 + t)) + ((1)/(-4 + (0+4i)*t + t^2))*g1"),
    ("assert-6", "line-10", "fail",
      "((-1)/(t))"),
    ("assert-7", "line-12", "fail",
      "sc[[(t) + (3/2*t^2)*g1*g2, 2 + (3*t)*g1*g2, (2*t)*g1 + (-3"
      "*t)*g2], [1/2 + (3/4*t)*g1*g2, ((2)/(t)) + 3*g1*g2, 2*g1 -"
      " 3/2*g2], [(t)*g1, 3*g2, 1 + (-3*t)*g1*g2]]"),
    ("assert-8", "line-13", "fail",
      "sc[[((2)/(t)) + 3*g1*g2, -2 + (-3*t)*g1*g2, 3*g2], [-1/2 +"
      " (-3/4*t)*g1*g2, (t) + (3/2*t^2)*g1*g2, (-1*t)*g1], [-2*g1"
      " + 3/2*g2, (2*t)*g1 + (-3*t)*g2, 1 + (-3*t)*g1*g2]]"),
    ("assert-9", "line-15", "fail",
      "curve(1; phi = ((1) + ((t))*z) / ((2) + (1)*z); psi = (((2"
      "*t)*g2)) / ((4) + (4)*z + (1)*z^2))"),
    ("assert-10", "line-16", "fail",
      "curve(1; phi = ((((-1/8*t^2)/(-1/2 + t)) + ((1/8*t^4)/(1/4"
      " + -1*t + t^2))*g1*g2)) / ((((1/8*t + -1/2*t^2)/(-1/2 + t)"
      ") + ((1/8*t^3)/(1/4 + -1*t + t^2))*g1*g2) + (1)*z); psi = "
      "((((-1/8*t^3)/(-1/2 + t))*g1 + ((1/16*t^4)/(1/4 + -1*t + t"
      "^2))*g2) + (((-3/16*t^2 + 1/4*t^3)/(1/4 + -1*t + t^2))*g2)"
      "*z) / ((((1/64*t^2 + -1/8*t^3 + 1/4*t^4)/(1/4 + -1*t + t^2"
      ")) + ((1/32*t^4 + -1/8*t^5)/(-1/8 + 3/4*t + -3/2*t^2 + t^3"
      "))*g1*g2) + (((1/4*t + -1*t^2)/(-1/2 + t)) + ((1/4*t^3)/(1"
      "/4 + -1*t + t^2))*g1*g2)*z + (1)*z^2))"),
    ("assert-11", "line-17", "fail",
      "values differ"),
    ("assert-12", "line-18", "pass",
      None),
    ("stmt-19", "line-19", "error",
      "line 19:3: not invertible: body is zero"),
]


def test_run_json_report_pins_t_forms(tmp_path, capsys):
    script = tmp_path / "t.sgk"
    script.write_text(T_SCRIPT)
    assert main(["run", str(script), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    for rec in payload["checks"]:
        del rec["millis"]
    keys = ("id", "anchor", "status", "residual")
    assert payload == {
        "ok": False, "generators": 2,
        "checks": [dict(zip(keys, row)) for row in T_SCRIPT_CHECKS]}


def test_repl_evaluates_lines(monkeypatch, capsys):
    lines = iter(["let a = 2", "a * 3", "assert_eq(a, 2)", "exit"])
    monkeypatch.setattr(builtins, "input", lambda prompt="": next(lines))
    assert main(["repl", "--generators", "2"]) == 0
    out = capsys.readouterr().out
    assert "a = 2" in out
    assert "6" in out
    assert "pass  assert-1" in out


def test_repl_survives_syntax_errors(monkeypatch, capsys):
    lines = iter(["let = ", "1 + 1", "exit"])
    monkeypatch.setattr(builtins, "input", lambda prompt="": next(lines))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "syntax error" in out
    assert "2" in out


# ---------------------------------------------------------------------------
# Built-in verification suite


def test_verify_paper_runs_clean(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "12 check(s), 12 passed" in out


def test_verify_paper_select_and_json(capsys):
    assert main(["verify-paper", "--select", "sp21-closure",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["seed"] == 0
    assert len(payload["checks"]) == 1
    rec = payload["checks"][0]
    assert rec["id"] == "sp21-closure"
    assert rec["anchor"] == "supermatrix-constraint-closure"


def test_verify_paper_unknown_id(capsys):
    assert main(["verify-paper", "--select", "nope"]) == 1
    assert "unknown check id" in capsys.readouterr().err


def test_verify_paper_deterministic():
    def strip(records):
        return [{k: v for k, v in r.items() if k != "millis"}
                for r in records]

    a = verify_paper(select=["inverse-formula", "decomposition"], seed=7)
    b = verify_paper(select=["inverse-formula", "decomposition"], seed=7)
    assert strip(a) == strip(b)
    assert all(r["status"] == "pass" for r in a)


def test_verify_paper_reseeding_still_passes():
    for seed in (1, 2):
        records = verify_paper(select=["sp21-closure"], seed=seed)
        assert all(r["status"] == "pass" for r in records)


@pytest.mark.parametrize("exc, status", [
    (CheckFailure("residual 7"), "fail"),
    (GrassmannError("not invertible: body is zero"), "error")])
def test_verify_paper_records_fail_and_error(capsys, exc, status):
    import sgk.cli as cli
    import sgk.paper as paper

    # cli.SUITE is the list the tracer wraps in place
    assert cli.SUITE is paper.SUITE

    def check(rng):
        raise exc

    entry = cli.SUITE[1]
    cid, anchor, _ = entry
    cli.SUITE[1] = (cid, anchor, check)
    try:
        assert main(["verify-paper", "--select", cid + ",sp21-closure",
                     "--format", "json"]) == 1
    finally:
        cli.SUITE[1] = entry
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert [(r["id"], r["status"], r["residual"])
            for r in payload["checks"]] == [
        ("sp21-closure", "pass", None), (cid, status, str(exc))]
