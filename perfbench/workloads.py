"""The three benchmark workloads: input generation, the timed call, and an
answer check that does not rely on the code under test.

Each workload is a closed loop with one caller.  `make(i)` builds item i from
the workload seed (not timed), `run(inp)` is the timed call into sgk, and
`check(inp, out)` returns (correct, digest) where the digest is a canonical
string of the item's output, used to compare traced and untraced runs.

Items come in cycles of `cycle` items that cover every item shape once, and
a time-bounded run stops only at a cycle boundary, so every run holds the
same mix of shapes.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction


# The twelve built-in checks and their anchors, as the paper's verification
# suite names them.  Kept here rather than read from sgk.cli.SUITE so that a
# check renamed, dropped or re-anchored in the package shows as a failure.
SUITE_EXPECTED = (
    ("sp21-closure", "supermatrix-constraint-closure"),
    ("inverse-formula", "closed-form-inverse"),
    ("decomposition", "lift-shear-factorization"),
    ("susy-not-group", "shear-product-matrix"),
    ("r01-conjugation", "shear-conjugation-by-lift"),
    ("section-rotation", "degree-one-section-rotation"),
    ("three-point-torus", "torus-translated-triple-products"),
    ("four-point-nondescent", "four-point-orbit-nondescent"),
    ("phipsi-nondescent", "odd-shear-torus-interchange"),
    ("susy1-ranks", "normal-map-cokernel-ranks"),
    ("gluing-equivariance", "gluing-torus-equivariance"),
    ("torus-fixed-points", "reduced-fixed-locus"),
)


class Suite:
    """One item is one built-in check run at a fresh seed, as a user runs
    `sgk verify-paper --select ID --seed S`.

    A cycle runs all twelve checks at one seed, then `phipsi-nondescent`
    again at a second seed.  With twelve checks per cycle the median item
    falls in the gap between the sixth and seventh cheapest checks (about
    50 ms and 75 ms), and the median jumps with the extremes of the two; the
    thirteenth item puts the median inside one check's cluster.
    """

    cycle = len(SUITE_EXPECTED) + 1

    def __init__(self, seed):
        from sgk.cli import verify_paper
        self._verify = verify_paper
        self._rng = random.Random(seed)
        self._seeds = []

    def make(self, i):
        c, j = divmod(i, self.cycle)
        while len(self._seeds) <= c:
            self._seeds.append((self._rng.randrange(2 ** 31),
                                self._rng.randrange(2 ** 31)))
        if j < len(SUITE_EXPECTED):
            cid, anchor = SUITE_EXPECTED[j]
            return cid, anchor, self._seeds[c][0]
        return SUITE_EXPECTED[8] + (self._seeds[c][1],)

    def run(self, inp):
        cid, _, seed = inp
        return self._verify(select=[cid], seed=seed)

    def check(self, inp, out):
        cid, anchor, _ = inp
        rows = [(r["id"], r["anchor"], r["status"], r["residual"])
                for r in out]
        ok = rows == [(cid, anchor, "pass", None)]
        return ok, json.dumps(rows)


# ---------------------------------------------------------------------------
# orbit-n8

N8 = 8
ORBIT_POOL = 4        # group elements per run; items draw ordered pairs
ORBIT_SHAPES = tuple((k, d) for d in (1, 2, 3) for k in (3, 4, 5, 6))
# Monomials of the odd shear parameters (alpha, beta).  The pattern is the
# same for every seed and only the coefficients are drawn, so the cost of
# the pool does not vary with the seed.  Denser parameters make one item
# take seconds, too few items for steady figures in one run.
ORBIT_ALPHA = ((1,), (2, 3, 4), (5, 6, 7))
ORBIT_BETA = ((5,), (1, 6, 8), (2, 3, 7))
_BODIES = sorted({Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3)})


def _small_q(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _small_int(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _poly_from_roots(roots, lead):
    """Coefficients (constant first) of lead * prod (z - r)."""
    co = [Fraction(lead)]
    for r in roots:
        shifted = [Fraction(0)] + co
        co = [shifted[j] - r * (co[j] if j < len(co) else 0)
              for j in range(len(shifted))]
    return co


class OrbitN8:
    """One item moves a marked configuration at n = 8 by two group elements
    from a small pool of lift-times-shear elements and checks four exact
    laws of the action."""

    cycle = len(ORBIT_SHAPES)

    def __init__(self, seed):
        from sgk import curves, grassmann, polyrat, scgroup, superspace
        self._sn = grassmann.SuperNumber
        self._poly = polyrat.SuperPoly
        self._curve = curves.SuperCurve
        self._config = curves.MarkedConfig
        self._chart = superspace.ChartPoint
        self._curves = curves
        self._identity = scgroup.identity(N8)
        rng = random.Random(seed)
        self._pool = [self._element(rng, scgroup) for _ in range(ORBIT_POOL)]
        self._rng = rng

    def _odd(self, rng, monomials):
        return self._sn(N8, {m: _small_q(rng) for m in monomials})

    def _element(self, rng, scgroup):
        x, y, u = _small_q(rng), _small_q(rng), _small_q(rng)
        lift = scgroup.lift_sl2(N8, u, u * y, x / u, (1 + x * y) / u)
        shear = scgroup.susy(N8, self._odd(rng, ORBIT_ALPHA),
                             self._odd(rng, ORBIT_BETA))
        return lift.mul(shear)

    def make(self, i):
        rng = self._rng
        k, d = ORBIT_SHAPES[i % self.cycle]
        m1, m2 = rng.sample(self._pool, 2)
        # distinct rational bodies: k marked points, then the d roots of the
        # denominator and the d roots of the numerator, so the body map has
        # degree exactly d with coprime components
        vals = rng.sample(_BODIES, k + 2 * d)
        pts = [self._chart(N8, 1, self._sn(N8, {(): v}),
                           self._odd(rng, [(j + 1,)]))
               for j, v in enumerate(vals[:k])]
        num = _poly_from_roots(vals[k + d:], _small_q(rng))
        den = _poly_from_roots(vals[k:k + d], 1)
        curve = self._curve(N8, d, self._poly(N8, num), self._poly(N8, den))
        return k, d, m1, m2, self._config(pts, curve)

    def run(self, inp):
        k, d, m1, m2, cfg = inp
        cv = self._curves
        m = m1 * m2
        inverse_ok = m * m.inverse() == self._identity
        moved = cv.act_config(m, cfg)
        composed_ok = moved == cv.act_config(m2, cv.act_config(m1, cfg))
        before = cv.susy1_report(cfg)
        after = cv.susy1_report(moved)
        return (inverse_ok, composed_ok,
                (before.rank, before.kernel_rank, before.coker_rank,
                 before.degenerate),
                (after.rank, after.kernel_rank, after.coker_rank,
                 after.degenerate))

    def check(self, inp, out):
        k, d = inp[0], inp[1]
        inverse_ok, composed_ok, before, after = out
        ok = (inverse_ok is True and composed_ok is True
              and before == after
              and (before[3] or before[2] == k + 2 * d - 2))
        return ok, json.dumps([k, d, inverse_ok, composed_ok,
                               list(before), list(after)])


# ---------------------------------------------------------------------------
# script-t

SCRIPT_GENERATORS = (2, 3, 4)


def _lit(f):
    """A script literal for a rational; negatives are parenthesized."""
    f = Fraction(f)
    s = str(abs(f.numerator)) if f.denominator == 1 else \
        "%d/%d" % (abs(f.numerator), f.denominator)
    return "(-%s)" % s if f < 0 else s


class ScriptT:
    """One item is a generated script run through `sgk run`; each script
    exercises the transcendental parameter t and carries seeded negative
    controls whose assertions must fail."""

    cycle = len(SCRIPT_GENERATORS)

    def __init__(self, seed):
        from sgk.cli import main
        self._main = main
        self._rng = random.Random(seed)

    def make(self, i):
        rng = self._rng
        n = SCRIPT_GENERATORS[i % self.cycle]
        r1, r2 = rng.sample([Fraction(a, b) for a in range(-5, 6)
                             for b in (1, 2)], 2)
        r3 = _small_int(rng)
        b1, c1, u, v, x0, y0 = (_small_int(rng) for _ in range(6))
        lines = []
        expect = []

        def stmt(text):
            lines.append(text)

        def assertion(text, status):
            lines.append(text)
            expect.append((len(lines), status))

        stmt("set generators %d" % n)
        stmt("let p = t + %s" % _lit(r1))
        stmt("let q = t + %s" % _lit(r2))
        stmt("let a = p / q")
        assertion("assert_eq(a * q, p)", "pass")
        assertion("assert_eq((t + %s)^2, t^2 + %s*t + %s)"
                  % (_lit(r3), _lit(2 * r3), _lit(r3 * r3)), "pass")
        assertion("assert_eq(1 / a, q / p)", "pass")
        stmt("let x = t*g1")
        stmt("let y = %s*g2" % _lit(_small_int(rng)))
        # [[a, c], [b, d]] with a d - b c = t (1 + b c)/t - b c = 1
        stmt("let l1 = sl2[[t, %s], [%s, (1 + %s)/t]]"
             % (_lit(c1), _lit(b1), _lit(b1 * c1)))
        stmt("let l2 = sl2[[%s, 0], [%s, 1/(%s)]]"
             % (_lit(u), _lit(v), _lit(u)))
        stmt("let m1 = mul(l1, susy(x, y))")
        stmt("let m2 = l2")
        assertion("assert_zero(check(m1))", "pass")
        assertion("assert_eq(mul(m1, inv(m1)), "
                  "sc[[1, 0, 0], [0, 1, 0], [0, 0, 1]])", "pass")
        assertion("assert_eq(inv(mul(m1, m2)), mul(inv(m2), inv(m1)))",
                  "pass")
        # phi = (t z + x0)/(z + y0) has coprime components since x0 != 0
        stmt("let c = curve(1; phi = (t*z + %s) / (z + %s); "
             "psi = (t*g%d) / ((z + %s)^2))"
             % (_lit(x0), _lit(y0), n, _lit(y0)))
        assertion("assert_eq(act(mul(l1, l2), c), act(l2, act(l1, c)))",
                  "pass")
        assertion("assert_eq(torus(t, torus(1/t, c)), c)", "pass")
        # the odd shear in m1 moves only nilpotent parts of the curve
        assertion("assert_eq(reduce(act(m1, c)), reduce(act(l1, c)))",
                  "pass")
        assertion("assert_error(inv(x))", "pass")
        controls = [
            "assert_eq(a, a + 1)",
            "assert_zero(p * q)",
            "assert_eq(torus(2, c), c)",
            "assert_eq(mul(m1, m1), m1)",
        ]
        for text in rng.sample(controls, 2):
            assertion(text, "fail")
        return n, "\n".join(lines) + "\n", expect

    def run(self, inp):
        n, text, _ = inp
        out = io.StringIO()
        stdin = io.StringIO(text)
        with contextlib.redirect_stdout(out), _swap_stdin(stdin):
            code = self._main(["run", "--format", "json",
                               "--generators", str(n)])
        return code, out.getvalue()

    def check(self, inp, out):
        _, _, expect = inp
        code, text = out
        report = json.loads(text)
        got = [(r["id"], r["anchor"], r["status"]) for r in report["checks"]]
        want = [("assert-%d" % (k + 1), "line-%d" % line, status)
                for k, (line, status) in enumerate(expect)]
        ok = got == want and code == 1 and report["ok"] is False
        rows = [(r["id"], r["anchor"], r["status"], r["residual"])
                for r in report["checks"]]
        return ok, json.dumps([code, rows])


@contextlib.contextmanager
def _swap_stdin(stream):
    saved = sys.stdin
    sys.stdin = stream
    try:
        yield
    finally:
        sys.stdin = saved


WORKLOADS = {"suite": Suite, "orbit-n8": OrbitN8, "script-t": ScriptT}
