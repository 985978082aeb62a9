"""The paper's exact checks, run by `sgk verify-paper`.

SUITE lists the twelve checks as (id, anchor, function) triples, in report
order.  Each function takes a random.Random seeded by the run's seed and its
own id, computes its claim exactly with the library, and raises
CheckFailure with a residual when the claim fails; the paper's closed forms
are written out inline, since they are the oracles the library is checked
against.  verify_paper runs the checks and returns one report record each,
built by record, which also builds the records of `sgk run`.
"""

from __future__ import annotations

import random
import time

from .bundles import sl2_act_section, spinor_section, wronskian
from .curves import (SuperCurve, act_susy_on_curve, random_config,
                     random_curve, same_orbit, susy1_report,
                     torus_act_config, torus_act_curve)
from .grassmann import GrassmannError, Qi, SuperNumber, T_PARAM
from .linalg import field_rank, mat_mul
from .polyrat import SuperPoly
from .scgroup import (SCMatrix, act_point, identity, lift_sl2,
                      point_multiplier, random_sc_matrix, random_sl2_qi,
                      same_automorphism, susy, torus_matrix)
from .superspace import ChartPoint, point_infty, point_zero, torus_act_point
from .trees import (forget_last_mark, glue, random_glue_pair,
                    single_vertex_config, torus_act_tree)
from .trees import validate as validate_tree


def record(rid, anchor, status, residual, t0):
    """One report record; its millis is the wall time since perf_counter()
    read t0."""
    return {
        "id": rid,
        "anchor": anchor,
        "status": status,
        "residual": residual,
        "millis": int(round((time.perf_counter() - t0) * 1000)),
    }


class CheckFailure(Exception):
    """Raised by a suite check; the message becomes the residual."""


def _expect(cond, residual):
    if not cond:
        raise CheckFailure(residual)


def _ck_closure(rng):
    n = 4
    for _ in range(60):
        m = random_sc_matrix(rng, n).mul(random_sc_matrix(rng, n))
        for key, val in m.check().items():
            _expect(val.is_zero(), "constraint %s: %s" % (key, val))
        _expect(m.e.body() in (Qi(1), Qi(-1)), "unit body %s" % m.e.body())
        d1 = m.alpha * m.beta - m.gamma * m.delta
        d2 = m.e * m.alpha - (m.a * m.delta - m.b * m.gamma)
        d3 = m.e * m.beta - (m.c * m.delta - m.d * m.gamma)
        for tag, val in (("odd-product", d1), ("alpha-form", d2),
                         ("beta-form", d3)):
            _expect(val.is_zero(), "derived identity %s: %s" % (tag, val))


def _displayed_inverse(m):
    """The paper's closed-form inverse of a group element m whose e has
    body 1."""
    return SCMatrix.from_rows(
        m.n,
        [[m.d, -m.c, m.beta],
         [-m.b, m.a, -m.alpha],
         [-m.delta, m.gamma, SuperNumber.one(m.n) - m.alpha * m.beta]],
        validate=False)


def _ck_inverse(rng):
    n = 4
    for _ in range(40):
        m = random_sc_matrix(rng, n)
        mn = m.normalized()
        _expect(mn.inverse() == _displayed_inverse(mn), "closed form differs")
        ident = identity(n)
        _expect(m.mul(m.inverse()) == ident, "m * inv(m) differs from 1")
        _expect(m.inverse().mul(m) == ident, "inv(m) * m differs from 1")


def _ck_decompose(rng):
    n = 4
    one = SuperNumber.one(n)
    for _ in range(40):
        m = random_sc_matrix(rng, n)
        quad, (al, be) = m.decompose()
        a, b, c, d = quad
        _expect((a * d - b * c - one).is_zero(), "block determinant not 1")
        prod = lift_sl2(n, a, b, c, d).mul(susy(n, al, be))
        _expect(prod == m.normalized(), "factor product differs")
        _expect(al == m.normalized().alpha and be == m.normalized().beta,
                "shear parameters differ")


def _ck_shear_product(rng):
    n = 4
    sg, tu, al, be = (SuperNumber.gen(n, k) for k in range(1, 5))
    one = SuperNumber.one(n)
    half = SuperNumber.scalar(n, Qi(1) / Qi(2))
    f1 = one + half * sg * tu
    f2 = one + half * al * be
    e1 = one - sg * tu
    e2 = one - al * be
    prod = susy(n, sg, tu).mul(susy(n, al, be))
    expected = SCMatrix.from_rows(n, [
        [f1 * f2 - tu * al, -tu * be, -(f1 * be) - tu * e2],
        [sg * al, f1 * f2 + sg * be, f1 * al + sg * e2],
        [sg * f2 + e1 * al, tu * f2 + e1 * be, -(sg * be) + tu * al + e1 * e2],
    ], validate=False)
    _expect(prod == expected, "product matrix differs from the closed form")
    _expect(not (prod.b.is_zero() and prod.c.is_zero()),
            "product unexpectedly stayed a pure shear")


def _ck_conjugation(rng):
    n = 1
    eta = SuperNumber.gen(n, 1)
    one = SuperNumber.one(n)
    a0, b0, c0, d0 = (SuperNumber.scalar(n, v) for v in (2, 3, 1, 2))
    gamma0, delta0 = 5 * eta, 7 * eta
    alpha0 = a0 * delta0 - b0 * gamma0
    beta0 = c0 * delta0 - d0 * gamma0
    m = SCMatrix.from_rows(n, [[a0, c0, gamma0],
                               [b0, d0, delta0],
                               [alpha0, beta0, one]])
    sg, tu = 2 * eta, 3 * eta

    for base in (m, lift_sl2(n, 2, 3, 1, 2)):
        conj = base.inverse().mul(susy(n, sg, tu)).mul(base)
        hoped = susy(n, a0 * sg + b0 * tu, c0 * sg + d0 * tu)
        _expect(same_automorphism(conj, hoped),
                "conjugate is not the rotated shear")

    # the same computation with every factor written out entry by entry
    mid_raw = SCMatrix.from_rows(n, [[one, 0 * one, tu],
                                     [0 * one, one, -sg],
                                     [sg, tu, one]], validate=False)
    inv_disp = _displayed_inverse(m)
    _expect(inv_disp == m.inverse(), "displayed inverse differs")
    step = mid_raw.mul(m)
    step_expected = SCMatrix.from_rows(
        n,
        [[a0, c0, gamma0 + tu],
         [b0, d0, delta0 - sg],
         [sg * a0 + tu * b0 + alpha0, sg * c0 + tu * d0 + beta0, one]],
        validate=False)
    _expect(step == step_expected, "intermediate product differs")
    final = inv_disp.mul(step)
    al_new = a0 * sg + b0 * tu
    be_new = c0 * sg + d0 * tu
    final_expected = SCMatrix.from_rows(
        n,
        [[one, 0 * one, be_new],
         [0 * one, one, -al_new],
         [al_new, be_new, one]], validate=False)
    _expect(final == final_expected, "final product differs")


def _ck_section_rotation(rng):
    n = 2
    al, be = SuperNumber.gen(n, 1), SuperNumber.gen(n, 2)
    s = spinor_section(n, al, be)
    for _ in range(6):
        a, b, c, d = random_sl2_qi(rng)
        m = lift_sl2(n, a, b, c, d)
        lhs = sl2_act_section(m, s)
        rhs = spinor_section(n, al * a + be * b, al * c + be * d)
        _expect(lhs == rhs, "rotated parameters differ")
        for p in range(-2, 3):
            pt = ChartPoint(n, 1, p, 0)
            img = act_point(m, pt)
            mult = point_multiplier(m, pt)
            _expect(lhs.eval_at(img) == mult * s.eval_at(pt),
                    "frame factor mismatch at p = %d" % p)


def _ck_triple_products(rng):
    n = 2
    eps = SuperNumber.gen(n, 1)
    beta = SuperNumber.gen(n, 2)
    one = SuperNumber.one(n)
    zero = SuperNumber.zero(n)
    tval = SuperNumber.scalar(n, T_PARAM)
    pts = [[zero, one, zero], [one, one, eps], [one, zero, zero]]
    prod1 = mat_mul(pts, susy(n, zero, beta).rows())
    _expect_entries("first", prod1, [[zero, one, zero],
                                     [one, one + eps * beta, eps - beta],
                                     [one, zero, -beta]])
    prod2 = mat_mul(prod1, torus_matrix(n, tval))
    _expect_entries("second", prod2,
                    [[zero, one, zero],
                     [one, one + eps * beta, tval * (eps - beta)],
                     [one, zero, -(tval * beta)]])


def _expect_entries(which, got, want):
    for i, (row, want_row) in enumerate(zip(got, want)):
        for j, (x, y) in enumerate(zip(row, want_row)):
            _expect(x == y, "%s product entry (%d,%d): %s" % (which, i, j, x))


def _ck_four_point(rng):
    n = 3
    e1, e2, e3 = (SuperNumber.gen(n, k) for k in range(1, 4))
    points = [point_zero(n), ChartPoint(n, 1, 1, e1), point_infty(n),
              ChartPoint(n, 1, 2, e2)]
    g = susy(n, SuperNumber.zero(n), e3)
    moved = [act_point(g, p) for p in points]
    _expect(same_orbit(points, moved), "untranslated tuples left the orbit")
    for t in (T_PARAM, Qi(2), Qi(0, 1), Qi(-3) / Qi(5)):
        tz = [torus_act_point(t, p) for p in points]
        tgz = [torus_act_point(t, p) for p in moved]
        _expect(not same_orbit(tz, tgz),
                "orbit unexpectedly descends for t = %s" % t)


def _cleared_residual(u, v):
    """The phi and psi residuals of two (P, Q, r) triples with denominators
    cleared; both are zero exactly when the triples give the same curve."""
    (p1, q1, r1), (p2, q2, r2) = u, v
    return p1 * q2 - p2 * q1, r1 * q2 * q2 - r2 * q1 * q1


def _ck_interchange(rng):
    n = 2
    e1, e2 = SuperNumber.gen(n, 1), SuperNumber.gen(n, 2)
    zero = SuperNumber.zero(n)
    tval = SuperNumber.scalar(n, T_PARAM)
    cur = SuperCurve(n, 1, SuperPoly.linear(n, 0, 1),
                     SuperPoly.const(n, 1), SuperPoly(n, [e1]))
    P, Q, r = cur.P, cur.Q, cur.r
    W = wronskian(cur)
    h = SuperPoly(n, [zero, e2])
    qq = Q * Q

    def matches(img, num_phi, num_psi):
        return all(x.is_zero() for x in _cleared_residual(
            (img.P, img.Q, img.r), (num_phi, qq, num_psi)))

    route1 = torus_act_curve(tval, act_susy_on_curve(zero, e2, cur))
    _expect(matches(route1, P * Q + h * r, (r + h * W) * tval),
            "shear-then-scale closed form differs")
    tor = torus_act_curve(tval, cur)
    route2 = act_susy_on_curve(zero, e2, tor)
    _expect(matches(route2, P * Q + h * (r * tval), r * tval + h * W),
            "scale-then-shear closed form differs")
    _expect(route1 != route2, "the two routes agree for the same parameter")

    # no odd parameter reconciles the two routes: the matching conditions
    # are affine-linear in the candidate, so compare ranks
    bases = [act_susy_on_curve(zero, odd, tor) for odd in (zero, e1, e2)]
    r0, ra, rb = [_cleared_residual((route1.P, route1.Q, route1.r),
                                    (b.P, b.Q, b.r)) for b in bases]
    rows, rhs_rows = [], []
    for comp in range(2):
        d0, da, db = r0[comp], ra[comp] - r0[comp], rb[comp] - r0[comp]
        top = max(d0.degree(), da.degree(), db.degree())
        for i in range(top + 1):
            c0, ca, cb = d0.coeff(i), da.coeff(i), db.coeff(i)
            keys = set(c0.terms) | set(ca.terms) | set(cb.terms)
            for key in sorted(keys):
                row = [ca.terms.get(key, 0), cb.terms.get(key, 0)]
                rows.append(row)
                rhs_rows.append(row + [-(c0.terms[key])
                                       if key in c0.terms else 0])
    _expect(field_rank(rhs_rows) > field_rank(rows),
            "a reconciling odd parameter exists")


def _ck_susy1_ranks(rng):
    n = 2
    for k in range(1, 7):
        for d in range(0, 4):
            if k + 2 * d < 3:
                continue
            for _ in range(2):
                cfg = random_config(rng, n, k, d)
                rep = susy1_report(cfg)
                _expect(rep.rank == 2 and rep.kernel_rank == 0,
                        "rank %d kernel %d at k=%d d=%d"
                        % (rep.rank, rep.kernel_rank, k, d))
                _expect(rep.coker_rank == k + 2 * d - 2,
                        "cokernel %d at k=%d d=%d" % (rep.coker_rank, k, d))
                moved = susy1_report(torus_act_config(Qi(2), cfg))
                _expect((moved.rank, moved.kernel_rank, moved.coker_rank)
                        == (rep.rank, rep.kernel_rank, rep.coker_rank),
                        "ranks moved under the torus at k=%d d=%d" % (k, d))


def _ck_gluing(rng):
    for _ in range(8):
        c1, c2 = random_glue_pair(rng, 1)
        g = glue(c1, c2)
        _expect(validate_tree(g).ok, "glued configuration invalid")
        for t in (Qi(2), Qi(0, 1)):
            lhs = glue(torus_act_tree(t, c1), torus_act_tree(t, c2))
            _expect(lhs == torus_act_tree(t, g),
                    "gluing does not commute with t = %s" % t)
    for _ in range(5):
        cfg = random_config(rng, 1, 4, 1)
        tc = single_vertex_config(cfg.points, cfg.curve)
        for t in (Qi(2), Qi(0, 1)):
            _expect(forget_last_mark(torus_act_tree(t, tc))
                    == torus_act_tree(t, forget_last_mark(tc)),
                    "forgetting does not commute with t = %s" % t)


def _ck_fixed_points(rng):
    n = 1
    eta = SuperNumber.gen(n, 1)
    ts = (Qi(2), Qi(0, 1), Qi(-3) / Qi(5))
    for b in range(-3, 4):
        clean = ChartPoint(n, 1, b, 0)
        dirty = ChartPoint(n, 1, b, eta)
        for t in ts:
            _expect(torus_act_point(t, clean) == clean,
                    "reduced point moved")
            _expect(torus_act_point(t, dirty) != dirty,
                    "non-reduced point fixed")
    dirty2 = ChartPoint(n, 2, 0, eta)
    for t in ts:
        _expect(torus_act_point(t, dirty2) != dirty2,
                "non-reduced chart-2 point fixed")
    for d in range(0, 3):
        cur = random_curve(rng, n, d)
        red = cur.reduced()
        for t in ts:
            _expect(torus_act_curve(t, red) == red, "reduced curve moved")
        if d >= 1:
            odd = SuperCurve(n, d, cur.P, cur.Q, SuperPoly(n, [eta]))
            for t in ts:
                _expect(torus_act_curve(t, odd) != odd,
                        "non-reduced curve fixed")
    red_cfg = random_config(rng, n, 3, 1, reduced=True)
    tc_red = single_vertex_config(red_cfg.points, red_cfg.curve)
    big_cfg = random_config(rng, n, 3, 1)
    tc_big = single_vertex_config(
        [ChartPoint(n, 1, 5, eta)] + list(big_cfg.points)[1:],
        big_cfg.curve)
    for t in ts:
        _expect(torus_act_config(t, red_cfg) == red_cfg,
                "reduced configuration moved")
        _expect(torus_act_tree(t, tc_red) == tc_red,
                "reduced tree configuration moved")
        _expect(torus_act_tree(t, tc_big) != tc_big,
                "non-reduced tree configuration fixed")


SUITE = [
    ("sp21-closure", "supermatrix-constraint-closure", _ck_closure),
    ("inverse-formula", "closed-form-inverse", _ck_inverse),
    ("decomposition", "lift-shear-factorization", _ck_decompose),
    ("susy-not-group", "shear-product-matrix", _ck_shear_product),
    ("r01-conjugation", "shear-conjugation-by-lift", _ck_conjugation),
    ("section-rotation", "degree-one-section-rotation",
     _ck_section_rotation),
    ("three-point-torus", "torus-translated-triple-products",
     _ck_triple_products),
    ("four-point-nondescent", "four-point-orbit-nondescent",
     _ck_four_point),
    ("phipsi-nondescent", "odd-shear-torus-interchange", _ck_interchange),
    ("susy1-ranks", "normal-map-cokernel-ranks", _ck_susy1_ranks),
    ("gluing-equivariance", "gluing-torus-equivariance", _ck_gluing),
    ("torus-fixed-points", "reduced-fixed-locus", _ck_fixed_points),
]


def verify_paper(select=None, seed=0):
    """Run the suite, or the checks whose ids select names; returns the list
    of report records.  An unknown id is a ValueError."""
    known = [cid for cid, _, _ in SUITE]
    if select:
        missing = [cid for cid in select if cid not in known]
        if missing:
            raise ValueError("unknown check id(s): %s (known: %s)"
                             % (", ".join(missing), ", ".join(known)))
    records = []
    for cid, anchor, fn in SUITE:
        if select and cid not in select:
            continue
        rng = random.Random("%d|%s" % (seed, cid))
        t0 = time.perf_counter()
        status, residual = "pass", None
        try:
            fn(rng)
        except CheckFailure as exc:
            status, residual = "fail", str(exc)
        except GrassmannError as exc:
            status, residual = "error", str(exc)
        records.append(record(cid, anchor, status, residual, t0))
    return records
