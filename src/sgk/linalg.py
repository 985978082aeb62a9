"""Exact linear algebra over the scalar field and over the Grassmann algebra.

One Gauss-Jordan loop reduces every matrix: it pivots on units (nonzero
scalars, or SuperNumbers with a nonzero body) and multiplies from the left,
so odd entries keep their signs.  The field routines and module_rank_report
read their results off its reduced form; a Grassmann matrix whose leftover
rows are nonzero (soul entries only) is reported as degenerate rather than
silently mis-ranked.  The square Grassmann solver splits a matrix into body
plus nilpotent soul and inverts through the terminating geometric series,
which needs an invertible body.

module_rank_report takes a scalar route when no entry has a soul: such a
matrix is a scalar matrix, and its module rank is its field rank.  The loop
then reduces the bodies (Qi or RatT) instead of SuperNumbers, with the same
pivots and the same reduced form, and only the kernel basis is lifted back
to SuperNumbers; the report is never degenerate.  A matrix with a soul
anywhere keeps the Grassmann route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grassmann import (
    QI_ONE,
    QI_ZERO,
    GrassmannError,
    SuperNumber,
    as_scalar,
    dot,
)


# ---------------------------------------------------------------------------
# Elimination (entries Qi / RatT, or SuperNumber)


def _unit(x):
    """True for a nonzero scalar or a SuperNumber with a nonzero body."""
    if isinstance(x, SuperNumber):
        return x.is_invertible()
    return not x.is_zero()


def _gauss_jordan(m, ncols):
    """Reduce the first `ncols` columns of `m` in place; returns the list of
    pivot columns.

    Each pivot is the first unit at or below the current row in its column.
    Pivot rows are scaled from the left (inv * c) to a leading 1 and the
    column is cleared above and below with a - f * b, f on the left, since
    odd entries anticommute; full-rank square columns end as the identity.
    """
    nr = len(m)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nr:
            break
        piv = None
        for r in range(rank, nr):
            if _unit(m[r][col]):
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        prow = m[rank] = [inv * c for c in m[rank]]
        for r in range(nr):
            f = m[r][col]
            if r != rank and not f.is_zero():
                m[r] = [a - f * b for a, b in zip(m[r], prow)]
        pivots.append(col)
    return pivots


def field_rank(rows):
    m = [[as_scalar(c) for c in row] for row in rows]
    return len(_gauss_jordan(m, len(m[0]))) if m else 0


def field_inverse(rows):
    """Inverse of a square scalar matrix, by eliminating [A | I] once;
    raises on a singular or non-square matrix, naming its shape."""
    n = len(rows)
    widths = sorted({len(row) for row in rows})
    if n and widths != [n]:
        raise GrassmannError(
            "scalar system must be square, got %d rows of %s columns"
            % (n, "/".join(map(str, widths))))
    m = [[as_scalar(c) for c in row] + [QI_ONE if i == j else QI_ZERO
                                        for j in range(n)]
         for i, row in enumerate(rows)]
    if len(_gauss_jordan(m, n)) < n:
        raise GrassmannError("singular scalar system")
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# Grassmann matrices


def mat_mul(a, b):
    if not a or not b:
        return []
    inner = len(b)
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = None
            for k in range(inner):
                term = row[k] * b[k][j]
                acc = term if acc is None else acc + term
            new.append(acc)
        out.append(new)
    return out


def solve_body_invertible(rows, rhs):
    """Solve A x = b over the Grassmann algebra when body(A) is invertible.

    Writes A = B + N with scalar body B and nilpotent N, then applies
    x = sum_k (-B^-1 N)^k B^-1 b, which terminates because every entry of N
    is a sum of soul elements.
    """
    if not rows:
        return []
    n_gen = rows[0][0].n
    if len(rhs) != len(rows):
        raise GrassmannError(
            "right-hand side has %d entries for %d equations"
            % (len(rhs), len(rows)))
    binv = [[SuperNumber.scalar(n_gen, c) for c in row]
            for row in field_inverse([[c.body() for c in row] for row in rows])]
    souls = [[c.soul() for c in row] for row in rows]

    def apply_binv(vec):
        return [dot(n_gen, row, vec) for row in binv]

    def apply_soul(vec):
        return [dot(n_gen, row, vec) for row in souls]

    term = apply_binv([SuperNumber.coerce(n_gen, b) for b in rhs])
    x = term
    for _ in range(n_gen):
        if all(v.is_zero() for v in term):
            break
        term = apply_binv(apply_soul(term))
        term = [-v for v in term]
        x = [a + b for a, b in zip(x, term)]
    return x


@dataclass
class ModuleRankReport:
    """Rank data of a Grassmann matrix viewed as a free-module map."""

    rows: int
    cols: int
    rank: int
    kernel_rank: int
    coker_rank: int
    degenerate: bool
    kernel_basis: list


def module_rank_report(rows, n_gen=None) -> ModuleRankReport:
    """Rank data of a Grassmann matrix, read off its reduced form.

    The rank is the number of body-unit pivots.  When a row left without a
    pivot is still nonzero, its entries sit inside the soul and the kernel
    and cokernel are not free modules: such inputs are flagged degenerate,
    the ranks refer to the free part only and no kernel basis is given.
    Otherwise each free column j gives the kernel vector
    e_j - sum_i work[i][j] e_(p_i), p_i the pivot column of row i.  Scalar
    entries are coerced to SuperNumbers over the generator count of the
    first SuperNumber entry, or else n_gen, or else 0; any other entry
    raises GrassmannError.

    A matrix whose entries all lack a soul is a scalar matrix: its bodies
    are reduced instead, with the same pivots and the same reduced form,
    and only the kernel basis is lifted back to SuperNumbers.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    n = next((x.n for r in rows for x in r if isinstance(x, SuperNumber)),
             n_gen or 0)
    work = [[SuperNumber.coerce(n, x) for x in r] for r in rows]
    # a value without a soul holds no term but the body, keyed by mask 0
    scalar = all(len(x._num) == (0 in x._num) for r in work for x in r)
    if scalar:
        work = [[x.body() for x in r] for r in work]
    pivots = _gauss_jordan(work, nc)
    rank = len(pivots)
    degenerate = any(not c.is_zero() for row in work[rank:] for c in row)
    kernel_basis = []
    if not degenerate:
        zero, one = SuperNumber.zero(n), SuperNumber.one(n)
        for j in range(nc):
            if j in pivots:
                continue
            v = [zero] * nc
            v[j] = one
            for i, p in enumerate(pivots):
                v[p] = SuperNumber.scalar(n, -work[i][j]) if scalar \
                    else -work[i][j]
            kernel_basis.append(v)
    return ModuleRankReport(nr, nc, rank, 0 if degenerate else nc - rank,
                            nr - rank, degenerate, kernel_basis)
