"""Exact linear algebra over the scalar field and over the Grassmann algebra.

Field-level routines run Gaussian elimination with exact arithmetic.  The
Grassmann-level solver splits a matrix into body plus nilpotent soul and
inverts through the terminating geometric series, which is enough for every
square system this package meets (their bodies are always invertible).  Rank
and kernel/cokernel data for rectangular Grassmann matrices are computed by
pivoting on body-unit entries; a matrix whose residue needs a soul pivot is
reported as degenerate rather than silently mis-ranked.
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
    scalar_is_zero,
)


# ---------------------------------------------------------------------------
# Scalar-field matrices (lists of lists of Qi / RatT)


def _gauss_jordan(m, ncols):
    """Reduce the first `ncols` columns of `m` in place; returns the rank.

    Each pivot is the first nonzero entry at or below the current row in its
    column; pivot rows are scaled to 1 and the column is cleared above and
    below, so full-rank square columns end as the identity.
    """
    nr = len(m)
    rank = 0
    for col in range(ncols):
        if rank == nr:
            break
        piv = None
        for r in range(rank, nr):
            if not scalar_is_zero(m[r][col]):
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [c * inv for c in m[rank]]
        for r in range(nr):
            if r != rank and not scalar_is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def field_rank(rows):
    m = [[as_scalar(c) for c in row] for row in rows]
    return _gauss_jordan(m, len(m[0])) if m else 0


def _square_size(rows):
    """n for an n x n matrix; GrassmannError naming the shape otherwise."""
    n = len(rows)
    widths = sorted({len(row) for row in rows})
    if n and widths != [n]:
        raise GrassmannError(
            "scalar system must be square, got %d rows of %s columns"
            % (n, "/".join(map(str, widths))))
    return n


def field_solve(rows, rhs):
    """Solve a square scalar system exactly; raises on singular input."""
    n = _square_size(rows)
    if len(rhs) != n:
        raise GrassmannError(
            "right-hand side has %d entries for %d equations" % (len(rhs), n))
    m = [[as_scalar(c) for c in row] + [as_scalar(b)]
         for row, b in zip(rows, rhs)]
    if _gauss_jordan(m, n) < n:
        raise GrassmannError("singular scalar system")
    return [row[n] for row in m]


def field_inverse(rows):
    """Inverse of a square scalar matrix, by eliminating [A | I] once."""
    n = _square_size(rows)
    m = [[as_scalar(c) for c in row] + [QI_ONE if i == j else QI_ZERO
                                         for j in range(n)]
         for i, row in enumerate(rows)]
    if _gauss_jordan(m, n) < n:
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


def mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for c, x in zip(row, v):
            term = c * x
            acc = term if acc is None else acc + term
        out.append(acc)
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
    """Pivot on body-unit entries to split off the free part of the map.

    When the leftover block (after all body pivots are used) is nonzero, its
    image sits inside the soul and the kernel/cokernel are not free modules;
    such inputs are flagged degenerate and the reported ranks refer to the
    free part only.
    """
    if not rows or not rows[0]:
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        return ModuleRankReport(nr, nc, 0, nc, nr, False,
                                _identity(nc, n_gen or 0))
    n = rows[0][0].n
    nr, nc = len(rows), len(rows[0])
    work = [list(r) for r in rows]
    # track column operations so a kernel basis can be reconstructed
    colops = _identity(nc, n)
    rank = 0
    used_rows = set()
    used_cols = set()
    for _ in range(min(nr, nc)):
        piv = None
        for i in range(nr):
            if i in used_rows:
                continue
            for j in range(nc):
                if j in used_cols:
                    continue
                if not scalar_is_zero(work[i][j].body()):
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        inv = work[pi][pj].invert()
        # clear the pivot row across all other columns (column operations)
        for j in range(nc):
            if j == pj or j in used_cols:
                continue
            f = inv * work[pi][j]
            for i in range(nr):
                work[i][j] = work[i][j] - work[i][pj] * f
            for i in range(nc):
                colops[i][j] = colops[i][j] - colops[i][pj] * f
        # clear the pivot column down the other rows (row operations; these
        # do not touch colops)
        for i in range(nr):
            if i == pi:
                continue
            f = work[i][pj] * inv
            for j in range(nc):
                work[i][j] = work[i][j] - f * work[pi][j]
        used_rows.add(pi)
        used_cols.add(pj)
        rank += 1
    residue_nonzero = any(
        not work[i][j].is_zero()
        for i in range(nr) if i not in used_rows
        for j in range(nc) if j not in used_cols
    )
    kernel_basis = []
    for j in range(nc):
        if j not in used_cols and not residue_nonzero:
            kernel_basis.append([colops[i][j] for i in range(nc)])
    return ModuleRankReport(
        rows=nr,
        cols=nc,
        rank=rank,
        kernel_rank=nc - rank if not residue_nonzero else 0,
        coker_rank=nr - rank,
        degenerate=residue_nonzero,
        kernel_basis=kernel_basis,
    )


def _identity(k, n):
    one = SuperNumber.one(n)
    zero = SuperNumber.zero(n)
    return [[one if i == j else zero for j in range(k)] for i in range(k)]

