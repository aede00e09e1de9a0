"""Exact linear algebra over Q.

Rank and kernel computations back the generic-q dimension checks: matrices
with Laurent polynomial entries in s are specialized at rational points and
handled with Fraction arithmetic, so results are exact.  Every rank, row
space, kernel and solution over Q comes from one sparse Gauss-Jordan
elimination on ``{column: value}`` rows: the systems here are tall with about
one non-zero per row, so pivot rows stay short and no dense basis is built.

Which way a point value bounds the generic one: the points used are nonzero
rationals other than +/-1, never roots of unity, but a point can still be a
root of some minor.  Specialization can only lower a rank, because a minor
that is a non-zero polynomial may vanish at s0 but a zero one cannot become
non-zero.  So a rank at a point is a lower bound on the generic rank, and a
kernel dimension at a point is an upper bound on the generic kernel
dimension.  A dimension check is certified when an exactly verified spanning
set gives a lower bound that meets such an upper bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Vec = list[Fraction]
SparseRow = dict[int, Fraction]
Row = Union[Sequence[Fraction], SparseRow]  # dense, or sparse {column: value}


def _as_sparse(row: Row) -> SparseRow:
    """The non-zero entries of ``row``, in a new dict."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: c for j, c in items if c}


def _echelon(rows: Iterable[Row]) -> dict[int, SparseRow]:
    """The RREF of ``rows`` as {pivot column: row}.

    Pivot rows are kept fully reduced, so an incoming row needs one pass over
    the pivots it touches; taking its first non-zero column as its pivot
    makes the result the unique RREF.
    """
    pivots: dict[int, SparseRow] = {}
    for given in rows:
        row = _as_sparse(given)
        for p in [j for j in row if j in pivots]:
            f = row.pop(p)
            for j, c in pivots[p].items():
                if j != p:
                    v = row.get(j, 0) - f * c
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        if not row:
            continue
        lead = min(row)
        inv = 1 / Fraction(row[lead])
        row = {j: c * inv for j, c in row.items()}
        for other in pivots.values():
            g = other.pop(lead, 0)
            if g:
                for j, c in row.items():
                    if j != lead:
                        v = other.get(j, 0) - g * c
                        if v:
                            other[j] = v
                        else:
                            del other[j]
        pivots[lead] = row
    return pivots


def _dense(row: SparseRow, n: int) -> Vec:
    out = [Fraction(0)] * n
    for j, c in row.items():
        out[j] = c
    return out


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form of dense rows; returns (nonzero rows, pivot columns)."""
    mat = list(rows)
    if not mat:
        return [], []
    pivots = _echelon(mat)
    order = sorted(pivots)
    return [_dense(pivots[p], len(mat[0])) for p in order], order


def rank(rows: Iterable[Row]) -> int:
    """Rank of dense or sparse rows."""
    return len(_echelon(rows))


def row_space_basis(rows: Iterable[Sequence[Fraction]]) -> list[Vec]:
    """Canonical basis (RREF rows) of the row space."""
    return rref(rows)[0]


def kernel_basis(rows: Iterable[SparseRow], n: int) -> list[Vec]:
    """Basis of {x in Q^n : row . x = 0 for all rows}; rows are sparse dicts.

    One vector per free (non-pivot) column f of the RREF: x_f = 1, x_p =
    -R[p][f] for each pivot row R[p], and 0 elsewhere.
    """
    pivots = _echelon(rows)
    basis = {f: _dense({f: Fraction(1)}, n) for f in range(n) if f not in pivots}
    for p, row in pivots.items():
        for f, c in row.items():
            if f != p:
                basis[f][p] = -c
    return list(basis.values())


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """One solution x of A x = b (A given by dense rows), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    pivots = _echelon([*row, b] for row, b in zip(rows, rhs))
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    sol = [Fraction(0)] * ncols
    for p, row in pivots.items():
        sol[p] = Fraction(row.get(ncols, 0))
    return sol
