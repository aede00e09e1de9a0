"""Linear algebra over the prime field F_P, P = 2^31 - 1, on one row format.

Rank and kernel computations back the generic-q dimension checks: matrices
with Laurent polynomial entries in s are evaluated at a point of F_P and
eliminated there exactly, in integers mod P.  ``at_point(s0)`` is the one
place a coefficient becomes a field element: it checks the rational s0 once,
maps it into F_P and returns the evaluation map, which callers apply entry by
entry as they assemble their rows.

A row or vector is a sparse ``{column: value}`` dict of ints, read mod P; a
missing column is zero.  Every rank, row space, kernel and solution comes
from one sparse Gauss-Jordan elimination: the systems here are tall with
about one non-zero per row, so pivot rows stay short and no dense basis is
built.  The RREF is returned as ``{pivot column: row}``; it is unique, so
two row spaces are equal exactly when their RREF dicts are.

Which way a point value bounds the generic one (Schwartz, J. ACM 27, 1980):
every coefficient is a rational whose denominator P does not divide, so
evaluating s at s0 in F_P^x is a ring map.  A minor that is zero stays zero
and a non-zero one can only vanish.  So a rank mod P is a lower bound on the
generic rank, and ``cols - rank`` an upper bound on the generic kernel
dimension.  A dimension check is certified when an exactly verified spanning
set gives a lower bound that meets such an upper bound; one that does not
close fails.  A rational with no image in F_P (P divides its denominator)
raises ``ScalarError`` naming it; it is never skipped.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .scalar import P, HalfLaurent, Rat, residue, validate_generic_point

SparseRow = dict[int, int]


def at_point(s0: Rat) -> Callable[[HalfLaurent], int]:
    """The evaluation c -> c(s0) mod P, once per distinct c; checks that s0 is generic."""
    x = residue(validate_generic_point(s0))
    values: dict[tuple, int] = {}

    def at(c: HalfLaurent) -> int:
        key = tuple(c._terms.items())
        v = values.get(key)
        if v is None:
            v = values[key] = c.specialize(x)
        return v

    return at


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """The RREF of ``rows`` mod P as {pivot column: row}.

    Pivot rows are kept fully reduced, so an incoming row needs one pass over
    the pivots it touches; taking its first non-zero column as its pivot
    makes the result the unique RREF.
    """
    pivots: dict[int, SparseRow] = {}
    for given in rows:
        row = {j: v for j, c in given.items() if (v := c % P)}
        for p in [j for j in row if j in pivots]:
            f = row.pop(p)
            for j, c in pivots[p].items():
                if j != p:
                    v = (row.get(j, 0) - f * c) % P
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, P)
        row = {j: c * inv % P for j, c in row.items()}
        for other in pivots.values():
            g = other.pop(lead, 0)
            if g:
                for j, c in row.items():
                    if j != lead:
                        v = (other.get(j, 0) - g * c) % P
                        if v:
                            other[j] = v
                        else:
                            del other[j]
        pivots[lead] = row
    return pivots


def rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """The reduced row echelon form mod P, as {pivot column: row}."""
    return _echelon(rows)


def rank(rows: Iterable[SparseRow]) -> int:
    """Rank of the rows mod P."""
    return len(_echelon(rows))


def kernel_basis(rows: Iterable[SparseRow], n: int) -> list[SparseRow]:
    """Basis of {x in F_P^n : row . x = 0 for all rows}.

    One vector per free (non-pivot) column f of the RREF: x_f = 1, x_p =
    -R[p][f] for each pivot row R[p], and 0 elsewhere.
    """
    pivots = _echelon(rows)
    basis = {f: {f: 1} for f in range(n) if f not in pivots}
    for p, row in pivots.items():
        for f, c in row.items():
            if f != p:
                basis[f][p] = P - c
    return list(basis.values())


def solve(rows: Iterable[SparseRow], rhs: Iterable[int], n: int) -> SparseRow | None:
    """One solution x in F_P^n of row . x = b for each row and b of ``rhs``,
    or None; with no equations it is the zero solution."""
    pivots = _echelon({**row, n: b} for row, b in zip(rows, rhs))
    if n in pivots:
        return None  # inconsistent: pivot in the augmented column
    return {p: row[n] for p, row in pivots.items() if n in row}
