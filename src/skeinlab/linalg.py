"""Exact linear algebra over Q, on one row format.

Rank and kernel computations back the generic-q dimension checks: matrices
with Laurent polynomial entries in s are evaluated at a rational point and
handled with Fraction arithmetic, so results are exact.  ``at_point(s0)`` is
the one place a coefficient becomes a field element: it checks s0 once and
returns the evaluation map, which callers apply entry by entry as they
assemble their rows (a rank backend over another field would plug in here).

A row or vector is a sparse ``{column: value}`` dict; a missing column is
zero.  Every rank, row space, kernel and solution comes from one sparse
Gauss-Jordan elimination: the systems here are tall with about one non-zero
per row, so pivot rows stay short and no dense basis is built.  The RREF is
returned as ``{pivot column: row}``; it is unique, so two row spaces are
equal exactly when their RREF dicts are.

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
from typing import Callable, Iterable

from .scalar import HalfLaurent, Rat, validate_generic_point

SparseRow = dict[int, Fraction]


def at_point(s0: Rat) -> Callable[[HalfLaurent], Fraction]:
    """The evaluation c -> c(s0), once per distinct c; checks that s0 is generic."""
    s0 = validate_generic_point(s0)
    values: dict[tuple, Fraction] = {}

    def at(c: HalfLaurent) -> Fraction:
        key = tuple(c._terms.items())
        v = values.get(key)
        if v is None:
            v = values[key] = c.specialize(s0)
        return v

    return at


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """The RREF of ``rows`` as {pivot column: row}.

    Pivot rows are kept fully reduced, so an incoming row needs one pass over
    the pivots it touches; taking its first non-zero column as its pivot
    makes the result the unique RREF.
    """
    pivots: dict[int, SparseRow] = {}
    for given in rows:
        row = {j: c for j, c in given.items() if c}
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


def rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """The reduced row echelon form, as {pivot column: row}."""
    return _echelon(rows)


def rank(rows: Iterable[SparseRow]) -> int:
    """Rank of the rows."""
    return len(_echelon(rows))


def kernel_basis(rows: Iterable[SparseRow], n: int) -> list[SparseRow]:
    """Basis of {x in Q^n : row . x = 0 for all rows}.

    One vector per free (non-pivot) column f of the RREF: x_f = 1, x_p =
    -R[p][f] for each pivot row R[p], and 0 elsewhere.
    """
    pivots = _echelon(rows)
    basis = {f: {f: Fraction(1)} for f in range(n) if f not in pivots}
    for p, row in pivots.items():
        for f, c in row.items():
            if f != p:
                basis[f][p] = -c
    return list(basis.values())


def solve(rows: Iterable[SparseRow], rhs: Iterable[Fraction], n: int) -> SparseRow | None:
    """One solution x in Q^n of row . x = b for each row and b of ``rhs``, or
    None; with no equations it is the zero solution."""
    pivots = _echelon({**row, n: b} for row, b in zip(rows, rhs))
    if n in pivots:
        return None  # inconsistent: pivot in the augmented column
    return {p: row[n] for p, row in pivots.items() if n in row}
