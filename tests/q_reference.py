"""Exact-Q reference for the point ranks, which ``skeinlab.linalg`` takes mod P.

``q_value`` evaluates a Laurent coefficient at a rational point as a
Fraction, and ``q_echelon`` is the sparse Gauss-Jordan elimination over Q
that ``linalg`` ran before it moved to F_P.  ``over_q`` patches both into
``linalg``, so a caller's own system is ranked over Q instead.
"""

from __future__ import annotations

from fractions import Fraction

from skeinlab import linalg
from skeinlab.scalar import HalfLaurent, validate_generic_point


def q_value(c: HalfLaurent, s0: Fraction) -> Fraction:
    """Exact evaluation at s = s0 (s0 a nonzero rational)."""
    terms = c.terms
    if not terms:
        return Fraction(0)
    # With s0 = p/r, the value is p^lo r^-hi sum c p^(e-lo) r^(hi-e): one
    # integer sum (rational only for Fraction coefficients), one division.
    p, r = s0.numerator, s0.denominator
    lo, hi = min(terms), max(terms)
    num = sum(c * p ** (e - lo) * r ** (hi - e) for e, c in terms.items())
    return Fraction(num * p ** max(lo, 0) * r ** max(-hi, 0), r ** max(hi, 0) * p ** max(-lo, 0))


def q_echelon(rows) -> dict[int, dict[int, Fraction]]:
    """The RREF over Q of sparse rows as {pivot column: row}."""
    pivots: dict[int, dict[int, Fraction]] = {}
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


def q_rank(rows) -> int:
    return len(q_echelon(rows))


def q_kernel_basis(rows, n: int) -> list[dict[int, Fraction]]:
    pivots = q_echelon(rows)
    basis = {f: {f: Fraction(1)} for f in range(n) if f not in pivots}
    for p, row in pivots.items():
        for f, c in row.items():
            if f != p:
                basis[f][p] = -c
    return list(basis.values())


def over_q(monkeypatch) -> None:
    """Make ``linalg`` evaluate at rational points and eliminate over Q."""

    def at_point(s0):
        s0 = validate_generic_point(s0)
        return lambda c: q_value(c, s0)

    monkeypatch.setattr(linalg, "at_point", at_point)
    monkeypatch.setattr(linalg, "rref", q_echelon)
    monkeypatch.setattr(linalg, "rank", q_rank)
    monkeypatch.setattr(linalg, "kernel_basis", q_kernel_basis)
