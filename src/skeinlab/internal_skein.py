"""Planar matchings in the bigon and the state-assignment correspondence.

Morphism spaces of the Temperley-Lieb category sitting in the bigon are
spanned by planar perfect matchings of the boundary points (west points read
top to bottom, then east points back up, so planarity is the usual
non-crossing condition on a circle).  A ``Matching`` is its partner tuple
(``diagram.Partners``), the one form in which it is validated, enumerated,
traced, tabulated and printed.  Assigning all possible boundary states to a
matching and reducing yields a table, i.e. a linear map from a tensor power
of the standard corepresentation into the bigon skein algebra.  A
returning arc with equal states vanishes, so a table holds only the entries
whose returning arcs have opposite states; every other entry is zero.  The
checks in this module make that correspondence executable:

* each table is a two-sided comodule morphism (edge-wise lift identities),
* composing a matching with a one-slice cap or cup word s on either edge
  (the partner tuple ``diagram.word_to_arcs`` traces from the composite
  word) gives, up to the loops it closes, the table of the matching
  composed with the matrix of s (naturality); planarity is decided by
  ``diagram.partners_to_word``,
* the tables of distinct matchings stay linearly independent, with rank
  equal to both the Catalan number and the Peter-Weyl count.

A table entry is one arc weight times one reduced parallel diagram, and a
table keeps it in that factored form (``diagram.evaluate_table``).  The
checks read the factors: each row of lifts is contracted once per process
up to a unit (``_row_failure``), a product of entries whose stacked entry
is their two parallel diagrams side by side reduces to the product of
those diagrams, checked once per pair (``_stacks_to_product``), a pushed
entry that meets the composite's own parallel diagram compares weights,
and the rank scales each coefficient by its weight at the point.  Every
other entry is compared as an element, so each verdict and witness is that
of the elementwise checks, on any table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from . import bigon_skein, comodule_rt, linalg, quantum_sl2
from .diagram import (
    CBAR,
    UNIT_TANGLE,
    BasisTangle,
    C,
    DiagramError,
    ParallelKey,
    Partners,
    SkeinElement,
    Slice,
    SliceWord,
    State,
    TableEntry,
    entry_value,
    evaluate_table,
    memoized,
    partners_to_word,
    reduce_parallel,
    word_to_arcs,
)
from .scalar import LOOP, ONE, ZERO, HalfLaurent, Value

StateVec = tuple[State, ...]


class MatchingError(ValueError):
    """Non-planar or arity-inconsistent matching data."""


class Matching(Value):
    """Planar perfect matching of bigon boundary points, given by its partner
    tuple (``diagram.Partners``): for each west point and then each east
    point, the index of the point it is joined to.

    ``n_east`` and ``word``, the canonical crossingless word traced by the
    planarity check, are derived, so they stay out of ``==`` and the repr.
    """

    __slots__ = ("n_west", "partners", "n_east", "word")

    def __init__(self, n_west: int, partners: Partners) -> None:
        partners = tuple(partners)
        total = len(partners)
        if not 0 <= n_west <= total:
            raise MatchingError(f"west arity {n_west} out of range for {total} points")
        if any(not 0 <= j < total or j == i or partners[j] != i for i, j in enumerate(partners)):
            raise MatchingError("partners must join every boundary point to another exactly once")
        try:
            word = partners_to_word(n_west, partners)
        except DiagramError as exc:
            raise MatchingError("matching is not planar") from exc
        self._set_fields((n_west, partners), total - n_west, word)

    def __str__(self) -> str:
        """``matching(nw,ne:...)``, its arcs between endpoints ("w" | "e", position) sorted."""
        point = lambda i: ("w", i) if i < self.n_west else ("e", i - self.n_west)
        arcs = sorted(sorted((point(i), point(j))) for i, j in enumerate(self.partners) if i < j)
        body = ",".join(f"{a}{i}-{b}{j}" for (a, i), (b, j) in arcs)
        return f"matching({self.n_west},{self.n_east}:{body})"


def enumerate_matchings(n_west: int, n_east: int) -> list[Matching]:
    """All planar matchings; the count is the Catalan number of half the points.
    The recursion pairs circular positions: west points top to bottom, then
    east points back up (``point`` maps them to the partner tuple's indices)."""
    total = n_west + n_east
    if total % 2:
        raise MatchingError("odd number of boundary points")

    def points(lo: int, hi: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if lo > hi:
            yield ()
            return
        for j in range(lo + 1, hi + 1, 2):
            for inner in points(lo + 1, j - 1):
                for outer in points(j + 1, hi):
                    yield ((lo, j),) + inner + outer

    point = [*range(n_west), *range(total - 1, n_west - 1, -1)]
    out = []
    for circ_pairs in points(0, total - 1):
        partners = [0] * total
        for a, b in circ_pairs:
            partners[point[a]], partners[point[b]] = point[b], point[a]
        out.append(Matching(n_west, partners))
    return out


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


# -- the state-assignment table -------------------------------------------------


#: The non-zero entries of a table in factored form (``diagram.TableEntry``);
#: a missing key is a zero entry.
StTable = dict[tuple[StateVec, StateVec], TableEntry]


def st_map(m: Matching) -> StTable:
    """The matrix of the map V^(x)n_west (x) V^(x)n_east -> bigon skein
    algebra, by boundary states, holding only its non-zero entries.

    A returning arc is zero unless its two ends carry opposite states, so
    only those state vectors are assigned (``diagram.evaluate_table``): each
    returning arc reads (+, -) or (-, +), and the through strands take every
    state.  Keys come in the order of ``comodule_rt.state_tuples``, west
    before east.  Each entry is (arc weight, through states);
    ``entry_value`` gives the element it stands for.
    """
    return evaluate_table(m.n_west, m.partners)


# -- comodule-morphism (intertwiner) check ---------------------------------------


def check_st_intertwiner(m: Matching, table: StTable) -> tuple[bool, str | None]:
    """Edge-wise lift identities for ``table``, which is ``st_map(m)``.

    East: comul(T(eps, eta)) = sum_kappa T(eps, kappa) (x) X[kappa, eta],
    West: comul(T(eps, eta)) = sum_kappa X[eps, kappa] (x) T(kappa, eta),
    where X is the coaction matrix of the tensor power of V transported into
    the bigon algebra.

    The sums are contracted one tensor factor at a time.  The coaction of
    V^(x)n is the ordered product X[kappa, eta] = X1[kappa_1, eta_1] ...
    X1[kappa_n, eta_n] of V's coaction entries (``comodule_rt.tensor``),
    and transport to the bigon is an algebra map, so step j of the east lift
    sums over kappa_j and right-multiplies the second leg by the generator
    tangle X1[kappa_j, eta_j]; the west lift does the same on the first leg
    with X1[eps_j, kappa_j].  Per fixed state on the other edge this costs
    n 2^(n+1) generator products instead of the 4^n terms of the direct sum.

    One row of lifts at a time (``_lines``), each key's lift is compared
    with the coproduct of its entry; at a key the table lacks, the entry and
    so its coproduct are zero, and the lift must be too.  Lifts and
    coproducts are linear and Z[s^+-1] is a domain, so a row that is a unit
    times another fails exactly where the other does.  A row is therefore
    checked in the form ``_row_key`` gives it, divided by its first weight,
    and each such form is contracted once per process (``_row_failure``).
    """
    for side, outer, line in _lines(m, table):
        inner = _row_failure(_row_key(side, line))
        if inner is not None:
            west, east = (outer, inner) if side == "east" else (inner, outer)
            return False, f"{side} lift fails at {m} states {west}/{east}"
    return True, None


Line = dict[StateVec, TableEntry]
#: A tensor of two basis tangles as a plain dict, while its lift is contracted.
Terms = dict[tuple[BasisTangle, BasisTangle], HalfLaurent]
#: (leg, inner arity, then per entry its states as one int and its weight
#: ratio); see ``_row_key``.
RowKey = tuple[int, int, tuple]


def _lines(m: Matching, table: StTable) -> Iterator[tuple[str, StateVec, Line]]:
    """("east", west state, its entries by east state) for each west state,
    then ("west", east state, its entries by west state) for each east
    state, in ``state_tuples`` order; a row may be empty."""
    rows: dict[StateVec, Line] = {west: {} for west in comodule_rt.state_tuples(m.n_west)}
    columns: dict[StateVec, Line] = {east: {} for east in comodule_rt.state_tuples(m.n_east)}
    for (west, east), entry in table.items():
        rows[west][east] = columns[east][west] = entry
    for side, lines in (("east", rows), ("west", columns)):
        for outer, line in lines.items():
            yield side, outer, line


def _row_key(side: str, line: Line) -> RowKey:
    """A row of entries divided by its first weight, in compact form.

    An entry's inner states and through states are one int: a leading 1
    bit, then one bit per state (set for -), inner states first, then the
    through west and through east states of equal arity.  Its weight
    ratio is an interned scalar.  The first weight is the divisor when it
    is a monomial, as every product of arc weights is; otherwise the row is
    kept undivided.
    """
    flat: list = []
    unit = inverse = ONE
    for inner, (weight, (t_west, t_east)) in line.items():
        if not flat and len(weight._terms) == 1:
            unit, inverse = weight, weight.inverse()
        code = 1
        for state in inner + t_west + t_east:
            code = code << 1 | (state < 0)
        flat += (code, ONE if weight is unit else weight * inverse)
    return int(side == "east"), len(next(iter(line), ())), tuple(flat)


@memoized("internal_skein._row_memo")
def _row_failure(key: RowKey) -> StateVec | None:
    """The first inner states at which the lifts of the row ``key`` stands
    for differ from the coproducts of its entries, in the order of the
    entries and then of the lifts, or None where they all agree."""
    leg, n, flat = key
    line: Line = {}
    for code, ratio in zip(flat[::2], flat[1::2]):
        states = tuple(-1 if code >> i & 1 else 1 for i in range(code.bit_length() - 2, -1, -1))
        k = (len(states) - n) // 2
        line[states[:n]] = (ratio, (states[n : n + k], states[n + k :]))
    lifts = _row_lifts(line, leg)
    zero = bigon_skein.TensorElement.zero(2)
    for inner in dict.fromkeys([*line, *lifts]):
        entry = line.get(inner)
        if lifts.get(inner, zero) != (zero if entry is None else bigon_skein.comul(entry_value(entry))):
            return inner
    return None


def _row_lifts(line: Line, leg: int) -> dict[StateVec, bigon_skein.TensorElement]:
    """The lifts of one row: its entries on leg 0 of a tensor (the east
    lift, ``leg`` 1) or on leg 1 (the west lift, ``leg`` 0), contracted with
    the coaction on ``leg`` (``_contract``); a missing lift is zero."""
    zero = bigon_skein.TensorElement.zero(2)
    parts = {
        inner: {((b, UNIT_TANGLE) if leg else (UNIT_TANGLE, b)): c for b, c in entry_value(entry).items()}
        for inner, entry in line.items()
    }
    return {inner: zero._like(terms) for inner, terms in _contract(parts, leg).items()}


def _contract(lifts: dict[StateVec, Terms], leg: int) -> dict[StateVec, Terms]:
    """Contract the states of ``lifts`` with the coaction, one factor at a time.

    Step j replaces each key's j-th state k by both states t, right-multiplying
    ``leg`` by X1[k, t] on the east (leg 1) and by X1[t, k] on the west (leg 0).
    No lifts (a row of zero entries) contract to none.
    """
    n = len(next(iter(lifts), ()))
    for j in range(n):
        out: dict[StateVec, Terms] = {}
        for key, part in lifts.items():
            if part:
                targets = [out.setdefault(key[:j] + (t,) + key[j + 1 :], {}) for t in (1, -1)]
                _times_generators(part, leg, key[j], targets)
        lifts = out
    return lifts


def _times_generators(part: Terms, leg: int, k: State, targets: list[Terms]) -> None:
    """Add ``part`` with its ``leg`` right-multiplied by X1[k, t] (by X1[t, k]
    on leg 0) to ``targets[0]`` for t = + and to ``targets[1]`` for t = -."""
    pairs = ((k, 1), (k, -1)) if leg else ((1, k), (-1, k))
    for legs, c in part.items():
        products = _times_x1(legs[leg])
        for pair, acc in zip(pairs, targets):
            for prod, cp in products[pair]:
                key = (legs[0], prod) if leg else (prod, legs[1])
                cc = c if cp is ONE else c * cp
                old = acc.get(key)
                if old is not None and not (cc := old + cc)._terms:
                    del acc[key]
                else:
                    acc[key] = cc


@memoized("internal_skein._x1_product_memo")
def _times_x1(b: BasisTangle) -> dict[tuple[State, State], tuple[tuple[BasisTangle, HalfLaurent], ...]]:
    """The terms of b X1[k, t] for each pair of states (k, t), where X1 is
    V's coaction matrix transported into the bigon (one generator tangle per
    entry, which ``quantum_sl2.to_skein`` gives the coefficient ``ONE``)."""
    coaction = comodule_rt.standard_V().coaction
    out = {}
    for i, k in enumerate((1, -1)):
        for j, t in enumerate((1, -1)):
            out[k, t] = tuple(
                (prod, cp * cg)
                for g, cg in quantum_sl2.to_skein(coaction[i][j]).items()
                for prod, cp in reduce_parallel(b.mu + g.mu, b.nu + g.nu).items()
            )
    return out


# -- cap/cup naturality -----------------------------------------------------------

def _compose(m: Matching, kind: str, side: str, pos: int) -> tuple[Slice, tuple[int, Partners], int]:
    """The one-slice word s that inserts a cap or cup at ``pos`` on one edge
    of m, the composite as (west arity, partner tuple) and its loop count.

    On the west s is prefixed to the word of m and has the insertion's
    kind; on the east it is appended and has the other kind, since a returning
    arc on the east edge is a cup slice.
    """
    word = m.word
    if side == "w":
        s = (kind, pos)
        composite = SliceWord(m.n_west + (2 if kind == "cap" else -2), (s,) + word.slices)
    else:
        s = ("cup" if kind == "cap" else "cap", pos)
        composite = SliceWord(m.n_west, word.slices + (s,))
    partners, loops = word_to_arcs(composite)
    return s, (composite.west_arity, partners), loops


def check_st_naturality(
    m: Matching, kind: str, side: str, pos: int, table: StTable
) -> tuple[bool, str | None]:
    """LOOP^loops st(m o s) = rt(s) o st(m) for the slice s of ``_compose``.

    ``table`` is ``st_map(m)``.  The weight of s at a state pair is the
    returning-arc value ``CBAR[pair]`` if s is a cap and ``C[pair]`` if it
    is a cup, as in ``comodule_rt.rt_evaluate``.  Each non-zero entry of m
    is pushed through these weights: kind "cap" gives the composite two more
    points on the edge, so the entry goes, times the weight of their states,
    to every key with them put in; kind "cup" takes two points away, so the
    entry goes, times the weight of their states, to the key without them.
    The sums must equal the composite's entries at every key.  Where every
    term pushed to a key lies on the composite entry's own parallel diagram,
    the weights decide; any other key is compared as elements.
    """
    if kind not in ("cap", "cup") or side not in ("w", "e"):
        raise ValueError("kind must be 'cap' or 'cup' and side 'w' or 'e'")
    s, composite, loops = _compose(m, kind, side, pos)
    weights = CBAR if s[0] == "cap" else C
    nonzero = [(pair, weights[pair]) for pair in comodule_rt.state_tuples(2) if weights[pair]]
    pushed: dict[tuple[StateVec, StateVec], list[TableEntry]] = {}
    for (west, east), (entry_weight, through) in table.items():
        full = west if side == "w" else east
        if kind == "cap":
            terms = [(weight, full[:pos] + pair + full[pos:]) for pair, weight in nonzero]
        else:
            weight = weights[full[pos : pos + 2]]
            terms = [(weight, full[:pos] + full[pos + 2 :])] if weight else []
        for weight, states in terms:
            key = (states, east) if side == "w" else (west, states)
            pushed.setdefault(key, []).append((entry_weight * weight, through))
    factor = LOOP**loops
    target = evaluate_table(*composite)
    for key in dict.fromkeys([*target, *pushed]):
        entry, terms = target.get(key), pushed.get(key, ())
        if entry is not None and all(through == entry[1] for _, through in terms):
            # Every term is on the entry's own parallel diagram: the weights decide.
            if entry[0] * factor == sum((weight for weight, _ in terms), ZERO) or not reduce_parallel(*entry[1]):
                continue
        else:
            want = SkeinElement.zero()
            for term in terms:
                want.add_scaled(entry_value(term))
            val = SkeinElement.zero() if entry is None else entry_value(entry)
            if (val.scale(factor) if loops else val) == want:
                continue
        west, east = key
        return False, f"{kind} naturality fails at {m} {side}{pos} states {west}/{east}"
    return True, None


def all_naturality_checks(m: Matching) -> Iterator[tuple[str, str, int]]:
    for pos in range(m.n_west + 1):
        yield ("cap", "w", pos)
    for pos in range(m.n_east + 1):
        yield ("cap", "e", pos)
    for pos in range(m.n_west - 1):
        yield ("cup", "w", pos)
    for pos in range(m.n_east - 1):
        yield ("cup", "e", pos)


# -- rank of the span of tables ----------------------------------------------------


def peter_weyl_count(n_west: int, n_east: int) -> int:
    return sum(
        comodule_rt.multiplicity(k, n_west) * comodule_rt.multiplicity(k, n_east)
        for k in range(min(n_west, n_east) + 1)
    )


def st_rank(
    n_west: int, n_east: int, s0: Fraction, tables: list[StTable]
) -> tuple[int, int, int]:
    """(rank of stacked tables at s0, Catalan count, Peter-Weyl count).

    ``tables`` are the tables of ``enumerate_matchings(n_west, n_east)``.
    """
    at = linalg.at_point(s0)
    columns: dict[tuple[StateVec, StateVec, BasisTangle], int] = {}
    rows: list[linalg.SparseRow] = []
    for table in tables:
        row: linalg.SparseRow = {}
        for (west, east), (weight, through) in table.items():
            scale = at(weight)
            for b, coeff in reduce_parallel(*through).items():
                col = columns.setdefault((west, east, b), len(columns))
                row[col] = scale * at(coeff)
        rows.append(row)
    return linalg.rank(rows), catalan((n_west + n_east) // 2), peter_weyl_count(n_west, n_east)


def check_product_compatibility(
    m1: Matching, m2: Matching, t1: StTable, t2: StTable
) -> tuple[bool, str | None]:
    """Side-by-side composite of matchings maps to the product of tables.

    ``t1`` and ``t2`` are ``st_map`` of m1 and m2.
    The stacked entry at (w1 + w2, e1 + e2) must be the product of the
    entries at (w1, e1) and (w2, e2).  Only products of two non-zero entries
    are formed; every other stacked entry must be zero.  Where the stacked
    entry's weight is the product of the two weights and its through states
    are theirs side by side, the identity is that of the parallel diagrams
    alone (``_stacks_to_product``); any other pair of entries is compared
    as elements.
    """
    # Stacked, m1's points come first on each edge and m2's follow them.
    n_west = m1.n_west + m2.n_west
    stacked = [0] * (n_west + m1.n_east + m2.n_east)
    for m, west_at, east_at in ((m1, 0, n_west), (m2, m1.n_west, n_west + m1.n_east)):
        place = [*range(west_at, west_at + m.n_west), *range(east_at, east_at + m.n_east)]
        for i, j in enumerate(m.partners):
            stacked[place[i]] = place[j]
    ts = evaluate_table(n_west, tuple(stacked))
    # Keys of equal arities concatenate injectively, so each stacked key is met at most once.
    met = 0
    for (w1, e1), v1 in t1.items():
        for (w2, e2), v2 in t2.items():
            got = ts.get((w1 + w2, e1 + e2))
            met += got is not None
            (x1, a), (x2, b) = v1, v2
            if got is not None and got[0] == x1 * x2 and got[1] == (a[0] + b[0], a[1] + b[1]):
                ok = not got[0] or _stacks_to_product(a, b)
            else:
                value = SkeinElement.zero() if got is None else entry_value(got)
                ok = value == bigon_skein.mul(entry_value(v1), entry_value(v2))
            if not ok:
                return False, f"product compatibility fails at {m1} x {m2}"
    if met != len(ts):
        return False, f"product compatibility fails at {m1} x {m2}"
    return True, None


@memoized("internal_skein._stack_memo")
def _stacks_to_product(a: ParallelKey, b: ParallelKey) -> bool:
    """Whether the parallel diagram of a's states above b's reduces to the
    product of their reductions."""
    return reduce_parallel(a[0] + b[0], a[1] + b[1]) == bigon_skein.mul(reduce_parallel(*a), reduce_parallel(*b))


def check_braided_opposite(degree_bound: int) -> tuple[bool, str | None]:
    """Algebraic braided-opposite product against the crossed-stacking picture."""
    for bx in bigon_skein.basis_tangles(degree_bound):
        for by in bigon_skein.basis_tangles(degree_bound):
            x, y = SkeinElement.of(bx), SkeinElement.of(by)
            alg = bigon_skein.braided_opposite_mul(x, y)
            dia = bigon_skein.braided_opposite_mul_diagrammatic(x, y)
            if alg != dia:
                return False, f"braided opposite mismatch at {bx}, {by}"
    return True, None
