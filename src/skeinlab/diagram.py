"""Sliced tangle diagrams in the bigon and their reduction to the skein basis.

A diagram lives in a square: boundary points sit on the west (left) and east
(right) edges, numbered top to bottom, and the diagram is encoded as a
left-to-right word of elementary slices

    x i    -- the strand in row i crosses OVER row i+1
    xb i   -- the strand in row i crosses UNDER row i+1
    cap i  -- rows i and i+1 turn back and merge (row count drops by 2)
    cup i  -- two new rows are created at position i (row count grows by 2)

with blackboard framing implicit in the planar encoding.  Boundary points
carry states +/-.  Reduction applies the Kauffman relations

    crossing = q (parallel) + q^-1 (turnback),     loop = -q^2 - q^-2,

removes boundary arcs with the weights C (east edge) and Cbar (west edge),
and sorts boundary states with the exchange relations until only parallel
strands with decreasing states remain.  Those diagrams form a linear basis
of the stated skein algebra of the bigon.

Reduction runs in two memoized stages.  ``resolve_crossings`` applies the
Kauffman relation slice by slice, keeping one coefficient per crossingless
matching of the boundary cut so far; the number of terms is at most the
number of planar matchings of the widest cut, so the cost is linear in
crossings and exponential only in the width (``SliceWord.width``).  The CLI
refuses diagrams wider than ``MAX_CLI_WIDTH``.  A crossingless matching has
one form in the engine, its partner tuple (``Partners``): the index of each
point's partner, west points first, then east points, from the trace of a
word (``word_to_arcs``) to the resolution, the evaluation and the state
tables.  Each partial matching is numbered once (``_partners``), and
appending caps and cups to it is the Temperley-Lieb product of its tuple
with the slices' own (``_transition``): O(width) int work.  Each run of
slices is traced once per row count (``_slice_partners``).

Each coefficient is packed while crossings are resolved (Kronecker
substitution).  Let g be the gcd of the exponent gaps inside
``CROSS_PARALLEL``, ``CROSS_TURNBACK`` and ``LOOP``, of the difference of the
two crossing weights' lowest exponents and of ``LOOP``'s lowest exponent (4
for the Kauffman constants).  After k crossings every exponent of every
coefficient is k r plus a multiple of g, with r the lowest exponent of
``CROSS_PARALLEL``; a coefficient is kept as (p, n), where n is one int
holding its balanced digits d_i (|d_i| < 2^(W-1)) in base 2^W and the
digit d_i is the coefficient of s^(k r + g (p / W + i)).  A weight that
is a unit monomial changes only p, ``LOOP`` is two shifted copies of n
added together, and two terms merge by one int addition.  Each coefficient
becomes a ``HalfLaurent`` once, at the end: interned with at most one term,
else transient like a sum.  The constants must have integer coefficients;
they are read as the packing and factor memos are filled, so code that
rebinds one calls ``memo_clear()`` (``scalar``).

Width lemma.  Crossings are taken in windows of ``_WINDOW``.  With |x| the
sum of the absolute values of the coefficients of x, let lambda =
max(1, |LOOP|) and gamma = max(|CP| + |CT| lambda, |CT| + |CP| lambda) for
CP, CT the two crossing weights.  At the start of a window let S be the
sum of |d_i| over all digits of all terms.  If the window has k crossings
and c caps are appended during it (the caps still pending from before its
first crossing, those between its crossings and, in the last window, the
caps after the last crossing), then every digit met during the window, in
a term or in a partial sum, is at most S gamma^k lambda^c.  For an
over-crossing with a pending caps maps a coefficient x to x CP LOOP^i +
x CT LOOP^j, where i <= a and j <= a + 1 count the loops closed (a cap
closes at most one loop and the turnback smoothing appends one cap; an
under-crossing swaps CP and CT, hence the max in gamma).  |.| is
subadditive and submultiplicative, so the sum of |d_i| over all terms grows
by at most gamma lambda^a, and a digit is at most the sum of the absolute
values of the contributions to it.  The window packs its terms at W = bit_length(S
gamma^k lambda^c) + 1, so no digit reaches 2^(W-1) and every int sum is
the packed sum of the digits.  Re-proving W per window keeps it near the
real size of the coefficients; one bound for a whole word would grow by
log2(gamma) bits a crossing.

``evaluate_arcs`` then reduces each stated matching in closed form: every
returning arc is a scalar, so a matching is the product of its arc weights
times the parallel diagram of its through strands, and only parallel
diagrams are sorted and memoized.  ``reduce`` evaluates only the matchings
whose returning arcs all have non-zero weights at the boundary states.
``evaluate_table`` gives a matching's value at once at every state pair
where it can be non-zero (where each returning arc has opposite states),
in that factored form: an arc weight and the through states, which
``entry_value`` multiplies out.

Memo policy: every memo in the package is process-global, unbounded and
holds only a deterministic function of its key; a hit is shared, so callers
must not mutate it.  A memoized function is declared with ``memoized(name)``,
which keeps its results in a plain dict registered in ``_MEMOS`` under
``name``; ``memo_clear()`` empties every registered memo and ``memo_sizes()``
returns the entry count of each:

* ``diagram._resolve_memo``: ``resolve_crossings`` per slice word,
* ``diagram._slices_memo``: ``_slice_partners``, the partner tuple and the
  loops of each crossingless run of slices on a row count, which
  ``_transition`` composes with a matching's,
* ``diagram._plan_memo``: ``_plan``, the returning arcs and through strands
  of each matching, per (west arity, partner tuple),
* ``diagram._memo``: ``reduce_parallel`` per stated parallel diagram
  ``(west, east)``, the hot path of every product; ``memo_snapshot`` copies
  it,
* ``diagram._packing_memo``: g, r, gamma and lambda of the width lemma, one
  entry,
* ``diagram._factor_memo``: ``_factors`` per digit width, tables of the
  packed factors of each weight by loop count.  ``_extend`` adds the loop
  counts it meets; an entry, once made, never changes,
* ``bigon_skein._inv_edge_memo``: edge inversion per (basis tangle, edge,
  inverse), so ``t_form`` and ``t_inv_form`` reduce each basis tangle once,
* ``bigon_skein._r_memo``: the co-R form per pair of basis tangles,
* ``bigon_skein._comul_memo``, ``_antipode_memo``, ``_t_memo``,
  ``_t_inv_memo`` and ``_theta_memo``: the coproduct, the antipode, t, its
  inverse and theta per basis tangle (``comul_basis``, ``antipode_basis``,
  ``t_form_basis``, ``t_inv_form_basis``, ``theta_form_basis``),
* ``comodule_rt._rows_memo``: the exact intertwiner conditions per pair of
  comodules,
* ``excision._switch_memo``: the symbolic image of each one-sided map the
  gluing defect maps are composed of, per (map name, basis tangle),
* ``excision._splitting_memo``: the first tangle of F_n whose splitting a
  defect map does not kill, per (degree, map),
* ``excision._torus_memo``: the exact premise of the torus-weight lemma per
  (degree, map),
* ``internal_skein._x1_product_memo``: the products of a basis tangle by the
  coaction entries of V that the lift check right-multiplies with,
* ``internal_skein._row_memo``: the verdict of each row of st lifts, keyed
  by the row divided by its first weight (ints for the states, interned
  ratios),
* ``internal_skein._stack_memo``: whether two stacked parallel diagrams
  reduce to the product of their reductions, per pair of through states,
* ``quantum_sl2._mul_memo``, ``_comul_memo``, ``_pair_memo``,
  ``_to_skein_memo`` and ``_from_skein_memo``: the product per pair of PBW
  monomials, and the coproduct, the generator pairings and the transport
  per monomial or basis tangle (``mul_basis``, ``comul_basis``,
  ``_pair_gen_mono``, ``to_skein_basis``, ``from_skein_basis``).

Three memos are plain dicts, registered by hand, because a wrapper does not
fit them:

* ``diagram._transition_memo``: each step of crossing resolution, a table
  per appended slices keyed by matching id, giving the new matching's id, or
  (that id, loops) when the slices close loops; it holds only ints.
  ``_extend`` fetches one table per smoothing and looks up every term in it,
* ``diagram._arc_masks_memo``: per slice word, the returning arcs of each
  term of its resolution as a bit mask (``_arc_masks``); it is keyed by the
  word, but built from the resolution ``reduce`` already holds,
* ``scalar._product_memo``: the product of two interned scalars, looked up
  inside ``HalfLaurent.__mul__``; ``diagram`` imports ``scalar``, so
  ``scalar`` cannot use the decorator.

verify runs in one thread; memos are not locked.  ``memo_clear`` leaves the
intern tables of basis keys and scalars (``_interned``) and of matching ids
(``_matching_ids`` and ``_partners``) alone.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, TypeVar

from .scalar import LOOP, ONE, HalfLaurent, InternedKey, LinearCombination, Value, _product_memo

State = int  # +1 or -1
Slice = tuple[str, int]  # ("x" | "xb" | "cap" | "cup", row index)

_SLICE_KINDS = ("x", "xb", "cap", "cup")

#: Kauffman smoothing weights: an over-crossing resolves to
#: q * identity + q^-1 * (cap then cup); the under-crossing swaps them.
CROSS_PARALLEL = HalfLaurent.q_pow(1)
CROSS_TURNBACK = HalfLaurent.q_pow(-1)

#: Widest diagram the CLI ``reduce`` and ``bracket`` commands accept: the
#: widest width whose random 100-crossing braid (west = east = width rows;
#: random rows, kinds and states; seeds 1-3, a fresh process each) reduces in
#: under 10 s.  On a 2-core Intel Xeon host with CPython 3.11, whose speed
#: swings by about 1.5x between phases, it takes 2.2-5.7 s (65-93 MiB) at
#: width 10 (four runs per seed) and 2.1-15.8 s (85-220 MiB) at width 11
#: (five runs per seed), where seed 3 takes 10.1-15.8 s and every one of its
#: five runs misses the bound.  Under cProfile, width 11 spends about a third
#: of its time each in the packed arithmetic of ``_extend``, the composed
#: steps (``_transition``) and the repack between windows.
MAX_CLI_WIDTH = 10


class DiagramError(ValueError):
    """Malformed slice word or state vector."""


def _check_states(states: Iterable[State]) -> tuple[State, ...]:
    t = tuple(states)
    if any(s not in (1, -1) for s in t):
        raise DiagramError(f"states must be +1/-1, got {t}")
    return t


class SliceWord(Value):
    """An unstated sliced tangle diagram in the square.  ``width`` is the
    largest row count over the west edge and every slice."""

    __slots__ = ("west_arity", "slices", "east_arity", "width")

    def __init__(self, west_arity: int, slices: tuple[Slice, ...] = ()) -> None:
        if west_arity < 0:
            raise DiagramError("negative west arity")
        rows = width = west_arity
        for kind, i in slices:
            if kind not in _SLICE_KINDS:
                raise DiagramError(f"unknown slice kind {kind!r}")
            if kind == "cup":
                if not 0 <= i <= rows:
                    raise DiagramError(f"cup{i} out of range with {rows} rows")
                rows += 2
                width = max(width, rows)
            else:
                if not 0 <= i <= rows - 2:
                    raise DiagramError(f"{kind}{i} needs rows i, i+1 (have {rows} rows)")
                if kind == "cap":
                    rows -= 2
        self._set_fields((west_arity, slices), rows, width)

    def crossing_count(self) -> int:
        return sum(1 for kind, _ in self.slices if kind in ("x", "xb"))


class StatedWord(Value):
    """A sliced diagram with boundary states, top to bottom on each edge."""

    __slots__ = ("word", "west", "east")

    def __init__(self, word: SliceWord, west: tuple[State, ...] = (), east: tuple[State, ...] = ()) -> None:
        west, east = _check_states(west), _check_states(east)
        if len(west) != word.west_arity:
            raise DiagramError(f"west states {len(west)} != west arity {word.west_arity}")
        if len(east) != word.east_arity:
            raise DiagramError(f"east states {len(east)} != east arity {word.east_arity}")
        self._set_fields((word, west, east))


class BasisTangle(InternedKey):
    """Parallel n-strand diagram with decreasing states on both edges."""

    __slots__ = ("n", "mu", "nu")
    _interned: dict[tuple[int, tuple[State, ...], tuple[State, ...]], BasisTangle] = {}
    n: int
    mu: tuple[State, ...]  # west states, top to bottom
    nu: tuple[State, ...]  # east states, top to bottom

    def __new__(cls, n: int, mu: Iterable[State], nu: Iterable[State]) -> BasisTangle:
        mu, nu = tuple(mu), tuple(nu)
        self = cls._interned.get((n, mu, nu))
        if self is None:
            _check_states(mu + nu)
            if len(mu) != n or len(nu) != n:
                raise DiagramError("state vectors must have length n")
            if any(a < b for v in (mu, nu) for a, b in zip(v, v[1:])):
                raise DiagramError(f"basis tangle needs decreasing states: {mu}, {nu}")
            self = cls._make((n, mu, nu))
        return self

    @classmethod
    def unit(cls) -> BasisTangle:
        return cls(0, (), ())

    def __str__(self) -> str:
        if self.n == 0:
            return "1"
        signs = lambda v: "".join("+" if s > 0 else "-" for s in v)
        return f"beta({signs(self.mu)};{signs(self.nu)})"


UNIT_TANGLE = BasisTangle.unit()


class SkeinElement(LinearCombination):
    """Finite linear combination of basis tangles with HalfLaurent coefficients."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> SkeinElement:
        return cls({UNIT_TANGLE: ONE})

    def __str__(self) -> str:
        from .syntax import format_element

        return format_element(self)

    def __repr__(self) -> str:
        return f"SkeinElement({str(self)!r})"


def _tangle_sort_key(b: BasisTangle):
    # All-plus vectors sort first within a strand count.
    return (b.n, tuple((1 - s) // 2 for s in b.mu), tuple((1 - s) // 2 for s in b.nu))


# -- boundary coefficients ----------------------------------------------------


#: A returning arc's weight by its (upper, lower) states.
ArcWeights = dict[tuple[State, State], HalfLaurent]


def _coeff_table(plus_minus: HalfLaurent, minus_plus: HalfLaurent) -> ArcWeights:
    z = HalfLaurent.zero()
    return {(1, 1): z, (-1, -1): z, (1, -1): plus_minus, (-1, 1): minus_plus}


#: Value of a returning arc whose endpoints read (upper, lower) top to
#: bottom: C on the east edge, Cbar on the west edge.  Equal states vanish.
C = _coeff_table(HalfLaurent.s_pow(-1), HalfLaurent.s_pow(-5, -1))
CBAR = _coeff_table(HalfLaurent.s_pow(5, -1), HalfLaurent.s_pow(1))

#: An out-of-order adjacent pair (- above +) on an edge rewrites to
#: EXCHANGE_SWAP * (swapped states) + EXCHANGE_ARC * (the two strands joined
#: near that edge).
EAST_EXCHANGE_SWAP = HalfLaurent.q_pow(2)
EAST_EXCHANGE_ARC = HalfLaurent.s_pow(-1)
WEST_EXCHANGE_SWAP = HalfLaurent.q_pow(2)
WEST_EXCHANGE_ARC = HalfLaurent.s_pow(5, -1)


# -- memos ----------------------------------------------------------------------

#: Every process-global memo of the package, by qualified name.  The values
#: are the dicts themselves, never functions, so rebinding a memoized
#: function leaves its memo covered.
_MEMOS: dict[str, dict] = {"scalar._product_memo": _product_memo}
_MISS = object()
_F = TypeVar("_F", bound=Callable)


def memoized(name: str) -> Callable[[_F], _F]:
    """Cache a pure function of hashable arguments in a dict registered as ``name``.

    The key is the argument itself for a function of one argument and the
    argument tuple otherwise; arguments are passed by position.  A miss is
    told apart by a sentinel, so ``None`` and ``False`` results are cached.
    """

    def decorate(fn: _F) -> _F:
        memo = _MEMOS[name] = {}
        if fn.__code__.co_argcount == 1:
            def cached(key):
                hit = memo.get(key, _MISS)
                if hit is _MISS:
                    hit = memo[key] = fn(key)
                return hit

        else:
            def cached(*key):
                hit = memo.get(key, _MISS)
                if hit is _MISS:
                    hit = memo[key] = fn(*key)
                return hit
        return functools.wraps(fn)(cached)  # type: ignore[return-value]

    return decorate


def memo_clear() -> None:
    """Empty every registered memo."""
    for memo in _MEMOS.values():
        memo.clear()


def memo_sizes() -> dict[str, int]:
    """Entry count of every registered memo."""
    return {name: len(memo) for name, memo in _MEMOS.items()}


# -- crossing resolution ------------------------------------------------------


#: A matching as one tuple over its west points and then its east points:
#: the index of the point each one is joined to.
Partners = tuple[int, ...]


def word_to_arcs(word: SliceWord) -> tuple[Partners, int]:
    """Trace a crossingless word to its boundary matching's partner tuple and loop count.

    Token i < west arity is west point i; every row gets a new token.  Each
    open path has two ends, and ``mate`` maps each end to the other: a cup
    opens a path, and a cap joins the paths of its two rows, or closes a
    loop when they are the two ends of one path.
    """
    n_west = word.west_arity
    mate = [*range(n_west, 2 * n_west), *range(n_west)]
    rows = list(range(n_west, 2 * n_west))
    loops = 0
    for kind, i in word.slices:
        if kind == "cup":
            a = len(mate)
            mate += (a + 1, a)
            rows[i:i] = (a, a + 1)
        elif kind == "cap":
            a, b = rows[i], rows[i + 1]
            if mate[a] == b:
                loops += 1
            else:
                x, y = mate[a], mate[b]
                mate[x], mate[y] = y, x
            del rows[i : i + 2]
        else:
            raise DiagramError("word_to_arcs needs a crossingless word")
    ends = [*range(n_west), *rows]
    index = {t: p for p, t in enumerate(ends)}
    return tuple(index[mate[t]] for t in ends), loops


def partners_to_word(n_west: int, partners: Partners) -> SliceWord:
    """Canonical crossingless slice word realizing a planar boundary matching."""
    slices: list[Slice] = []
    # Close west-west arcs innermost first: a point whose partner is the
    # live row above it caps off with it.
    live: list[int] = []
    for p in range(n_west):
        if live and partners[p] == live[-1]:
            slices.append(("cap", len(live) - 1))
            live.pop()
        else:
            live.append(p)
    # Remaining live rows are through strands; their east targets increase.
    rows = [partners[p] - n_west for p in live]
    if any(r < 0 for r in rows):
        raise DiagramError("matching is not planar in the slice order")
    # Create east-east arcs outermost first (by upper endpoint).
    n_east = len(partners) - n_west
    for lo in range(n_east):
        hi = partners[n_west + lo] - n_west
        if hi > lo:
            idx = sum(1 for r in rows if r < lo)
            slices.append(("cup", idx))
            rows[idx:idx] = [lo, hi]
    if rows != list(range(n_east)):
        raise DiagramError("matching is not planar in the slice order")
    return SliceWord(n_west, tuple(slices))


Resolved = list[tuple[int, Partners, HalfLaurent]]  # (east arity, partners, coefficient), sorted
#: The intern table of partial matchings, never cleared: matching m has the
#: partner tuple ``_partners[m]``, and ``_matching_ids`` maps (east arity,
#: partner tuple) back to m.
_matching_ids: dict[tuple[int, Partners], int] = {}
_partners: list[Partners] = []


def _matching_id(n_east: int, partners: Partners) -> int:
    """The id of a matching, numbering it if it is new."""
    m = _matching_ids.setdefault((n_east, partners), len(_partners))
    if m == len(_partners):
        _partners.append(partners)
    return m


@memoized("diagram._slices_memo")
def _slice_partners(n_rows: int, slices: tuple[Slice, ...]) -> tuple[int, Partners, int]:
    """(east arity, partner tuple, loops) of the crossingless ``slices`` on ``n_rows`` rows."""
    word = SliceWord(n_rows, slices)
    return (word.east_arity, *word_to_arcs(word))


#: Appended slices -> {matching id: new matching id, or (new matching id,
#: loops) when the slices close loops}.
_transition_memo: dict[tuple[Slice, ...], dict[int, int | tuple[int, int]]] = {}
_MEMOS["diagram._transition_memo"] = _transition_memo


def _transition(n_west: int, m: int, slices: tuple[Slice, ...]) -> int | tuple[int, int]:
    """The id of matching m with crossingless ``slices`` appended, or (that
    id, loops) when the slices close loops.

    The Temperley-Lieb product of two partner tuples: the matching's east
    points are the slices' west points, and a path from an outer point
    alternates between the two until it reaches another outer point.  The
    middle points that no path visits lie on closed loops.
    """
    pm = _partners[m]
    mid = len(pm) - n_west
    new_east, ps, loops = _slice_partners(mid, slices)
    outer = n_west + new_east
    out = [-1] * outer
    seen = [False] * mid
    for p in range(outer):
        if out[p] >= 0:
            continue
        # q indexes the matching's points while in_m holds, else the slices'.
        q, in_m = (pm[p], True) if p < n_west else (ps[p - n_west + mid], False)
        while True:
            if in_m:
                if q < n_west:
                    break
                q -= n_west
                seen[q] = True
                q, in_m = ps[q], False
            else:
                if q >= mid:
                    q += n_west - mid
                    break
                seen[q] = True
                q, in_m = pm[q + n_west], True
        out[p], out[q] = q, p
    for j in range(mid):
        if not seen[j]:
            loops += 1
            while not seen[j]:
                k = ps[j]
                seen[j] = seen[k] = True
                j = pm[k + n_west] - n_west
    new = _matching_id(new_east, tuple(out))
    return (new, loops) if loops else new


#: Crossings per window of ``resolve_crossings``: the digit width is proven
#: anew, and every coefficient repacked, at the start of each window.
_WINDOW = 32


@memoized("diagram._packing_memo")
def _packing() -> tuple[int, int, int, int]:
    """(g, r, gamma, lambda) of ``CROSS_PARALLEL``, ``CROSS_TURNBACK`` and
    ``LOOP``: the exponent step g of the packed digits, the exponent r a
    crossing adds modulo g, and the norms of the width lemma (module
    docstring)."""
    cp, ct, loop = (c._terms for c in (CROSS_PARALLEL, CROSS_TURNBACK, LOOP))
    if not all(type(c) is int for terms in (cp, ct, loop) for c in terms.values()):
        raise DiagramError(
            "crossing resolution needs integer coefficients in CROSS_PARALLEL, CROSS_TURNBACK and LOOP, "
            f"got {CROSS_PARALLEL}, {CROSS_TURNBACK} and {LOOP}"
        )
    g = 0
    for terms in (cp, ct, loop):
        for e in terms:
            g = math.gcd(g, e - min(terms))
    if cp and ct:
        g = math.gcd(g, min(cp) - min(ct))
    if loop:
        g = math.gcd(g, min(loop))
    norm_p, norm_t, norm_loop = (sum(map(abs, terms.values())) for terms in (cp, ct, loop))
    lam = max(1, norm_loop)
    gamma = max(norm_p + norm_t * lam, norm_t + norm_p * lam)
    return g or 1, min(cp or ct or (0,)), gamma, lam


def _packed(c: HalfLaurent, base: int, g: int, width: int) -> tuple[int, int, tuple[tuple[int, int], ...]] | None:
    """The factor c / s^base, whose exponents are base plus multiples of g, as
    shift-adds on digits of ``width`` bits: (bit offset of its lowest term,
    that term's coefficient, ((bit shift, coefficient), ...) of the others),
    or None when c is zero."""
    if not c._terms:
        return None
    (lo, k0), *rest = sorted(c._terms.items())
    return (lo - base) // g * width, k0, tuple(((e - lo) // g * width, k) for e, k in rest)


@memoized("diagram._factor_memo")
def _factors(width: int) -> tuple[dict[int, tuple | None], ...]:
    """The packed factors at ``width`` of ``CROSS_PARALLEL``, ``CROSS_TURNBACK``
    and of 1 (after the last crossing): each a dict from a loop count to the
    packed weight * LOOP**loops, filled by ``_extend`` as loop counts are met."""
    g, r, _, _ = _packing()
    return tuple({0: _packed(c, base, g, width)} for c, base in ((CROSS_PARALLEL, r), (CROSS_TURNBACK, r), (ONE, 0)))


def _join(digits: list[int], width: int) -> int:
    """Balanced digits, lowest first, each of absolute value below 2^(width - 1), as one int."""
    half = 1 << (width - 1)
    spec = f"0{width}b"
    offset = int("".join([format(d + half, spec) for d in reversed(digits)]), 2)
    return offset - half * (((1 << width * len(digits)) - 1) // ((1 << width) - 1))


def _split(n: int, width: int) -> tuple[int, list[int]]:
    """(j, digits): the balanced digits of the non-zero ``n`` in base 2^width,
    lowest first, without the j zero digits below the first non-zero one.

    Every digit is offset by half, so the digits are plain width-bit fields
    of one binary string: linear time in the length of ``n``.
    """
    half = 1 << (width - 1)
    count = abs(n).bit_length() // width + 1
    bits = format(n + half * (((1 << width * count) - 1) // ((1 << width) - 1)), f"0{width * count}b")
    digits = [int(bits[i - width : i], 2) - half for i in range(width * count, 0, -width)]
    while not digits[-1]:
        digits.pop()
    j = 0
    while not digits[j]:
        j += 1
    return j, digits[j:]


def _times(n: int, k: int, rest: tuple[tuple[int, int], ...]) -> int:
    """Packed digits ``n`` times a packed factor: k n plus a shifted copy per other term."""
    out = n if k == 1 else -n if k == -1 else n * k
    for bits, k in rest:
        if k == 1:
            out += n << bits
        elif k == -1:
            out -= n << bits
        else:
            out += (n << bits) * k
    return out


def _extend(
    n_west: int,
    terms: dict[int, tuple[int, int]],
    pending: tuple[Slice, ...],
    smoothings: tuple[tuple[HalfLaurent, dict, int, tuple[Slice, ...]], ...],
    g: int,
    width: int,
) -> dict[int, tuple[int, int]]:
    """Append ``pending`` and then each smoothing to every partial matching.

    ``terms`` maps matching ids to packed coefficients (bit position, digits).
    A smoothing is (weight, factors, base, tail): its weight, its packed
    factors at ``width`` by loop count (``_factors``), the exponent it adds
    modulo g and the slices it appends.  Each step is looked up in the
    smoothing's table of ``_transition_memo``, composed only on a miss;
    appending nothing leaves a matching as it is.  A factor is a sum of
    shifted copies of the digits; equal matchings merge by one int addition
    and cancelled ones are dropped.
    """
    out: dict[int, tuple[int, int]] = {}
    for weight, factors, base, tail in smoothings:
        plain = factors[0]
        if plain is None:
            continue
        shift, k, rest = plain
        unit = k == 1 and not rest
        slices = pending + tail
        table = _transition_memo.setdefault(slices, {}) if slices else None
        for m, (p, n) in terms.items():
            if table is not None:
                hit = table.get(m)
                if hit is None:
                    hit = table[m] = _transition(n_west, m, slices)
                m = hit
            if type(m) is int:
                p += shift
                if not unit:
                    n = _times(n, k, rest)
            else:
                m, loops = m
                factor = factors.get(loops, _MISS)
                if factor is _MISS:
                    factor = factors[loops] = _packed(weight * LOOP**loops, base, g, width)
                if factor is None:
                    continue
                p += factor[0]
                n = _times(n, factor[1], factor[2])
            acc = out.get(m)
            if acc is None:
                out[m] = (p, n)
            elif acc[0] == p:
                out[m] = (p, acc[1] + n)
            elif acc[0] < p:
                out[m] = (acc[0], acc[1] + (n << (p - acc[0])))
            else:
                out[m] = (p, n + (acc[1] << (acc[0] - p)))
    return {m: t for m, t in out.items() if t[1]}


def _coefficient(n: int, e: int, g: int, width: int) -> HalfLaurent:
    """The sum of the balanced base-2^width digits d_i of ``n`` times s^(e + g i):
    interned with at most one term, else transient like a sum.

    Read one digit a step, by shifts, in time quadratic in the length of
    ``n``.  ``_split`` is linear but, on a 2-core x86 host with CPython 3.11,
    costs 2-9x more per coefficient up to 64 digits, which covers every
    coefficient of ``braid_reduce``; it overtakes shifts only past about 128
    digits, met in braids of hundreds of crossings.
    """
    full = 1 << width
    half = full >> 1
    terms = {}
    while n:
        d = n & (full - 1)
        if d >= half:
            d -= full
        if d:
            terms[e] = d
        n = (n - d) >> width
        e += g
    if len(terms) <= 1:
        return HalfLaurent(terms)
    out = object.__new__(HalfLaurent)
    out._terms, out._key = terms, None
    return out


@memoized("diagram._resolve_memo")
def resolve_crossings(word: SliceWord) -> Resolved:
    """Resolve all crossings and remove loops; returns crossingless matchings
    as (east arity, partner tuple, coefficient), sorted by (east arity, partners).

    Works slice by slice, left to right, on the partial matchings of the
    west points and the rows cut so far, starting from the identity matching.
    At each crossing every partial matching takes the caps and cups since the
    previous crossing and then both Kauffman smoothings; equal matchings merge
    at once.  So the number of live terms never exceeds the number of planar
    matchings of the current boundary (Catalan(4) = 14 for a 4-strand braid),
    and the cost grows linearly in crossings and exponentially only in width.
    Each matching met is numbered once (``_partners``) and the terms are
    kept by number.  A step depends only on the matching and the appended
    slices, so it is composed once per process (``_transition_memo``) and is
    an int-keyed lookup after that, in this word and in every later one.
    Coefficients are packed integers, repacked per window of ``_WINDOW``
    crossings (module docstring); a word without crossings is traced at once.

    State-independent, so results are memoized per word; reducing one diagram
    under many state assignments resolves its crossings once.
    """
    n_w = word.west_arity
    steps, caps_before, pending, caps = [], [], [], 0
    for s in word.slices:
        if s[0] == "x" or s[0] == "xb":
            steps.append((tuple(pending), s))
            caps_before.append(caps)
            pending = []
        else:
            pending.append(s)
            caps += s[0] == "cap"
    if not steps:
        partners, loops = word_to_arcs(word)
        coeff = LOOP**loops if loops else ONE
        return [(word.east_arity, partners, coeff)] if coeff._terms else []
    g, r, gamma, lam = _packing()
    # Matching id -> (p, n): after k crossings the coefficient is the sum of
    # the balanced base-2^width digits d_i of n times s^(k r + g (p / width + i)).
    terms = {_matching_id(n_w, (*range(n_w, 2 * n_w), *range(n_w))): (0, 1)}
    width, window = 0, _WINDOW
    for first in range(0, len(steps), window):
        end = first + window
        chunk = steps[first:end]
        # The caps appended from the crossing before the window to its last
        # crossing, or to the end of the word.
        spent = caps_before[first - 1] if first else 0
        growth = gamma ** len(chunk) * lam ** ((caps if end >= len(steps) else caps_before[end - 1]) - spent)
        if width:
            split = {m: (p // width, *_split(n, width)) for m, (p, n) in terms.items()}
            total = sum(sum(map(abs, digits)) for _, _, digits in split.values())
            width = (total * growth).bit_length() + 1
            terms = {m: ((j + lo) * width, _join(digits, width)) for m, (j, lo, digits) in split.items()}
        else:
            width = growth.bit_length() + 1  # the identity matching, coefficient 1
        packs_p, packs_t, packs_one = _factors(width)
        weights = (CROSS_PARALLEL, packs_p, r), (CROSS_TURNBACK, packs_t, r)
        for before, (kind, i) in chunk:
            para, turn = weights if kind == "x" else weights[::-1]
            terms = _extend(n_w, terms, before, ((*para, ()), (*turn, (("cap", i), ("cup", i)))), g, width)
    if pending:
        terms = _extend(n_w, terms, tuple(pending), ((ONE, packs_one, 0, ()),), g, width)
    base = len(steps) * r
    resolved = [(_partners[m], _coefficient(n, base + g * (p // width), g, width)) for m, (p, n) in terms.items()]
    return sorted((len(pm) - n_w, pm, coeff) for pm, coeff in resolved)


# -- stated reduction ---------------------------------------------------------

ParallelKey = tuple[tuple[State, ...], tuple[State, ...]]  # (west, east)
#: (east arcs, west arcs, through west rows, through east rows); each arc is
#: (upper, lower), and through strand k joins the k-th entries of the last two.
Plan = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]
#: A table entry in factored form: (weight, through states), standing for the
#: weight times ``reduce_parallel`` of the through states.
TableEntry = tuple[HalfLaurent, ParallelKey]


def memo_snapshot() -> dict[ParallelKey, SkeinElement]:
    """A copy of the parallel reduction memo."""
    return dict(_MEMOS["diagram._memo"])


@memoized("diagram._plan_memo")
def _plan(n_west: int, partners: Partners) -> Plan:
    """Split a planar matching with ``n_west`` west points into its returning
    arcs and through strands."""
    west_arcs = tuple((i, j) for i, j in enumerate(partners[:n_west]) if i < j < n_west)
    east_arcs = tuple((i - n_west, j - n_west) for i, j in enumerate(partners) if n_west <= i < j)
    through_w = tuple(i for i in range(n_west) if partners[i] >= n_west)
    return east_arcs, west_arcs, through_w, tuple(partners[i] - n_west for i in through_w)


def _arc_states(n: int, arcs: tuple[tuple[int, int], ...], table: ArcWeights) -> list[tuple[State, ...]]:
    """The state vectors of one edge whose returning arcs all have a non-zero
    ``table`` entry, in ``state_tuples`` order."""
    upper_of = {lower: upper for upper, lower in arcs}
    out: list[tuple[State, ...]] = [()]
    for row in range(n):
        upper = upper_of.get(row)
        out = [v + (s,) for v in out for s in (1, -1) if upper is None or table[v[upper], s]]
    return out


def _edge_weight(
    states: tuple[State, ...], arcs: tuple[tuple[int, int], ...], table: ArcWeights, weight: HalfLaurent = ONE
) -> HalfLaurent:
    """``weight`` times the ``table`` weights of one edge's returning arcs at
    their (upper, lower) states, or zero as soon as one of them vanishes."""
    for upper, lower in arcs:
        arc = table[states[upper], states[lower]]
        if not arc._terms:
            return arc
        weight = weight * arc
    return weight


def evaluate_arcs(partners: Partners, west: tuple[State, ...], east: tuple[State, ...]) -> SkeinElement:
    """Reduce a stated crossingless matching to the decreasing-state basis.

    A returning arc is the scalar C (east edge) or Cbar (west edge) of its
    (upper, lower) states, so the matching is the product of its arc weights
    times the parallel diagram of its through strands.  The arities are
    those of the states; the split of ``partners`` is memoized (``_plan``).
    """
    east_arcs, west_arcs, through_w, through_e = _plan(len(west), partners)
    if not (east_arcs or west_arcs):
        return reduce_parallel(west, east)
    weight = _edge_weight(east, east_arcs, C)
    if weight._terms:
        weight = _edge_weight(west, west_arcs, CBAR, weight)
    if not weight._terms:
        return SkeinElement.zero()
    through = reduce_parallel(tuple(west[i] for i in through_w), tuple(east[j] for j in through_e))
    return through.scale(weight)


def evaluate_table(n_west: int, partners: Partners) -> dict[ParallelKey, TableEntry]:
    """``evaluate_arcs`` at every (west, east) states where it can be non-zero
    (where each returning arc has opposite states, ``_arc_states``), each in
    factored form: (weight, (through west, through east)).  The value of an
    entry is its weight times the parallel diagram of its through states
    (``entry_value``).

    Each edge's vectors are listed once with their arc weight and through
    states, so building a table reduces nothing.  Keys come in
    ``state_tuples`` order, west before east.
    """
    east_arcs, west_arcs, through_w, through_e = _plan(n_west, partners)
    edges = []
    n_east = len(partners) - n_west
    for n, edge_arcs, table, through in ((n_west, west_arcs, CBAR, through_w), (n_east, east_arcs, C, through_e)):
        vectors = _arc_states(n, edge_arcs, table)
        edges.append([(v, _edge_weight(v, edge_arcs, table), tuple(v[i] for i in through)) for v in vectors])
    return {
        (west, east): (w_east * w_west, (t_west, t_east))
        for west, w_west, t_west in edges[0]
        for east, w_east, t_east in edges[1]
    }


def entry_value(entry: TableEntry) -> SkeinElement:
    """The element a factored table entry stands for: weight * reduce_parallel(through)."""
    weight, through = entry
    value = reduce_parallel(*through)
    return value if weight is ONE else value.scale(weight)


def _sort_states(west: tuple[State, ...], east: tuple[State, ...]) -> SkeinElement:
    """Sort the east states, then the west states, with the exchange relations.

    An out-of-order pair (- above +) in rows i, i+1 rewrites to the swapped
    pair plus the two strands joined near that edge.  The joined term is a
    returning arc on the other edge, Cbar or C of its states, times the
    parallel diagram without rows i and i+1.
    """
    for i in range(len(east) - 1):
        if east[i] < east[i + 1]:
            out = reduce_parallel(west, east[:i] + (1, -1) + east[i + 2 :]).scale(EAST_EXCHANGE_SWAP)
            arc = CBAR[west[i], west[i + 1]]
            if arc:
                rest = reduce_parallel(west[:i] + west[i + 2 :], east[:i] + east[i + 2 :])
                out.add_scaled(rest, EAST_EXCHANGE_ARC * arc)
            return out
    for i in range(len(west) - 1):
        if west[i] < west[i + 1]:
            out = reduce_parallel(west[:i] + (1, -1) + west[i + 2 :], east).scale(WEST_EXCHANGE_SWAP)
            arc = C[east[i], east[i + 1]]
            if arc:
                rest = reduce_parallel(west[:i] + west[i + 2 :], east[:i] + east[i + 2 :])
                out.add_scaled(rest, WEST_EXCHANGE_ARC * arc)
            return out
    return SkeinElement.of(BasisTangle(len(west), west, east))


def state_tuples(n: int) -> list[tuple[State, ...]]:
    """All 2^n state vectors of length n, + before - in each place."""
    out: list[tuple[State, ...]] = [()]
    for _ in range(n):
        out = [v + (s,) for v in out for s in (1, -1)]
    return out


@memoized("diagram._memo")
def reduce_parallel(west: tuple[State, ...], east: tuple[State, ...]) -> SkeinElement:
    """Reduce a parallel stated diagram (the workhorse for products)."""
    if len(west) != len(east):
        raise DiagramError("parallel diagram needs equal arities")
    return _sort_states(west, east)


Arc = tuple[int, int]  # a returning arc's (upper, lower) rows
#: (each term's returning arcs as a bit mask, the distinct east arcs, the
#: distinct west arcs): east arc k is bit k, west arc k the bit after them.
ArcMasks = tuple[tuple[int, ...], tuple[Arc, ...], tuple[Arc, ...]]
#: Slice word -> ``_arc_masks`` of its resolution.
_arc_masks_memo: dict[SliceWord, ArcMasks] = {}
_MEMOS["diagram._arc_masks_memo"] = _arc_masks_memo


def _arc_masks(n_west: int, resolved: Resolved) -> ArcMasks:
    """The returning arcs of each matching that a word of west arity ``n_west``
    resolves to as one bit mask, in the order of ``resolved``, over the
    distinct returning arcs of all of them."""
    east_bits: dict[Arc, int] = {}
    west_bits: dict[Arc, int] = {}
    pairs = []
    for _, partners, _ in resolved:
        east_arcs, west_arcs, _, _ = _plan(n_west, partners)
        east = west = 0
        for arc in east_arcs:
            east |= 1 << east_bits.setdefault(arc, len(east_bits))
        for arc in west_arcs:
            west |= 1 << west_bits.setdefault(arc, len(west_bits))
        pairs.append((east, west))
    shift = len(east_bits)
    return tuple(east | west << shift for east, west in pairs), tuple(east_bits), tuple(west_bits)


def reduce(diagram: StatedWord) -> SkeinElement:
    """Canonical basis expansion of a stated sliced diagram.

    It is the sum of ``coeff * evaluate_arcs(partners, west, east)`` over
    ``resolve_crossings(word)``, so it depends on the word only through that
    resolution: two words with equal resolutions reduce equally at every state pair.
    A term one of whose returning arcs has a zero weight at the states is
    zero, so only the terms whose returning arcs all have non-zero weights
    are evaluated.  Each distinct returning arc of the resolution is read
    once per call (``_arc_masks``), from ``C`` and ``CBAR`` as they are at
    call time, as ``_edge_weight`` reads them.
    """
    word, west, east = diagram.word, diagram.west, diagram.east
    resolved = resolve_crossings(word)
    arc_masks = _arc_masks_memo.get(word)
    if arc_masks is None:
        arc_masks = _arc_masks_memo[word] = _arc_masks(word.west_arity, resolved)
    masks, east_arcs, west_arcs = arc_masks
    dead, bit = 0, 1
    for states, arcs, table in ((east, east_arcs, C), (west, west_arcs, CBAR)):
        for upper, lower in arcs:
            if not table[states[upper], states[lower]]._terms:
                dead |= bit
            bit <<= 1
    out = SkeinElement.zero()
    for (_, partners, coeff), mask in zip(resolved, masks):
        if not mask & dead:
            out.add_scaled(evaluate_arcs(partners, west, east), coeff)
    return out
