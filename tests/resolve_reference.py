"""Slice-by-slice reference for ``skeinlab.diagram.resolve_crossings``.

``resolve_reference`` keeps one ``HalfLaurent`` coefficient per partial
matching and multiplies and adds them term by term, as ``diagram`` did before
it packed each coefficient into one integer.  It reads ``CROSS_PARALLEL``,
``CROSS_TURNBACK`` and ``LOOP`` from ``diagram`` at call time and shares its
matching ids and transition tables, so a test can rebind a constant and
compare the two resolutions word by word.
"""

from __future__ import annotations

from skeinlab import diagram as D
from skeinlab.scalar import ONE, HalfLaurent


def _extend(n_west, terms, pending, smoothings):
    """Append ``pending`` and then each smoothing to every partial matching."""
    out: dict[int, HalfLaurent] = {}
    for weight, tail in smoothings:
        slices = pending + tail
        table = D._transition_memo.setdefault(slices, {}) if slices else None
        for m, coeff in terms.items():
            new, loop = m, None
            if table is not None:
                hit = table.get(m)
                if hit is None:
                    new_east, new_arcs, loop = D._transition(n_west, (*D._matchings[m], slices))
                    hit = table[m] = (D._matching_id(new_east, new_arcs), loop)
                new, loop = hit
            total = coeff * (weight if loop is None else weight * loop)
            acc = out.get(new)
            out[new] = total if acc is None else acc + total
    return {m: c for m, c in out.items() if not c.is_zero()}


def resolve_reference(word: D.SliceWord) -> D.Resolved:
    """``resolve_crossings(word)``, computed on ``HalfLaurent`` coefficients and not memoized."""
    n_w = word.west_arity
    terms = {D._matching_id(n_w, D.parallel_arcs(n_w)): ONE}
    pending: list = []
    for kind, i in word.slices:
        if kind in ("x", "xb"):
            para, turn = (D.CROSS_PARALLEL, D.CROSS_TURNBACK)
            if kind == "xb":
                para, turn = turn, para
            terms = _extend(n_w, terms, tuple(pending), ((para, ()), (turn, (("cap", i), ("cup", i)))))
            pending = []
        else:
            pending.append((kind, i))
    if pending:
        terms = _extend(n_w, terms, tuple(pending), ((ONE, ()),))
    return sorted((*D._matchings[m], c) for m, c in terms.items())
