"""Slice-by-slice reference for ``skeinlab.diagram.resolve_crossings``.

``resolve_reference`` keeps one ``HalfLaurent`` coefficient per partial
matching, held as its (east arity, arcs), and multiplies and adds them term
by term, as ``diagram`` did before it packed each coefficient into one
integer.  Each resolution step is a whole-word trace (``trace_step``): the
matching's canonical word, the appended slices, and ``word_to_arcs`` of the
two together, as ``diagram`` did before it composed partner tuples.  It
reads ``CROSS_PARALLEL``, ``CROSS_TURNBACK`` and ``LOOP`` from ``diagram`` at
call time, so a test can rebind a constant and compare the two resolutions
word by word.
"""

from __future__ import annotations

from skeinlab import diagram as D
from skeinlab.scalar import ONE, HalfLaurent

#: (west arity, east arity, arcs, slices) -> ``trace_step`` of it.  A step does
#: not depend on the constants, so this cache is never cleared.
_steps: dict = {}


def trace_step(n_west: int, n_east: int, arcs: D.Arcs, slices: tuple[D.Slice, ...]) -> tuple[int, D.Arcs, int]:
    """(east arity, arcs, loops) of the matching with crossingless ``slices``
    appended, by tracing its canonical word and the slices as one word."""
    word = D.SliceWord(n_west, D.arcs_to_word(n_west, n_east, arcs).slices + slices)
    new_arcs, loops = D.word_to_arcs(word)
    return word.east_arity, new_arcs, loops


def _extend(n_west, terms, pending, smoothings):
    """Append ``pending`` and then each smoothing to every partial matching."""
    out: dict[tuple[int, D.Arcs], HalfLaurent] = {}
    for weight, tail in smoothings:
        slices = pending + tail
        for (n_east, arcs), coeff in terms.items():
            key, loops = (n_east, arcs), 0
            if slices:
                step = (n_west, n_east, arcs, slices)
                if step not in _steps:
                    _steps[step] = trace_step(*step)
                new_east, new_arcs, loops = _steps[step]
                key = (new_east, new_arcs)
            total = coeff * (weight * D.LOOP**loops if loops else weight)
            acc = out.get(key)
            out[key] = total if acc is None else acc + total
    return {key: c for key, c in out.items() if not c.is_zero()}


def resolve_reference(word: D.SliceWord) -> D.Resolved:
    """``resolve_crossings(word)``, computed on ``HalfLaurent`` coefficients and not memoized."""
    n_w = word.west_arity
    terms = {(n_w, D._canon_arcs((("w", i), ("e", i)) for i in range(n_w))): ONE}
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
    return sorted((*key, c) for key, c in terms.items())
