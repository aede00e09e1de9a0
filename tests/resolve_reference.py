"""Slice-by-slice reference for ``skeinlab.diagram.resolve_crossings``.

``resolve_reference`` keeps one ``HalfLaurent`` coefficient per partial
matching, held as its (east arity, partner tuple), and multiplies and adds
them term by term, as ``diagram`` did before it packed each coefficient into
one integer.  Each resolution step is a whole-word trace (``trace_step``): the
matching's canonical word, the appended slices, and ``word_to_arcs`` of the
two together, as ``diagram`` did before it composed partner tuples.  It
reads ``CROSS_PARALLEL``, ``CROSS_TURNBACK`` and ``LOOP`` from ``diagram`` at
call time, so a test can rebind a constant and compare the two resolutions
word by word.
"""

from __future__ import annotations

from skeinlab import diagram as D
from skeinlab.scalar import ONE, HalfLaurent

#: (west arity, partners, slices) -> ``trace_step`` of it.  A step does
#: not depend on the constants, so this cache is never cleared.
_steps: dict = {}


def trace_step(n_west: int, partners: D.Partners, slices: tuple[D.Slice, ...]) -> tuple[int, D.Partners, int]:
    """(east arity, partners, loops) of the matching with crossingless ``slices``
    appended, by tracing its canonical word and the slices as one word."""
    word = D.SliceWord(n_west, D.partners_to_word(n_west, partners).slices + slices)
    new_partners, loops = D.word_to_arcs(word)
    return word.east_arity, new_partners, loops


def _extend(n_west, terms, pending, smoothings):
    """Append ``pending`` and then each smoothing to every partial matching."""
    out: dict[tuple[int, D.Partners], HalfLaurent] = {}
    for weight, tail in smoothings:
        slices = pending + tail
        for (n_east, partners), coeff in terms.items():
            key, loops = (n_east, partners), 0
            if slices:
                step = (n_west, partners, slices)
                if step not in _steps:
                    _steps[step] = trace_step(*step)
                new_east, new_partners, loops = _steps[step]
                key = (new_east, new_partners)
            total = coeff * (weight * D.LOOP**loops if loops else weight)
            acc = out.get(key)
            out[key] = total if acc is None else acc + total
    return {key: c for key, c in out.items() if not c.is_zero()}


def resolve_reference(word: D.SliceWord) -> D.Resolved:
    """``resolve_crossings(word)``, computed on ``HalfLaurent`` coefficients and not memoized."""
    n_w = word.west_arity
    terms = {(n_w, (*range(n_w, 2 * n_w), *range(n_w))): ONE}
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
