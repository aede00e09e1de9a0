"""Packed crossing resolution against the HalfLaurent reference, window by
window, and each composed resolution step against a whole-word trace."""

import random
from fractions import Fraction

import pytest

import skeinlab.diagram as D
from skeinlab.diagram import DiagramError, SliceWord, memo_clear, resolve_crossings
from skeinlab.scalar import HalfLaurent

from resolve_reference import resolve_reference, trace_step


def _random_word(rng, max_rows, max_slices, west=None, crossings=True):
    """A word whose cuts have at most ``max_rows`` rows, with caps, cups and,
    unless ``crossings`` is false, crossings."""
    rows = west = rng.randrange(max_rows + 1) if west is None else west
    slices = []
    for _ in range(rng.randint(0, max_slices)):
        kinds = ["cup"] if rows + 2 <= max_rows else []
        if rows >= 2:
            kinds += ["cap", "x", "xb", "x", "xb"] if crossings else ["cap"]
        if not kinds:
            break
        kind = rng.choice(kinds)
        i = rng.randrange(rows + 1) if kind == "cup" else rng.randrange(rows - 1)
        rows += {"cup": 2, "cap": -2}.get(kind, 0)
        slices.append((kind, i))
    return SliceWord(west, tuple(slices))


def _closed_braid(rng, rows, crossings):
    """Cups open ``rows`` rows, ``crossings`` random crossings follow, and caps
    close every row, so each smoothing ends in loops."""
    opening = tuple(("cup", 0) for _ in range(rows // 2))
    braid = tuple((rng.choice(("x", "xb")), rng.randrange(rows - 1)) for _ in range(crossings))
    closing = tuple(("cap", 0) for _ in range(rows // 2))
    return SliceWord(0, opening + braid + closing)


def _assert_same(words):
    for word in words:
        assert resolve_crossings(word) == resolve_reference(word), word


@pytest.fixture
def cleared():
    memo_clear()
    yield
    memo_clear()


def test_resolution_matches_the_reference_on_cuts_of_up_to_six_rows(cleared):
    rng = random.Random(3011)
    words = [_random_word(rng, rows, 40) for rows in range(1, 7) for _ in range(15)]
    assert max(w.width for w in words) == 6
    _assert_same(words)


def test_two_windows_then_caps_that_close_loops(cleared):
    rng = random.Random(3012)
    words = [_closed_braid(rng, rows, rng.randint(D._WINDOW + 1, 2 * D._WINDOW)) for rows in (2, 4, 4, 6)]
    words.append(SliceWord(2, tuple(("x", 0) for _ in range(2 * D._WINDOW)) + (("cup", 0), ("cap", 0)) * 3))
    for word in words:
        assert -(-word.crossing_count() // D._WINDOW) == 2
    _assert_same(words)


def test_short_windows_repack_short_words(cleared, monkeypatch):
    monkeypatch.setattr(D, "_WINDOW", 2)
    rng = random.Random(3013)
    words = [_random_word(rng, rows, 24) for rows in (2, 3, 4, 5) for _ in range(12)]
    words += [_closed_braid(rng, 4, n) for n in range(1, 8)]
    assert sum(w.crossing_count() > 2 for w in words) > 20
    _assert_same(words)


def test_resolution_follows_rebound_constants(cleared, monkeypatch):
    # Larger norms than the Kauffman constants: a digit width proven from
    # -q^2 - q^-2 and q overflows on these words.
    monkeypatch.setattr(D, "LOOP", HalfLaurent({4: -3, -4: -2}))
    monkeypatch.setattr(D, "CROSS_PARALLEL", HalfLaurent.q_pow(1, 2))
    rng = random.Random(3014)
    words = [_random_word(rng, rows, 30) for rows in (2, 4, 6) for _ in range(8)]
    words += [_closed_braid(rng, 4, n) for n in (3, 9, D._WINDOW + 5)]
    words.append(SliceWord(2, (("x", 0),) + (("cup", 0), ("cap", 0)) * 6))
    _assert_same(words)
    monkeypatch.setattr(D, "_WINDOW", 2)
    memo_clear()
    _assert_same(words)


def test_resolution_rejects_a_constant_with_a_fractional_coefficient(cleared, monkeypatch):
    monkeypatch.setattr(D, "CROSS_TURNBACK", HalfLaurent.q_pow(-1, Fraction(1, 2)))
    with pytest.raises(DiagramError, match="integer coefficients"):
        resolve_crossings(SliceWord(2, (("x", 0),)))


def test_composed_steps_match_the_whole_word_trace(cleared):
    # A random planar matching of cuts of up to 10 rows, then random caps
    # and cups on its east points: the composed step gives the matching and
    # the loops of tracing the matching's canonical word and the slices at once.
    rng = random.Random(3102)
    loops = 0
    for _ in range(3000):
        max_rows = rng.randint(1, 10)
        word = _random_word(rng, max_rows, 12, crossings=False)
        partners, _ = D.word_to_arcs(word)
        n_west, n_east = word.west_arity, word.east_arity
        m = D._matching_id(n_east, partners)
        assert D._partners[m] == partners
        slices = _random_word(rng, max_rows, 8, west=n_east, crossings=False).slices
        new_east, new_partners, want = trace_step(n_west, partners, slices)
        step = D._transition(n_west, m, slices)
        new, closed = (step, 0) if type(step) is int else step
        assert D._matching_ids[new_east, new_partners] == new, (word, slices)
        assert D._partners[new] == new_partners
        assert closed == want and (type(step) is int) == (not want), (word, slices)
        loops += want
    assert loops > 300
