import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab.diagram import (
    UNIT_TANGLE,
    BasisTangle,
    DiagramError,
    SkeinElement,
    SliceWord,
    StatedWord,
    evaluate_arcs,
    memo_clear,
    memo_sizes,
    reduce,
    reduce_parallel,
    resolve_crossings,
    state_tuples,
)
from skeinlab.oracle import oracle_reduce
from skeinlab.scalar import LOOP, HalfLaurent
from skeinlab.syntax import ParseError, format_diagram, parse_diagram


def unit_times(coeff):
    return SkeinElement.of(UNIT_TANGLE, coeff)


def test_no_crossings_is_identity_combination():
    w = SliceWord(2, (("cap", 0), ("cup", 0)))
    [(n_east, partners, coeff)] = resolve_crossings(w)
    assert coeff == HalfLaurent.one()
    # w0-w1 and e0-e1: points w0, w1, e0, e1 are indices 0-3.
    assert n_east == 2 and partners == (1, 0, 3, 2)


def test_closed_loop_gives_loop_value():
    w = SliceWord(0, (("cup", 0), ("cap", 0)))
    [(n_east, partners, coeff)] = resolve_crossings(w)
    assert n_east == 0 and partners == ()
    assert coeff == LOOP


def test_reidemeister_ii_cancels_turnbacks():
    w = SliceWord(2, (("x", 0), ("xb", 0)))
    [(n_east, partners, coeff)] = resolve_crossings(w)
    # w0-e0 and w1-e1.
    assert n_east == 2 and partners == (2, 3, 0, 1)
    assert coeff == HalfLaurent.one()


def test_reduce_empty_diagram():
    assert reduce(StatedWord(SliceWord(0, ()), (), ())) == SkeinElement.unit()


def test_reduce_east_arcs():
    arc = lambda st: StatedWord(SliceWord(0, (("cup", 0),)), (), st)
    assert reduce(arc((1, -1))) == unit_times(HalfLaurent.s_pow(-1))
    assert reduce(arc((-1, 1))) == unit_times(HalfLaurent.s_pow(-5, -1))
    assert reduce(arc((1, 1))).is_zero()
    assert reduce(arc((-1, -1))).is_zero()


def test_reduce_exchange_example():
    # Two parallel strands, west (+,-), east (-,+): one east exchange then
    # a west arc evaluation.
    got = reduce(StatedWord(SliceWord(2, ()), (1, -1), (-1, 1)))
    want = SkeinElement(
        {
            BasisTangle(2, (1, -1), (1, -1)): HalfLaurent.q_pow(2),
            UNIT_TANGLE: HalfLaurent.q_pow(2, -1),
        }
    )
    assert got == want


def test_reduce_idempotent_on_basis():
    for b in (
        BasisTangle(0, (), ()),
        BasisTangle(1, (1,), (-1,)),
        BasisTangle(3, (1, 1, -1), (1, -1, -1)),
    ):
        assert reduce_parallel(b.mu, b.nu) == SkeinElement.of(b)


def test_zigzag_insertion_is_isotopy():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((1, 2, 3))
        west = tuple(rng.choice((1, -1)) for _ in range(n))
        east = tuple(rng.choice((1, -1)) for _ in range(n))
        base = StatedWord(SliceWord(n, ()), west, east)
        row = rng.randrange(n)
        zig = StatedWord(
            SliceWord(n, (("cup", row), ("cap", row + 1))), west, east
        )
        assert reduce(zig) == reduce(base)
        zag = StatedWord(
            SliceWord(n, (("cup", row + 1), ("cap", row))), west, east
        )
        assert reduce(zag) == reduce(base)


def test_zigzag_insertion_in_random_words():
    from skeinlab.suites import random_stated_word

    rng = random.Random(1312)
    checked = 0
    while checked < 40:
        d = random_stated_word(rng, max_crossings=2, max_points=6)
        slices = list(d.word.slices)
        pos = rng.randrange(len(slices) + 1)
        # Row count at the insertion point.
        rows = d.word.west_arity
        for kind, i in slices[:pos]:
            rows += 2 if kind == "cup" else -2 if kind == "cap" else 0
        if rows == 0:
            continue
        row = rng.randrange(rows)
        for pair in ((("cup", row), ("cap", row + 1)), (("cup", row + 1), ("cap", row))):
            zigged = SliceWord(d.word.west_arity, tuple(slices[:pos] + list(pair) + slices[pos:]))
            assert reduce(StatedWord(zigged, d.west, d.east)) == reduce(d)
        checked += 1


def test_kink_factors():
    base = StatedWord(SliceWord(1, ()), (1,), (1,))
    pos = StatedWord(SliceWord(1, (("cup", 1), ("x", 0), ("cap", 1))), (1,), (1,))
    neg = StatedWord(SliceWord(1, (("cup", 1), ("xb", 0), ("cap", 1))), (1,), (1,))
    assert reduce(pos) == reduce(base).scale(HalfLaurent.q_pow(3, -1))
    assert reduce(neg) == reduce(base).scale(HalfLaurent.q_pow(-3, -1))


def test_plat_closure_brackets():
    # Plat closures of 2-bridge braids, checked against hand computation in
    # the 2-strand diagram algebra: sigma = A 1 + A^-1 e with e^2 = delta e
    # (A = q), so sigma^2 = A^2 1 + (1 - A^-4) e and sigma^3 = A^3 1 +
    # (A - A^-3 + A^-7) e; closing sends 1 to delta^2 and e to delta.
    def plat(k, kind="x"):
        slices = [("cup", 0), ("cup", 2)] + [(kind, 1)] * k + [("cap", 0), ("cap", 0)]
        return reduce(StatedWord(SliceWord(0, tuple(slices)), (), ())).coefficient(
            UNIT_TANGLE
        )

    A = HalfLaurent.q_pow
    assert plat(0) == A(2) * A(2) + HalfLaurent.rational(2) + A(-2) * A(-2)
    assert plat(1) == A(5) + A(1)  # unknot with one positive kink
    assert plat(2) == A(6) + A(2) + A(-2) + A(-6)  # linked pair
    assert plat(3) == HalfLaurent({14: 1, 6: 1, -2: 1, -18: -1})
    # The mirror braid inverts s.
    mirror = plat(3, "xb")
    assert mirror == HalfLaurent({-e: c for e, c in plat(3).terms.items()})


def test_oracle_agreement_sample():
    from skeinlab.suites import random_stated_word

    rng = random.Random(2024)
    for _ in range(60):
        d = random_stated_word(rng)
        assert reduce(d) == oracle_reduce(d)


def test_rt_factorization_on_two_sided_words():
    # counit(reduce(T(eps, kappa))) is the (kappa, eps) entry of the RT matrix
    # of T, for every state pair and boundary points on both edges.
    from skeinlab.bigon_skein import counit
    from skeinlab.comodule_rt import rt_evaluate, state_index, state_tuples
    from skeinlab.suites import random_stated_word

    rng = random.Random(4104)
    checked = 0
    while checked < 40:
        word = random_stated_word(rng, max_crossings=4, max_points=6).word
        if not (word.west_arity and word.east_arity):
            continue
        checked += 1
        rt = rt_evaluate(word)
        for west in state_tuples(word.west_arity):
            for east in state_tuples(word.east_arity):
                got = counit(reduce(StatedWord(word, west, east)))
                assert got == rt[state_index(east)][state_index(west)]


def test_long_braid_words_match_oracle():
    rng = random.Random(812)
    for _ in range(12):
        slices = tuple(
            (rng.choice(("x", "xb")), rng.randrange(3)) for _ in range(rng.randint(8, 10))
        )
        states = lambda: tuple(rng.choice((1, -1)) for _ in range(4))
        d = StatedWord(SliceWord(4, slices), states(), states())
        assert reduce(d) == oracle_reduce(d)


@st.composite
def _stated_words(draw, max_width=6, max_crossings=6):
    """Stated words with caps, cups and crossings, at most ``max_width`` rows."""
    west = rows = draw(st.integers(0, max_width))
    slices = []
    crossings = 0
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["cup"] if rows + 2 <= max_width else []
        if rows >= 2:
            kinds.append("cap")
            if crossings < max_crossings:
                kinds += ["x", "xb"]
        kind = draw(st.sampled_from(kinds))
        if kind == "cup":
            i = draw(st.integers(0, rows))
            rows += 2
        else:
            i = draw(st.integers(0, rows - 2))
            if kind == "cap":
                rows -= 2
            else:
                crossings += 1
        slices.append((kind, i))
    states = lambda n: tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    return StatedWord(SliceWord(west, tuple(slices)), states(west), states(rows))


@settings(max_examples=200, deadline=None)
@given(_stated_words())
def test_reduce_matches_oracle_with_warm_memos(d):
    # No memo is cleared between examples, so each word is resolved through
    # the transitions, resolutions and reductions of the words before it.
    assert reduce(d) == oracle_reduce(d)


def _recursive_evaluator():
    """The recursive matching evaluator that ``evaluate_arcs`` replaced.

    It removes one adjacent returning arc at a time, east edge first, and
    then sorts east and west states with the exchange relations, whose
    joined term is again a matching.  Memoized per call of this function.
    """
    import functools

    import skeinlab.diagram as D

    def canon(pairs):
        return tuple(sorted(tuple(sorted(p)) for p in pairs))

    def remove_edge_point(arcs, side, removed):
        lo = min(removed)

        def shift(p):
            if p[0] == side and p[1] > lo + 1:
                return (p[0], p[1] - 2)
            return p

        gone = {(side, removed[0]), (side, removed[1])}
        return canon((shift(a), shift(b)) for a, b in arcs if a not in gone and b not in gone)

    @functools.cache
    def evaluate(n_west, n_east, arcs, west, east):
        partner = {}
        for a, b in arcs:
            partner[a] = b
            partner[b] = a
        for side, count, states, table in (("e", n_east, east, D.C), ("w", n_west, west, D.CBAR)):
            for p in range(count - 1):
                if partner.get((side, p)) == (side, p + 1):
                    weight = table[(states[p], states[p + 1])]
                    if weight.is_zero():
                        return SkeinElement.zero()
                    rest_arcs = remove_edge_point(arcs, side, (p, p + 1))
                    rest_states = states[:p] + states[p + 2 :]
                    if side == "e":
                        sub = evaluate(n_west, n_east - 2, rest_arcs, west, rest_states)
                    else:
                        sub = evaluate(n_west - 2, n_east, rest_arcs, rest_states, east)
                    return sub.scale(weight)
        n = n_west
        for i in range(n - 1):
            if east[i] == -1 and east[i + 1] == 1:
                swapped = east[:i] + (1, -1) + east[i + 2 :]
                out = evaluate(n_west, n_east, arcs, west, swapped).scale(D.EAST_EXCHANGE_SWAP)
                joined = canon(
                    [(("w", i), ("w", i + 1))]
                    + [(("w", j), ("e", j if j < i else j - 2)) for j in range(n) if j not in (i, i + 1)]
                )
                sub = evaluate(n_west, n_east - 2, joined, west, east[:i] + east[i + 2 :])
                out.add_scaled(sub, D.EAST_EXCHANGE_ARC)
                return out
        for i in range(n - 1):
            if west[i] == -1 and west[i + 1] == 1:
                swapped = west[:i] + (1, -1) + west[i + 2 :]
                out = evaluate(n_west, n_east, arcs, swapped, east).scale(D.WEST_EXCHANGE_SWAP)
                joined = canon(
                    [(("e", i), ("e", i + 1))]
                    + [(("w", j if j < i else j - 2), ("e", j)) for j in range(n) if j not in (i, i + 1)]
                )
                sub = evaluate(n_west - 2, n_east, joined, west[:i] + west[i + 2 :], east)
                out.add_scaled(sub, D.WEST_EXCHANGE_ARC)
                return out
        return SkeinElement.of(BasisTangle(n, west, east))

    return evaluate


def test_closed_form_matches_recursive_reference():
    from skeinlab.diagram import evaluate_arcs, state_tuples
    from skeinlab.internal_skein import enumerate_matchings

    reference = _recursive_evaluator()
    memo_clear()
    checked = 0
    for total in range(0, 9, 2):
        for n_west in range(total + 1):
            for m in enumerate_matchings(n_west, total - n_west):
                for west in state_tuples(m.n_west):
                    for east in state_tuples(m.n_east):
                        want = reference(m.n_west, m.n_east, m.pairs, west, east)
                        assert evaluate_arcs(m.partners, west, east) == want, (m, west, east)
                        checked += 1
    # Every state assignment of all 175 matchings of at most 8 points.
    assert checked == 1 + 3 * 4 + 10 * 16 + 35 * 64 + 126 * 256
    memo_clear()


def _count_traces(monkeypatch) -> list[int]:
    """Empty the memos and count ``word_to_arcs`` calls in the returned cell."""
    import skeinlab.diagram as D

    calls = [0]
    trace = D.word_to_arcs

    def counting(word):
        calls[0] += 1
        return trace(word)

    monkeypatch.setattr(D, "word_to_arcs", counting)
    D.memo_clear()
    return calls


def _count_transitions(monkeypatch) -> list[int]:
    """Empty the memos and count transition-memo misses in the returned cell."""
    import skeinlab.diagram as D

    misses = [0]
    transition = D._transition

    def counting(n_west, m, slices):
        misses[0] += 1
        return transition(n_west, m, slices)

    monkeypatch.setattr(D, "_transition", counting)
    D.memo_clear()
    return misses


def test_braid_resolution_work_is_linear_in_crossings(monkeypatch):
    # At most two new transitions per planar matching of the 8 boundary
    # points (Catalan(4) = 14) per crossing, plus the trailing slices:
    # 2 * 14 * 19, where expanding every smoothing would trace 2^18 words.
    misses = _count_transitions(monkeypatch)
    word = SliceWord(4, tuple(("x", i) for _ in range(6) for i in range(3)))
    assert len(resolve_crossings(word)) == 14
    assert 0 < misses[0] <= 2 * 14 * 19
    # A transition depends only on the matching and the appended slices, so
    # another word over the same rows reuses every one.
    misses[0] = 0
    other = SliceWord(4, tuple(s for _ in range(4) for s in (("xb", 2), ("x", 1), ("xb", 0))))
    assert len(resolve_crossings(other)) == 14
    assert misses[0] == 0
    memo_clear()


def test_reduce_traces_each_canonical_word_once(monkeypatch):
    # The resolution and the slices its steps trace do not depend on the
    # boundary states, so only the first state pair traces words.
    calls = _count_traces(monkeypatch)
    word = SliceWord(3, (("x", 0), ("xb", 1), ("cap", 0), ("cup", 1), ("x", 0)))
    states = [(w, e) for w in ((1, 1, -1), (-1, 1, 1), (1, -1, 1)) for e in ((1, 1, -1), (-1, 1, 1))]
    reduce(StatedWord(word, *states[0]))
    assert calls[0]
    calls[0] = 0
    for west, east in states[1:]:
        reduce(StatedWord(word, west, east))
    assert calls[0] == 0
    memo_clear()


@pytest.fixture
def fresh_matching_ids(monkeypatch):
    """Empties the memos and gives ``diagram`` a new, empty matching table
    on each call; the memos are emptied again before the table is restored."""
    import skeinlab.diagram as D

    def fresh():
        monkeypatch.setattr(D, "_matching_ids", {})
        monkeypatch.setattr(D, "_partners", [])
        memo_clear()
        return D._partners

    yield fresh
    memo_clear()


def test_resolution_does_not_depend_on_matching_numbering(fresh_matching_ids):
    # Matchings are numbered in the order they are met; resolving the same
    # words in reverse order numbers them differently and changes nothing.
    from skeinlab.suites import random_stated_word

    rng = random.Random(2311)
    words = [random_stated_word(rng, max_crossings=4) for _ in range(40)]
    words += [
        StatedWord(SliceWord(4, tuple((rng.choice(("x", "xb")), rng.randrange(3)) for _ in range(9))), w, e)
        for w, e in zip(state_tuples(4)[::3], state_tuples(4)[::-3])
    ]
    first_ids = fresh_matching_ids()
    first = [(resolve_crossings(d.word), reduce(d)) for d in words]
    first_ids = list(first_ids)
    again_ids = fresh_matching_ids()
    again = [(resolve_crossings(d.word), reduce(d)) for d in reversed(words)]
    assert sorted(again_ids) == sorted(first_ids) and again_ids != first_ids
    assert again[::-1] == first


def test_transition_memo_holds_only_matching_ids():
    import skeinlab.diagram as D

    memo_clear()
    resolve_crossings(SliceWord(4, tuple(("x", i) for _ in range(5) for i in range(3))))
    resolve_crossings(SliceWord(2, (("cup", 1), ("x", 0), ("xb", 2), ("cap", 1), ("x", 0))))
    entries = [(m, hit) for table in D._transition_memo.values() for m, hit in table.items()]
    assert entries
    loopy = 0
    for m, hit in entries:
        new, loops = (hit, 0) if type(hit) is int else hit
        assert type(m) is int and type(new) is int and type(loops) is int
        assert type(hit) is int or loops >= 1
        loopy += loops > 0
    assert loopy
    memo_clear()


def test_loop_free_steps_are_bare_ids_and_loop_factors_are_packed_by_count():
    import skeinlab.diagram as D

    memo_clear()
    # The turnback of the first crossing appends a cap and a cup and closes
    # no loop; before the second crossing a cup and a cap close one loop.
    resolve_crossings(SliceWord(2, (("x", 0), ("cup", 0), ("cap", 0), ("x", 0))))
    loop_free = D._transition_memo[("cap", 0), ("cup", 0)]
    assert loop_free and all(type(hit) is int for hit in loop_free.values())
    loopy = D._transition_memo[("cup", 0), ("cap", 0)]
    assert loopy and all(type(hit[0]) is int and hit[1] == 1 for hit in loopy.values())
    g, r, _, _ = D._packing()
    (width,) = D._MEMOS["diagram._factor_memo"]
    for weight, factors in zip((D.CROSS_PARALLEL, D.CROSS_TURNBACK), D._factors(width)):
        assert {0, 1} <= set(factors)
        for loops, (bits, k0, rest) in factors.items():
            packed = D._coefficient(D._times(1, k0, rest), r + g * (bits // width), g, width)
            assert packed == weight * D.LOOP**loops
    memo_clear()


def _wide_word(rng, width):
    """A stated word whose widest cut has ``width`` rows, with at least one
    cup, one cap and crossing, and at most 6 crossings."""
    while True:
        west = rows = rng.randrange(width % 2, width - 1, 2)
        slices, crossings = [], 0
        for _ in range(rng.randint(4, 12)):
            kinds = ["cup"] if rows + 2 <= width else []
            if rows >= 2:
                kinds.append("cap")
                if crossings < 6:
                    kinds += ["x", "xb"]
            kind = rng.choice(kinds)
            i = rng.randrange(rows + 1) if kind == "cup" else rng.randrange(rows - 1)
            rows += {"cup": 2, "cap": -2}.get(kind, 0)
            crossings += kind in ("x", "xb")
            slices.append((kind, i))
        word = SliceWord(west, tuple(slices))
        if word.width == width and crossings and {"cup", "cap"} <= {k for k, _ in slices}:
            states = lambda n: tuple(rng.choice((1, -1)) for _ in range(n))
            return StatedWord(word, states(west), states(rows))


def test_reduce_matches_oracle_at_wider_cuts():
    rng = random.Random(5767)
    for width in (5, 6, 7):
        for _ in range(12):
            d = _wide_word(rng, width)
            assert reduce(d) == oracle_reduce(d), format_diagram(d)


def _reidemeister_words():
    """Every word the RII and RIII cases of the rt suite compare."""
    from skeinlab.suites import _braid_words

    words = set()
    for base in [w for n in range(3) for w in _braid_words(n)]:
        words.add(base)
        for pos in range(len(base) + 1):
            for row in (0, 1):
                for pair in ((("x", row), ("xb", row)), (("xb", row), ("x", row))):
                    words.add(base[:pos] + pair + base[pos:])
    for base in [w for n in range(2) for w in _braid_words(n)]:
        words |= {base + (("x", 0), ("x", 1), ("x", 0)), base + (("x", 1), ("x", 0), ("x", 1))}
    return {SliceWord(3, w) for w in words}


def evaluated(d):
    """The sum of every resolved matching's coefficient times its evaluation at the states."""
    out = SkeinElement.zero()
    for _, partners, coeff in resolve_crossings(d.word):
        out.add_scaled(evaluate_arcs(partners, d.west, d.east), coeff)
    return out


def test_reduce_is_the_evaluated_resolution():
    # The lemma behind the RII/RIII cases: reduce depends on the word only
    # through resolve_crossings, whatever the boundary states.
    from skeinlab.suites import random_stated_word

    rng = random.Random(19)
    checked = 0
    while checked < 150:
        d = random_stated_word(rng, max_crossings=3, max_points=6)
        if d.word.crossing_count():
            assert reduce(d) == evaluated(d), format_diagram(d)
            checked += 1
    states = state_tuples(3)
    pairs = [(states[0], states[0]), (states[1], states[2]), (states[5], states[3]), (states[7], states[6])]
    for word in _reidemeister_words():
        for west, east in pairs:
            d = StatedWord(word, west, east)
            assert reduce(d) == evaluated(d), format_diagram(d)


def test_reduce_evaluates_only_live_matchings(monkeypatch):
    # reduce calls evaluate_arcs once per resolved matching whose returning
    # arcs all have non-zero weights at the states, and reads C at each call:
    # with C[+, +] made non-zero the skipped matchings count again.
    import skeinlab.diagram as D

    memo_clear()
    calls = []
    evaluate = D.evaluate_arcs
    monkeypatch.setattr(D, "evaluate_arcs", lambda *args: calls.append(args[0]) or evaluate(*args))
    word = SliceWord(4, tuple(("x" if k % 3 else "xb", k % 3) for k in range(10)))
    d = StatedWord(word, (1, -1, 1, -1), (1, 1, 1, -1))

    def is_live(partners):
        east_arcs, west_arcs, _, _ = D._plan(word.west_arity, partners)
        return all(D.C[d.east[u], d.east[v]] for u, v in east_arcs) and all(
            D.CBAR[d.west[u], d.west[v]] for u, v in west_arcs
        )

    live = [partners for _, partners, _ in resolve_crossings(word) if is_live(partners)]
    before = reduce(d)
    assert sorted(calls) == sorted(live) and 0 < len(live) < len(resolve_crossings(word))
    assert before == evaluated(d)
    monkeypatch.setitem(D.C, (1, 1), HalfLaurent.s_pow(3))
    memo_clear()
    after = reduce(d)
    assert after != before and after == evaluated(d)
    memo_clear()


@pytest.fixture
def wrong_loop(monkeypatch):
    """Every diagram memo computed with the loop value -q^2 instead of -q^2 - q^-2."""
    import skeinlab.diagram as D

    memo_clear()
    monkeypatch.setattr(D, "LOOP", HalfLaurent({4: -1}))
    yield
    memo_clear()


def test_reidemeister_cases_fail_with_a_wrong_loop_value(wrong_loop):
    from skeinlab.suites import reidemeister_ii, reidemeister_iii

    assert reidemeister_ii().startswith("RII fails")
    assert reidemeister_iii().startswith("RIII fails")
    # The per-state comparison fails on the same mutant.
    base, modified = SliceWord(3, ()), SliceWord(3, (("x", 0), ("xb", 0)))
    states = state_tuples(3)
    differ = [
        (west, east)
        for west in states
        for east in states
        if reduce(StatedWord(base, west, east)) != reduce(StatedWord(modified, west, east))
    ]
    assert differ


def test_memo_clear_empties_both_memos():
    names = ("diagram._memo", "diagram._resolve_memo")
    reduce(StatedWord(SliceWord(2, (("x", 0),)), (1, -1), (-1, 1)))
    assert all(memo_sizes()[name] for name in names)
    memo_clear()
    assert not any(memo_sizes()[name] for name in names)


def test_width_counts_the_widest_cut():
    assert SliceWord(3, ()).width == 3
    assert SliceWord(0, (("cup", 0), ("cup", 1), ("cap", 0), ("cap", 0))).width == 4
    assert SliceWord(4, (("cap", 0), ("cup", 2), ("x", 0))).width == 4


def test_a_subclass_without_slots_keeps_the_fields():
    sub = type("Sub", (SliceWord,), {"__slots__": ()})(1, (("cup", 1),))
    assert (sub.west_arity, sub.slices, sub.east_arity, sub.width) == (1, (("cup", 1),), 3, 3)
    assert repr(sub) == "Sub(west_arity=1, slices=(('cup', 1),))"


def test_validation_errors():
    with pytest.raises(DiagramError):
        SliceWord(1, (("cap", 0),))
    with pytest.raises(DiagramError):
        SliceWord(2, (("x", 1),))
    with pytest.raises(DiagramError):
        StatedWord(SliceWord(2, ()), (1,), (1, 1))
    with pytest.raises(DiagramError):
        BasisTangle(2, (-1, 1), (1, 1))


def test_parse_and_format():
    d = parse_diagram("tangle(2){x0} west=+- east=+-")
    assert d.word.slices == (("x", 0),)
    assert d.west == (1, -1) and d.east == (1, -1)
    assert parse_diagram(format_diagram(d)) == d

    closed = parse_diagram("tangle(0){cup0;cap0}")
    assert closed.word.east_arity == 0
    assert parse_diagram(format_diagram(closed)) == closed

    with pytest.raises(ParseError):
        parse_diagram("tangle(1){cap0}")
    with pytest.raises(ParseError):
        parse_diagram("tangle(2){zap0}")
