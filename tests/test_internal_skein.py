import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from endpoint_reference import arcs_of, endpoint_arc_lists, from_arcs, matching_str
from q_reference import over_q

import skeinlab.bigon_skein as B
import skeinlab.comodule_rt as CM
import skeinlab.internal_skein as IS
import skeinlab.quantum_sl2 as QS
from skeinlab.diagram import CBAR, SkeinElement, UNIT_TANGLE, BasisTangle, C, evaluate_arcs, memo_clear
from skeinlab.scalar import LOOP, ONE, P, Q, HalfLaurent
from skeinlab.suites import DEFAULT_SPECS, ranks

s = HalfLaurent.s_pow


def value(table, key):
    """The element a table holds at ``key``: zero where it has no entry."""
    entry = table.get(key)
    return SkeinElement.zero() if entry is None else IS.entry_value(entry)


def identity_matching(n):
    return from_arcs(n, n, tuple((("w", i), ("e", i)) for i in range(n)))


def test_enumeration_counts():
    assert len(IS.enumerate_matchings(2, 0)) == 1
    assert len(IS.enumerate_matchings(1, 1)) == 1
    assert len(IS.enumerate_matchings(2, 2)) == 2
    assert len(IS.enumerate_matchings(3, 3)) == 5
    assert len(IS.enumerate_matchings(0, 6)) == 5
    with pytest.raises(IS.MatchingError):
        IS.enumerate_matchings(2, 1)


def test_matching_validation():
    with pytest.raises(IS.MatchingError):
        # Crossing pair pattern west0-east1 / west1-east0 is non-planar.
        from_arcs(2, 2, ((("w", 0), ("e", 1)), (("w", 1), ("e", 0))))
    with pytest.raises(ValueError):
        from_arcs(2, 0, ((("w", 0), ("w", 0)),))


@pytest.mark.parametrize(
    "n_west, partners, message",
    [
        (3, (1, 0, 1), "exactly once"),  # an odd count
        (1, (1, 0, 2), "exactly once"),  # an odd count with a fixed point
        (2, (0, 1), "exactly once"),  # fixed points
        (0, (1, 2, 3, 0), "exactly once"),  # not an involution
        (0, (1, 4, 3, 2), "exactly once"),  # an index out of range
        (2, (1, -1), "exactly once"),  # a negative index
        (3, (1, 0), "out of range"),  # a west arity out of range
        (-1, (1, 0), "out of range"),
        (2, (3, 2, 1, 0), "not planar"),  # w0-e1 crosses w1-e0
        (0, (2, 3, 0, 1), "not planar"),  # e0-e2 crosses e1-e3
    ],
)
def test_matching_constructor_rejects(n_west, partners, message):
    with pytest.raises(IS.MatchingError, match=message):
        IS.Matching(n_west, partners)


def test_matching_from_its_partner_tuple():
    m = IS.Matching(1, [3, 2, 1, 0])
    assert (m.n_west, m.partners, m.n_east) == (1, (3, 2, 1, 0), 3)
    assert m == from_arcs(1, 3, ((("w", 0), ("e", 2)), (("e", 0), ("e", 1))))
    assert str(m) == "matching(1,3:e0-e1,e2-w0)"
    assert repr(m) == "Matching(n_west=1, partners=(3, 2, 1, 0))"


def test_enumeration_equals_endpoint_reference():
    # str, partner tuple, word and order of every split of at most 10 points.
    matchings = 0
    for total in range(0, 11, 2):
        for nw in range(total + 1):
            ne = total - nw
            want = []
            for arcs in endpoint_arc_lists(nw, ne):
                m = from_arcs(nw, ne, arcs)
                want.append((matching_str(nw, ne, arcs), m.partners, m.word))
            assert [(str(m), m.partners, m.word) for m in IS.enumerate_matchings(nw, ne)] == want
            matchings += len(want)
    assert matchings == 637


def test_copies_and_pickles_rebuild_through_the_constructor(monkeypatch):
    m = IS.Matching(2, (1, 0, 3, 2))
    built = []
    init = IS.Matching.__init__
    monkeypatch.setattr(IS.Matching, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    copies = [copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
    assert built == [(2, (1, 0, 3, 2))] * 3
    for c in copies:
        assert c == m and c is not m and (c.n_east, c.word) == (m.n_east, m.word)


def test_st_map_west_arc():
    m = from_arcs(2, 0, ((("w", 0), ("w", 1)),))
    table = IS.st_map(m)
    assert table[((1, -1), ())] == (s(5, -1), ((), ()))
    assert value(table, ((1, -1), ())) == SkeinElement.of(UNIT_TANGLE, s(5, -1))
    assert value(table, ((-1, 1), ())) == SkeinElement.of(UNIT_TANGLE, s(1))
    # Equal states on the arc give zero, which the table leaves out.
    assert len(table) == 2


def test_matching_word_realizes_matching():
    from skeinlab.diagram import reduce, StatedWord
    import skeinlab.comodule_rt as CM

    for nw, ne in ((2, 2), (0, 4), (3, 1)):
        for m in IS.enumerate_matchings(nw, ne):
            word = m.word
            table = IS.st_map(m)
            for west in CM.state_tuples(nw):
                for east in CM.state_tuples(ne):
                    assert reduce(StatedWord(word, west, east)) == value(table, (west, east))


def test_canonical_word_traces_back_to_the_partner_tuple():
    # A matching's word traces back to its partner tuple, and the tuple
    # joins the ends of each of its endpoint arcs.
    from skeinlab.diagram import word_to_arcs

    checked = 0
    for m in _matchings(10):
        assert word_to_arcs(m.word) == (m.partners, 0), m
        index = lambda p: p[1] if p[0] == "w" else m.n_west + p[1]
        assert len(m.partners) == m.n_west + m.n_east == 2 * len(arcs_of(m)), m
        for a, b in arcs_of(m):
            assert m.partners[index(a)] == index(b) and m.partners[index(b)] == index(a), m
        checked += 1
    assert checked == sum((n + 1) * IS.catalan(n // 2) for n in range(0, 11, 2))


def test_st_map_through_strand():
    m = identity_matching(1)
    table = IS.st_map(m)
    assert table[((1,), (-1,))] == (ONE, ((1,), (-1,)))
    assert value(table, ((1,), (1,))) == SkeinElement.of(BasisTangle(1, (1,), (1,)))
    assert value(table, ((1,), (-1,))) == SkeinElement.of(BasisTangle(1, (1,), (-1,)))


def test_st_map_nested_east_arcs():
    m = from_arcs(0, 4, ((("e", 0), ("e", 3)), (("e", 1), ("e", 2))))
    table = IS.st_map(m)
    # Innermost (+,-) then outer (+,-) multiply the arc weights.
    assert value(table, ((), (1, 1, -1, -1))) == SkeinElement.of(UNIT_TANGLE, s(-1) * s(-1))
    # Innermost (-,+) gives -q^(-5/2), outer then reads (+,-): q^(-1/2).
    assert value(table, ((), (1, -1, 1, -1))) == SkeinElement.of(UNIT_TANGLE, s(-6, -1))


def test_intertwiner_small():
    for nw, ne in ((1, 1), (2, 0), (0, 2), (2, 2)):
        for m in IS.enumerate_matchings(nw, ne):
            ok, witness = IS.check_st_intertwiner(m, IS.st_map(m))
            assert ok, witness


def _matchings(max_points):
    for total in range(0, max_points + 1, 2):
        for nw in range(total + 1):
            yield from IS.enumerate_matchings(nw, total - nw)


def _direct_lifts(m, table):
    """The lift sums over all states kappa of a table of elements (as
    ``_densify`` gives), with X the coaction matrix of V^(x)n built in
    O_q(SL2) and transported entry by entry."""
    xs = {
        n: [[QS.to_skein(h) for h in row] for row in CM.tensor_power_V(n).coaction]
        for n in {m.n_west, m.n_east}
    }
    zero = SkeinElement.zero()
    east, west = {}, {}
    for w in CM.state_tuples(m.n_west):
        for e in CM.state_tuples(m.n_east):
            e_sum = B.TensorElement.zero(2)
            for kappa in CM.state_tuples(m.n_east):
                x = xs[m.n_east][CM.state_index(kappa)][CM.state_index(e)]
                e_sum.add_scaled(B.tensor2(table.get((w, kappa), zero), x))
            w_sum = B.TensorElement.zero(2)
            for kappa in CM.state_tuples(m.n_west):
                x = xs[m.n_west][CM.state_index(w)][CM.state_index(kappa)]
                w_sum.add_scaled(B.tensor2(x, table.get((kappa, e), zero)))
            east[(w, e)], west[(w, e)] = e_sum, w_sum
    return east, west


def test_factorized_lifts_equal_direct_sums():
    zero = B.TensorElement.zero(2)
    compared = 0
    for m in _matchings(6):
        table = IS.st_map(m)
        lifts = {(side, outer): IS._row_lifts(line, side == "east") for side, outer, line in IS._lines(m, table)}
        direct_east, direct_west = _direct_lifts(m, _densify(m, table))
        for (w, e), want in direct_east.items():
            assert lifts[("east", w)].get(e, zero) == want, (m, w, e)
            assert lifts[("west", e)].get(w, zero) == direct_west[(w, e)], (m, w, e)
            compared += 2
    assert compared == 4826


def test_lift_check_catches_a_scaled_entry():
    # The check takes the table, so a table with one non-zero entry scaled
    # by q must fail it.
    mutants = 0
    for m in IS.enumerate_matchings(2, 2) + IS.enumerate_matchings(0, 4):
        table = IS.st_map(m)
        assert IS.check_st_intertwiner(m, table) == (True, None)
        for key, (weight, through) in table.items():
            if not weight:
                continue
            mutated = dict(table)
            mutated[key] = (weight * Q, through)
            ok, witness = IS.check_st_intertwiner(m, mutated)
            assert not ok and "lift fails" in witness, (m, key)
            mutants += 1
    assert mutants == 28


def test_naturality_west_cap_into_identity():
    m = identity_matching(2)
    ok, witness = IS.check_st_naturality(m, "cap", "w", 0, IS.st_map(m))
    assert ok, witness


def test_naturality_exhaustive_small():
    for nw, ne in ((0, 0), (1, 1), (0, 2), (2, 0), (2, 2)):
        for m in IS.enumerate_matchings(nw, ne):
            table = IS.st_map(m)
            for kind, side, pos in IS.all_naturality_checks(m):
                ok, witness = IS.check_st_naturality(m, kind, side, pos, table)
                assert ok, witness


def test_cup_insertion_makes_loop():
    m = from_arcs(0, 2, ((("e", 0), ("e", 1)),))
    s, composite, loops = IS._compose(m, "cup", "e", 0)
    assert s == ("cap", 0)
    assert loops == 1
    assert composite == (0, ())


# Endpoint-arithmetic reference: cap and cup insertion and the stack
# planarity test, as the module computed them before it composed slice words.


def _shift(p, side, at, by):
    return (p[0], p[1] + by) if p[0] == side and p[1] >= at else p


def _old_insert_cap(m, side, pos):
    pairs = tuple((_shift(a, side, pos, 2), _shift(b, side, pos, 2)) for a, b in arcs_of(m))
    pairs += (((side, pos), (side, pos + 1)),)
    if side == "w":
        return from_arcs(m.n_west + 2, m.n_east, pairs)
    return from_arcs(m.n_west, m.n_east + 2, pairs)


def _old_insert_cup(m, side, pos):
    partner = {}
    for a, b in arcs_of(m):
        partner[a], partner[b] = b, a
    p1, p2 = (side, pos), (side, pos + 1)
    new_pairs = [(a, b) for a, b in arcs_of(m) if not {a, b} & {p1, p2}]
    loops = 1 if partner[p1] == p2 else 0
    if not loops:
        new_pairs.append((partner[p1], partner[p2]))
    pairs = tuple((_shift(a, side, pos + 2, -2), _shift(b, side, pos + 2, -2)) for a, b in new_pairs)
    if side == "w":
        return from_arcs(m.n_west - 2, m.n_east, pairs), loops
    return from_arcs(m.n_west, m.n_east - 2, pairs), loops


def _old_is_planar(n_west, n_east, pairs):
    circular = lambda p: p[1] if p[0] == "w" else n_west + (n_east - 1 - p[1])
    partner = [-1] * (n_west + n_east)
    for a, b in pairs:
        partner[circular(a)], partner[circular(b)] = circular(b), circular(a)
    stack = []
    for i, j in enumerate(partner):
        if j > i:
            stack.append(j)
        elif not stack or stack.pop() != i:
            return False
    return not stack


def test_slice_composition_equals_endpoint_insertion():
    compared = 0
    for m in _matchings(8):
        for kind, side, pos in IS.all_naturality_checks(m):
            _, composite, loops = IS._compose(m, kind, side, pos)
            want = (_old_insert_cap(m, side, pos), 0) if kind == "cap" else _old_insert_cup(m, side, pos)
            assert (IS.Matching(*composite), loops) == want, (m, kind, side, pos)
            compared += 1
    assert compared == 2574


def _perfect_matchings(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for tail in _perfect_matchings(rest[:k] + rest[k + 1 :]):
            yield ((first, other),) + tail


def test_matching_planarity_equals_stack_check():
    accepted = total = 0
    for points in range(0, 11, 2):
        for nw in range(points + 1):
            ends = [("w", i) for i in range(nw)] + [("e", j) for j in range(points - nw)]
            for pairs in _perfect_matchings(ends):
                planar = _old_is_planar(nw, points - nw, pairs)
                try:
                    from_arcs(nw, points - nw, pairs)
                except IS.MatchingError:
                    assert not planar, pairs
                else:
                    assert planar, pairs
                    accepted += 1
                total += 1
    assert total == 11464
    assert accepted == sum((n + 1) * IS.catalan(n // 2) for n in range(0, 11, 2))


_KIND_SIDES = tuple(itertools.product(("cap", "cup"), ("w", "e")))


def test_naturality_catches_a_scaled_weight(monkeypatch):
    # Scaling one non-zero weight of the slice's table by q must fail the
    # check for each (kind, side) on some matching of at most 4 points.
    for kind, side in _KIND_SIDES:
        name = "CBAR" if (kind == "cap") == (side == "w") else "C"
        weights = getattr(IS, name)
        for pair, w in weights.items():
            if w.is_zero():
                continue
            monkeypatch.setattr(IS, name, {**weights, pair: w * Q})
            results = [
                IS.check_st_naturality(m, kind, side, pos, IS.st_map(m))[0]
                for m in _matchings(4)
                for k, sd, pos in IS.all_naturality_checks(m)
                if (k, sd) == (kind, side)
            ]
            monkeypatch.setattr(IS, name, weights)
            assert not all(results), (kind, side, pair)


def test_naturality_catches_a_scaled_entry():
    # Scaling one non-zero entry of m's table by q must fail the check
    # whenever the entry meets a non-zero weight: always for a cap, and for
    # a cup when the two states it joins are opposite.
    mutants = {ks: 0 for ks in _KIND_SIDES}
    for m in _matchings(4):
        table = IS.st_map(m)
        for kind, side, pos in IS.all_naturality_checks(m):
            for key, (weight, through) in table.items():
                if not weight:
                    continue
                mutated = {**table, key: (weight * Q, through)}
                ok, _ = IS.check_st_naturality(m, kind, side, pos, mutated)
                pair = key[0 if side == "w" else 1][pos : pos + 2]
                assert ok == (kind == "cup" and pair[0] == pair[1]), (m, kind, side, pos, key)
                mutants[(kind, side)] += not ok
    assert all(mutants.values()), mutants


def _tables(nw: int, ne: int) -> list[IS.StTable]:
    return [IS.st_map(m) for m in IS.enumerate_matchings(nw, ne)]


def test_st_rank_triples():
    s0 = Fraction(7, 5)
    assert IS.st_rank(0, 0, s0, _tables(0, 0)) == (1, 1, 1)
    assert IS.st_rank(1, 1, s0, _tables(1, 1)) == (1, 1, 1)
    assert IS.st_rank(2, 2, s0, _tables(2, 2)) == (2, 2, 2)
    assert IS.st_rank(2, 0, s0, _tables(2, 0)) == (1, 1, 1)


@pytest.mark.parametrize("s0", DEFAULT_SPECS)
def test_st_ranks_are_the_same_over_q_and_mod_p(s0, monkeypatch):
    splits = [(nw, total - nw) for total in range(0, 7, 2) for nw in range(total + 1)]
    tables = {split: _tables(*split) for split in splits}
    mod_p = {split: IS.st_rank(*split, s0, tables[split]) for split in splits}
    over_q(monkeypatch)
    assert {split: IS.st_rank(*split, s0, tables[split]) for split in splits} == mod_p
    assert all(rank == cat == pw for rank, cat, pw in mod_p.values())


def test_rank_witness_names_the_field(monkeypatch):
    monkeypatch.setattr(IS, "st_rank", lambda nw, ne, s0, tables: (0, 1, 1))
    witness = ranks(DEFAULT_SPECS, points=0)
    assert witness == f"rank/Catalan/Peter-Weyl mismatch at (0,0), s0=7/5 mod {P}: 0,1,1"


def test_peter_weyl_count():
    assert IS.peter_weyl_count(2, 2) == 2
    assert IS.peter_weyl_count(3, 3) == 5
    assert IS.peter_weyl_count(3, 1) == 2


def test_product_compatibility_small():
    for m1 in IS.enumerate_matchings(1, 1):
        for m2 in IS.enumerate_matchings(2, 0):
            ok, witness = IS.check_product_compatibility(m1, m2, IS.st_map(m1), IS.st_map(m2))
            assert ok, witness


def test_contract_of_a_zero_row_is_empty():
    # West state (+,+) of a west arc has only zero entries, so the sparse
    # table gives its row of east lifts nothing to contract.
    m = from_arcs(2, 0, ((("w", 0), ("w", 1)),))
    rows = {
        (side, outer): (line, IS._row_lifts(line, side == "east")) for side, outer, line in IS._lines(m, IS.st_map(m))
    }
    assert rows[("east", (1, 1))] == ({}, {})
    assert IS._contract({}, 1) == {}


def test_lift_check_fails_on_a_lift_at_a_zero_key(monkeypatch):
    # Where the table has no entry, the entry and its coproduct are zero, so
    # a non-zero lift there breaks the identity.
    # Row verdicts are memoized, so the memos are cleared around each
    # patched check.  The first east row is the empty one of west state
    # (1, 1); the west row of east state () has no entry at (1, 1).
    m = from_arcs(2, 0, ((("w", 0), ("w", 1)),))
    table = IS.st_map(m)
    row_lifts = IS._row_lifts
    spurious = B.tensor2(SkeinElement.unit(), SkeinElement.unit())
    for side, outer, inner in (("east", (1, 1), ()), ("west", (), (1, 1))):

        def patched(line, leg):
            lifts = row_lifts(line, leg)
            return {**lifts, inner: spurious} if leg == (side == "east") else lifts

        monkeypatch.setattr(IS, "_row_lifts", patched)
        memo_clear()
        try:
            assert IS.check_st_intertwiner(m, table) == (False, f"{side} lift fails at {m} states (1, 1)/()")
        finally:
            monkeypatch.undo()
            memo_clear()


# Dense reference: tables over every state vector, zeros included, and the
# lift, naturality and product checks on such tables, as the module computed
# them before a table held only its non-zero entries.


def _dense_st_map(m):
    return {
        (west, east): evaluate_arcs(m.partners, west, east)
        for west in CM.state_tuples(m.n_west)
        for east in CM.state_tuples(m.n_east)
    }


def _densify(m, table):
    return {key: value(table, key) for key in _dense_st_map(m)}


def _dense_check_lifts(m, table):
    east, west = _direct_lifts(m, table)
    return all(B.comul(elem) == east[key] == west[key] for key, elem in table.items())


def _dense_check_naturality(m, kind, side, pos, table):
    s, composite, loops = IS._compose(m, kind, side, pos)
    weights = CBAR if s[0] == "cap" else C
    factor = LOOP**loops
    for (west, east), val in _dense_st_map(IS.Matching(*composite)).items():
        full = west if side == "w" else east
        if kind == "cap":
            terms = [(full[pos : pos + 2], full[:pos] + full[pos + 2 :])]
        else:
            terms = [(pair, full[:pos] + pair + full[pos:]) for pair in CM.state_tuples(2)]
        want = SkeinElement.zero()
        for pair, states in terms:
            key = (states, east) if side == "w" else (west, states)
            want.add_scaled(table[key], weights[pair])
        if (val.scale(factor) if loops else val) != want:
            return False
    return True


def _dense_check_product(m1, m2, t1, t2):
    shift = lambda p: (p[0], p[1] + (m1.n_west if p[0] == "w" else m1.n_east))
    stacked = from_arcs(
        m1.n_west + m2.n_west, m1.n_east + m2.n_east, arcs_of(m1) + tuple((shift(a), shift(b)) for a, b in arcs_of(m2))
    )
    ts = _dense_st_map(stacked)
    return all(
        ts[(w1 + w2, e1 + e2)] == B.mul(v1, v2) for (w1, e1), v1 in t1.items() for (w2, e2), v2 in t2.items()
    )


def test_sparse_st_map_equals_nonzero_dense_entries():
    matchings = 0
    for m in _matchings(8):
        nonzero = [(key, elem) for key, elem in _dense_st_map(m).items() if not elem.is_zero()]
        assert [(key, IS.entry_value(entry)) for key, entry in IS.st_map(m).items()] == nonzero, m
        matchings += 1
    assert matchings == 175


def _mutants(m, table):
    """(kind, mutated table) for a scaled and a dropped non-zero entry, and
    a spurious non-zero entry at a zero key, each in factored form."""
    for key, (weight, through) in table.items():
        yield "scaled", {**table, key: (weight * Q, through)}
        yield "dropped", {k: v for k, v in table.items() if k != key}
    for key in _dense_st_map(m):
        if key not in table:
            yield "spurious", {**table, key: (ONE, ((), ()))}


def test_sparse_checks_agree_with_dense_checks_on_mutants():
    # Each mutant fails the lift and product checks and some naturality
    # insertion, and every verdict equals the dense check's on the same
    # table.  The empty matching is left out: its lift identities hold for
    # any scalar entry, the zero one included.
    small = list(_matchings(2))
    mutants = {"scaled": 0, "dropped": 0, "spurious": 0}
    for m in _matchings(4):
        if not m.partners:
            continue
        for kind, mutated in _mutants(m, IS.st_map(m)):
            dense = _densify(m, mutated)
            ok, witness = IS.check_st_intertwiner(m, mutated)
            assert not ok and "lift fails" in witness, (m, kind)
            assert not _dense_check_lifts(m, dense), (m, kind)
            verdicts = []
            for k, side, pos in IS.all_naturality_checks(m):
                ok = IS.check_st_naturality(m, k, side, pos, mutated)[0]
                assert ok == _dense_check_naturality(m, k, side, pos, dense), (m, kind, k, side, pos)
                verdicts.append(ok)
            assert not all(verdicts), (m, kind)
            for m2 in small:
                t2 = IS.st_map(m2)
                assert not IS.check_product_compatibility(m, m2, mutated, t2)[0], (m, m2, kind)
                assert not IS.check_product_compatibility(m2, m, t2, mutated)[0], (m2, m, kind)
                assert not _dense_check_product(m, m2, dense, _densify(m2, t2)), (m, m2, kind)
                assert not _dense_check_product(m2, m, _densify(m2, t2), dense), (m2, m, kind)
            mutants[kind] += 1
    assert mutants == {"scaled": 76, "dropped": 76, "spurious": 96}


def test_braided_opposite_degree_one():
    ok, witness = IS.check_braided_opposite(1)
    assert ok, witness


# Factored tables: each row of lifts is contracted once per process in its
# normalized form, and the product and naturality checks compare weights
# where the parallel diagrams agree.


def _normalized_rows(m, table):
    """Each row of lifts as tuples: its side, then per entry its inner
    states, through states and weight over the row's first weight."""
    rows = {("east", west): [] for west in CM.state_tuples(m.n_west)}
    rows.update({("west", east): [] for east in CM.state_tuples(m.n_east)})
    for (west, east), (weight, through) in table.items():
        rows[("east", west)].append((east, through, weight))
        rows[("west", east)].append((west, through, weight))
    for (side, _), row in rows.items():
        unit = row[0][2] if row else ONE
        yield side, tuple((inner, through, weight * unit.inverse()) for inner, through, weight in row)


def _counting_contract(monkeypatch):
    calls = []
    contract = IS._contract

    def counting(lifts, leg):
        calls.append(leg)
        return contract(lifts, leg)

    monkeypatch.setattr(IS, "_contract", counting)
    return calls


def test_lift_check_contracts_each_normalized_row_once(monkeypatch):
    calls = _counting_contract(monkeypatch)
    memo_clear()
    rows, distinct = 0, set()
    for m in _matchings(6):
        table = IS.st_map(m)
        assert IS.check_st_intertwiner(m, table) == (True, None)
        normalized = list(_normalized_rows(m, table))
        rows += len(normalized)
        distinct.update(normalized)
    assert len(calls) == len(distinct)
    assert (rows, len(distinct)) == (1410, 100)
    memo_clear()


def _reference_lift_witness(m, table):
    """The first failing lift identity of ``table`` from the direct sums: east
    rows by west state, then west rows by east state, and in a row its
    entries in table order, then its other states."""
    east, west = _direct_lifts(m, _densify(m, table))
    west_states, east_states = CM.state_tuples(m.n_west), CM.state_tuples(m.n_east)
    sides = (("east", east, west_states, east_states), ("west", west, east_states, west_states))
    for side, lifts, outers, inners in sides:
        for outer in outers:
            key_of = (lambda inner: (outer, inner)) if side == "east" else (lambda inner: (inner, outer))
            order = [i for i in inners if key_of(i) in table] + [i for i in inners if key_of(i) not in table]
            for inner in order:
                if lifts[key_of(inner)] != B.comul(value(table, key_of(inner))):
                    w, e = key_of(inner)
                    return f"{side} lift fails at {m} states {w}/{e}"
    return None


def test_lift_check_fails_a_unit_multiple_with_one_entry_scaled(monkeypatch):
    # Every row of a unit multiple of a checked table is a unit times a row
    # that passed, so it is not contracted again and passes.  Scaling one of
    # its entries by q makes a new row, which fails where the direct sums do
    # (except on the empty matching, whose lift identities hold for any
    # scalar entry).
    unit = s(3, -1)
    calls = _counting_contract(monkeypatch)
    failed = 0
    for m in _matchings(4):
        table = IS.st_map(m)
        assert IS.check_st_intertwiner(m, table) == (True, None)
        multiple = {key: (unit * weight, through) for key, (weight, through) in table.items()}
        calls.clear()
        assert IS.check_st_intertwiner(m, multiple) == (True, None)
        assert not calls, m
        for key, (weight, through) in multiple.items():
            mutated = {**multiple, key: (weight * Q, through)}
            witness = _reference_lift_witness(m, mutated)
            assert IS.check_st_intertwiner(m, mutated) == (witness is None, witness), (m, key)
            failed += witness is not None
    assert failed == 76
    m = from_arcs(1, 3, ((("w", 0), ("e", 2)), (("e", 0), ("e", 1))))
    multiple = {key: (unit * weight, through) for key, (weight, through) in IS.st_map(m).items()}
    key = ((-1,), (1, -1, -1))
    mutated = {**multiple, key: (multiple[key][0] * Q, multiple[key][1])}
    assert IS.check_st_intertwiner(m, mutated) == (False, f"east lift fails at {m} states (-1,)/(1, -1, 1)")


def test_product_shortcut_agrees_with_elementwise_comparison(monkeypatch):
    # On the unmutated tables every pair of entries takes the shortcut; on
    # the mutants the verdict is the dense elementwise one.
    from skeinlab.suites import PRODUCT_POINTS

    shortcuts = []
    stacks_to_product = IS._stacks_to_product
    monkeypatch.setattr(IS, "_stacks_to_product", lambda a, b: shortcuts.append((a, b)) or stacks_to_product(a, b))
    factors = [(m, IS.st_map(m)) for m in _matchings(PRODUCT_POINTS)]
    pairs = entry_pairs = 0
    for m1, t1 in factors:
        for m2, t2 in factors:
            assert IS.check_product_compatibility(m1, m2, t1, t2) == (True, None)
            assert _dense_check_product(m1, m2, _densify(m1, t1), _densify(m2, t2))
            pairs += 1
            entry_pairs += len(t1) * len(t2)
    assert pairs == 196 and len(shortcuts) == entry_pairs
    mutants = 0
    for m in _matchings(4):
        for _, mutated in _mutants(m, IS.st_map(m)):
            dense = _densify(m, mutated)
            for m2 in _matchings(2):
                t2 = IS.st_map(m2)
                assert IS.check_product_compatibility(m, m2, mutated, t2)[0] == _dense_check_product(
                    m, m2, dense, _densify(m2, t2)
                ), (m, m2)
                assert IS.check_product_compatibility(m2, m, t2, mutated)[0] == _dense_check_product(
                    m2, m, _densify(m2, t2), dense
                ), (m2, m)
            mutants += 1
    # The mutants of the non-empty matchings, and a scaled and a dropped entry of the empty one.
    assert mutants == 76 + 76 + 96 + 2
