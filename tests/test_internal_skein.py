import itertools
from fractions import Fraction

import pytest
from q_reference import over_q

import skeinlab.bigon_skein as B
import skeinlab.comodule_rt as CM
import skeinlab.internal_skein as IS
import skeinlab.quantum_sl2 as QS
from skeinlab.diagram import CBAR, SkeinElement, UNIT_TANGLE, BasisTangle, C, evaluate_arcs
from skeinlab.scalar import LOOP, P, Q, HalfLaurent
from skeinlab.suites import DEFAULT_SPECS, ranks

s = HalfLaurent.s_pow


def identity_matching(n):
    return IS.Matching(n, n, tuple((("w", i), ("e", i)) for i in range(n)))


def partners_matching(n_west, partners):
    """The ``Matching`` of a partner tuple with ``n_west`` west points."""
    point = lambda i: ("w", i) if i < n_west else ("e", i - n_west)
    pairs = tuple((point(i), point(j)) for i, j in enumerate(partners) if i < j)
    return IS.Matching(n_west, len(partners) - n_west, pairs)


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
        IS.Matching(2, 2, ((("w", 0), ("e", 1)), (("w", 1), ("e", 0))))
    with pytest.raises(ValueError):
        IS.Matching(2, 0, ((("w", 0), ("w", 0)),))


def test_st_map_west_arc():
    m = IS.Matching(2, 0, ((("w", 0), ("w", 1)),))
    table = IS.st_map(m)
    assert table[((1, -1), ())] == SkeinElement.of(UNIT_TANGLE, s(5, -1))
    assert table[((-1, 1), ())] == SkeinElement.of(UNIT_TANGLE, s(1))
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
                    assert reduce(StatedWord(word, west, east)) == table.get((west, east), SkeinElement.zero())


def test_canonical_word_traces_back_to_the_partner_tuple():
    # The one conversion left between the two forms of a matching: the
    # endpoint arcs a Matching is given, and the partner tuple diagram holds.
    from skeinlab.diagram import word_to_arcs

    checked = 0
    for m in _matchings(10):
        assert word_to_arcs(m.word) == (m.partners, 0), m
        index = lambda p: p[1] if p[0] == "w" else m.n_west + p[1]
        assert len(m.partners) == m.n_west + m.n_east == 2 * len(m.pairs), m
        for a, b in m.pairs:
            assert m.partners[index(a)] == index(b) and m.partners[index(b)] == index(a), m
        checked += 1
    assert checked == sum((n + 1) * IS.catalan(n // 2) for n in range(0, 11, 2))


def test_st_map_through_strand():
    m = identity_matching(1)
    table = IS.st_map(m)
    assert table[((1,), (1,))] == SkeinElement.of(BasisTangle(1, (1,), (1,)))
    assert table[((1,), (-1,))] == SkeinElement.of(BasisTangle(1, (1,), (-1,)))


def test_st_map_nested_east_arcs():
    m = IS.Matching(0, 4, ((("e", 0), ("e", 3)), (("e", 1), ("e", 2))))
    table = IS.st_map(m)
    # Innermost (+,-) then outer (+,-) multiply the arc weights.
    assert table[((), (1, 1, -1, -1))] == SkeinElement.of(UNIT_TANGLE, s(-1) * s(-1))
    # Innermost (-,+) gives -q^(-5/2), outer then reads (+,-): q^(-1/2).
    assert table[((), (1, -1, 1, -1))] == SkeinElement.of(UNIT_TANGLE, s(-6, -1))


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
    """The lift sums over all states kappa, with X the coaction matrix of
    V^(x)n built in O_q(SL2) and transported entry by entry."""
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
        lifts = {(side, outer): row for side, outer, _, row in IS._lift_rows(m, table)}
        direct_east, direct_west = _direct_lifts(m, table)
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
        for key, elem in table.items():
            if elem.is_zero():
                continue
            mutated = dict(table)
            mutated[key] = elem.scale(Q)
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
    m = IS.Matching(0, 2, ((("e", 0), ("e", 1)),))
    s, composite, loops = IS._compose(m, "cup", "e", 0)
    assert s == ("cap", 0)
    assert loops == 1
    assert composite == (0, ())


# Endpoint-arithmetic reference: cap and cup insertion and the stack
# planarity test, as the module computed them before it composed slice words.


def _shift(p, side, at, by):
    return (p[0], p[1] + by) if p[0] == side and p[1] >= at else p


def _old_insert_cap(m, side, pos):
    pairs = tuple((_shift(a, side, pos, 2), _shift(b, side, pos, 2)) for a, b in m.pairs)
    pairs += (((side, pos), (side, pos + 1)),)
    if side == "w":
        return IS.Matching(m.n_west + 2, m.n_east, pairs)
    return IS.Matching(m.n_west, m.n_east + 2, pairs)


def _old_insert_cup(m, side, pos):
    partner = {}
    for a, b in m.pairs:
        partner[a], partner[b] = b, a
    p1, p2 = (side, pos), (side, pos + 1)
    new_pairs = [(a, b) for a, b in m.pairs if not {a, b} & {p1, p2}]
    loops = 1 if partner[p1] == p2 else 0
    if not loops:
        new_pairs.append((partner[p1], partner[p2]))
    pairs = tuple((_shift(a, side, pos + 2, -2), _shift(b, side, pos + 2, -2)) for a, b in new_pairs)
    if side == "w":
        return IS.Matching(m.n_west - 2, m.n_east, pairs), loops
    return IS.Matching(m.n_west, m.n_east - 2, pairs), loops


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
            assert (partners_matching(*composite), loops) == want, (m, kind, side, pos)
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
                    IS.Matching(nw, points - nw, pairs)
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
            for key, elem in table.items():
                if elem.is_zero():
                    continue
                mutated = {**table, key: elem.scale(Q)}
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
    m = IS.Matching(2, 0, ((("w", 0), ("w", 1)),))
    rows = {(side, outer): (entries, lifts) for side, outer, entries, lifts in IS._lift_rows(m, IS.st_map(m))}
    assert rows[("east", (1, 1))] == ({}, {})
    assert IS._contract({}, 1) == {}


def test_lift_check_fails_on_a_lift_at_a_zero_key(monkeypatch):
    # Where the table has no entry, the entry and its coproduct are zero, so
    # a non-zero lift there breaks the identity.
    m = IS.Matching(2, 0, ((("w", 0), ("w", 1)),))
    table = IS.st_map(m)
    lift_rows = IS._lift_rows
    spurious = B.tensor2(SkeinElement.unit(), SkeinElement.unit())
    for side, outer, inner in (("east", (1, 1), ()), ("west", (), (1, 1))):

        def patched(m, table):
            for s, o, entries, lifts in lift_rows(m, table):
                yield s, o, entries, {**lifts, inner: spurious} if (s, o) == (side, outer) else lifts

        monkeypatch.setattr(IS, "_lift_rows", patched)
        assert IS.check_st_intertwiner(m, table) == (False, f"{side} lift fails at {m} states (1, 1)/()")


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
    zero = SkeinElement.zero()
    return {key: table.get(key, zero) for key in _dense_st_map(m)}


def _dense_check_lifts(m, table):
    east, west = _direct_lifts(m, table)
    return all(B.comul(elem) == east[key] == west[key] for key, elem in table.items())


def _dense_check_naturality(m, kind, side, pos, table):
    s, composite, loops = IS._compose(m, kind, side, pos)
    weights = CBAR if s[0] == "cap" else C
    factor = LOOP**loops
    for (west, east), val in _dense_st_map(partners_matching(*composite)).items():
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
    stacked = IS.Matching(
        m1.n_west + m2.n_west, m1.n_east + m2.n_east, m1.pairs + tuple((shift(a), shift(b)) for a, b in m2.pairs)
    )
    ts = _dense_st_map(stacked)
    return all(
        ts[(w1 + w2, e1 + e2)] == B.mul(v1, v2) for (w1, e1), v1 in t1.items() for (w2, e2), v2 in t2.items()
    )


def test_sparse_st_map_equals_nonzero_dense_entries():
    matchings = 0
    for m in _matchings(8):
        nonzero = [(key, elem) for key, elem in _dense_st_map(m).items() if not elem.is_zero()]
        assert list(IS.st_map(m).items()) == nonzero, m
        matchings += 1
    assert matchings == 175


def _mutants(m, table):
    """(kind, mutated table) for a scaled and a dropped non-zero entry, and
    a spurious non-zero entry at a zero key."""
    for key, elem in table.items():
        yield "scaled", {**table, key: elem.scale(Q)}
        yield "dropped", {k: v for k, v in table.items() if k != key}
    for key in _dense_st_map(m):
        if key not in table:
            yield "spurious", {**table, key: SkeinElement.unit()}


def test_sparse_checks_agree_with_dense_checks_on_mutants():
    # Each mutant fails the lift and product checks and some naturality
    # insertion, and every verdict equals the dense check's on the same
    # table.  The empty matching is left out: its lift identities hold for
    # any scalar entry, the zero one included.
    small = list(_matchings(2))
    mutants = {"scaled": 0, "dropped": 0, "spurious": 0}
    for m in _matchings(4):
        if not m.pairs:
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
                assert not _dense_check_product(m, m2, dense, t2), (m, m2, kind)
                assert not _dense_check_product(m2, m, t2, dense), (m2, m, kind)
            mutants[kind] += 1
    assert mutants == {"scaled": 76, "dropped": 76, "spurious": 96}


def test_braided_opposite_degree_one():
    ok, witness = IS.check_braided_opposite(1)
    assert ok, witness
