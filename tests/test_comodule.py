import random
from fractions import Fraction

import pytest

import skeinlab.comodule_rt as CM
import skeinlab.internal_skein as IS
import skeinlab.quantum_sl2 as QS
from q_reference import over_q

from skeinlab import linalg
from skeinlab.diagram import CBAR, CROSS_PARALLEL, CROSS_TURNBACK, C, SliceWord, state_tuples
from skeinlab.scalar import LOOP, ONE, ZERO, HalfLaurent, ScalarError
from skeinlab.suites import DEFAULT_SPECS, comodule_suite, random_stated_word

q = HalfLaurent.q_pow
s = HalfLaurent.s_pow


def test_trivial_and_standard():
    assert CM.quantum_plane_Vn(0) == CM.trivial()
    assert CM.quantum_plane_Vn(1) == CM.standard_V()
    with pytest.raises(CM.ComoduleError):
        CM.quantum_plane_Vn(-1)


def test_comodule_axioms_up_to_four():
    for n in range(5):
        CM.quantum_plane_Vn(n).check_axioms()


def test_tensor_coaction_entry():
    v = CM.standard_V()
    vv = CM.tensor(v, v)
    assert vv.coaction[0][0] == QS.mul(QS.gen("a"), QS.gen("a"))


def test_rt_identity_and_cap():
    ident = CM.rt_evaluate(SliceWord(1, ()))
    assert ident == CM.identity_matrix(2)
    cap = CM.rt_evaluate(SliceWord(2, (("cap", 0),)))
    # cap(v- (x) v+) = q^(1/2); cap(v+ (x) v-) = -q^(5/2)
    assert cap[0][CM.state_index((-1, 1))] == s(1)
    assert cap[0][CM.state_index((1, -1))] == s(5, -1)
    assert cap[0][CM.state_index((1, 1))].is_zero()


def test_rt_loop_is_bracket():
    loop = CM.rt_evaluate(SliceWord(0, (("cup", 0), ("cap", 0))))
    assert loop[0][0] == LOOP


# Dense reference: the slice matrices and their product, as rt_evaluate
# computed them before it carried sparse state vectors.


def _dense_cap(rows, i):
    out = CM._zeros(1 << (rows - 2), 1 << rows)
    for states in state_tuples(rows):
        tgt = CM.state_index(states[:i] + states[i + 2 :])
        src = CM.state_index(states)
        out[tgt][src] = out[tgt][src] + CBAR[states[i : i + 2]]
    return out


def _dense_cup(rows, i):
    out = CM._zeros(1 << (rows + 2), 1 << rows)
    for states in state_tuples(rows):
        for pair in state_tuples(2):
            tgt = CM.state_index(states[:i] + pair + states[i:])
            src = CM.state_index(states)
            out[tgt][src] = out[tgt][src] + C[pair]
    return out


def _dense_crossing(rows, i, over):
    para, turn = (CROSS_PARALLEL, CROSS_TURNBACK) if over else (CROSS_TURNBACK, CROSS_PARALLEL)
    ident = CM.identity_matrix(1 << rows)
    turnback = CM.mat_mul(_dense_cup(rows - 2, i), _dense_cap(rows, i))
    return [[ident[r][c] * para + turnback[r][c] * turn for c in range(1 << rows)] for r in range(1 << rows)]


def _dense_rt(word):
    rows = word.west_arity
    mat = CM.identity_matrix(1 << rows)
    for kind, i in word.slices:
        if kind == "cap":
            step = _dense_cap(rows, i)
            rows -= 2
        elif kind == "cup":
            step = _dense_cup(rows, i)
            rows += 2
        else:
            step = _dense_crossing(rows, i, over=(kind == "x"))
        mat = CM.mat_mul(step, mat)
    return mat


def test_sparse_rt_equals_dense_product():
    rng = random.Random(2021)
    crossed = 0
    for _ in range(300):
        word = random_stated_word(rng, max_crossings=3, max_points=8).word
        assert CM.rt_evaluate(word) == _dense_rt(word), word
        crossed += word.crossing_count() > 0
    assert crossed >= 200


def test_rt_is_functorial():
    # rt(w1 w2) = rt(w2) rt(w1) for words split at a random slice.
    rng = random.Random(15)
    crossed = 0
    for _ in range(100):
        word = random_stated_word(rng, max_crossings=3, max_points=8).word
        cut = rng.randrange(len(word.slices) + 1)
        w1 = SliceWord(word.west_arity, word.slices[:cut])
        w2 = SliceWord(w1.east_arity, word.slices[cut:])
        assert CM.rt_evaluate(word) == CM.mat_mul(CM.rt_evaluate(w2), CM.rt_evaluate(w1)), (word, cut)
        crossed += w1.crossing_count() > 0 and w2.crossing_count() > 0
    assert crossed > 0


def test_cap_cup_come_from_duality_map():
    # The fixed cap/cup values are the evaluation and coevaluation of the
    # self-duality v+ |-> -q^(5/2) w-, v- |-> q^(1/2) w+ of the standard
    # corepresentation (w+/w- the dual basis): cap = ev o (phi (x) id) and
    # cup = (id (x) phi^-1) o coev.
    phi = {1: (-1, s(5, -1)), -1: (1, s(1))}  # state -> (dual index, coeff)
    for x, y in state_tuples(2):
        dual, coeff = phi[x]
        want = coeff if dual == y else HalfLaurent.zero()
        assert CBAR[x, y] == want
    # coev(1) = sum_e e (x) e*, then phi^-1 on the second leg.
    phi_inv = {dual: (state, coeff.inverse()) for state, (dual, coeff) in phi.items()}
    got = {}
    for e in (1, -1):
        state, coeff = phi_inv[e]
        got[(e, state)] = coeff
    for x, y in state_tuples(2):
        want = got.get((x, y), HalfLaurent.zero())
        assert C[x, y] == want


def test_duality_map_is_comodule_morphism():
    # phi intertwines the coaction of V with the contragredient coaction of
    # its dual (entries transposed through the antipode).
    import skeinlab.quantum_sl2 as QS

    v = CM.standard_V()
    dual = [[QS.antipode(v.coaction[j][i]) for j in range(2)] for i in range(2)]
    # phi as a matrix: column = source state index, rows = dual index.
    z = HalfLaurent.zero()
    phi = [[z, s(1)], [s(5, -1), z]]
    for i in range(2):
        for j in range(2):
            # coact_dual o phi == (phi (x) id) o coact_V, entrywise:
            left = QS.HopfElement.zero()
            for k in range(2):
                left = left + dual[i][k].scale(phi[k][j])
            right = QS.HopfElement.zero()
            for k in range(2):
                right = right + v.coaction[k][j].scale(phi[i][k])
            assert left == right, (i, j)


def test_braiding_matches_crossing():
    assert CM.braiding_matrix_VV() == CM.rt_evaluate(SliceWord(2, (("x", 0),)))


def test_ht_matrix_values():
    ht = CM.ht_matrix(CM.standard_V())
    assert ht == [[HalfLaurent.zero(), s(5, -1)], [s(1), HalfLaurent.zero()]]


def test_u_action_matrices():
    v = CM.standard_V()
    assert CM.u_action("K", v) == [[q(2), HalfLaurent.zero()], [HalfLaurent.zero(), q(-2)]]
    assert CM.u_action("E", v) == [[HalfLaurent.zero(), ONE], [HalfLaurent.zero(), HalfLaurent.zero()]]
    assert CM.u_action("F", v) == [[HalfLaurent.zero(), HalfLaurent.zero()], [ONE, HalfLaurent.zero()]]
    ef = CM.mat_mul(CM.u_action("E", v), CM.u_action("F", v))
    fe = CM.mat_mul(CM.u_action("F", v), CM.u_action("E", v))
    coef = q(2) - q(-2)
    k, ki = CM.u_action("K", v), CM.u_action("Kinv", v)
    for i in range(2):
        for j in range(2):
            assert (ef[i][j] - fe[i][j]) * coef == k[i][j] - ki[i][j]


def test_multiplicity_examples():
    assert CM.multiplicity(0, 2) == 1
    assert CM.multiplicity(2, 2) == 1
    assert CM.multiplicity(1, 1) == 1
    assert CM.multiplicity(0, 4) == 2  # Catalan number of planar pairings
    assert CM.multiplicity(1, 2) == 0  # parity mismatch
    assert CM.multiplicity(3, 1) == 0


def test_intertwiner_dimension_matches_multiplicity():
    s0 = Fraction(7, 5)
    for n in range(4):
        for k in range(n + 1):
            got = CM.intertwiner_dimension(
                CM.tensor_power_V(n), CM.quantum_plane_Vn(k), s0
            )
            assert got == CM.multiplicity(k, n)


def test_intertwiner_dimension_rejects_non_generic_points():
    v = CM.standard_V()
    for bad in (0, 1, -1):
        with pytest.raises(ScalarError):
            CM.intertwiner_dimension(v, v, bad)


def test_endomorphism_sandwich_closes_small():
    # The Temperley-Lieb matrices are exact intertwiners, so their rank at s0
    # bounds dim End below; the kernel dimension at s0 bounds it above.
    s0 = Fraction(7, 5)
    for n, want in ((1, 1), (2, 2)):
        w = CM.tensor_power_V(n)
        tl = [CM.rt_evaluate(m.word) for m in IS.enumerate_matchings(n, n)]
        assert all(CM.is_intertwiner(w, w, f) for f in tl)
        assert _tl_rank(tl, s0) == CM.intertwiner_dimension(w, w, s0) == want


def _tl_rank(tl, s0):
    at = linalg.at_point(s0)
    return linalg.rank({i * len(row) + j: at(x) for i, row in enumerate(f) for j, x in enumerate(row)} for f in tl)


@pytest.mark.parametrize("s0", DEFAULT_SPECS)
def test_both_bounds_are_the_same_over_q_and_mod_p(s0, monkeypatch):
    # The exact-Q reference ranks the same systems: they agree for n <= 3.
    systems = []
    for n in range(4):
        w = CM.tensor_power_V(n)
        tl = [CM.rt_evaluate(m.word) for m in IS.enumerate_matchings(n, n)]
        systems.append((w, tl))
    mod_p = [(_tl_rank(tl, s0), CM.intertwiner_dimension(w, w, s0)) for w, tl in systems]
    over_q(monkeypatch)
    assert [(_tl_rank(tl, s0), CM.intertwiner_dimension(w, w, s0)) for w, tl in systems] == mod_p
    assert mod_p == [(1, 1), (1, 1), (2, 2), (5, 5)]


def test_bound_witness_names_the_field(monkeypatch):
    monkeypatch.setattr(CM, "intertwiner_dimension", lambda w1, w2, s0: 0)
    [case] = [fn for label, fn in comodule_suite(1, DEFAULT_SPECS, 0) if "intertwiner" in label]
    assert f"at s0=7/5 mod {linalg.P} (lower 1, upper 0)" in case()


def _intertwines_by_every_row(w1, w2, f):
    """Reference for ``is_intertwiner``: dot every condition row with f."""
    flat = [x for row in f for x in row]
    rows, _ = CM._intertwiner_rows(w1, w2)
    return all(not sum((v * flat[col] for col, v in row.items()), ZERO) for row in rows)


def test_intertwiner_check_visits_the_rows_it_needs():
    # The column index skips only rows that f cannot violate: it agrees with
    # the scan of every row on the TL matrices, the zero matrix and every
    # one-entry perturbation of them.
    w = CM.tensor_power_V(2)
    tl = [CM.rt_evaluate(m.word) for m in IS.enumerate_matchings(2, 2)]
    cases = tl + [[[ZERO] * 4 for _ in range(4)]]
    for f in list(cases):
        for i in range(4):
            for j in range(4):
                g = [row[:] for row in f]
                g[i][j] = g[i][j] + LOOP
                cases.append(g)
    verdicts = [CM.is_intertwiner(w, w, f) for f in cases]
    assert verdicts == [_intertwines_by_every_row(w, w, f) for f in cases]
    assert verdicts[:3] == [True] * 3 and not any(verdicts[3:])


def test_perturbed_tl_matrix_fails_the_sandwich(monkeypatch):
    w = CM.tensor_power_V(2)
    [_, turnback] = IS.enumerate_matchings(2, 2)
    f = CM.rt_evaluate(turnback.word)
    f[0][0] = f[0][0] + ONE
    assert not CM.is_intertwiner(w, w, f)

    evaluate = CM.rt_evaluate

    def perturbed(word):
        mat = evaluate(word)
        if word.west_arity == 2 and word.slices:  # the one (2, 2) turnback
            mat[0][0] = mat[0][0] + ONE
        return mat

    monkeypatch.setattr(CM, "rt_evaluate", perturbed)
    [case] = [fn for label, fn in comodule_suite(2, DEFAULT_SPECS, 0) if "intertwiner" in label]
    witness = case()
    assert witness is not None and witness.startswith("lower bound"), witness
