"""Process-global memos: clearing, sizes, work bounds and cold/warm agreement."""

import copy
import pickle
import sys
from collections import Counter
from fractions import Fraction

import pytest

import skeinlab.bigon_skein as B
import skeinlab.comodule_rt as CM
import skeinlab.diagram as D
import skeinlab.excision as EX
import skeinlab.internal_skein as IS
import skeinlab.quantum_sl2 as QS
from skeinlab.diagram import UNIT_TANGLE, SkeinElement, SliceWord, StatedWord, memo_clear, memo_sizes, reduce
from skeinlab.scalar import ONE, HalfLaurent
from skeinlab.suites import DEFAULT_SPECS, intertwiners

MEMOS = {
    "diagram._resolve_memo",
    "diagram._transition_memo",
    "diagram._memo",
    "diagram._plan_memo",
    "diagram._packing_memo",
    "diagram._factor_memo",
    "diagram._slices_memo",
    "diagram._arc_masks_memo",
    "bigon_skein._inv_edge_memo",
    "bigon_skein._r_memo",
    "bigon_skein._comul_memo",
    "bigon_skein._antipode_memo",
    "bigon_skein._t_memo",
    "bigon_skein._t_inv_memo",
    "bigon_skein._theta_memo",
    "comodule_rt._rows_memo",
    "excision._switch_memo",
    "excision._splitting_memo",
    "excision._torus_memo",
    "internal_skein._x1_product_memo",
    "internal_skein._row_memo",
    "internal_skein._stack_memo",
    "quantum_sl2._mul_memo",
    "quantum_sl2._comul_memo",
    "quantum_sl2._pair_memo",
    "quantum_sl2._to_skein_memo",
    "quantum_sl2._from_skein_memo",
    "scalar._product_memo",
}


def _counting(fn, counter, tag):
    """``fn``, counting each call under ``(tag, *args)``."""

    def wrapped(*args):
        counter[(tag, *args)] += 1
        return fn(*args)

    return wrapped


def test_memo_clear_empties_every_memo():
    a = B.generator("a")
    reduce(StatedWord(SliceWord(2, (("x", 0),)), (1, -1), (-1, 1)))
    B.t_form(a)
    B.t_inv_form(a)
    B.theta_form(a)
    B.antipode(a)
    B.r_form(a, a)
    m = IS.Matching(1, 1, ((("w", 0), ("e", 0)),))
    IS.check_st_intertwiner(m, IS.st_map(m))
    IS.check_product_compatibility(m, m, IS.st_map(m), IS.st_map(m))
    x = QS.gen("a")
    QS.mul(x, x)
    QS.comul(x)
    QS.pairing(["K"], x)
    QS.from_skein(QS.to_skein(x))
    EX.invariants_subspace(0, "inv", Fraction(7, 5))
    EX.splitting_image_in_kernel(0, "inv")
    EX.torus_premise(0, "inv")
    CM.intertwiner_dimension(CM.standard_V(), CM.standard_V(), Fraction(7, 5))
    sizes = memo_sizes()
    assert set(sizes) == MEMOS
    assert all(sizes.values()), sizes
    memo_clear()
    assert set(memo_sizes().values()) == {0}


@pytest.mark.parametrize(
    "cls, table, fields, values, as_lists, invalid",
    [
        (
            D.BasisTangle,
            D.BasisTangle._interned,
            ("n", "mu", "nu"),
            (2, (1, -1), (1, 1)),
            (2, [1, -1], [1, 1]),
            [(2, (-1, 1), (1, 1)), (2, (1,), (1, 1)), (1, (0,), (1,))],
        ),
        (
            QS.PBWMonomial,
            QS.PBWMonomial._interned,
            ("a_pow", "d_pow", "b_pow", "c_pow"),
            (1, 0, 2, 3),
            [1, 0, 2, 3],
            [(1, 1, 0, 0), (0, -1, 0, 0)],
        ),
    ],
)
def test_basis_keys_are_interned_apart_from_the_memos(cls, table, fields, values, as_lists, invalid):
    key = cls(*values)
    assert cls(*as_lists) is key and key == cls(*values)
    assert tuple(getattr(key, f) for f in fields) == values
    assert copy.deepcopy(key) is key and pickle.loads(pickle.dumps(key)) is key
    with pytest.raises(AttributeError):
        setattr(key, fields[0], 0)
    for bad in invalid:
        with pytest.raises(ValueError):
            cls(*bad)
        assert bad not in table
    memo_clear()
    assert cls(*values) is key and table[values] is key
    keys = list(table.values())[:40]

    def fields_of(k):
        return tuple(getattr(k, f) for f in fields)

    # Keys order as the tuples of their fields did.
    assert sorted(keys) == sorted(keys, key=fields_of)
    pairs = [(a, b) for a in keys for b in keys]
    assert [(a < b, a <= b, a > b, a >= b) for a, b in pairs] == [
        (x < y, x <= y, x > y, x >= y) for x, y in ((fields_of(a), fields_of(b)) for a, b in pairs)
    ]


def _st_sweep(max_points):
    for total in range(0, max_points + 1, 2):
        for n_west in range(total + 1):
            yield from IS.enumerate_matchings(n_west, total - n_west)


def test_reduction_memo_holds_only_parallel_diagrams():
    # Matchings are evaluated in closed form; only the parallel diagrams of
    # their through strands are memoized, at most 4^n for n strands.
    memo_clear()
    for m in _st_sweep(8):
        for entry in IS.st_map(m).values():
            IS.entry_value(entry)
    memo = D._MEMOS["diagram._memo"]
    assert memo
    assert all(len(west) == len(east) for west, east in memo)
    assert len(memo) <= sum(4**n for n in range(5))
    assert memo_sizes()["diagram._plan_memo"] == 175
    memo_clear()


def test_st_intertwiner_sweep_builds_no_tensor_power(monkeypatch):
    # The lifts are contracted with V's coaction one factor at a time.
    calls = Counter()
    monkeypatch.setattr(CM, "tensor_power_V", _counting(CM.tensor_power_V, calls, "V"))
    memo_clear()
    for m in _st_sweep(6):
        assert IS.check_st_intertwiner(m, IS.st_map(m)) == (True, None)
    assert not calls


def test_st_intertwiner_leg_products_per_matching(monkeypatch):
    # Each edge's lift makes n 2^(n+1) generator products per state of the
    # other edge, where the direct sum makes 4^n tensor products.  A call of
    # the kernel's step multiplies one part by X1[k, +] and by X1[k, -].
    # Rows are contracted once per process, so each matching starts cold.
    calls = Counter()
    times_generators = IS._times_generators

    def counting(part, leg, k, targets):
        calls["product"] += len(targets)
        times_generators(part, leg, k, targets)

    monkeypatch.setattr(IS, "_times_generators", counting)
    for m in _st_sweep(6):
        calls.clear()
        memo_clear()
        assert IS.check_st_intertwiner(m, IS.st_map(m)) == (True, None)
        nw, ne = m.n_west, m.n_east
        bound = 2**nw * ne * 2 ** (ne + 1) + 2**ne * nw * 2 ** (nw + 1)
        assert 0 < sum(calls.values()) <= bound or not m.pairs, m


def test_lift_products_follow_a_changed_exchange_constant(monkeypatch):
    # The products b X1[k, t] are memoized; memo_clear must drop them, so a
    # rebound exchange weight reaches the first matching it breaks.
    assert intertwiners(points=4) is None
    monkeypatch.setattr(D, "EAST_EXCHANGE_SWAP", HalfLaurent.q_pow(3))
    memo_clear()
    try:
        assert intertwiners(points=4) == "east lift fails at matching(0,2:e0-e1) states ()/(-1, 1)"
    finally:
        monkeypatch.undo()
        memo_clear()


def test_t_forms_reduce_each_basis_tangle_once(monkeypatch):
    basis = [SkeinElement.of(b) for b in B.basis_tangles(3)]
    first = [(B.t_form(x), B.t_inv_form(x)) for x in basis]
    calls = Counter()
    monkeypatch.setattr(B, "reduce_diagram", _counting(B.reduce_diagram, calls, "reduce"))
    second = [(B.t_form(x), B.t_inv_form(x)) for x in basis]
    assert not calls
    assert second == first


def test_gluing_computes_each_one_sided_image_once(monkeypatch):
    calls = Counter()
    for name, fn in list(EX._SWITCHES.items()):
        monkeypatch.setitem(EX._SWITCHES, name, _counting(fn, calls, name))
    splits = Counter()
    monkeypatch.setattr(EX, "_splitting_defect", _counting(EX._splitting_defect, splits, "split"))
    memo_clear()
    for s0 in DEFAULT_SPECS:
        assert EX.gluing_excision_check(2, s0).passed
    basis = EX.filtration_basis(2)
    assert set(calls) == {(name, b) for name in EX._SWITCHES for b in basis}
    assert set(calls.values()) == {1}
    assert memo_sizes()["excision._switch_memo"] == len(EX._SWITCHES) * len(basis)
    # The exact splitting check is point-independent: once per degree and map.
    assert set(splits) == {("split", name, b) for name in EX._DEFECTS for b in basis}
    assert set(splits.values()) == {1}
    assert memo_sizes()["excision._splitting_memo"] == len(EX._DEFECTS)


def test_memoized_keys_by_argument_and_caches_falsy_results(monkeypatch):
    monkeypatch.setattr(D, "_MEMOS", dict(D._MEMOS))
    calls = Counter()

    @D.memoized("test.one")
    def one(x):
        calls[("one", x)] += 1
        return None

    @D.memoized("test.two")
    def two(x, y):
        calls[("two", x, y)] += 1
        return False

    assert [one(1), one(1), two(1, 2), two(1, 2), two(2, 1)] == [None, None, False, False, False]
    assert calls == Counter({("one", 1): 1, ("two", 1, 2): 1, ("two", 2, 1): 1})
    assert D._MEMOS["test.one"] == {1: None} and D._MEMOS["test.two"] == {(1, 2): False, (2, 1): False}
    assert one.__name__ == "one"


def test_passing_premise_and_failing_split_are_computed_once(monkeypatch):
    # A torus premise that holds is None, and a splitting check that fails is
    # False: both are memoized, not recomputed on every call.
    witness = f"coassociativity fails on {EX.filtration_basis(1)[0]}"
    bases = Counter()
    monkeypatch.setattr(EX, "filtration_basis", _counting(EX.filtration_basis, bases, "basis"))
    splits = Counter()
    monkeypatch.setattr(EX, "_splitting_defect", _counting(lambda name, b: True, splits, "split"))
    memo_clear()
    try:
        assert [EX.torus_premise(1, "hh0_L") for _ in range(3)] == [None] * 3
        assert bases == Counter({("basis", 1): 1})
        assert [EX.splitting_image_in_kernel(1, "inv") for _ in range(3)] == [False] * 3
        assert EX.check_coassociativity(1) == EX.check_coassociativity(1) == (False, witness)
        assert sum(splits.values()) == 2 and bases[("basis", 1)] == 3
    finally:
        memo_clear()


def test_a_rebound_memoized_function_keeps_its_memo_covered(monkeypatch):
    # A profiler that rebinds every name bound to a function (as bench/tracer.py
    # does) must not replace a memo: the registry holds dicts, not functions.
    orig = D.resolve_crossings
    calls = Counter()
    wrapper = _counting(orig, calls, "resolve")
    for module in [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "skeinlab"]:
        for key, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, key, wrapper)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is orig:
                        monkeypatch.setitem(value, k, wrapper)
    assert all(type(memo) is dict for memo in D._MEMOS.values())
    memo_clear()
    word = SliceWord(2, (("x", 0),))
    for west in ((1, -1), (-1, 1)):
        reduce(StatedWord(word, west, (-1, 1)))
    assert sum(calls.values()) == 2 and memo_sizes()["diagram._resolve_memo"] == 1
    memo_clear()
    assert memo_sizes()["diagram._resolve_memo"] == 0


def test_cold_and_warm_values_agree():
    basis = [SkeinElement.of(b) for b in B.basis_tangles(3)]
    entries = [h for row in CM.tensor_power_V(3).coaction for h in row]

    def values():
        return (
            [B.t_form(x) for x in basis],
            [B.t_inv_form(x) for x in basis],
            [QS.to_skein(h) for h in entries],
            [B.comul(x) for x in basis],
            {v: EX.invariants_subspace(2, v, Fraction(7, 5)) for v in EX.VARIANTS},
        )

    values()
    warm = values()
    # Callers may mutate what they get; the memoized images stay intact.
    fresh = values()
    for element in fresh[2]:
        element.add_scaled(B.generator("a"))
    for tensor in fresh[3]:
        tensor.add_term((UNIT_TANGLE, UNIT_TANGLE), ONE)
    assert values() == warm
    memo_clear()
    assert values() == warm

