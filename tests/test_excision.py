from fractions import Fraction

import pytest
from q_reference import over_q

import skeinlab.bigon_skein as B
import skeinlab.diagram as D
import skeinlab.excision as EX
from skeinlab import linalg
from skeinlab.bigon_skein import TensorElement
from skeinlab.diagram import BasisTangle, SkeinElement, memo_clear
from skeinlab.scalar import MINUS_ONE, ONE, HalfLaurent, ScalarError
from skeinlab.suites import DEFAULT_SPECS, gluing

S0 = Fraction(7, 5)
S1 = Fraction(11, 7)


def test_component_bases():
    assert len(EX.filtration_basis(2)) == 10  # unit plus the nine 2-strand tangles
    assert len(EX.filtration_basis(3)) == 4 + 16
    for n in range(6):
        assert len(EX.filtration_basis(n)) == EX.filtration_dimension(n)
    with pytest.raises(ValueError):
        EX.filtration_basis(-1)
    assert EX.degree_increment(2) == 9
    assert EX.degree_increment(1) == 4
    assert EX.degree_increment(0) == 1


def test_coassociativity_exact():
    for n in range(3):
        ok, witness = EX.check_coassociativity(n)
        assert ok, witness


def test_splitting_degree_zero_and_one():
    rep0 = EX.gluing_excision_check(0, S0)
    assert rep0.passed and rep0.dims["image"] == rep0.dims["cotensor"] == 1
    rep1 = EX.gluing_excision_check(1, S0)
    assert rep1.passed
    assert rep1.dims["image"] == rep1.dims["cotensor"] == 4
    assert rep1.increments["image"] == rep1.increments["cotensor"] == 4 == rep1.expected_increment


def test_splitting_degree_two_increment_is_nine():
    rep = EX.gluing_excision_check(2, S0)
    assert rep.passed
    assert rep.dims["image"] == rep.dims["cotensor"] == 10
    assert rep.increments["image"] == rep.increments["cotensor"] == 9 == rep.expected_increment


def test_invariants_variants_agree_degree_one():
    spaces = {v: EX.invariants_subspace(1, v, S0) for v in EX.VARIANTS}
    dims = {v: len(rows) for v, rows in spaces.items()}
    assert dims == {"inv": 4, "hh0_L": 4, "hh0_l_ht": 4}
    image = EX.comul_image_rows(1, S0)
    canon = linalg.rref(image)
    for v, rows in spaces.items():
        assert linalg.rref(rows) == canon, v


def test_gluing_dimensions_are_the_same_over_q_and_mod_p(monkeypatch):
    def dims():
        out = {}
        for n in range(4):
            spaces = EX._all_subspaces(n, S0)
            out[n] = {name: linalg.rank(rows) for name, rows in spaces.items()}
        return out

    mod_p = dims()
    over_q(monkeypatch)
    assert dims() == mod_p
    assert all(set(d.values()) == {EX.filtration_dimension(n)} for n, d in mod_p.items())


def test_invariants_rejects_bad_variant_and_point():
    with pytest.raises(ValueError):
        EX.invariants_subspace(1, "bogus", S0)
    with pytest.raises(ScalarError):
        EX.invariants_subspace(1, "inv", Fraction(1))


def test_gluing_check_small_degrees():
    for n in (0, 1):
        for s0 in (S0, S1):
            rep = EX.gluing_excision_check(n, s0)
            assert rep.passed, (n, s0, rep.dims, rep.increments)
            assert rep.pullback_ok


def test_gluing_dims_are_ranks(monkeypatch):
    # Replacing one image row by a copy of another leaves D_1 = 4 rows of rank 3.
    rows = EX.comul_image_rows(1, S0)
    rows[1] = dict(rows[0])
    monkeypatch.setattr(EX, "comul_image_rows", lambda n, s0: [dict(r) for r in rows])
    rep = EX.gluing_excision_check(1, S0)
    assert rep.dims["image"] == linalg.rank(rows) == 3
    assert rep.increments["image"] == 3
    assert not rep.passed
    assert {"dims", "increments"} <= set(rep.failures())


def test_gluing_witness_names_a_failed_pullback(monkeypatch):
    # Every dimension still equals D_1 when only the pullback solve fails, so
    # the witness must name the pullback itself.
    monkeypatch.setattr(linalg, "solve", lambda *args: None)
    witness = gluing(DEFAULT_SPECS, 0, n=1)
    assert witness is not None and "fails pullback_ok;" in witness


def test_gluing_check_requires_the_image_in_every_kernel(monkeypatch):
    # A defect that does not vanish on comul(1) = 1 (x) 1 breaks containment.
    unit = BasisTangle.unit()
    exact = EX._DEFECTS["hh0_L"]

    def perturbed(b1, b2):
        out = exact(b1, b2)
        if b1 == b2 == unit:
            out.add_term((unit, unit, unit), ONE)
        return out

    monkeypatch.setitem(EX._DEFECTS, "hh0_L", perturbed)
    memo_clear()
    assert not EX.splitting_image_in_kernel(0, "hh0_L")
    assert EX.splitting_image_in_kernel(0, "hh0_l_ht")
    rep = EX.gluing_excision_check(0, S0)
    assert not rep.image_in_kernels and not rep.passed
    memo_clear()


def test_gluing_check_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        EX.gluing_excision_check(-1, S0)


def test_gluing_check_degree_three():
    rep = EX.gluing_excision_check(3, S0)
    assert rep.passed and rep.pullback_ok and rep.image_in_kernels
    assert set(rep.dims.values()) == {20} and set(rep.increments.values()) == {16}


# -- reference: each defect map written per basis pair, with no shared parts ----


def _comul_n(x, folds):
    out = B.comul(x)
    while out.arity < folds:
        longer = TensorElement.zero(out.arity + 1)
        for key, c in out.items():
            for (u, v), cc in B.comul(SkeinElement.of(key[-1])).items():
                longer.add_term(key[:-1] + (u, v), c * cc)
        out = longer
    return out


def _ref_cotensor(b1, b2):
    out = TensorElement.zero(3)
    for (u, v), c in B.comul(SkeinElement.of(b1)).items():
        out.add_term((u, v, b2), c)
    for (u, v), c in B.comul(SkeinElement.of(b2)).items():
        out.add_term((b1, u, v), -c)
    return out


def _ref_inv(b1, b2):
    out = TensorElement.zero(3)
    for (a1, a2), ca in B.comul(SkeinElement.of(b1)).items():
        for (bw, br), cb in B.comul(SkeinElement.of(b2)).items():
            prod = B.mul(SkeinElement.of(a2), B.antipode(SkeinElement.of(bw)))
            for b3, c3 in prod.items():
                out.add_term((a1, br, b3), ca * cb * c3)
    out.add_term((b1, b2, BasisTangle.unit()), MINUS_ONE)
    return out


def _ref_b_side(b1, b2):
    out = TensorElement.zero(3)
    for (bw, br), cb in B.comul(SkeinElement.of(b2)).items():
        for b3, c3 in B.antipode(SkeinElement.of(bw)).items():
            out.add_term((b1, br, b3), cb * c3)
    return out


def _ref_hh0_L(b1, b2):
    out = _ref_b_side(b1, b2)
    for (a1, a2), ca in B.comul(SkeinElement.of(b1)).items():
        for b3, c3 in B.antipode(SkeinElement.of(a2)).items():
            out.add_term((a1, b2, b3), -(ca * c3))
    return out


def _ref_hh0_l_ht(b1, b2):
    out = _ref_b_side(b1, b2)
    for (a1, a2, a3, a4), c in _comul_n(SkeinElement.of(b1), 4).items():
        w = B.t_form(SkeinElement.of(a2)) * B.t_inv_form(SkeinElement.of(a4)) * c
        if w.is_zero():
            continue
        for b3, c3 in B.rot_star(SkeinElement.of(a3)).items():
            out.add_term((a1, b2, b3), -(w * c3))
    return out


REFERENCE = {"cotensor": _ref_cotensor, "inv": _ref_inv, "hh0_L": _ref_hh0_L, "hh0_l_ht": _ref_hh0_l_ht}


def test_defect_maps_equal_the_per_pair_reference():
    # The maps composed from one-sided images give exactly the per-pair
    # formulas, signs included; all four kernels coincide, so a mixed-up or
    # sign-flipped map could pass the dimension checks.
    basis = B.basis_tangles(2)
    assert set(REFERENCE) == set(EX._DEFECTS)
    for name, ref in REFERENCE.items():
        for b1 in basis:
            for b2 in basis:
                assert EX._DEFECTS[name](b1, b2) == ref(b1, b2), (name, b1, b2)


def test_gluing_check_catches_a_scaled_half_twist_switch(monkeypatch):
    exact = EX._SWITCHES["ht"]
    q = HalfLaurent.q_pow(1)
    monkeypatch.setitem(EX._SWITCHES, "ht", lambda a: exact(a).scale(q))
    memo_clear()
    try:
        rep = EX.gluing_excision_check(1, S0)
        assert not rep.passed
        assert not EX.splitting_image_in_kernel(1, "hh0_l_ht")
    finally:
        memo_clear()


# -- torus weights: the kernels are solved on the balanced pairs only -------------


def _full_kernel(n, name, s0):
    """The kernel of ``_DEFECTS[name]`` on all D_n^2 pairs of F_n, with no restriction."""
    at = linalg.at_point(s0)
    basis = EX.filtration_basis(n)
    d = len(basis)
    rows = {}
    for i, b1 in enumerate(basis):
        for j, b2 in enumerate(basis):
            for key, c in EX._DEFECTS[name](b1, b2).items():
                if v := at(c):
                    rows.setdefault(key, {})[i * d + j] = v
    return linalg.kernel_basis(rows.values(), d * d)


def test_balanced_kernels_equal_the_full_kernels():
    for n in range(4):
        for name in EX._DEFECTS:
            for s0 in DEFAULT_SPECS:
                assert linalg.rref(EX._kernel_of_map(n, name, s0)) == linalg.rref(_full_kernel(n, name, s0)), (n, name)


def test_balanced_column_counts():
    assert (len(EX.balanced_columns(2)), EX.filtration_dimension(2) ** 2) == (34, 100)
    assert (len(EX.balanced_columns(5)), EX.filtration_dimension(5) ** 2) == (560, 3136)
    basis = EX.filtration_basis(2)
    for col in EX.balanced_columns(2):
        assert sum(basis[col // 10].nu) == sum(basis[col % 10].mu)


def test_gluing_check_catches_a_switch_off_its_torus_weight(monkeypatch):
    # pi on the switched leg of right(a) must be K^-1 a; an added a (x) a term
    # adds K a, and puts a term off the west sums that inv's argument uses.
    a = BasisTangle(1, (1,), (1,))
    exact = EX._SWITCHES["right"]

    def perturbed(b):
        out = exact(b)
        if b == a:
            out.add_term((a, a), ONE)
        return out

    monkeypatch.setitem(EX._SWITCHES, "right", perturbed)
    memo_clear()
    try:
        assert "right(beta(+;+))" in EX.torus_premise(1, "hh0_L")
        assert EX.torus_premise(1, "cotensor") is None
        rep = EX.gluing_excision_check(1, S0)
        assert not rep.passed and "torus_weights" in rep.failures()
        assert {w.split(":")[0] for w in rep.torus_weights} == {"inv", "hh0_L", "hh0_l_ht"}
        witness = gluing(DEFAULT_SPECS, 0, n=1)
        assert witness is not None and "torus_weights" in witness and "hh0_L: pi on leg 1" in witness
    finally:
        memo_clear()


@pytest.mark.parametrize("table, states, label", [(D.C, (1, 1), "C"), (D.CBAR, (-1, -1), "Cbar")])
def test_inv_premise_needs_arc_weights_to_vanish_on_equal_states(monkeypatch, table, states, label):
    # Otherwise an arc could remove two equal states and change an edge sum.
    monkeypatch.setitem(table, states, ONE)
    memo_clear()
    try:
        witness = EX.torus_premise(1, "inv")
        assert witness == f"inv: {label} does not vanish on equal states"
        assert EX.torus_premise(1, "hh0_L") is None
    finally:
        memo_clear()


# -- the half-twist bridge: ht(b) = left(b) on F_n ---------------------------------


def test_half_twist_switch_equals_the_left_antipode_switch(monkeypatch):
    # The half-twist map reaches the left antipode switch with no antipode,
    # on every b of F_n for n <= 4 (F_3 and F_4 hold them all); with the
    # twist crossing and its inverse swapped it no longer does.
    for b in EX.filtration_basis(3) + EX.filtration_basis(4):
        assert EX._switch("ht", b) == EX._switch("left", b), b
    monkeypatch.setattr(B, "HALF_TWIST_CROSSING", B.HALF_TWIST_INVERSE_CROSSING)
    monkeypatch.setattr(B, "HALF_TWIST_INVERSE_CROSSING", B.HALF_TWIST_CROSSING)
    memo_clear()
    try:
        broken = [b for b in EX.filtration_basis(2) if EX._switch("ht", b) != EX._switch("left", b)]
        assert len(broken) == 9
    finally:
        monkeypatch.undo()
        memo_clear()
