import pytest

import skeinlab.bigon_skein as B
from skeinlab.diagram import BasisTangle, SkeinElement
from skeinlab.scalar import HalfLaurent

a, b, c, d = (B.generator(x) for x in "abcd")
unit = SkeinElement.unit()
q = HalfLaurent.q_pow


def el(bt):
    return SkeinElement.of(bt)


def test_mul_unit():
    for x in (a, b, B.mul(c, d)):
        assert B.mul(unit, x) == x
        assert B.mul(x, unit) == x


def test_defining_relations():
    assert B.mul(a, d) - B.mul(b, c).scale(q(-2)) == unit
    assert B.mul(c, a) == B.mul(a, c).scale(q(2))
    assert B.mul(b, a) == B.mul(a, b).scale(q(2))
    assert B.mul(b, c) == B.mul(c, b)
    assert B.mul(d, a) - B.mul(c, b).scale(q(2)) == unit


def test_comul_generators():
    got = B.comul(a)
    want = B.tensor2(a, a) + B.tensor2(b, c)
    assert got == want
    assert B.comul(unit) == B.tensor2(unit, unit)
    got = B.comul(b)
    assert got == B.tensor2(a, b) + B.tensor2(b, d)


def test_comul_matches_coordinate_algebra():
    import skeinlab.quantum_sl2 as QS

    x = B.mul(a, d)
    left = B.comul(x)
    right = B.TensorElement.zero(2)
    for (m1, m2), coeff in QS.comul(QS.from_skein(x)).items():
        right = right + B.tensor2(
            QS.to_skein(QS.HopfElement.of(m1)), QS.to_skein(QS.HopfElement.of(m2))
        ).scale(coeff)
    assert left == right


def test_counit():
    assert B.counit(unit) == HalfLaurent.one()
    assert B.counit(b) == HalfLaurent.zero()
    assert B.counit(B.mul(a, d)) == HalfLaurent.one()


def test_antipode_generators():
    assert B.antipode(a) == d
    assert B.antipode(d) == a
    assert B.antipode(b) == b.scale(q(2, -1))
    assert B.antipode(c) == c.scale(q(-2, -1))


def test_rot_star():
    assert B.rot_star(b) == c
    assert B.rot_star(c) == b
    assert B.rot_star(a) == a
    for bt in B.basis_tangles(3):
        assert B.rot_star(B.rot_star(el(bt))) == el(bt)


def test_t_values():
    assert B.t_form(a).is_zero()
    assert B.t_form(d).is_zero()
    assert B.t_form(b) == HalfLaurent.s_pow(5, -1)
    assert B.t_form(c) == HalfLaurent.s_pow(1)


def test_theta_values():
    assert B.theta_form(a) == q(3, -1)
    assert B.theta_form(d) == q(3, -1)
    assert B.theta_form(b).is_zero()
    assert B.theta_form(c).is_zero()


def test_inv_edge_one_strand():
    # b = beta(+;-): negate and weight by C(-) = q^(-1/2).
    assert B.inv_edge(b, "east") == a.scale(HalfLaurent.s_pow(-1))
    assert B.inv_edge(a, "east") == b.scale(HalfLaurent.s_pow(-5, -1))
    assert B.inv_edge(unit, "east") == unit
    # Inverse direction uses the half-twist weights.
    assert B.inv_edge(b, "east", inverse=True) == a.scale(HalfLaurent.s_pow(5, -1))


def test_inv_edge_identities():
    for bt in B.basis_tangles(2):
        x = el(bt)
        assert B.ht_coaction(B.inv_edge(x, "east")) == x
        assert B.ht_coaction_inverse(B.inv_edge(x, "east", inverse=True)) == x
        assert B.inv_edge(B.inv_edge(x, "east"), "east", inverse=True) == x
        assert B.inv_edge(B.inv_edge(x, "west"), "west", inverse=True) == x


def test_ht_coaction_values():
    assert B.ht_coaction(unit) == unit
    # ht(a) = t(a) a + t(c) b = q^(1/2) b
    assert B.ht_coaction(a) == b.scale(HalfLaurent.s_pow(1))
    assert B.ht_coaction(b) == a.scale(HalfLaurent.s_pow(5, -1))


def test_r_form_values():
    assert B.r_form(a, a) == q(1)
    assert B.r_form(a, d) == q(-1)
    assert B.r_form(d, a) == q(-1)
    assert B.r_form(d, d) == q(1)
    assert B.r_form(b, c) == q(1) + q(-3, -1)
    assert B.r_form(c, b).is_zero()
    assert B.r_form(unit, b).is_zero()
    assert B.r_form(unit, a) == HalfLaurent.one()


def test_braided_opposite_unit_and_grouplike():
    assert B.braided_opposite_mul(unit, b) == b
    # Expanding by hand with the generator R values: only R(a (x) a) = q
    # survives, so the braided-opposite square of a is q a^2.
    assert B.braided_opposite_mul(a, a) == B.mul(a, a).scale(q(1))
    assert B.braided_opposite_mul(a, a) == B.braided_opposite_mul_diagrammatic(a, a)


def test_braided_opposite_b_c():
    assert B.braided_opposite_mul(b, c) == B.braided_opposite_mul_diagrammatic(b, c)
    assert B.braided_opposite_mul(c, b) == B.braided_opposite_mul_diagrammatic(c, b)


def test_mul_associative_on_basis():
    import random

    rng = random.Random(17)
    tangles = B.basis_tangles(2)
    for _ in range(40):
        x, y, z = (el(rng.choice(tangles)) for _ in range(3))
        assert B.mul(B.mul(x, y), z) == B.mul(x, B.mul(y, z))


def test_antipode_is_anti_coalgebra_map():
    for bt in B.basis_tangles(2):
        x = el(bt)
        left = B.comul(B.antipode(x))
        right = B.TensorElement.zero(2)
        for (x1, x2), coeff in B.comul(x).items():
            right = right + B.tensor2(B.antipode(el(x2)), B.antipode(el(x1))).scale(coeff)
        assert left == right, bt


def test_convolutions():
    for bt in B.basis_tangles(2):
        x = el(bt)
        assert B.convolve(B.t_form, B.t_inv_form)(x) == B.counit(x)
        assert B.convolve(B.t_form, B.t_form)(x) == B.theta_form(x)


def test_west_functional_is_rotation_conjugate():
    # The same counit-of-inversion recipe applied at the west edge computes
    # the half-coribbon functional of the rotated element: the two edge
    # recipes differ exactly by the 180-degree rotation.
    for bt in B.basis_tangles(2):
        x = el(bt)
        assert B.counit(B.inv_edge(x, "west", inverse=True)) == B.t_form(B.rot_star(x))
        assert B.counit(B.inv_edge(x, "west", inverse=False)) == B.t_inv_form(B.rot_star(x))


def test_bridge_identity_small():
    for bt in B.basis_tangles(2):
        x = el(bt)
        lhs = SkeinElement.zero()
        rhs = SkeinElement.zero()
        for (x1, x2), coeff in B.comul(x).items():
            lhs = lhs + B.antipode(el(x1)).scale(B.t_form(el(x2)) * coeff)
            rhs = rhs + B.rot_star(el(x2)).scale(B.t_form(el(x1)) * coeff)
        assert lhs == rhs


def test_tensor_element_interface():
    t = B.tensor2(a, b)
    assert t.arity == 2
    with pytest.raises(ValueError):
        B.TensorElement(2, {(BasisTangle.unit(),): HalfLaurent.one()})
