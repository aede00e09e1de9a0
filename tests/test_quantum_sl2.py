import functools
import itertools
import operator
import random

import pytest

import skeinlab.bigon_skein as B
import skeinlab.quantum_sl2 as QS
from skeinlab.diagram import BasisTangle, SkeinElement
from skeinlab.scalar import ONE, HalfLaurent

q = HalfLaurent.q_pow


def mono(a=0, d=0, b=0, c=0):
    return QS.PBWMonomial(a, d, b, c)


def test_normalize_examples():
    assert QS.normalize("ad") == QS.HopfElement(
        {mono(): ONE, mono(b=1, c=1): q(-2)}
    )
    assert QS.normalize("ba") == QS.HopfElement.of(mono(a=1, b=1), q(2))
    assert QS.normalize("da") == QS.HopfElement(
        {mono(): ONE, mono(b=1, c=1): q(2)}
    )
    # Canonical form is idempotent: renormalizing the letters of each
    # normal-form monomial reproduces the element.
    x = QS.normalize("dcba")
    resum = QS.HopfElement.zero()
    for m, coeff in x.items():
        resum = resum + QS.normalize("".join(m.letters())).scale(coeff)
    assert resum == x


def test_pbw_monomial_invariants():
    with pytest.raises(ValueError):
        QS.PBWMonomial(1, 1, 0, 0)
    with pytest.raises(ValueError):
        QS.PBWMonomial(-1, 0, 0, 0)


def test_hopf_operations():
    b = QS.gen("b")
    got = QS.comul(b)
    want = QS.HopfTensor(
        {(mono(a=1), mono(b=1)): ONE, (mono(b=1), mono(d=1)): ONE}
    )
    assert got == want
    assert QS.antipode(QS.gen("c")) == QS.gen("c").scale(q(-2, -1))
    assert QS.counit(QS.normalize("ad")) == ONE
    assert QS.counit(QS.gen("b")).is_zero()


def test_hopf_axioms_degree_three():
    for m in QS.pbw_monomials(3):
        x = QS.HopfElement.of(m)
        left = QS.HopfElement.zero()
        right = QS.HopfElement.zero()
        for (m1, m2), coeff in QS.comul(x).items():
            left = left + QS.mul(QS.antipode(QS.HopfElement.of(m1)), QS.HopfElement.of(m2)).scale(coeff)
            right = right + QS.mul(QS.HopfElement.of(m1), QS.antipode(QS.HopfElement.of(m2))).scale(coeff)
        target = QS.HopfElement.one().scale(QS.counit(x))
        assert left == target and right == target


def test_bialgebra_compatibility_degree_three():
    for m1 in QS.pbw_monomials(2):
        for m2 in QS.pbw_monomials(1):
            if m1.degree + m2.degree > 3:
                continue
            x, y = QS.HopfElement.of(m1), QS.HopfElement.of(m2)
            assert QS.comul(QS.mul(x, y)) == QS.comul(x).mul(QS.comul(y))


def test_pairing_generator_values():
    assert QS.pairing(["E"], QS.gen("b")) == ONE
    assert QS.pairing(["F"], QS.gen("c")) == ONE
    assert QS.pairing(["K"], QS.gen("a")) == q(2)
    assert QS.pairing(["K"], QS.gen("d")) == q(-2)
    assert QS.pairing(["K"], QS.normalize("ad")) == ONE
    assert QS.pairing([], QS.gen("a")) == ONE  # empty word pairs as counit


def test_pairing_commutator_relation():
    coef = q(2) - q(-2)
    for m in QS.pbw_monomials(2):
        x = QS.HopfElement.of(m)
        lhs = (QS.pairing(["E", "F"], x) - QS.pairing(["F", "E"], x)) * coef
        rhs = QS.pairing(["K"], x) - QS.pairing(["Kinv"], x)
        assert lhs == rhs


def test_pairing_antipode_compatibility():
    for m in QS.pbw_monomials(2):
        x = QS.HopfElement.of(m)
        # S(K) = K^-1 and S(E) = -E K^-1 through the pairing laws.
        assert QS.pairing(["Kinv"], x) == QS.pairing(["K"], QS.antipode(x))
        assert QS.pairing(["E", "Kinv"], x).scale(-1) == QS.pairing(["E"], QS.antipode(x))
        assert QS.pairing(["K", "F"], x).scale(-1) == QS.pairing(["F"], QS.antipode(x))


def test_transport_generators():
    assert QS.to_skein(QS.gen("a")) == SkeinElement.of(BasisTangle(1, (1,), (1,)))
    assert QS.to_skein(QS.gen("b")) == SkeinElement.of(BasisTangle(1, (1,), (-1,)))


def test_from_skein_two_strand():
    bt = BasisTangle(2, (1, -1), (1, -1))
    assert QS.from_skein(SkeinElement.of(bt)) == QS.normalize("ad")
    # And back: the normal form maps to the basis tangle with nothing extra.
    assert QS.to_skein(QS.normalize("ad")) == SkeinElement.of(bt)


def test_roundtrip_degree_three():
    for m in QS.pbw_monomials(3):
        x = QS.HopfElement.of(m)
        assert QS.from_skein(QS.to_skein(x)) == x


def _seeded_elements(seed, basis, zero):
    """Five elements of three distinct basis keys each, with seeded Laurent coefficients."""
    rng = random.Random(seed)
    out = []
    for _ in range(5):
        x = zero()
        for key in rng.sample(basis, 3):
            x.add_term(key, HalfLaurent({rng.randrange(-6, 7): rng.choice((1, -1, 2)), rng.randrange(-6, 7): 1}))
        out.append(x)
    return out


def _sum(terms, zero):
    return functools.reduce(operator.add, terms, zero())


def test_mul_basis_is_the_normal_form_of_the_concatenated_letters():
    monomials = QS.pbw_monomials(3)
    for m in monomials:
        for n in monomials:
            assert QS.mul_basis(m, n) == QS.normalize([*m.letters(), *n.letters()]), (m, n)


def test_element_maps_are_the_linear_extensions_of_their_basis_forms():
    monomials = QS.pbw_monomials(3)
    xs = _seeded_elements(3701, monomials, QS.HopfElement.zero)
    ys = _seeded_elements(3702, monomials, QS.HopfElement.zero)
    for x, y in zip(xs, ys):
        pairs = ((QS.mul_basis(m, n), c * d) for m, c in x.items() for n, d in y.items())
        assert QS.mul(x, y) == _sum((form * c for form, c in pairs), QS.HopfElement.zero)
        assert QS.comul(x) == _sum((QS.comul_basis(m) * c for m, c in x.items()), QS.HopfTensor)
        assert QS.to_skein(x) == _sum((QS.to_skein_basis(m) * c for m, c in x.items()), SkeinElement.zero)
        for g in QS.U_GENERATORS:
            assert QS.pairing([g], x) == sum((QS._pair_gen_mono(g, m) * c for m, c in x.items()), HalfLaurent.zero())
    for y in _seeded_elements(3703, B.basis_tangles(3), SkeinElement.zero):
        assert QS.from_skein(y) == _sum((QS.from_skein_basis(b) * c for b, c in y.items()), QS.HopfElement.zero)


def test_hopf_tensor_product_reads_the_product_forms():
    # HopfTensor.mul multiplies leg by leg: (m1 (x) m2)(n1 (x) n2) = m1 n1 (x) m2 n2.
    monomials = QS.pbw_monomials(2)
    for m1, m2, n1, n2 in itertools.product(monomials[:6], repeat=4):
        got = QS.HopfTensor.of((m1, m2)).mul(QS.HopfTensor.of((n1, n2)))
        want = QS.HopfTensor()
        for p1, c1 in QS.normalize([*m1.letters(), *n1.letters()]).items():
            for p2, c2 in QS.normalize([*m2.letters(), *n2.letters()]).items():
                want.add_term((p1, p2), c1 * c2)
        assert got == want, (m1, m2, n1, n2)
