import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import linalg, scalar
from skeinlab.diagram import memo_clear
from skeinlab.scalar import (
    LOOP,
    MINUS_ONE,
    ONE,
    P,
    Q,
    ZERO,
    HalfLaurent,
    ScalarError,
    format_scalar,
    residue,
    validate_generic_point,
)
from skeinlab.syntax import MAX_EXPONENT, ParseError, parse_scalar


def S(e, c=1):
    return HalfLaurent.s_pow(e, c)


def test_s_times_s_is_q():
    assert S(1) * S(1) == HalfLaurent.q_pow(1)


def test_loop_value_square():
    # (-q^2 - q^-2)^2 = q^4 + 2 + q^-4
    want = HalfLaurent({8: 1, 0: 2, -8: 1})
    assert LOOP * LOOP == want


def test_additive_inverse_is_empty():
    x = S(3, Fraction(2, 7)) + S(-1)
    assert (x + (-x)).is_zero()
    assert not (x + (-x)).terms


def test_specialize_examples():
    assert LOOP.specialize(1) == P - 2
    assert S(1).specialize(residue(Fraction(7, 5))) == residue(Fraction(7, 5))
    q = HalfLaurent.q_pow(1)
    assert (q - HalfLaurent.q_pow(-3)).specialize(2) == residue(Fraction(255, 64))
    assert S(-1, Fraction(3, 2)).specialize(5) == residue(Fraction(3, 10))


def test_specialize_rejects_zero():
    with pytest.raises(ScalarError):
        S(2).specialize(0)


def test_specialize_takes_every_representative_of_a_residue_alike():
    x = LOOP + S(-3, Fraction(2, 3)) + S(1, -5)
    for n in (2, -3, 7):
        assert x.specialize(n) == x.specialize(n + P) == x.specialize(residue(Fraction(n)))
        assert type(x.specialize(n)) is int and 0 <= x.specialize(n) < P
    for zero in (0, P, -P):
        with pytest.raises(ScalarError):
            x.specialize(zero)
        with pytest.raises(ScalarError):
            HalfLaurent.zero().specialize(zero)


def test_a_coefficient_outside_the_field_is_refused_by_name():
    x = S(3, Fraction(1, P)) + S(0)
    with pytest.raises(ScalarError, match=f"1/{P} does not map into F_{P}"):
        x.specialize(2)
    with pytest.raises(ScalarError, match=f"1/{P} does not map into F_{P}"):
        linalg.at_point(Fraction(7, 5))(x)


def test_generic_point_validation():
    assert validate_generic_point(Fraction(7, 5)) == Fraction(7, 5)
    for bad in (0, 1, -1):
        with pytest.raises(ScalarError):
            validate_generic_point(bad)
    # Points whose image in F_P is 0, 1 or -1, or which have none.
    for bad in (P, P + 1, P - 1, Fraction(P + 2, 2), Fraction(2, P)):
        with pytest.raises(ScalarError, match=str(bad)):
            validate_generic_point(bad)


def test_monomial_inverse():
    x = S(5, -1)
    assert x * x.inverse() == HalfLaurent.one()
    with pytest.raises(ScalarError):
        (S(1) + S(2)).inverse()


def test_unit_monomial_inverse_builds_no_fraction(monkeypatch):
    # Every arc weight is +-s^e, whose inverse keeps the int coefficient;
    # any other coefficient c still inverts to Fraction(1, c).
    from skeinlab.diagram import CBAR, C

    weights = [w for table in (C, CBAR) for w in table.values() if w]
    assert len(weights) == 4

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(scalar, "Fraction", no_fraction)
    inverses = [w.inverse() for w in weights]
    monkeypatch.undo()
    for w, inverse in zip(weights, inverses):
        ((e, c),) = inverse.terms.items()
        assert type(c) is int and inverse is S(e, c), w
        assert w * inverse is ONE, w
    assert parse_scalar("(2*s)^-2") is S(-2, Fraction(1, 4))
    assert S(3, 2).inverse().terms == {-3: Fraction(1, 2)}


def test_parse_examples():
    assert parse_scalar("-3/2*s^-5 + s^4") == S(4) + S(-5, Fraction(-3, 2))
    assert parse_scalar("q") == S(2)
    assert parse_scalar("q^-2") == S(-4)
    assert parse_scalar("-q^2-q^-2") == LOOP
    assert parse_scalar("(1 + s)^2") == HalfLaurent({0: 1, 1: 2, 2: 1})


def test_parse_rejects_exponents_beyond_the_bound():
    assert parse_scalar(f"s^-{MAX_EXPONENT}") == S(-MAX_EXPONENT)
    for text, column in (("9^9999999", 3), (f"(1 + s)^ {MAX_EXPONENT + 1}", 10)):
        with pytest.raises(ParseError, match=f"exceeds the bound.*column {column}"):
            parse_scalar(text)


def test_parse_rejects_powers_beyond_the_size_bound():
    # Each exponent is within MAX_EXPONENT; the predicted result is not.
    for text, column in (("((1+s)^64)^64", 11), ("(9/7+s+q)^256", 10), ("(99/97 + s + q)^128", 16)):
        with pytest.raises(ParseError, match=f"size bound.*column {column}"):
            parse_scalar(text)
    assert parse_scalar("(1+s)^256").terms[128] == math.comb(256, 128)


def test_power_bits_bounds_the_power():
    for x in (HalfLaurent({0: 1, 1: 1}), HalfLaurent({-2: Fraction(9, 7), 1: -3, 2: 1}), S(5, -2)):
        for e in range(6):
            assert (x**e).bit_size() <= x.power_bits(e)


scalars = st.builds(
    lambda items: HalfLaurent(
        {e: Fraction(n, d) for (e, n, d) in items}
    ),
    st.lists(
        st.tuples(
            st.integers(-6, 6),
            st.integers(-9, 9),
            st.integers(1, 9),
        ),
        max_size=5,
    ),
)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_specialize_is_ring_homomorphism(x, y):
    s0 = residue(Fraction(7, 5))
    assert (x * y).specialize(s0) == x.specialize(s0) * y.specialize(s0) % P
    assert (x + y).specialize(s0) == (x.specialize(s0) + y.specialize(s0)) % P


def _integral(x):
    return HalfLaurent({e: c.numerator for e, c in x.terms.items()})


@given(scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_coefficients_are_ints_or_fractions(x, y):
    # No operation yields a float; integral operands give int coefficients.
    for a, b, integral in ((x, y, False), (_integral(x), _integral(y), True)):
        results = [a + b, a - b, -a, a * b, a.scale(3), a * 2, a**3, HalfLaurent(a.terms)]
        if len(a.terms) == 1 and (not integral or abs(*a.terms.values()) == 1):
            results.append(a.inverse())
        for r in results:
            kinds = {type(c) for c in r.terms.values()}
            assert kinds <= ({int} if integral else {int, Fraction}), (a, b, r.terms)


@given(scalars)
@settings(max_examples=80, deadline=None)
def test_canonical_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_linear_combination_accumulates_in_place():
    from skeinlab.diagram import UNIT_TANGLE, SkeinElement
    from skeinlab.quantum_sl2 import HopfElement

    x = SkeinElement.zero()
    x.add_term(UNIT_TANGLE, S(1))
    y = x.copy()
    x.add_scaled(y, HalfLaurent.rational(-1))
    assert x.is_zero() and not x.items()  # a cancelled coefficient is dropped
    assert y == SkeinElement.of(UNIT_TANGLE, S(1))
    assert hash(y) == hash(SkeinElement.of(UNIT_TANGLE, S(1)))
    # Equal term maps of different element types never compare equal.
    assert SkeinElement.zero() != HopfElement.zero()


operands = st.one_of(
    st.sampled_from([ZERO, ONE, MINUS_ONE, LOOP, HalfLaurent(), HalfLaurent({0: 1})]),
    st.builds(HalfLaurent.s_pow, st.integers(-6, 6), st.fractions(-5, 5, max_denominator=7)),
    scalars,
)


@given(operands, operands)
@settings(max_examples=150, deadline=None)
def test_sum_and_product_match_the_reference_convolution(a, b):
    a_terms, b_terms = a.terms, b.terms
    product: dict = {}
    for e1, c1 in a_terms.items():
        for e2, c2 in b_terms.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    total = dict(a_terms)
    for e, c in b_terms.items():
        total[e] = total.get(e, 0) + c
    assert a * b == b * a == HalfLaurent(product)
    assert a + b == b + a == HalfLaurent(total)
    # A product may be one of its operands (x * ONE is x), so no operation
    # may change an operand.
    results = [a * b, b * a, a + b, a - b, -a, a * 3, a.scale(Fraction(1, 2)), a**2, b * ONE, ONE * b]
    assert (a.terms, b.terms) == (a_terms, b_terms)
    assert all(0 not in r.terms.values() for r in results)


def test_scale_by_one_copies():
    from skeinlab.diagram import UNIT_TANGLE, reduce_parallel

    x = reduce_parallel((-1, 1), (1, -1))
    entry = dict(x.items())
    y = x.scale(ONE)
    assert y == x and y is not x
    y.add_term(UNIT_TANGLE, ONE)
    y.add_scaled(x, MINUS_ONE)
    assert reduce_parallel((-1, 1), (1, -1)) is x and dict(x.items()) == entry


# -- interned constants and the product memo ----------------------------------


def _convolution(a_terms, b_terms):
    out: dict = {}
    for e1, c1 in a_terms.items():
        for e2, c2 in b_terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(operands, operands)
@settings(max_examples=150, deadline=None)
def test_interned_products_match_the_reference_on_first_and_memoized_call(a, b):
    a, b = HalfLaurent(a.terms), HalfLaurent(b.terms)  # the interned instances
    want = _convolution(a.terms, b.terms)
    scalar._product_memo.pop((a._key, b._key), None)
    first = a * b
    assert first.terms == want
    assert first is HalfLaurent(want)  # the product is interned
    assert (a * b) is first and (a * b).terms == want


def test_equal_constructor_calls_return_one_instance():
    assert HalfLaurent({-4: -1, 4: -1}) is HalfLaurent([(4, -1), (-4, -1)]) is LOOP
    assert HalfLaurent({4: Fraction(-1), -4: Fraction(-2, 2)}) is LOOP
    assert HalfLaurent([(4, -2), (1, 3), (-4, -1), (4, 1), (1, -3)]) is LOOP  # merged, cancelled
    assert HalfLaurent.q_pow(1) is HalfLaurent.s_pow(2) is HalfLaurent({2: Fraction(1, 1)}) is Q
    assert HalfLaurent.one() is HalfLaurent.rational(Fraction(3, 3)) is HalfLaurent.s_pow(0) is ONE
    assert HalfLaurent.zero() is HalfLaurent() is HalfLaurent({3: 0}) is HalfLaurent.rational(0) is ZERO
    assert HalfLaurent.rational(-1) is MINUS_ONE
    assert HalfLaurent.s_pow(5, -2).inverse() is HalfLaurent.s_pow(-5, Fraction(-1, 2))
    # A Fraction(n, 1) coefficient, given or merged, is stored as an int.
    x = HalfLaurent([(0, Fraction(4, 2)), (1, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert x is HalfLaurent({0: 2, 1: 1}) and all(type(c) is int for c in x.terms.values())


def test_transient_results_add_nothing_to_the_intern_tables():
    x, y = HalfLaurent({1: 2, -3: Fraction(1, 2)}), HalfLaurent({7: 5, 2: -1})
    t = x + y
    sizes = len(scalar._interned), len(scalar._product_memo)
    results = [x + y, x - y, -x, x.scale(3), x * 3, 3 * x, t * x, x * t, t * t, t**3, t * LOOP, MINUS_ONE * t]
    assert (len(scalar._interned), len(scalar._product_memo)) == sizes
    assert x * t == t * x == HalfLaurent(_convolution(x.terms, t.terms))
    assert all(r == HalfLaurent(r.terms) for r in results)


def test_copies_are_equal_and_leave_interned_values_intact():
    t = LOOP + HalfLaurent.s_pow(1, Fraction(1, 3))
    for x in (ZERO, ONE, MINUS_ONE, LOOP, t):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert y is HalfLaurent(x.terms)  # a copy is the interned instance
    assert (ZERO.terms, ONE.terms, MINUS_ONE.terms, LOOP.terms) == ({}, {0: 1}, {0: -1}, {4: -1, -4: -1})
    assert HalfLaurent() is ZERO and HalfLaurent.one() is ONE and t.terms == {4: -1, -4: -1, 1: Fraction(1, 3)}


def test_products_are_correct_after_memo_clear():
    a, b = LOOP, HalfLaurent.s_pow(3, Fraction(2, 3))
    before = a * b
    memo_clear()
    assert not scalar._product_memo
    # The intern table survives the clear, so the product is the same instance.
    assert (a * b) is before and before.terms == _convolution(a.terms, b.terms)
