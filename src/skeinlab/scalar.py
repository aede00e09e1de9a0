"""Exact ground ring: Laurent polynomials in the half-power generator s = q^(1/2).

Every coefficient showing up in bigon skein computations -- the loop value
-q^2 - q^-2, boundary arc weights like q^(-1/2) and -q^(5/2), twist factors
-q^(+/-3) -- is a Laurent polynomial in q^(1/2) with integer coefficients.
Coefficients are stored as ``int`` and fall back to ``Fraction`` only where a
value is not integral (rational input, monomial inverses), so the engine's
arithmetic runs on Python ints.  Working with the generator s (so q = s^2)
keeps all exponents integral and makes equality of scalars a structural
comparison of canonical term maps; ``Fraction(n, 1)`` and ``n`` compare and
hash equal, so either form of an integral value is canonical.

Rank computations elsewhere evaluate s at the image in F_P, P = 2^31 - 1, of a
rational point; ``linalg`` says why a rank there bounds the generic one below.

Interning: ``HalfLaurent(...)`` and its named constructors return one
interned instance per value, never mutated and never freed, and the product
of two interned values (the arc, loop, exchange and R-matrix weights the
engine multiplies again and again) is interned and kept in ``_product_memo``.
Sums, negations, ``scale`` and products with a transient operand stay
transient.  Crossing resolution (``diagram``) builds each coefficient once,
from its packed digits, and interns it only when it has at most one term:
interning every coefficient kept 344 values, not 57, on ``braid_reduce``
(a traced heap of 539 KiB, not 370 KiB), and leaving every one transient
raised the traced heap of ``verify_all`` from 2,313 to 2,501 KiB.  ``==`` and
``hash`` are by value.
Code that changes a constant rebinds it and calls ``diagram.memo_clear()``:
that is the contract every memo of crossing resolution relies on, for none of
them is keyed by the constants.

Every algebra element (skein elements, tensors, PBW normal forms) is a
finite sum of basis keys with such coefficients: :class:`LinearCombination`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Hashable, Iterable, ItemsView, Mapping, Union

Rat = Union[int, Fraction]
P = 2**31 - 1  # the prime of the field F_P that every point rank is taken over (``linalg``)


class ScalarError(ValueError):
    """Raised on invalid scalar operations (bad specialization, non-monomial inverse)."""


def _rat(c: Rat) -> Rat:
    """``c`` as an ``int`` when integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class HalfLaurent:
    """A Laurent polynomial in s = q^(1/2), kept in canonical form.

    Coefficients are ``int``, or ``Fraction`` where not integral.

    Canonical form stores only nonzero coefficients, so ``==`` is exact
    structural equality.  Instances are immutable.  ``_key`` is the frozenset
    of the terms of an interned instance (its hash is cached), else None.
    """

    __slots__ = ("_terms", "_key")

    def __new__(cls, terms: Mapping[int, Rat] | Iterable[tuple[int, Rat]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        canon: dict[int, Rat] = {}
        for e, c in items:
            c = _rat(c)
            if c:
                acc = canon.get(e)
                tot = c if acc is None else acc + c
                if tot:
                    canon[e] = _rat(tot)
                elif acc is not None:
                    del canon[e]
        key = frozenset(canon.items())
        self = _interned.get(key)
        if self is None:
            self = _interned[key] = object.__new__(cls)
            self._terms, self._key = canon, key
        return self

    def __reduce__(self):
        return HalfLaurent, (self._terms,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> HalfLaurent:
        return cls()

    @classmethod
    def one(cls) -> HalfLaurent:
        return cls({0: 1})

    @classmethod
    def rational(cls, r: Rat) -> HalfLaurent:
        return cls({0: r})

    @classmethod
    def s_pow(cls, e: int, coeff: Rat = 1) -> HalfLaurent:
        """coeff * s^e."""
        return cls({e: coeff})

    @classmethod
    def q_pow(cls, e: int, coeff: Rat = 1) -> HalfLaurent:
        """coeff * q^e = coeff * s^(2e)."""
        return cls({2 * e: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, Rat]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def bit_size(self) -> int:
        """Numerator plus denominator bits, summed over the terms."""
        out = 0
        for c in self._terms.values():
            if type(c) is int:
                out += c.bit_length() + 1
            else:
                out += c.numerator.bit_length() + c.denominator.bit_length()
        return out

    def power_bits(self, e: int) -> float:
        """An upper bound on the ``bit_size`` of self^|e|.

        With D the least common denominator and N the sum of |c| D over the
        terms, self^e has at most e (hi - lo) + 1 terms, each a numerator of
        at most e log2(N) bits over a denominator dividing D^e.
        """
        if not self._terms:
            return 0.0
        e = abs(e)
        d = math.lcm(*(Fraction(c).denominator for c in self._terms.values()))
        n = int(sum(abs(c) * d for c in self._terms.values()))
        return (e * (max(self._terms) - min(self._terms)) + 1) * (e * math.log2(n * d) + 2)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is HalfLaurent:
            return self is other or self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key if self._key is not None else frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: HalfLaurent) -> HalfLaurent:
        if type(other) is not HalfLaurent:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            tot = c if acc is None else acc + c
            if tot:
                out[e] = tot
            elif acc is not None:
                del out[e]
        res = object.__new__(HalfLaurent)
        res._terms, res._key = out, None
        return res

    def __sub__(self, other: HalfLaurent) -> HalfLaurent:
        return self + (-other)

    def __neg__(self) -> HalfLaurent:
        res = object.__new__(HalfLaurent)
        res._terms, res._key = {e: -c for e, c in self._terms.items()}, None
        return res

    def __mul__(self, other: HalfLaurent | Rat) -> HalfLaurent:
        if type(other) is not HalfLaurent:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        # Many factors are the (immutable) unit constant.
        if self is ONE or other is ONE:
            return other if self is ONE else self
        a, b = self._terms, other._terms
        if self._key is not None and other._key is not None:
            key = (self._key, other._key)
            hit = _product_memo.get(key)
            if hit is None:
                hit = _product_memo[key] = HalfLaurent((e1 + e2, c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())
            return hit
        # A zero or monomial factor needs no merging.
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((e1, c1),) = a.items()
            out = {e1 + e2: c1 * c2 for e2, c2 in b.items()}
        elif not a:
            return ZERO
        else:
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    acc = out.get(e)
                    tot = c1 * c2 if acc is None else acc + c1 * c2
                    if tot:
                        out[e] = tot
                    elif acc is not None:
                        del out[e]
        res = object.__new__(HalfLaurent)
        res._terms, res._key = out, None
        return res

    def __rmul__(self, other: Rat) -> HalfLaurent:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, r: Rat) -> HalfLaurent:
        r = _rat(r)
        if not r:
            return ZERO
        res = object.__new__(HalfLaurent)
        res._terms, res._key = {e: c * r for e, c in self._terms.items()}, None
        return res

    def __pow__(self, n: int) -> HalfLaurent:
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> HalfLaurent:
        """Inverse of a monomial c*s^e; other elements are not units here."""
        if len(self._terms) != 1:
            raise ScalarError(f"not an invertible monomial: {self}")
        ((e, c),) = self._terms.items()
        return HalfLaurent({-e: Fraction(1, c)})

    # -- evaluation --------------------------------------------------------

    def specialize(self, s0: int) -> int:
        """The value at s = s0 in F_P, for s0 a nonzero residue mod P (see ``residue``)."""
        if not s0 % P:
            raise ScalarError(f"specialization point s0 must be nonzero mod {P}")
        return sum((c if type(c) is int else residue(c)) * pow(s0, e, P) for e, c in self._terms.items()) % P

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"HalfLaurent({format_scalar(self)!r})"


#: The interned instance per value, keyed by the frozenset of its terms.
_interned: dict[frozenset, HalfLaurent] = {}
#: (a._key, b._key) -> a * b, for interned a and b; registered in ``diagram``.
_product_memo: dict[tuple[frozenset, frozenset], HalfLaurent] = {}

ZERO = HalfLaurent.zero()
ONE = HalfLaurent.one()
Q = HalfLaurent.q_pow(1)

#: Kauffman loop value -q^2 - q^-2.
LOOP = HalfLaurent({4: -1, -4: -1})

MINUS_ONE = HalfLaurent.rational(-1)


class Value:
    """An immutable value.  Its constructor sets ``_values``, the tuple of its fields
    (the leading names of ``__slots__``; later names are derived), by ``_set_fields``.
    ``==`` and ``hash`` compare the class and ``_values``; copies and pickles rebuild the
    object through its constructor, so the validation runs again."""

    __slots__ = ("_values",)

    @classmethod
    def _names(cls) -> tuple[str, ...]:
        """The field names and then the derived ones: the ``__slots__`` of the
        nearest class that names any, so a subclass may add none."""
        return cls.__slots__ or next(c.__slots__ for c in cls.__mro__ if c.__dict__.get("__slots__"))

    def _set_fields(self, values: tuple, *derived: object) -> None:
        """Set ``_values`` to ``values``, and the slots to ``values`` and then ``derived``."""
        object.__setattr__(self, "_values", values)
        for name, v in zip(self._names(), values + derived):
            object.__setattr__(self, name, v)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._names(), self._values))
        return f"{type(self).__name__}({fields})"


@functools.total_ordering
class InternedKey(Value):
    """A :class:`Value` with one instance per value, so identity ``==`` and
    ``hash`` are value equality.  A subclass lists its fields in ``__slots__``
    and adds each new, validated value to ``_interned`` by ``_make``."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def _make(cls, values: tuple):
        self = object.__new__(cls)
        self._set_fields(values)
        cls._interned[values] = self
        return self

    def __lt__(self, other: object) -> bool:
        return self._values < other._values if type(other) is type(self) else NotImplemented


class LinearCombination:
    """Finite sum of hashable basis keys with HalfLaurent coefficients.

    Zero coefficients are never stored, so ``==`` is exact structural
    equality; elements of different types never compare equal.  The
    operators return new elements, while ``add_term`` and ``add_scaled``
    accumulate in place: only mutate an element you created, never one
    returned from a memo or already used as a dict key.

    ``items()`` iterates in insertion order; printers sort.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Hashable, HalfLaurent] | Iterable[tuple[Hashable, HalfLaurent]] = (),
    ):
        self._terms: dict[Hashable, HalfLaurent] = {}
        for key, c in terms.items() if isinstance(terms, dict) else terms:
            self.add_term(key, c)

    @classmethod
    def zero(cls):
        res = object.__new__(cls)
        res._terms = {}
        return res

    @classmethod
    def of(cls, key: Hashable, coeff: HalfLaurent = ONE):
        res = object.__new__(cls)
        res._terms = {key: coeff} if coeff._terms else {}
        return res

    def _like(self, terms: dict[Hashable, HalfLaurent]):
        """A new element of the same type and shape holding ``terms``."""
        res = object.__new__(type(self))
        res._terms = terms
        return res

    def copy(self):
        return self._like(dict(self._terms))

    # -- in-place accumulation ----------------------------------------------

    def add_term(self, key: Hashable, c: HalfLaurent) -> None:
        """self += c * key."""
        if not c._terms:
            return
        terms = self._terms
        acc = terms.get(key)
        if acc is None:
            terms[key] = c
            return
        tot = acc + c
        if tot:
            terms[key] = tot
        else:
            del terms[key]

    def add_scaled(self, other: LinearCombination, c: HalfLaurent = ONE) -> None:
        """self += c * other."""
        if not c._terms:
            return
        terms = self._terms
        for key, v in other._terms.items():
            if c is not ONE:
                v = v * c
            acc = terms.get(key)
            if acc is None:
                terms[key] = v
            elif (acc := acc + v)._terms:
                terms[key] = acc
            else:
                del terms[key]

    # -- inspection -----------------------------------------------------------

    def items(self) -> ItemsView[Hashable, HalfLaurent]:
        return self._terms.items()

    def coefficient(self, key: Hashable) -> HalfLaurent:
        return self._terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: LinearCombination):
        if type(other) is not type(self):
            return NotImplemented
        out = self.copy()
        out.add_scaled(other)
        return out

    def __sub__(self, other: LinearCombination):
        if type(other) is not type(self):
            return NotImplemented
        out = self.copy()
        out.add_scaled(other, MINUS_ONE)
        return out

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def scale(self, coeff: HalfLaurent):
        # Q[s, s^-1] has no zero divisors, so no product below vanishes.
        if not coeff._terms:
            return self._like({})
        if coeff is ONE:
            return self.copy()
        return self._like({key: c * coeff for key, c in self._terms.items()})

    def __mul__(self, coeff: HalfLaurent):
        if isinstance(coeff, HalfLaurent):
            return self.scale(coeff)
        return NotImplemented

    __rmul__ = __mul__


def residue(x: Rat) -> int:
    """The image of the rational x in F_P; ScalarError when P divides its denominator."""
    if not x.denominator % P:
        raise ScalarError(f"{x} does not map into F_{P}: {P} divides its denominator")
    return x.numerator * pow(x.denominator, -1, P) % P


def validate_generic_point(s0: Rat) -> Fraction:
    """Check that s0 is usable for generic-q rank computations: neither s0 nor
    its image in F_P (which must exist) is 0, 1 or -1."""
    s0 = Fraction(s0)
    if s0 in (0, 1, -1) or residue(s0) in (0, 1, P - 1):
        raise ScalarError(f"specialization point {s0} is not generic (0, 1, -1 excluded, over Q and mod {P})")
    return s0


# -- text form ---------------------------------------------------------------
#
# Term syntax used by the CLI:  -3/2*s^-5 + s^4, with q accepted as an alias
# for s^2.  The printer always emits in s; ``syntax.parse_scalar`` reads it back.


def format_scalar(x: HalfLaurent) -> str:
    if x.is_zero():
        return "0"
    parts: list[str] = []
    for e in sorted(x._terms, reverse=True):
        c = x._terms[e]
        if e == 0:
            body = str(abs(c))
        else:
            svar = "s" if e == 1 else f"s^{e}"
            body = svar if abs(c) == 1 else f"{str(abs(c))}*{svar}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
