"""Exact ground ring: Laurent polynomials in the half-power generator s = q^(1/2).

Every coefficient showing up in bigon skein computations -- the loop value
-q^2 - q^-2, boundary arc weights like q^(-1/2) and -q^(5/2), twist factors
-q^(+/-3) -- is a Laurent polynomial in q^(1/2) with integer coefficients.
Coefficients are stored as ``int`` and fall back to ``Fraction`` only where a
value is not integral (rational input, exact division), so the engine's
arithmetic runs on Python ints.  Working with the generator s (so q = s^2)
keeps all exponents integral and makes equality of scalars a structural
comparison of canonical term maps; ``Fraction(n, 1)`` and ``n`` compare and
hash equal, so either form of an integral value is canonical.

Rank computations elsewhere specialize s at nonzero rational points other
than +/-1.  Such a point is never a root of unity, but it can still be a root
of some minor, so a value at one point is a one-sided bound, not the generic
value: specialization can only lower a rank, so a rank at a point is a lower
bound on the generic rank, and a kernel dimension at a point is an upper
bound on the generic kernel dimension.

Every algebra element (skein elements, tensors, PBW normal forms) is a
finite sum of basis keys with such coefficients: :class:`LinearCombination`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from string import digits
from typing import Hashable, Iterable, ItemsView, Mapping, Union

Rat = Union[int, Fraction]

#: Largest exponent magnitude either text parser accepts after ``^``.  Larger
#: powers are refused before any work, so input such as ``9^9999999`` fails
#: at once instead of hanging.  At this bound ``(1+s)^256`` parses in about
#: 0.04 s and the element ``a^256`` in about 0.12 s on a 2-core x86 host,
#: while printed results of long words stay parseable (a 60-crossing braid
#: of width 7 reduces to exponents up to 96).
MAX_EXPONENT = 256

#: Largest predicted size of a result of ``^``, in the units of
#: ``HalfLaurent.bit_size`` summed over terms, that either text parser
#: computes.  Exponents alone do not bound the work: ``((1+s)^64)^64``
#: predicts 16.8M bits and ``(9/7+s+q)^256`` 0.96M, and both are refused at
#: the operator, while ``(1+s)^256`` predicts 66k.
MAX_POWER_BITS = 1 << 18
POWER_SIZE_MESSAGE = f"result of ^ exceeds the size bound of {MAX_POWER_BITS} coefficient bits"


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
    structural equality.  Instances are treated as immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Rat] | Iterable[tuple[int, Rat]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        canon: dict[int, Rat] = {}
        for e, c in items:
            c = _rat(c)
            if c:
                acc = canon.get(e)
                tot = c if acc is None else acc + c
                if tot:
                    canon[e] = tot
                elif acc is not None:
                    del canon[e]
        self._terms = canon

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

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

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
        if isinstance(other, HalfLaurent):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == HalfLaurent.rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: HalfLaurent) -> HalfLaurent:
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            tot = c if acc is None else acc + c
            if tot:
                out[e] = tot
            elif acc is not None:
                del out[e]
        res = HalfLaurent.__new__(HalfLaurent)
        res._terms = out
        return res

    def __sub__(self, other: HalfLaurent) -> HalfLaurent:
        return self + (-other)

    def __neg__(self) -> HalfLaurent:
        res = HalfLaurent.__new__(HalfLaurent)
        res._terms = {e: -c for e, c in self._terms.items()}
        return res

    def __mul__(self, other: HalfLaurent | Rat) -> HalfLaurent:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        out: dict[int, Rat] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                acc = out.get(e)
                tot = c1 * c2 if acc is None else acc + c1 * c2
                if tot:
                    out[e] = tot
                elif acc is not None:
                    del out[e]
        res = HalfLaurent.__new__(HalfLaurent)
        res._terms = out
        return res

    def __rmul__(self, other: Rat) -> HalfLaurent:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, r: Rat) -> HalfLaurent:
        r = _rat(r)
        if not r:
            return HalfLaurent.zero()
        res = HalfLaurent.__new__(HalfLaurent)
        res._terms = {e: c * r for e, c in self._terms.items()}
        return res

    def __pow__(self, n: int) -> HalfLaurent:
        if n < 0:
            return self.inverse() ** (-n)
        out = HalfLaurent.one()
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

    def divide_exact(self, other: HalfLaurent) -> HalfLaurent:
        """Exact quotient self / other in Q[s, s^-1]; raises if not divisible."""
        if other.is_zero():
            raise ScalarError("division by zero")
        if self.is_zero():
            return HalfLaurent.zero()
        # Shift both to ordinary polynomials and do long division by the
        # leading term of the divisor.
        num = dict(self._terms)
        den = other._terms
        dlead = max(den)
        dc = den[dlead]
        # A true quotient has its top exponent at max(num)-dlead and its
        # bottom at min(num)-min(den); anything below that means a residue.
        floor = min(num) - min(den)
        quot: dict[int, Rat] = {}
        while num:
            nlead = max(num)
            # Fraction, never int / int: true division of ints is a float.
            qe, qc = nlead - dlead, Fraction(num[nlead], dc)
            if qe < floor:
                raise ScalarError("not exactly divisible")
            quot[qe] = qc
            for e, c in den.items():
                ee = e + qe
                acc = num.get(ee, 0) - c * qc
                if acc:
                    num[ee] = acc
                elif ee in num:
                    del num[ee]
        return HalfLaurent(quot)

    # -- evaluation --------------------------------------------------------

    def specialize(self, s0: Rat) -> Fraction:
        """Exact evaluation at s = s0 (s0 must be nonzero)."""
        s0 = Fraction(s0)
        if not s0:
            raise ScalarError("specialization point s0 must be nonzero")
        return sum((c * s0**e for e, c in self._terms.items()), Fraction(0))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"HalfLaurent({format_scalar(self)!r})"


ZERO = HalfLaurent.zero()
ONE = HalfLaurent.one()
S = HalfLaurent.s_pow(1)
Q = HalfLaurent.q_pow(1)

#: Kauffman loop value -q^2 - q^-2.
LOOP = HalfLaurent({4: -1, -4: -1})

MINUS_ONE = -ONE


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
        return cls()

    @classmethod
    def of(cls, key: Hashable, coeff: HalfLaurent = ONE):
        return cls({key: coeff})

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
        if not c:
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
        if not c:
            return
        add = self.add_term
        if c is ONE:
            for key, v in other._terms.items():
                add(key, v)
        else:
            for key, v in other._terms.items():
                add(key, v * c)

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
        if not coeff:
            return self._like({})
        return self._like({key: c * coeff for key, c in self._terms.items()})

    def __mul__(self, coeff: HalfLaurent):
        if isinstance(coeff, HalfLaurent):
            return self.scale(coeff)
        return NotImplemented

    __rmul__ = __mul__


def validate_generic_point(s0: Rat) -> Fraction:
    """Check that s0 is usable for generic-q rank computations."""
    s0 = Fraction(s0)
    if s0 in (0, 1, -1):
        raise ScalarError(f"specialization point {s0} is not generic (0, 1, -1 excluded)")
    return s0


# -- text form ---------------------------------------------------------------
#
# Term syntax used by the CLI:  -3/2*s^-5 + s^4, with q accepted as an alias
# for s^2.  The printer always emits in s.


def _coeff_str(c: Rat) -> str:
    return str(c)


def format_scalar(x: HalfLaurent) -> str:
    if x.is_zero():
        return "0"
    parts: list[str] = []
    for e in sorted(x._terms, reverse=True):
        c = x._terms[e]
        if e == 0:
            body = _coeff_str(abs(c))
        else:
            svar = "s" if e == 1 else f"s^{e}"
            body = svar if abs(c) == 1 else f"{_coeff_str(abs(c))}*{svar}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class ScalarParseError(ScalarError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


class _ScalarParser:
    """Recursive-descent parser for scalar expressions in s and q."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ScalarParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() in ("+", "-"):
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in digits:
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ScalarParseError("expected integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # beyond Python's int-string conversion limit
            raise ScalarParseError(
                f"integer literal of {self.pos - start} digits is too long", start
            ) from None

    def parse(self) -> HalfLaurent:
        val = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ScalarParseError("trailing input", self.pos)
        return val

    def expr(self) -> HalfLaurent:
        terms = [self.term()]
        while self._peek() in ("+", "-"):
            negate = self._peek() == "-"
            self.pos += 1
            rhs = self.term()
            terms.append(-rhs if negate else rhs)
        return sum(terms, ZERO)

    def term(self) -> HalfLaurent:
        val = self.factor()
        while self._peek() == "*":
            self.pos += 1
            val = val * self.factor()
        return val

    def factor(self) -> HalfLaurent:
        if self._peek() == "-":
            self.pos += 1
            return -self.factor()
        return self.power()

    def power(self) -> HalfLaurent:
        base = self.atom()
        if self._peek() == "^":
            op = self.pos
            self.pos += 1
            self._skip_ws()
            start = self.pos
            e = self._int()
            if abs(e) > MAX_EXPONENT:
                raise ScalarParseError(f"exponent {e} exceeds the bound {MAX_EXPONENT}", start)
            if base.power_bits(e) > MAX_POWER_BITS:
                raise ScalarParseError(POWER_SIZE_MESSAGE, op)
            return base**e
        return base

    def atom(self) -> HalfLaurent:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            val = self.expr()
            self._expect(")")
            return val
        if ch == "s":
            self.pos += 1
            return S
        if ch == "q":
            self.pos += 1
            return Q
        if ch and ch in digits:
            num = self._int()
            if self._peek() == "/":
                self.pos += 1
                den = self._int()
                if den == 0:
                    raise ScalarParseError("zero denominator", self.pos)
                return HalfLaurent.rational(Fraction(num, den))
            return HalfLaurent.rational(num)
        raise ScalarParseError("expected scalar atom", self.pos)


def parse_scalar(text: str) -> HalfLaurent:
    """Parse the scalar text syntax; inverse of :func:`format_scalar`."""
    return _ScalarParser(text).parse()
