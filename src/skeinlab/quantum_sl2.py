"""Presentation-based quantum coordinate algebra of SL2 at parameter q^2.

Generators a, b, c, d subject to

    ca = q^2 ac,  db = q^2 bd,  ba = q^2 ab,  dc = q^2 cd,
    bc = cb,      ad - q^-2 bc = 1,   da - q^2 cb = 1,

with the matrix coproduct, counit and antipode.  Normal forms are the PBW
monomials a^i b^j c^k together with d^l b^j c^k (l >= 1): eliminating every
adjacent a,d pair strictly drops degree, so rewriting terminates and the two
families are a linear basis.

Also provided: the dual pairing with the quantized enveloping algebra
generators E, F, K, K^-1, and the transport isomorphism to and from the
bigon skein algebra (a <-> beta(+;+) etc.).

As in ``bigon_skein``, each map is a memoized form on basis keys plus its
linear extension: ``mul_basis`` per pair of PBW monomials, ``comul_basis``
and ``to_skein_basis`` per monomial, ``_pair_gen_mono`` per enveloping
generator and monomial, and ``from_skein_basis`` per basis tangle.  A
form's result is shared, so callers must not mutate it; ``mul``, ``comul``,
``to_skein``, ``from_skein`` and ``pairing`` return new values, and
``HopfTensor.mul`` multiplies leg by leg through ``mul_basis``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import bigon_skein
from .diagram import BasisTangle, SkeinElement, memoized
from .scalar import ONE, ZERO, HalfLaurent, InternedKey, LinearCombination

U_GENERATORS = ("E", "F", "K", "Kinv")


class PBWMonomial(InternedKey):
    """a^a_pow d^d_pow b^b_pow c^c_pow with a_pow * d_pow == 0."""

    __slots__ = ("a_pow", "d_pow", "b_pow", "c_pow")
    _interned: dict[tuple[int, int, int, int], PBWMonomial] = {}

    def __new__(cls, a_pow: int, d_pow: int, b_pow: int, c_pow: int) -> PBWMonomial:
        self = cls._interned.get((a_pow, d_pow, b_pow, c_pow))
        if self is None:
            if min(a_pow, d_pow, b_pow, c_pow) < 0:
                raise ValueError("negative exponent in PBW monomial")
            if a_pow and d_pow:
                raise ValueError("a and d cannot both appear in a PBW monomial")
            self = cls._make((a_pow, d_pow, b_pow, c_pow))
        return self

    @property
    def degree(self) -> int:
        return self.a_pow + self.d_pow + self.b_pow + self.c_pow

    def letters(self) -> Iterator[str]:
        yield from "a" * self.a_pow
        yield from "d" * self.d_pow
        yield from "b" * self.b_pow
        yield from "c" * self.c_pow

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for letter, p in (("a", self.a_pow), ("d", self.d_pow), ("b", self.b_pow), ("c", self.c_pow)):
            if p == 1:
                parts.append(letter)
            elif p > 1:
                parts.append(f"{letter}^{p}")
        return "*".join(parts)


PBW_ONE = PBWMonomial(0, 0, 0, 0)


class HopfElement(LinearCombination):
    """Linear combination of PBW monomials with HalfLaurent coefficients."""

    __slots__ = ()

    @classmethod
    def one(cls) -> HopfElement:
        return cls({PBW_ONE: ONE})

    def __str__(self) -> str:
        from .syntax import format_hopf

        return format_hopf(self)

    def __repr__(self) -> str:
        return f"HopfElement({str(self)!r})"


def _mono_times_letter(m: PBWMonomial, letter: str) -> HopfElement:
    """Right-multiply a PBW monomial by one generator, renormalizing.

    A unit coefficient is ``ONE``, which ``LinearCombination.add_scaled`` and
    the lift products of ``internal_skein`` do not multiply by.
    """
    i, l, j, k = m.a_pow, m.d_pow, m.b_pow, m.c_pow
    if letter == "b":
        return HopfElement.of(PBWMonomial(i, l, j + 1, k))
    if letter == "c":
        return HopfElement.of(PBWMonomial(i, l, j, k + 1))
    if letter == "a":
        coeff = HalfLaurent.q_pow(2 * (j + k)) if j + k else ONE
        if l == 0:
            return HopfElement.of(PBWMonomial(i + 1, 0, j, k), coeff)
        # d^l a = d^(l-1) + q^2 d^(l-1) b c
        return HopfElement(
            {
                PBWMonomial(0, l - 1, j, k): coeff,
                PBWMonomial(0, l - 1, j + 1, k + 1): coeff * HalfLaurent.q_pow(2),
            }
        )
    if letter == "d":
        coeff = HalfLaurent.q_pow(-2 * (j + k)) if j + k else ONE
        if i == 0:
            return HopfElement.of(PBWMonomial(0, l + 1, j, k), coeff)
        # a^i d = a^(i-1) + q^-2 a^(i-1) b c
        return HopfElement(
            {
                PBWMonomial(i - 1, 0, j, k): coeff,
                PBWMonomial(i - 1, 0, j + 1, k + 1): coeff * HalfLaurent.q_pow(-2),
            }
        )
    raise ValueError(f"unknown generator {letter!r}")


def _times_letter(x: HopfElement, letter: str) -> HopfElement:
    out = HopfElement.zero()
    for m, c in x.items():
        out.add_scaled(_mono_times_letter(m, letter), c)
    return out


def normalize(word: Iterable[str]) -> HopfElement:
    """Normal form of a free word in the generators a, b, c, d."""
    out = HopfElement.one()
    for letter in word:
        out = _times_letter(out, letter)
    return out


@memoized("quantum_sl2._mul_memo")
def mul_basis(m: PBWMonomial, n: PBWMonomial) -> HopfElement:
    """Normal form of the product m n: m right-multiplied by n's letters."""
    out = HopfElement.of(m)
    for letter in n.letters():
        out = _times_letter(out, letter)
    return out


def mul(x: HopfElement, y: HopfElement) -> HopfElement:
    out = HopfElement.zero()
    for m, c in x.items():
        for n, d in y.items():
            out.add_scaled(mul_basis(m, n), c * d)
    return out


def gen(letter: str) -> HopfElement:
    return normalize(letter)


# -- coalgebra structure -------------------------------------------------------

def _letter_mono(letter: str) -> PBWMonomial:
    return PBWMonomial(int(letter == "a"), int(letter == "d"), int(letter == "b"), int(letter == "c"))


_COPRODUCT_LETTER: dict[str, tuple[tuple[str, str], ...]] = {
    "a": (("a", "a"), ("b", "c")),
    "b": (("a", "b"), ("b", "d")),
    "c": (("c", "a"), ("d", "c")),
    "d": (("c", "b"), ("d", "d")),
}


class HopfTensor(LinearCombination):
    """Two-fold tensors of normal-form elements."""

    __slots__ = ()

    @classmethod
    def one(cls) -> HopfTensor:
        return cls({(PBW_ONE, PBW_ONE): ONE})

    def mul(self, other: HopfTensor) -> HopfTensor:
        out = HopfTensor()
        for (m1, m2), c in self.items():
            for (n1, n2), d in other.items():
                right = mul_basis(m2, n2).items()
                for p1, c1 in mul_basis(m1, n1).items():
                    for p2, c2 in right:
                        out.add_term((p1, p2), c * d * c1 * c2)
        return out

    def __str__(self) -> str:
        from .syntax import format_tensor

        return format_tensor(self, lambda key: (key[0].degree + key[1].degree, key))

    def __repr__(self) -> str:
        return f"HopfTensor({str(self)!r})"


@memoized("quantum_sl2._comul_memo")
def comul_basis(m: PBWMonomial) -> HopfTensor:
    """Coproduct of a PBW monomial: the product of its letters' coproducts."""
    out = HopfTensor.one()
    for letter in m.letters():
        step = HopfTensor({(_letter_mono(l1), _letter_mono(l2)): ONE for l1, l2 in _COPRODUCT_LETTER[letter]})
        out = out.mul(step)
    return out


comul = bigon_skein.linear(comul_basis, HopfTensor)


def counit(x: HopfElement) -> HalfLaurent:
    return sum((c for m, c in x.items() if m.b_pow == 0 and m.c_pow == 0), ZERO)


_ANTIPODE_LETTER: dict[str, HopfElement] = {
    "a": gen("d"),
    "b": gen("b").scale(HalfLaurent.q_pow(2, -1)),
    "c": gen("c").scale(HalfLaurent.q_pow(-2, -1)),
    "d": gen("a"),
}


def antipode(x: HopfElement) -> HopfElement:
    """Antipode: anti-algebra map with S(a)=d, S(b)=-q^2 b, S(c)=-q^-2 c, S(d)=a."""
    out = HopfElement.zero()
    for m, c in x.items():
        part = HopfElement.one()
        for letter in reversed(list(m.letters())):
            part = mul(part, _ANTIPODE_LETTER[letter])
        out.add_scaled(part, c)
    return out


# -- dual pairing with the quantized enveloping algebra ------------------------

_PAIR_LETTER: dict[str, dict[str, HalfLaurent]] = {
    "K": {"a": HalfLaurent.q_pow(2), "d": HalfLaurent.q_pow(-2)},
    "Kinv": {"a": HalfLaurent.q_pow(-2), "d": HalfLaurent.q_pow(2)},
    "E": {"b": ONE},
    "F": {"c": ONE},
}

_U_COUNIT = {"K": ONE, "Kinv": ONE, "E": HalfLaurent.zero(), "F": HalfLaurent.zero()}


@memoized("quantum_sl2._pair_memo")
def _pair_gen_mono(g: str, m: PBWMonomial) -> HalfLaurent:
    """<g, m> for one enveloping-algebra generator and one PBW monomial."""
    letters = list(m.letters())
    if not letters:
        return _U_COUNIT[g]
    if len(letters) == 1:
        return _PAIR_LETTER[g].get(letters[0], HalfLaurent.zero())
    x, rest = letters[0], PBWMonomial(
        m.a_pow - (letters[0] == "a"),
        m.d_pow - (letters[0] == "d"),
        m.b_pow - (letters[0] == "b"),
        m.c_pow - (letters[0] == "c"),
    )
    head = _letter_mono(x)
    if g in ("K", "Kinv"):
        return _pair_gen_mono(g, head) * _pair_gen_mono(g, rest)
    if g == "E":
        # <E, xy> = eps(x) <E,y> + <E,x> <K,y>
        return counit(HopfElement.of(head)) * _pair_gen_mono("E", rest) + _pair_gen_mono(
            "E", head
        ) * _pair_gen_mono("K", rest)
    if g == "F":
        # <F, xy> = <K^-1,x> <F,y> + <F,x> eps(y)
        return _pair_gen_mono("Kinv", head) * _pair_gen_mono("F", rest) + _pair_gen_mono(
            "F", head
        ) * counit(HopfElement.of(rest))
    raise ValueError(f"unknown enveloping generator {g!r}")


def pairing(word: Sequence[str], x: HopfElement) -> HalfLaurent:
    """<u, x> for u a word in E, F, K, Kinv, extended by <uu', y> = <u,y1><u',y2>."""
    for g in word:
        if g not in U_GENERATORS:
            raise ValueError(f"unknown enveloping generator {g!r}")
    if not word:
        return counit(x)
    if len(word) == 1:
        return sum((_pair_gen_mono(word[0], m) * c for m, c in x.items()), ZERO)
    g, rest = word[0], word[1:]
    legs = ((_pair_gen_mono(g, m1), m2, c) for (m1, m2), c in comul(x).items())
    return sum((left * pairing(rest, HopfElement.of(m2)) * c for left, m2, c in legs if left), ZERO)


# -- transport to and from the bigon skein algebra -----------------------------

_TANGLE_TO_LETTER = {v: k for k, v in bigon_skein._GEN_KEYS.items()}


@memoized("quantum_sl2._to_skein_memo")
def to_skein_basis(m: PBWMonomial) -> SkeinElement:
    """The product of the generator tangles of m's letters."""
    return bigon_skein.mul_many(bigon_skein.generator(letter) for letter in m.letters())


@memoized("quantum_sl2._from_skein_memo")
def from_skein_basis(b: BasisTangle) -> HopfElement:
    """The normal form of b's strand-wise word."""
    return normalize(_TANGLE_TO_LETTER[(b.mu[i], b.nu[i])] for i in range(b.n))


to_skein = bigon_skein.linear(to_skein_basis)
from_skein = bigon_skein.linear(from_skein_basis, HopfElement.zero)


def pbw_monomials(max_degree: int) -> list[PBWMonomial]:
    out = []
    for deg in range(max_degree + 1):
        for j in range(deg + 1):
            for k in range(deg + 1 - j):
                r = deg - j - k
                out.append(PBWMonomial(r, 0, j, k))
                if r >= 1:
                    out.append(PBWMonomial(0, r, j, k))
    return out


