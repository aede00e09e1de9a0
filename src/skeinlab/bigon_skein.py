"""The stated skein algebra of the bigon as a half-coribbon Hopf algebra.

All operations are defined diagrammatically on the decreasing-state basis and
extended linearly: the product stacks diagrams, the coproduct splits along
the middle arc, the antipode rotates and negates states with arc-weight
corrections, and the half-twist functional t is the counit of an inversion
along the east edge.  The coribbon functional theta is *defined* as the
convolution square t * t; its generator values are asserted in tests rather
than hard-coded, so there is a single source of truth for the twist.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .diagram import (
    UNIT_TANGLE,
    BasisTangle,
    C,
    SkeinElement,
    SliceWord,
    State,
    StatedWord,
    memoized,
    reduce as reduce_diagram,
    reduce_parallel,
    state_tuples,
)
from .scalar import ONE, ZERO, HalfLaurent, LinearCombination

#: Crossing kind used when the east half-twist braid reverses strand order.
#: The inverse twist uses the opposite kind.  Pinned by the oracle tests
#: ht_coaction(inv_edge(x)) == x and t * t == theta.
HALF_TWIST_CROSSING = "xb"
HALF_TWIST_INVERSE_CROSSING = "x"

_GEN_KEYS = {
    "a": (1, 1),
    "b": (1, -1),
    "c": (-1, 1),
    "d": (-1, -1),
}


def generator(name: str) -> SkeinElement:
    """Single-strand generator: a, b, c or d."""
    mu, nu = _GEN_KEYS[name]
    return SkeinElement.of(BasisTangle(1, (mu,), (nu,)))


class TensorElement(LinearCombination):
    """Linear combination of k-tuples of basis tangles (k-fold tensors)."""

    __slots__ = ("arity",)

    def __init__(
        self,
        arity: int,
        terms: Mapping[tuple[BasisTangle, ...], HalfLaurent]
        | Iterable[tuple[tuple[BasisTangle, ...], HalfLaurent]] = (),
    ):
        self.arity = arity
        items = list(terms.items() if isinstance(terms, dict) else terms)
        for key, _ in items:
            if len(key) != arity:
                raise ValueError(f"tensor key arity {len(key)} != {arity}")
        super().__init__(items)

    @classmethod
    def zero(cls, arity: int) -> TensorElement:
        res = super().zero()
        res.arity = arity
        return res

    def _like(self, terms):
        res = super()._like(terms)
        res.arity = self.arity
        return res

    def add_scaled(self, other: TensorElement, c: HalfLaurent = ONE) -> None:
        if self.arity != other.arity:
            raise ValueError("tensor arity mismatch")
        super().add_scaled(other, c)

    def __eq__(self, other: object) -> bool:
        if type(other) is not TensorElement:
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    __hash__ = LinearCombination.__hash__

    def __str__(self) -> str:
        from .syntax import format_tensor

        return format_tensor(self, lambda key: key)

    def __repr__(self) -> str:
        return f"TensorElement({str(self)!r})"


def tensor2(x: SkeinElement, y: SkeinElement) -> TensorElement:
    out = TensorElement.zero(2)
    for bx, cx in x.items():
        for by, cy in y.items():
            out.add_term((bx, by), cx * cy)
    return out


def linear(fn: Callable[[BasisTangle], SkeinElement]) -> Callable[[SkeinElement], SkeinElement]:
    def ext(x: SkeinElement) -> SkeinElement:
        out = SkeinElement.zero()
        for b, c in x.items():
            out.add_scaled(fn(b), c)
        return out

    return ext


# -- Hopf structure -----------------------------------------------------------


def mul(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """Product: stack x above y (x's boundary points higher on both edges)."""
    out = SkeinElement.zero()
    for bx, cx in x.items():
        for by, cy in y.items():
            out.add_scaled(reduce_parallel(bx.mu + by.mu, bx.nu + by.nu), cx * cy)
    return out


def mul_many(factors: Iterable[SkeinElement]) -> SkeinElement:
    out = SkeinElement.unit()
    for f in factors:
        out = mul(out, f)
    return out


def comul(x: SkeinElement) -> TensorElement:
    """Coproduct: split along the middle arc, summing over middle states.

    Each basis tangle is split once per process (``_comul_basis``); the
    returned element is fresh, so callers may mutate it.
    """
    out = TensorElement.zero(2)
    for b, c in x.items():
        out.add_scaled(_comul_basis(b), c)
    return out


@memoized("bigon_skein._comul_memo")
def _comul_basis(b: BasisTangle) -> TensorElement:
    """The coproduct of one basis tangle."""
    out = TensorElement.zero(2)
    for eta in state_tuples(b.n):
        out.add_scaled(tensor2(reduce_parallel(b.mu, eta), reduce_parallel(eta, b.nu)))
    return out


def counit(x: SkeinElement) -> HalfLaurent:
    return sum((c for b, c in x.items() if b.mu == b.nu), ZERO)


def _arc_product(states: tuple[State, ...]) -> HalfLaurent:
    out = ONE
    for s in states:
        out = out * C[-s, s]
    return out


def antipode(x: SkeinElement) -> SkeinElement:
    """Rotate 180 degrees, negate states, correct by arc weights C(nu)/C(mu)."""

    def on_basis(b: BasisTangle) -> SkeinElement:
        coeff = _arc_product(b.nu) * _arc_product(b.mu).inverse()
        west = tuple(-s for s in reversed(b.nu))
        east = tuple(-s for s in reversed(b.mu))
        return reduce_parallel(west, east).scale(coeff)

    return linear(on_basis)(x)


def rot_star(x: SkeinElement) -> SkeinElement:
    """Algebra automorphism induced by the 180 degree rotation of the bigon.

    The rotation swaps the two edges; boundary heights live in the thickening
    direction, which the rotation fixes, so the state order is preserved (the
    rotation reverses the induced edge orientations, which is why it reverses
    the coproduct).  On generators: a, d fixed, b <-> c.
    """

    def on_basis(b: BasisTangle) -> SkeinElement:
        return reduce_parallel(b.nu, b.mu)

    return linear(on_basis)(x)


# -- inversion along an edge and the half-twist functional --------------------


def _reversal_braid(n: int, kind: str) -> tuple[tuple[str, int], ...]:
    """Braid word reversing n strands, all crossings of the given kind."""
    slices: list[tuple[str, int]] = []
    for k in range(n - 1, 0, -1):
        for i in range(k):
            slices.append((kind, i))
    return tuple(slices)


def inv_edge(x: SkeinElement, edge: str = "east", inverse: bool = False) -> SkeinElement:
    """Inversion along a boundary edge.

    Reverses the height order of that edge's points (via a half-twist braid),
    negates each state eta, and weights by C(eta) -- or, for the inverse, by
    C(-eta)^(-1) with the opposite braid.  The image of each basis tangle is
    reduced once per process (``_inv_edge_basis``).
    """
    if edge not in ("east", "west"):
        raise ValueError("edge must be 'east' or 'west'")
    return linear(lambda b: _inv_edge_basis(b, edge, inverse))(x)


@memoized("bigon_skein._inv_edge_memo")
def _inv_edge_basis(b: BasisTangle, edge: str, inverse: bool) -> SkeinElement:
    kind = HALF_TWIST_INVERSE_CROSSING if inverse else HALF_TWIST_CROSSING
    word = SliceWord(b.n, _reversal_braid(b.n, kind))
    states = b.nu if edge == "east" else b.mu
    new_edge = tuple(-s for s in reversed(states))
    if edge == "east":
        stated = StatedWord(word, b.mu, new_edge)
    else:
        stated = StatedWord(word, new_edge, b.nu)
    coeff = ONE
    for s in states:
        coeff = coeff * (C[s, -s].inverse() if inverse else C[-s, s])
    return reduce_diagram(stated).scale(coeff)


def t_form(x: SkeinElement) -> HalfLaurent:
    """Half-coribbon functional: counit of the inverse inversion at the east edge."""
    return counit(inv_edge(x, "east", inverse=True))


def t_inv_form(x: SkeinElement) -> HalfLaurent:
    """Convolution inverse of t: counit of the inversion at the east edge."""
    return counit(inv_edge(x, "east", inverse=False))


def convolve(f: Callable[[SkeinElement], HalfLaurent], g: Callable[[SkeinElement], HalfLaurent]) -> Callable[[SkeinElement], HalfLaurent]:
    """Convolution product of two linear functionals on the bigon algebra."""

    def fg(x: SkeinElement) -> HalfLaurent:
        return sum(
            (f(SkeinElement.of(b1)) * g(SkeinElement.of(b2)) * c for (b1, b2), c in comul(x).items()),
            ZERO,
        )

    return fg


def theta_form(x: SkeinElement) -> HalfLaurent:
    """Coribbon functional, defined as the convolution square t * t."""
    return convolve(t_form, t_form)(x)


def _coact(x: SkeinElement, form: Callable[[SkeinElement], HalfLaurent]) -> SkeinElement:
    out = SkeinElement.zero()
    for (b1, b2), c in comul(x).items():
        out.add_term(b1, form(SkeinElement.of(b2)) * c)
    return out


def ht_coaction(x: SkeinElement) -> SkeinElement:
    """Half twist of the algebra coacting on itself: (id (x) t) o comul."""
    return _coact(x, t_form)


def ht_coaction_inverse(x: SkeinElement) -> SkeinElement:
    """Inverse half twist: (id (x) t^-1) o comul."""
    return _coact(x, t_inv_form)


# -- coquasitriangular structure ----------------------------------------------

_R_GEN: dict[tuple[tuple[State, State], tuple[State, State]], HalfLaurent] = {
    ((1, 1), (1, 1)): HalfLaurent.q_pow(1),
    ((1, 1), (-1, -1)): HalfLaurent.q_pow(-1),
    ((-1, -1), (1, 1)): HalfLaurent.q_pow(-1),
    ((-1, -1), (-1, -1)): HalfLaurent.q_pow(1),
    ((1, -1), (-1, 1)): HalfLaurent.q_pow(1) + HalfLaurent.q_pow(-3, -1),
}


def _split_first_strand(b: BasisTangle) -> tuple[BasisTangle, BasisTangle]:
    head = BasisTangle(1, (b.mu[0],), (b.nu[0],))
    rest = BasisTangle(b.n - 1, b.mu[1:], b.nu[1:])
    return head, rest


@memoized("bigon_skein._r_memo")
def _r_basis(bx: BasisTangle, by: BasisTangle) -> HalfLaurent:
    if bx.n == 0:
        return ONE if by.mu == by.nu else HalfLaurent.zero()
    if by.n == 0:
        return ONE if bx.mu == bx.nu else HalfLaurent.zero()
    if bx.n == 1 and by.n == 1:
        return _R_GEN.get(((bx.mu[0], bx.nu[0]), (by.mu[0], by.nu[0])), HalfLaurent.zero())
    if bx.n > 1:
        # R(g x' (x) z) = sum R(g (x) z_(1)) R(x' (x) z_(2))
        g, rest = _split_first_strand(bx)
        legs = comul(SkeinElement.of(by)).items()
        return sum((_r_basis(g, z1) * _r_basis(rest, z2) * c for (z1, z2), c in legs), ZERO)
    # R(x (x) h y') = sum R(x_(1) (x) y') R(x_(2) (x) h)
    h, rest = _split_first_strand(by)
    legs = comul(SkeinElement.of(bx)).items()
    return sum((_r_basis(x1, rest) * _r_basis(x2, h) * c for (x1, x2), c in legs), ZERO)


def r_form(x: SkeinElement, y: SkeinElement) -> HalfLaurent:
    """Co-R-matrix as a bilinear functional on the bigon algebra."""
    return sum((_r_basis(bx, by) * cx * cy for bx, cx in x.items() for by, cy in y.items()), ZERO)


def braided_opposite_mul(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """m o c: multiply after braiding, i.e. sum y_(1) x_(1) R(x_(2) (x) y_(2))."""
    out = SkeinElement.zero()
    for (x1, x2), cx in comul(x).items():
        for (y1, y2), cy in comul(y).items():
            w = _r_basis(x2, y2) * cx * cy
            if not w.is_zero():
                out.add_scaled(mul(SkeinElement.of(y1), SkeinElement.of(x1)), w)
    return out


def braided_opposite_mul_diagrammatic(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """The crossed-stacking picture of the braided opposite product.

    y's diagram is placed above x's and y's strands cross over x's, ending
    below them on the east edge; evaluated entirely by the diagram engine.
    """
    out = SkeinElement.zero()
    for bx, cx in x.items():
        for by, cy in y.items():
            p, r = by.n, bx.n
            slices: list[tuple[str, int]] = []
            for i in range(p - 1, -1, -1):
                for j in range(r):
                    slices.append(("x", i + j))
            word = SliceWord(p + r, tuple(slices))
            stated = StatedWord(word, by.mu + bx.mu, bx.nu + by.nu)
            out.add_scaled(reduce_diagram(stated), cx * cy)
    return out


# -- convenience: basis tangles by strand count ---------------------------------


def strand_tangles(n: int) -> list[BasisTangle]:
    """The (n+1)^2 basis tangles with n strands, by the + count of mu, then of nu."""
    out = []
    for i in range(n + 1):
        mu = (1,) * i + (-1,) * (n - i)
        for j in range(n + 1):
            nu = (1,) * j + (-1,) * (n - j)
            out.append(BasisTangle(n, mu, nu))
    return out


def basis_tangles(max_strands: int) -> list[BasisTangle]:
    out = [UNIT_TANGLE]
    for n in range(1, max_strands + 1):
        out.extend(strand_tangles(n))
    return out
