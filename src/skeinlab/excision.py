"""Degreewise gluing checks: splitting image, cotensor kernel, invariants.

Gluing two bigons along an edge gives back a bigon, and the splitting map
(the coproduct) identifies the glued algebra with the cotensor subspace of
the tensor square.  The coproduct preserves the strand-count filtration (not
the strand count itself: reduction of split legs can drop strand pairs), so
checks run on the finite filtration pieces

    F_n = span of basis tangles with k strands, k <= n, k == n (mod 2),

of dimension D_n = sum (k+1)^2.  On F_n (x) F_n the splitting image, the
cotensor kernel and all three invariants descriptions coincide exactly, with
dimension D_n; the degree-n increment D_n - D_(n-2) = (n+1)^2 counts the new
dimensions contributed by n-strand diagrams.

The three descriptions of the glued subspace:

* ``inv``      invariants of the product-merged coaction (east coaction on
               the first factor, antipode-switched west coaction on the
               second),
* ``hh0_L``    the Hochschild-style kernel with the first factor switched to
               a left comodule by the antipode,
* ``hh0_l_ht`` the same kernel with the first factor switched by the edge
               rotation after the half-twist coaction (untwisted again by
               the convolution inverse),

whose mutual equality is the executable content of the half-twist bridge
between the two switch functors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import bigon_skein, linalg
from .bigon_skein import TensorElement
from .diagram import BasisTangle, SkeinElement, register_memo
from .scalar import MINUS_ONE, validate_generic_point

Key2 = tuple[BasisTangle, BasisTangle]
Key3 = tuple[BasisTangle, BasisTangle, BasisTangle]

VARIANTS = ("inv", "hh0_L", "hh0_l_ht")


@dataclass(frozen=True)
class FiltrationComponent:
    """F_n: all basis tangles with at most n strands of the same parity."""

    n: int
    basis: tuple[BasisTangle, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("degree must be nonnegative")
        tangles: list[BasisTangle] = []
        for k in range(n_start(self.n), self.n + 1, 2):
            tangles.extend(bigon_skein.strand_tangles(k))
        object.__setattr__(self, "basis", tuple(tangles))

    @property
    def dimension(self) -> int:
        return len(self.basis)


def n_start(n: int) -> int:
    return n % 2


def filtration_dimension(n: int) -> int:
    if n < 0:
        return 0
    return sum((k + 1) ** 2 for k in range(n_start(n), n + 1, 2))


def degree_increment(n: int) -> int:
    """New dimensions appearing at strand count n: D_n - D_(n-2) = (n+1)^2."""
    return filtration_dimension(n) - filtration_dimension(n - 2)


# -- iterated coproducts --------------------------------------------------------


def _expand_last(t: TensorElement) -> TensorElement:
    """Apply the coproduct to the last slot, raising arity by one."""
    out = TensorElement.zero(t.arity + 1)
    for key, c in t.items():
        for (b1, b2), cc in bigon_skein.comul(SkeinElement.of(key[-1])).items():
            out.add_term(key[:-1] + (b1, b2), c * cc)
    return out


def comul_n(x: SkeinElement, folds: int) -> TensorElement:
    if folds < 2:
        raise ValueError("need at least a 2-fold coproduct")
    out = bigon_skein.comul(x)
    while out.arity < folds:
        out = _expand_last(out)
    return out


def check_coassociativity(n: int) -> tuple[bool, str | None]:
    """(comul (x) id) o comul == (id (x) comul) o comul, exact, on F_n."""
    for b in FiltrationComponent(n).basis:
        x = SkeinElement.of(b)
        two = bigon_skein.comul(x)
        left = TensorElement.zero(3)
        for (b1, b2), c in two.items():
            for (b11, b12), cc in bigon_skein.comul(SkeinElement.of(b1)).items():
                left.add_term((b11, b12, b2), c * cc)
        right = _expand_last(two)
        if left != right:
            return False, f"coassociativity fails on {b}"
    return True, None


# -- linear-map plumbing over the tensor square of a filtration piece -----------


def _pair_index(comp: FiltrationComponent) -> dict[Key2, int]:
    d = comp.dimension
    return {
        (b1, b2): i * d + j
        for i, b1 in enumerate(comp.basis)
        for j, b2 in enumerate(comp.basis)
    }


def _kernel_of_map(comp: FiltrationComponent, name: str, s0: Fraction) -> list[list[Fraction]]:
    """Kernel at s0 of the defect map ``_DEFECTS[name]`` on F_n (x) F_n."""
    index = _pair_index(comp)
    rows: dict[Key3, dict[int, Fraction]] = {}
    for (b1, b2), col in index.items():
        for key, coeff in _defect_image(name, b1, b2).items():
            v = coeff.specialize(s0)
            if v:
                row = rows.setdefault(key, {})
                row[col] = row.get(col, Fraction(0)) + v
    return linalg.kernel_basis(rows.values(), comp.dimension**2)


def cotensor_defect(b1: BasisTangle, b2: BasisTangle) -> TensorElement:
    """(comul (x) id - id (x) comul) applied to a basis pair."""
    out = TensorElement.zero(3)
    for (u, v), c in bigon_skein.comul(SkeinElement.of(b1)).items():
        out.add_term((u, v, b2), c)
    for (u, v), c in bigon_skein.comul(SkeinElement.of(b2)).items():
        out.add_term((b1, u, v), -c)
    return out


def merged_invariance_defect(b1: BasisTangle, b2: BasisTangle) -> TensorElement:
    """Product-merged coaction minus (identity (x) unit) on a basis pair.

    The merged coaction sends a (x) b to a_(1) (x) b_(2) (x) a_(2) . S(b_(1)):
    the east leg of the first factor multiplied against the antipode-switched
    west leg of the second.  Fixed vectors form the invariants.
    """
    out = TensorElement.zero(3)
    for (a1, a2), ca in bigon_skein.comul(SkeinElement.of(b1)).items():
        for (bw, br), cb in bigon_skein.comul(SkeinElement.of(b2)).items():
            prod = bigon_skein.mul(
                SkeinElement.of(a2), bigon_skein.antipode(SkeinElement.of(bw))
            )
            for b3, c3 in prod.items():
                out.add_term((a1, br, b3), ca * cb * c3)
    out.add_term((b1, b2, BasisTangle.unit()), MINUS_ONE)
    return out


def hh0_defect_L(b1: BasisTangle, b2: BasisTangle) -> TensorElement:
    """B-side switch minus A-side switch, both through the antipode.

    Condition: sum a (x) b_(2) (x) S(b_(1))  ==  sum a_(1) (x) b (x) S(a_(2)).
    """
    out = TensorElement.zero(3)
    for (bw, br), cb in bigon_skein.comul(SkeinElement.of(b2)).items():
        for b3, c3 in bigon_skein.antipode(SkeinElement.of(bw)).items():
            out.add_term((b1, br, b3), cb * c3)
    for (a1, a2), ca in bigon_skein.comul(SkeinElement.of(b1)).items():
        for b3, c3 in bigon_skein.antipode(SkeinElement.of(a2)).items():
            out.add_term((a1, b2, b3), -(ca * c3))
    return out


def hh0_defect_l_ht(b1: BasisTangle, b2: BasisTangle) -> TensorElement:
    """Same kernel with the A-side switched by rotation after the half twist.

    The A-side avoids the antipode entirely: expand the coproduct four-fold,
    contract the half-twist functional into leg 2 and its convolution inverse
    into leg 4, rotate leg 3.  Agreement with the antipode route is the
    executable form of the left-switch bridge identity.
    """
    out = TensorElement.zero(3)
    for (bw, br), cb in bigon_skein.comul(SkeinElement.of(b2)).items():
        for b3, c3 in bigon_skein.antipode(SkeinElement.of(bw)).items():
            out.add_term((b1, br, b3), cb * c3)
    four = comul_n(SkeinElement.of(b1), 4)
    for (a1, a2, a3, a4), c in four.items():
        w = (
            bigon_skein.t_form(SkeinElement.of(a2))
            * bigon_skein.t_inv_form(SkeinElement.of(a4))
            * c
        )
        if w.is_zero():
            continue
        for b3, c3 in bigon_skein.rot_star(SkeinElement.of(a3)).items():
            out.add_term((a1, b2, b3), -(w * c3))
    return out


#: The cotensor defect, then one defect map per variant, by name.
_DEFECTS: dict[str, Callable[[BasisTangle, BasisTangle], TensorElement]] = {
    "cotensor": cotensor_defect,
    "inv": merged_invariance_defect,
    "hh0_L": hh0_defect_L,
    "hh0_l_ht": hh0_defect_l_ht,
}

_defect_memo: dict[tuple[str, BasisTangle, BasisTangle], TensorElement] = register_memo(
    "excision._defect_memo", {}
)


def _defect_image(name: str, b1: BasisTangle, b2: BasisTangle) -> TensorElement:
    """Symbolic image of a basis pair under a defect map, computed once per process.

    It does not depend on the specialization point or on the filtration
    degree (F_(n-2) is spanned by part of the basis of F_n).
    """
    key = (name, b1, b2)
    hit = _defect_memo.get(key)
    if hit is None:
        hit = _defect_memo[key] = _DEFECTS[name](b1, b2)
    return hit


def invariants_subspace(n: int, variant: str, s0: Fraction) -> list[list[Fraction]]:
    """Row basis (at s0) of one description of the glued subspace in F_n (x) F_n."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    s0 = validate_generic_point(s0)
    return _kernel_of_map(FiltrationComponent(n), variant, s0)


def comul_image_rows(n: int, s0: Fraction) -> list[list[Fraction]]:
    """The splitting image: specialized coproducts of the F_n basis."""
    comp = FiltrationComponent(n)
    index = _pair_index(comp)
    rows = []
    for b in comp.basis:
        vec = [Fraction(0)] * comp.dimension**2
        for (u, v), c in bigon_skein.comul(SkeinElement.of(b)).items():
            vec[index[(u, v)]] += c.specialize(s0)
        rows.append(vec)
    return rows


@dataclass
class GluingReport:
    n: int
    s0: Fraction
    dims: dict[str, int]
    increments: dict[str, int]
    expected_filtration: int
    expected_increment: int
    subspaces_equal: bool
    pullback_ok: bool
    image_in_kernels: bool

    @property
    def passed(self) -> bool:
        return (
            all(d == self.expected_filtration for d in self.dims.values())
            and all(d == self.expected_increment for d in self.increments.values())
            and self.subspaces_equal
            and self.pullback_ok
            and self.image_in_kernels
        )


def _all_subspaces(n: int, s0: Fraction) -> dict[str, list[list[Fraction]]]:
    if n < 0:
        return {}
    comp = FiltrationComponent(n)
    spaces = {"image": comul_image_rows(n, s0)}
    for name in _DEFECTS:
        spaces[name] = _kernel_of_map(comp, name, s0)
    return spaces


def splitting_image_in_kernel(n: int, name: str) -> bool:
    """Exact: the defect map ``name`` kills comul(b) for every basis tangle b of F_n."""
    for b in FiltrationComponent(n).basis:
        total = TensorElement.zero(3)
        for (u, v), c in bigon_skein.comul(SkeinElement.of(b)).items():
            total.add_scaled(_defect_image(name, u, v), c)
        if total:
            return False
    return True


def gluing_excision_check(n: int, s0: Fraction, seed: int = 0) -> GluingReport:
    """Splitting image == cotensor == all invariants variants on F_n, at s0.

    The splitting image lies exactly in the cotensor kernel and in each
    variant kernel (an identity of Laurent polynomials,
    ``splitting_image_in_kernel``; for the cotensor it is coassociativity).
    At s0 the image rank is a lower bound on the generic dimension of the
    image, and each kernel dimension an upper bound on the generic dimension
    of its kernel (see ``linalg``).  When all five dimensions equal D_n the
    bounds close, and the image equals every kernel generically, not only at
    s0.
    """
    s0 = validate_generic_point(s0)
    spaces = _all_subspaces(n, s0)
    canon = {name: linalg.row_space_basis(rows) for name, rows in spaces.items()}
    dims = {name: len(basis) for name, basis in canon.items()}
    prev_dims = {name: linalg.rank(rows) for name, rows in _all_subspaces(n - 2, s0).items()}
    increments = {name: dims[name] - prev_dims.get(name, 0) for name in dims}
    subspaces_equal = all(canon[name] == canon["image"] for name in canon)

    # Pull a pseudorandom invariant vector back through the splitting map.
    rng = random.Random(seed)
    image = spaces["image"]
    inv_rows = spaces["inv"]
    pullback_ok = True
    if inv_rows:
        target = [Fraction(0)] * len(inv_rows[0])
        for row in inv_rows:
            w = Fraction(rng.randint(-3, 3))
            target = [t + w * x for t, x in zip(target, row)]
        cols = [list(col) for col in zip(*image)]  # solve x . image = target
        sol = linalg.solve(cols, target)
        pullback_ok = sol is not None
        if sol is not None:
            residual = [
                sum(sol[i] * image[i][j] for i in range(len(image)))
                - target[j]
                for j in range(len(target))
            ]
            pullback_ok = not any(residual)
    return GluingReport(
        n=n,
        s0=s0,
        dims=dims,
        increments=increments,
        expected_filtration=filtration_dimension(n),
        expected_increment=degree_increment(n),
        subspaces_equal=subspaces_equal,
        pullback_ok=pullback_ok,
        image_in_kernels=all(splitting_image_in_kernel(n, name) for name in _DEFECTS),
    )
