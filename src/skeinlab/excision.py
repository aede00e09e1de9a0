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

Every defect map is composed of maps of one basis tangle at a time: the
coproduct, the right antipode switch b -> sum b_(2) (x) S(b_(1)), the left
antipode switch a -> sum a_(1) (x) S(a_(2)) and the half-twist switch
a -> sum a_(1) (x) rot(t(a_(2)) a_(3) t^-1(a_(4))).  ``cotensor``, ``hh0_L``
and ``hh0_l_ht`` are b1 placed next to a one-sided map of b2 minus a
one-sided map of b1 placed next to b2, and ``inv`` multiplies the east leg of
comul(b1) against the right switch of b2.  Each one-sided image is symbolic,
independent of the point and the degree, and computed once per process
(``_switch_memo``); the pair images are recomposed at every point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import bigon_skein, linalg
from .bigon_skein import TensorElement
from .diagram import BasisTangle, SkeinElement, register_memo
from .linalg import SparseRow
from .scalar import MINUS_ONE, P, residue, validate_generic_point

VARIANTS = ("inv", "hh0_L", "hh0_l_ht")


def filtration_basis(n: int) -> tuple[BasisTangle, ...]:
    """F_n: all basis tangles with at most n strands of the same parity."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(b for k in range(n % 2, n + 1, 2) for b in bigon_skein.strand_tangles(k))


def filtration_dimension(n: int) -> int:
    if n < 0:
        return 0
    return sum((k + 1) ** 2 for k in range(n % 2, n + 1, 2))


def degree_increment(n: int) -> int:
    """New dimensions appearing at strand count n: D_n - D_(n-2) = (n+1)^2."""
    return filtration_dimension(n) - filtration_dimension(n - 2)


# -- one-sided switch maps and the defect maps built from them -----------------


def _antipode_switch(b: BasisTangle, leg: int) -> TensorElement:
    """comul(b) with leg ``leg`` switched by the antipode and put second:
    leg 0 gives b -> sum b_(2) (x) S(b_(1)), leg 1 gives b -> sum b_(1) (x) S(b_(2))."""
    out = TensorElement.zero(2)
    for legs, c in bigon_skein.comul(SkeinElement.of(b)).items():
        for b3, c3 in bigon_skein.antipode(SkeinElement.of(legs[leg])).items():
            out.add_term((legs[1 - leg], b3), c * c3)
    return out


def _ht_switch(a: BasisTangle) -> TensorElement:
    """a -> sum a_(1) (x) rot(t(a_(2)) a_(3) t^-1(a_(4))), with no antipode.

    The legs split off as in the four-fold coproduct, the last leg expanded
    each time: t is contracted into leg 2 as it splits off, and
    ``ht_coaction_inverse`` splits the rest into legs 3 and 4.
    """
    out = TensorElement.zero(2)
    for (a1, rest), c in bigon_skein.comul(SkeinElement.of(a)).items():
        twisted = SkeinElement.zero()
        for (a2, tail), c2 in bigon_skein.comul(SkeinElement.of(rest)).items():
            w = bigon_skein.t_form(SkeinElement.of(a2)) * c2
            if not w.is_zero():
                twisted.add_scaled(bigon_skein.ht_coaction_inverse(SkeinElement.of(tail)), w)
        for b3, c3 in bigon_skein.rot_star(twisted).items():
            out.add_term((a1, b3), c * c3)
    return out


#: The one-sided maps, by name.
_SWITCHES: dict[str, Callable[[BasisTangle], TensorElement]] = {
    "right": lambda b: _antipode_switch(b, 0),
    "left": lambda b: _antipode_switch(b, 1),
    "ht": _ht_switch,
}

_switch_memo: dict[tuple[str, BasisTangle], TensorElement] = register_memo("excision._switch_memo", {})


def _switch(name: str, b: BasisTangle) -> TensorElement:
    """``_SWITCHES[name](b)``, computed once per process; callers must not mutate it."""
    key = (name, b)
    hit = _switch_memo.get(key)
    if hit is None:
        hit = _switch_memo[key] = _SWITCHES[name](b)
    return hit


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
        for (br, y), cb in _switch("right", b2).items():
            for b3, c3 in bigon_skein.mul(SkeinElement.of(a2), SkeinElement.of(y)).items():
                out.add_term((a1, br, b3), ca * cb * c3)
    out.add_term((b1, b2, BasisTangle.unit()), MINUS_ONE)
    return out


def _switch_defect(b1: BasisTangle, b2: BasisTangle, left: str) -> TensorElement:
    """b1 (x) right(b2) minus left(b1) with b2 placed in the middle slot."""
    out = TensorElement.zero(3)
    for (br, b3), c in _switch("right", b2).items():
        out.add_term((b1, br, b3), c)
    for (a1, b3), c in _switch(left, b1).items():
        out.add_term((a1, b2, b3), -c)
    return out


def hh0_defect_L(b1: BasisTangle, b2: BasisTangle) -> TensorElement:
    """B-side switch minus A-side switch, both through the antipode.

    Condition: sum a (x) b_(2) (x) S(b_(1))  ==  sum a_(1) (x) b (x) S(a_(2)).
    """
    return _switch_defect(b1, b2, "left")


def hh0_defect_l_ht(b1: BasisTangle, b2: BasisTangle) -> TensorElement:
    """Same kernel with the A-side switched by rotation after the half twist.

    The A-side avoids the antipode entirely (``_ht_switch``).  Agreement with
    the antipode route is the executable form of the left-switch bridge
    identity.
    """
    return _switch_defect(b1, b2, "ht")


#: The cotensor defect, then one defect map per variant, by name.
_DEFECTS: dict[str, Callable[[BasisTangle, BasisTangle], TensorElement]] = {
    "cotensor": cotensor_defect,
    "inv": merged_invariance_defect,
    "hh0_L": hh0_defect_L,
    "hh0_l_ht": hh0_defect_l_ht,
}


def _splitting_defect(name: str, b: BasisTangle) -> TensorElement:
    """The defect map ``name`` applied to comul(b)."""
    total = TensorElement.zero(3)
    for (u, v), c in bigon_skein.comul(SkeinElement.of(b)).items():
        total.add_scaled(_DEFECTS[name](u, v), c)
    return total


def check_coassociativity(n: int) -> tuple[bool, str | None]:
    """(comul (x) id) o comul == (id (x) comul) o comul, exact, on F_n: the
    cotensor defect kills every comul(b)."""
    for b in filtration_basis(n):
        if _splitting_defect("cotensor", b):
            return False, f"coassociativity fails on {b}"
    return True, None


def _kernel_of_map(n: int, name: str, s0: Fraction) -> list[SparseRow]:
    """Kernel at s0 of the defect map ``_DEFECTS[name]`` on F_n (x) F_n."""
    at = linalg.at_point(s0)
    basis = filtration_basis(n)
    d = len(basis)
    rows: dict[tuple[BasisTangle, ...], SparseRow] = {}
    for i, b1 in enumerate(basis):
        for j, b2 in enumerate(basis):
            for key, coeff in _DEFECTS[name](b1, b2).items():
                v = at(coeff)
                if v:
                    rows.setdefault(key, {})[i * d + j] = v
    return linalg.kernel_basis(rows.values(), d**2)


def invariants_subspace(n: int, variant: str, s0: Fraction) -> list[SparseRow]:
    """Row basis (at s0) of one description of the glued subspace in F_n (x) F_n."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return _kernel_of_map(n, variant, s0)


def comul_image_rows(n: int, s0: Fraction) -> list[SparseRow]:
    """The splitting image: specialized coproducts of the F_n basis."""
    at = linalg.at_point(s0)
    basis = filtration_basis(n)
    d = len(basis)
    index = {b: i for i, b in enumerate(basis)}
    rows = []
    for b in basis:
        row: SparseRow = {}
        for (u, v), c in bigon_skein.comul(SkeinElement.of(b)).items():
            x = at(c)
            if x:
                row[index[u] * d + index[v]] = x
        rows.append(row)
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

    def failures(self) -> list[str]:
        """The names of the fields that fail; the report passes when there are none."""
        checks = {
            "dims": all(d == self.expected_filtration for d in self.dims.values()),
            "increments": all(d == self.expected_increment for d in self.increments.values()),
            "subspaces_equal": self.subspaces_equal,
            "pullback_ok": self.pullback_ok,
            "image_in_kernels": self.image_in_kernels,
        }
        return [name for name, ok in checks.items() if not ok]

    @property
    def passed(self) -> bool:
        return not self.failures()


def _all_subspaces(n: int, s0: Fraction) -> dict[str, list[SparseRow]]:
    if n < 0:
        return {}
    spaces = {"image": comul_image_rows(n, s0)}
    for name in _DEFECTS:
        spaces[name] = _kernel_of_map(n, name, s0)
    return spaces


_splitting_memo: dict[tuple[int, str], bool] = register_memo("excision._splitting_memo", {})


def splitting_image_in_kernel(n: int, name: str) -> bool:
    """Exact, so memoized per (n, name): the defect map ``name`` kills comul(b) for every b in F_n."""
    hit = _splitting_memo.get((n, name))
    if hit is None:
        hit = _splitting_memo[(n, name)] = not any(_splitting_defect(name, b) for b in filtration_basis(n))
    return hit


def gluing_excision_check(n: int, s0: Fraction, seed: int = 0) -> GluingReport:
    """Splitting image == cotensor == all invariants variants on F_n, at s0.

    The splitting image lies exactly in the cotensor kernel and in each
    variant kernel (an identity of Laurent polynomials,
    ``splitting_image_in_kernel``; for the cotensor it is coassociativity).
    At s0 mod P the image rank is a lower bound on the generic dimension of the
    image, and each kernel dimension an upper bound on the generic dimension
    of its kernel (see ``linalg``).  When all five dimensions equal D_n the
    bounds close, and the image equals every kernel generically, not only at
    s0.
    """
    s0 = validate_generic_point(s0)
    spaces = _all_subspaces(n, s0)
    canon = {name: linalg.rref(rows) for name, rows in spaces.items()}
    dims = {name: len(basis) for name, basis in canon.items()}
    prev_dims = {name: linalg.rank(rows) for name, rows in _all_subspaces(n - 2, s0).items()}
    increments = {name: dims[name] - prev_dims.get(name, 0) for name in dims}
    subspaces_equal = all(canon[name] == canon["image"] for name in canon)

    # Pull a pseudorandom invariant vector back through the splitting map.
    rng = random.Random(seed)
    image = spaces["image"]
    pullback_ok = True
    if spaces["inv"]:
        target: SparseRow = {}
        for row in spaces["inv"]:
            w = residue(rng.randint(-3, 3))
            for j, x in row.items():
                target[j] = (target.get(j, 0) + w * x) % P
        cols: dict[int, SparseRow] = {j: {} for j in target}  # solve x . image = target
        for i, row in enumerate(image):
            for j, x in row.items():
                cols.setdefault(j, {})[i] = x
        sol = linalg.solve(cols.values(), [target.get(j, 0) for j in cols], len(image))
        pullback_ok = sol is not None
        if sol is not None:
            residual = {j: -t for j, t in target.items()}
            for i, x in sol.items():
                for j, v in image[i].items():
                    residual[j] = residual.get(j, 0) + x * v
            pullback_ok = not any(v % P for v in residual.values())
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
