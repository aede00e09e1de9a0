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
(``_switch``); the pair images are recomposed at every point.

Torus weights.  Reduction keeps the sum of the states on each edge, so the
kernels need only the *balanced* pairs (b1, b2), those where the east states
of b1 and the west states of b2 have equal sums: 34 of the 100 pairs at
degree 2, 560 of 3,136 at degree 5.  Each kernel is solved on those columns
(``balanced_columns``) and its vectors are returned in the D_n^2 numbering.

Lemma.  Every vector in the kernel of a defect map at s0 vanishes on the
unbalanced pairs, provided the premise below holds on F_n; the kernel is then
the kernel of the system restricted to the balanced columns.

* ``cotensor``, ``hh0_L``, ``hh0_l_ht``.  Let pi be the torus quotient
  O_q(SL2) -> k[K^+-1], a -> K, d -> K^-1, b, c -> 0, which on a basis tangle
  is K^(sum mu) when mu == nu and 0 otherwise.  Premise: pi on the switched
  leg of each one-sided image the map uses is K^w times b itself, with w
  from ``_TORUS_WEIGHTS`` (comul(b): sum mu on the first leg, sum nu on the
  second; right switch -sum mu; left and half-twist switches -sum nu).  Then
  pi on the middle leg (cotensor) or the last leg (the hh0 maps) sends the
  image of a pair to (K^w1 - K^w2) b1 (x) b2, where w1 and w2 differ exactly
  when the pair is unbalanced.  pi has integer coefficients, so this holds
  at s0 too; distinct pairs give independent terms, so a kernel vector's
  entry at an unbalanced pair is zero.
* ``inv``.  The merged coaction multiplies two legs, and pi would have to be
  checked multiplicative on every such product, so the argument is instead
  the row of the key (b1, b2, 1).  Premise: every term u (x) v of comul(b)
  has sum nu(u) == sum mu(v), every term x (x) y of the right switch of b has
  sum mu(y) == -sum mu(x), and C and Cbar vanish on equal states, so that
  ``reduce_parallel`` (which swaps two states or removes an opposite pair)
  keeps both edge sums of a product.  A term (a1, x, a2 . y) of a pair's
  image then has the unit as its last leg only when sum nu(a1) ==
  sum mu(x).  So for an unbalanced (b1, b2), the row (b1, b2, 1) holds only
  the pair's own -b1 (x) b2 (x) 1 term, and a kernel vector's entry there is
  zero.

The premise is checked exactly, once per (degree, map) (``torus_premise``),
and a failure fails the gluing report (``GluingReport.torus_weights``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from . import bigon_skein, linalg
from .bigon_skein import TensorElement
from .diagram import CBAR, BasisTangle, C, SkeinElement, memoized
from .linalg import SparseRow
from .scalar import MINUS_ONE, ONE, ZERO, HalfLaurent, P, residue, validate_generic_point

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

@memoized("excision._switch_memo")
def _switch(name: str, b: BasisTangle) -> TensorElement:
    """``_SWITCHES[name](b)``, computed once per process; callers must not mutate it."""
    return _SWITCHES[name](b)


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


@memoized("excision._splitting_memo")
def _splitting_failure(n: int, name: str) -> BasisTangle | None:
    """Exact, so memoized per (n, name): the first b in F_n whose comul(b) the
    defect map ``name`` does not kill, or None."""
    return next((b for b in filtration_basis(n) if _splitting_defect(name, b)), None)


def check_coassociativity(n: int) -> tuple[bool, str | None]:
    """(comul (x) id) o comul == (id (x) comul) o comul, exact, on F_n: the
    cotensor defect kills every comul(b)."""
    b = _splitting_failure(n, "cotensor")
    return (True, None) if b is None else (False, f"coassociativity fails on {b}")


def splitting_image_in_kernel(n: int, name: str) -> bool:
    """The defect map ``name`` kills comul(b) for every b in F_n."""
    return _splitting_failure(n, name) is None


# -- torus weights: the premise of the lemma in the module docstring -------------

#: Per defect map but ``inv``: (one-sided image, leg pi is applied to, weight of b).
_TORUS_WEIGHTS: dict[str, tuple[tuple[str, int, Callable[[BasisTangle], int]], ...]] = {
    "cotensor": (("comul", 0, lambda b: sum(b.mu)), ("comul", 1, lambda b: sum(b.nu))),
    "hh0_L": (("right", 1, lambda b: -sum(b.mu)), ("left", 1, lambda b: -sum(b.nu))),
    "hh0_l_ht": (("right", 1, lambda b: -sum(b.mu)), ("ht", 1, lambda b: -sum(b.nu))),
}


def _torus_leg(t: TensorElement, leg: int) -> dict[tuple[BasisTangle, int], HalfLaurent]:
    """pi applied to leg ``leg`` of a two-leg tensor, as {(other leg, power of K): coefficient}."""
    out: dict[tuple[BasisTangle, int], HalfLaurent] = {}
    for key, c in t.items():
        u = key[leg]
        if u.mu == u.nu:
            k = (key[1 - leg], sum(u.mu))
            out[k] = out.get(k, ZERO) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


@memoized("excision._torus_memo")
def torus_premise(n: int, name: str) -> str | None:
    """Exact, so memoized per (n, name): None when the lemma's premise holds for the defect
    map ``name`` on F_n, else a witness naming the map and the tangle."""
    basis = filtration_basis(n)
    if name != "inv":
        for b in basis:
            for image, leg, weight in _TORUS_WEIGHTS[name]:
                t = bigon_skein.comul(SkeinElement.of(b)) if image == "comul" else _switch(image, b)
                if _torus_leg(t, leg) != {(b, weight(b)): ONE}:
                    return f"{name}: pi on leg {leg} of {image}({b}) is not K^{weight(b)} times {b}"
        return None
    for label, table in (("C", C), ("Cbar", CBAR)):
        if table[1, 1] or table[-1, -1]:
            return f"inv: {label} does not vanish on equal states"
    for b in basis:
        if any(sum(u.nu) != sum(v.mu) for (u, v), _ in bigon_skein.comul(SkeinElement.of(b)).items()):
            return f"inv: comul({b}) has a term whose middle edge sums differ"
        if any(sum(y.mu) != -sum(x.mu) for (x, y), _ in _switch("right", b).items()):
            return f"inv: the right switch of {b} has a term off its west sums"
    return None


def balanced_columns(n: int) -> list[int]:
    """The columns i * D_n + j of the balanced pairs (b_i, b_j) of F_n, in increasing order:
    the east states of b_i sum to the sum of the west states of b_j."""
    basis = filtration_basis(n)
    west = [sum(b.mu) for b in basis]
    d = len(basis)
    return [i * d + j for i, b1 in enumerate(basis) for j, w in enumerate(west) if w == sum(b1.nu)]


def _kernel_of_map(n: int, name: str, s0: Fraction) -> list[SparseRow]:
    """Kernel at s0 of the defect map ``_DEFECTS[name]`` on F_n (x) F_n, solved on the
    balanced pairs only (the lemma above) and returned in the D_n^2 column numbering."""
    at = linalg.at_point(s0)
    basis = filtration_basis(n)
    d = len(basis)
    cols = balanced_columns(n)
    rows: dict[tuple[BasisTangle, ...], SparseRow] = {}
    for k, col in enumerate(cols):
        for key, coeff in _DEFECTS[name](basis[col // d], basis[col % d]).items():
            v = at(coeff)
            if v:
                rows.setdefault(key, {})[k] = v
    return [{cols[k]: v for k, v in vec.items()} for vec in linalg.kernel_basis(rows.values(), len(cols))]


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


class GluingReport:
    def __init__(
        self, n: int, s0: Fraction, dims: dict[str, int], increments: dict[str, int],
        expected_filtration: int, expected_increment: int, subspaces_equal: bool, pullback_ok: bool,
        image_in_kernels: bool, torus_weights: list[str],  # a witness per map whose torus_premise fails
    ) -> None:
        self.n, self.s0, self.dims, self.increments = n, s0, dims, increments
        self.expected_filtration, self.expected_increment = expected_filtration, expected_increment
        self.subspaces_equal, self.pullback_ok = subspaces_equal, pullback_ok
        self.image_in_kernels, self.torus_weights = image_in_kernels, torus_weights

    def failures(self) -> list[str]:
        """The names of the fields that fail; the report passes when there are none."""
        checks = {
            "dims": all(d == self.expected_filtration for d in self.dims.values()),
            "increments": all(d == self.expected_increment for d in self.increments.values()),
            "subspaces_equal": self.subspaces_equal,
            "pullback_ok": self.pullback_ok,
            "image_in_kernels": self.image_in_kernels,
            "torus_weights": not self.torus_weights,
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


def gluing_excision_check(n: int, s0: Fraction, seed: int = 0) -> GluingReport:
    """Splitting image == cotensor == all invariants variants on F_n, at s0.

    The splitting image lies exactly in the cotensor kernel and in each
    variant kernel (an identity of Laurent polynomials,
    ``splitting_image_in_kernel``; for the cotensor it is coassociativity).
    At s0 mod P the image rank is a lower bound on the generic dimension of the
    image, and each kernel dimension an upper bound on the generic dimension
    of its kernel (see ``linalg``).  When all five dimensions equal D_n the
    bounds close, and the image equals every kernel generically, not only at
    s0.  Each kernel is solved on the balanced pairs; the lemma in the module
    docstring says that loses no vector, and its premise is checked exactly
    (``torus_weights``).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
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
        torus_weights=[w for name in _DEFECTS if (w := torus_premise(n, name)) is not None],
    )
