"""Finite-dimensional comodules and matrix evaluation of planar slice words.

A comodule is a coaction matrix with quantum-coordinate-algebra entries, in
the row convention coact(e_j) = sum_i e_i (x) matrix[i][j].  The standard
corepresentation V has matrix ((a, b), (c, d)); the degree-n part of the
quantum plane (yx = q^2 xy) gives the simple comodule of dimension n+1.

Slice words evaluate to matrices on tensor powers of V.  Each west state
tuple is carried through the word one slice at a time as a sparse
combination of state tuples: the cap at row i sends (v+, v-) |-> -q^(5/2),
(v-, v+) |-> q^(1/2) and kills equal states; the cup puts
q^(-1/2) (v+, v-) - q^(-5/2) (v-, v+) into rows i, i+1; a crossing sends v to
q v + q^-1 cup(cap(v)).  These weights (``diagram.CBAR``, ``diagram.C``) make
the closed-diagram value of a slice word equal to its Kauffman bracket.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import bigon_skein, linalg, quantum_sl2
from .diagram import C, CBAR, CROSS_PARALLEL, CROSS_TURNBACK, SliceWord, State, memoized, state_tuples
from .quantum_sl2 import HopfElement, comul as hopf_comul, counit as hopf_counit, mul as hopf_mul
from .scalar import ONE, ZERO, HalfLaurent, LinearCombination, Value

Matrix = list[list[HalfLaurent]]


class ComoduleError(ValueError):
    """Coaction matrix fails a comodule axiom."""


class Comodule(Value):
    """Right comodule given by its coaction matrix."""

    __slots__ = ("dim", "coaction")

    def __init__(self, dim: int, coaction: tuple[tuple[HopfElement, ...], ...]) -> None:
        if dim <= 0 or len(coaction) != dim or any(len(row) != dim for row in coaction):
            raise ComoduleError("coaction must be a dim x dim matrix")
        self._set_fields((dim, coaction))

    def check_axioms(self) -> None:
        """Exact coassociativity and counit law for the coaction matrix."""
        for i in range(self.dim):
            for j in range(self.dim):
                eps = hopf_counit(self.coaction[i][j])
                want = ONE if i == j else HalfLaurent.zero()
                if eps != want:
                    raise ComoduleError(f"counit law fails at ({i},{j})")
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = hopf_comul(self.coaction[i][j])
                rhs = quantum_sl2.HopfTensor()
                for k in range(self.dim):
                    left = self.coaction[i][k]
                    right = self.coaction[k][j]
                    for m1, c1 in left.items():
                        for m2, c2 in right.items():
                            rhs.add_term((m1, m2), c1 * c2)
                if lhs != rhs:
                    raise ComoduleError(f"coassociativity fails at ({i},{j})")


def trivial() -> Comodule:
    return Comodule(1, ((HopfElement.one(),),))


def standard_V() -> Comodule:
    g = quantum_sl2.gen
    return Comodule(2, ((g("a"), g("b")), (g("c"), g("d"))))


def tensor(w1: Comodule, w2: Comodule) -> Comodule:
    rows: list[tuple[HopfElement, ...]] = []
    for i1 in range(w1.dim):
        for i2 in range(w2.dim):
            row = []
            for j1 in range(w1.dim):
                for j2 in range(w2.dim):
                    row.append(hopf_mul(w1.coaction[i1][j1], w2.coaction[i2][j2]))
            rows.append(tuple(row))
    return Comodule(w1.dim * w2.dim, tuple(rows))


def tensor_power_V(n: int) -> Comodule:
    out = trivial()
    v = standard_V()
    for _ in range(n):
        out = tensor(out, v)
    return out


def quantum_plane_Vn(n: int) -> Comodule:
    """Simple comodule on degree-n quantum plane monomials x^(n-i) y^i."""
    if n < 0:
        raise ComoduleError("n must be nonnegative")
    if n == 0:
        return trivial()
    g = quantum_sl2.gen
    # Coactions on x and y as {(x power, y power): coefficient in O}.
    coact = {"x": {(1, 0): g("a"), (0, 1): g("c")}, "y": {(1, 0): g("b"), (0, 1): g("d")}}
    rows = [[HopfElement.zero() for _ in range(n + 1)] for _ in range(n + 1)]
    for j in range(n + 1):
        # Coact on x^(n-j) y^j one letter at a time, keeping monomials x^p y^r.
        acc = {(0, 0): HopfElement.one()}
        for letter in "x" * (n - j) + "y" * j:
            nxt: dict[tuple[int, int], HopfElement] = {}
            for (p1, r1), h1 in acc.items():
                for (p2, r2), h2 in coact[letter].items():
                    # y^r1 x^p2 = q^(2 r1 p2) x^p2 y^r1
                    part = nxt.setdefault((p1 + p2, r1 + r2), HopfElement.zero())
                    part.add_scaled(hopf_mul(h1, h2), HalfLaurent.q_pow(2 * r1 * p2))
            acc = nxt
        for (p, r), h in acc.items():
            if p + r != n:
                raise ComoduleError("coaction did not preserve degree")
            rows[r][j] = h
    return Comodule(n + 1, tuple(tuple(row) for row in rows))


# -- state bases and slice-word evaluation --------------------------------------


def state_index(states: Sequence[State]) -> int:
    idx = 0
    for s in states:
        idx = (idx << 1) | (1 if s < 0 else 0)
    return idx


def _zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity_matrix(n: int) -> Matrix:
    out = _zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = _zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            if a[i][k].is_zero():
                continue
            aik = a[i][k]
            for j in range(cols):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def _apply_slice(v: LinearCombination, kind: str, i: int) -> LinearCombination:
    """Image of a combination of state tuples under one slice at row i."""
    out = LinearCombination.zero()
    if kind == "cap":
        for states, c in v.items():
            out.add_term(states[:i] + states[i + 2 :], c * CBAR[states[i : i + 2]])
    elif kind == "cup":
        for states, c in v.items():
            for pair, w in C.items():
                out.add_term(states[:i] + pair + states[i:], c * w)
    else:
        para, turn = (CROSS_PARALLEL, CROSS_TURNBACK) if kind == "x" else (CROSS_TURNBACK, CROSS_PARALLEL)
        out.add_scaled(v, para)
        out.add_scaled(_apply_slice(_apply_slice(v, "cap", i), "cup", i), turn)
    return out


def rt_evaluate(word: SliceWord) -> Matrix:
    """Matrix of a slice word from V^(x)west to V^(x)east on state bases.

    Column j is the image of the j-th west state tuple, carried through the
    slices one at a time as a sparse combination of state tuples.
    """
    out = _zeros(1 << word.east_arity, 1 << word.west_arity)
    for west in state_tuples(word.west_arity):
        v = LinearCombination.of(west)
        for kind, i in word.slices:
            v = _apply_slice(v, kind, i)
        col = state_index(west)
        for east, c in v.items():
            out[state_index(east)][col] = c
    return out


# -- structure transported through the skein algebra ----------------------------


def _t_of_hopf(h: HopfElement) -> HalfLaurent:
    return bigon_skein.t_form(quantum_sl2.to_skein(h))


def ht_matrix(w: Comodule) -> Matrix:
    """Half twist acting on a comodule: (id (x) t) o coaction."""
    return [[_t_of_hopf(w.coaction[i][j]) for j in range(w.dim)] for i in range(w.dim)]


def theta_matrix(w: Comodule) -> Matrix:
    theta = lambda h: bigon_skein.theta_form(quantum_sl2.to_skein(h))
    return [[theta(w.coaction[i][j]) for j in range(w.dim)] for i in range(w.dim)]


def braiding_matrix_VV() -> Matrix:
    """fl o R24 o (coaction (x) coaction) on V (x) V, from the co-R-matrix."""
    v = standard_V()
    out = _zeros(4, 4)
    for j1 in range(2):
        for j2 in range(2):
            for k in range(2):
                for l in range(2):
                    w = bigon_skein.r_form(
                        quantum_sl2.to_skein(v.coaction[k][j1]),
                        quantum_sl2.to_skein(v.coaction[l][j2]),
                    )
                    if not w.is_zero():
                        row = l * 2 + k  # flip of tensor factors
                        col = j1 * 2 + j2
                        out[row][col] = out[row][col] + w
    return out


def u_action(g: str, w: Comodule) -> Matrix:
    """Action matrix of an enveloping-algebra generator through the pairing."""
    return [
        [quantum_sl2.pairing([g], w.coaction[i][j]) for j in range(w.dim)]
        for i in range(w.dim)
    ]


def multiplicity(k: int, n: int) -> int:
    """Multiplicity of the simple of highest weight k inside V^(x)n."""
    if k < 0 or k > n or (n - k) % 2:
        return 0
    row = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for w, m in row.items():
            for w2 in (w - 1, w + 1):
                if w2 >= 0:
                    nxt[w2] = nxt.get(w2, 0) + m
        row = nxt
    return row.get(k, 0)


#: The condition rows, and per column the rows with a non-zero entry in it.
IntertwinerRows = tuple[list[dict[int, HalfLaurent]], dict[int, list[dict[int, HalfLaurent]]]]


@memoized("comodule_rt._rows_memo")
def _intertwiner_rows(w1: Comodule, w2: Comodule) -> IntertwinerRows:
    """The linear conditions for a map f: w1 -> w2 to be a comodule map.

    f is a w2.dim x w1.dim matrix, unknown f[k][j] in column k * w1.dim + j.
    It is an intertwiner iff entrywise sum_k w2[i][k] f[k][j] = sum_k f[i][k]
    w1[k][j]; each entry (i, j) gives one exact row per PBW monomial.  The
    rows are built once per pair of comodules and shared by the dimension
    bound and every exact check; a column's first entry is the coaction
    coefficient itself, not a copy.
    """
    rows: list[dict[int, HalfLaurent]] = []
    for i in range(w2.dim):
        for j in range(w1.dim):
            per_mono: dict[quantum_sl2.PBWMonomial, dict[int, HalfLaurent]] = {}
            for k in range(w2.dim):
                for m, c in w2.coaction[i][k].items():
                    row = per_mono.setdefault(m, {})
                    col = k * w1.dim + j
                    row[col] = row[col] + c if col in row else c
            for k in range(w1.dim):
                for m, c in w1.coaction[k][j].items():
                    row = per_mono.setdefault(m, {})
                    col = i * w1.dim + k
                    row[col] = row[col] - c if col in row else -c
            rows.extend(per_mono.values())
    by_col: dict[int, list[dict[int, HalfLaurent]]] = {}
    for row in rows:
        for col, v in row.items():
            if v:
                by_col.setdefault(col, []).append(row)
    return rows, by_col


def intertwiner_dimension(w1: Comodule, w2: Comodule, s0: Fraction) -> int:
    """dim Hom(w1, w2) at s = s0, by rank-nullity from the rank of the
    condition rows: an upper bound on the generic dimension."""
    at = linalg.at_point(s0)
    rows = [{col: at(v) for col, v in row.items() if v} for row in _intertwiner_rows(w1, w2)[0]]
    return w1.dim * w2.dim - linalg.rank(rows)


def is_intertwiner(w1: Comodule, w2: Comodule, f: Matrix) -> bool:
    """Whether f (w2.dim x w1.dim) is exactly a comodule map w1 -> w2; only the
    condition rows that touch a non-zero entry of f can fail."""
    flat = [x for row in f for x in row]
    by_col = _intertwiner_rows(w1, w2)[1]
    touched = {id(row): row for col, x in enumerate(flat) if x for row in by_col.get(col, ())}
    return all(not sum((v * flat[col] for col, v in row.items() if flat[col]), ZERO) for row in touched.values())
