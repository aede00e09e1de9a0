from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from q_reference import q_echelon, q_rank, q_value

from skeinlab import linalg
from skeinlab.linalg import P
from skeinlab.scalar import HalfLaurent, ScalarError, residue

F = Fraction


def test_rank_and_rref():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert linalg.rank(rows) == 2
    basis = linalg.rref(rows)
    assert basis == {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}


def test_rank_is_taken_mod_p():
    # Rows that are independent over Q but not mod P.
    assert linalg.rank([{0: 1, 1: 1}, {0: 1, 1: 1 + P}]) == 1
    assert linalg.rank([{0: P}, {1: -P}]) == 0
    assert q_rank([{0: 1, 1: 1}, {0: 1, 1: 1 + P}]) == 2


def test_kernel_incremental():
    # x + y + z = 0 and y - z = 0 -> kernel spanned by (-2, 1, 1)
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}]
    ker = linalg.kernel_basis(rows, 3)
    assert len(ker) == 1
    v = ker[0]
    assert all(0 <= x < P for x in v.values())
    assert (v[0] + v[1] + v[2]) % P == 0 and v[1] == v[2]
    assert v == {2: 1, 0: P - 2, 1: 1}


def test_kernel_skips_dependent_rows():
    rows = [{0: 1}, {0: 2}, {0: 3}]
    assert len(linalg.kernel_basis(rows, 2)) == 1


def test_row_space_comparison():
    a = [{0: 1}, {1: 1}]
    b = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    # The RREF is canonical, so equal row spaces give equal dicts.
    assert linalg.rref(a) == linalg.rref(b) == dict(enumerate(a))
    assert linalg.rref(a + [{0: 3, 1: -5}]) == dict(enumerate(a))
    assert linalg.rref([{0: 2, 1: 2}, {0: -1, 1: -1}]) == {0: {0: 1, 1: 1}}
    assert linalg.rref(a) != linalg.rref([{0: 1, 1: 1}])


def test_solve():
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}, {0: 2}]
    sol = linalg.solve(rows, [3, 1, 4], 2)
    assert sol == {0: 2, 1: 1}
    assert linalg.solve(rows, [3, 1, 5], 2) is None
    # x = 1/2 lives in F_P as the inverse of 2.
    assert linalg.solve([{0: 2}], [1], 1) == {0: residue(F(1, 2))}


def test_solve_without_equations_is_the_zero_solution():
    assert linalg.solve([], [], 3) == {}


def test_at_point_rejects_non_generic_points():
    for bad in (0, 1, -1, F(-1), P, P + 1, P - 1, F(3, P), F(P, 3), F(1, 2 * P)):
        with pytest.raises(ScalarError):
            linalg.at_point(bad)
    assert linalg.at_point(F(7, 5))(HalfLaurent({1: 2, -1: 1})) == residue(F(14, 5) + F(5, 7))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=5, unique_by=lambda t: t[0]),
    st.sampled_from([F(2), F(1, 2), F(7, 5), F(-11, 7)]),
)
def test_at_point_is_specialize_on_every_form_of_a_coefficient(terms, s0):
    at = linalg.at_point(s0)
    c = HalfLaurent(terms)
    # A product with a transient operand (here a scaled value) keeps the
    # Fraction(n, 1) of Fraction coefficients in its term map.
    half = HalfLaurent({0: F(1, 2)}).scale(1)
    forms = [c, HalfLaurent(terms[::-1]), half * HalfLaurent({e: 2 * v for e, v in terms})]
    assert all(type(v) is Fraction for v in forms[2].terms.values())
    others = [c + HalfLaurent({7: 1}), HalfLaurent(terms[1:])]
    for x in forms + others + forms:
        value = at(x)
        assert type(value) is int and value == x.specialize(residue(s0)) == residue(q_value(x, s0))
    assert {at(x) for x in forms} == {c.specialize(residue(s0))}


def _dense_rank(rows):
    """Reference rank: plain dense Gaussian elimination over Fractions."""
    mat = [[F(c) for c in row] for row in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


_entries = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 5)])


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), max_size=14))
    rhs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    return n, rows, rhs


def _dot(row, vec):
    return sum(residue(a) * vec.get(j, 0) for j, a in enumerate(row)) % P


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_sparse_elimination_matches_dense_reference(system):
    n, rows, rhs = system
    sparse = [{j: residue(c) for j, c in enumerate(row) if c} for row in rows]
    r = _dense_rank(rows)
    assert q_rank({j: c for j, c in enumerate(row) if c} for row in rows) == r
    # Mod P a rank can only drop; on these small systems it never does.
    assert linalg.rank(sparse) == r
    ker = linalg.kernel_basis(sparse, n)
    assert len(ker) + r == n
    assert all(_dot(row, v) == 0 for row in rows for v in ker)
    assert linalg.rank(ker) == len(ker)
    sol = linalg.solve(sparse, [residue(b) for b in rhs], n)
    augmented = [{**row, n: residue(b)} for row, b in zip(sparse, rhs)]
    assert (sol is None) == (linalg.rank(augmented) > r)
    assert (sol is None) == (_dense_rank([row + [b] for row, b in zip(rows, rhs)]) > r)
    if sol is not None:
        assert [_dot(row, sol) for row in rows] == [residue(b) for b in rhs]


# Laurent entries, some of which vanish at one of the points (s - 2 at 2,
# s^2 - 1/4 at 1/2), so the rank at a point can drop below the generic one.
_laurent = st.sampled_from(
    [
        HalfLaurent(),
        HalfLaurent(),
        HalfLaurent({0: 1}),
        HalfLaurent({1: 1, 0: -2}),
        HalfLaurent({2: 1, 0: F(-1, 4)}),
        HalfLaurent({-3: 2, 4: -1}),
        HalfLaurent({-1: F(1, 2)}),
    ]
)


@st.composite
def _laurent_systems(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), _laurent, max_size=n), max_size=10))
    return n, rows, draw(st.sampled_from([F(2), F(1, 2), F(7, 5), F(-11, 7)]))


@settings(max_examples=200, deadline=None)
@given(_laurent_systems())
def test_rank_at_a_point_matches_dense_specialization(system):
    n, rows, s0 = system
    at = linalg.at_point(s0)
    dense = [[q_value(row[j], s0) if j in row else F(0) for j in range(n)] for row in rows]
    want = _dense_rank(dense)
    assert len(q_echelon({j: q_value(c, s0) for j, c in row.items()} for row in rows)) == want
    assert linalg.rank({j: at(c) for j, c in row.items()} for row in rows) == want
