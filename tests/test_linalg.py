from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skeinlab import linalg

F = Fraction


def test_rank_and_rref():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(rows) == 2
    basis = linalg.row_space_basis(rows)
    assert len(basis) == 2
    assert basis[0][0] == 1


def test_kernel_incremental():
    # x + y + z = 0 and y - z = 0 -> kernel spanned by (-2, 1, 1)
    rows = [{0: F(1), 1: F(1), 2: F(1)}, {1: F(1), 2: F(-1)}]
    ker = linalg.kernel_basis(rows, 3)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] + v[2] == 0 and v[1] == v[2]


def test_kernel_skips_dependent_rows():
    rows = [{0: F(1)}, {0: F(2)}, {0: F(3)}]
    assert len(linalg.kernel_basis(rows, 2)) == 1


def test_row_space_comparison():
    a = [[F(1), F(0)], [F(0), F(1)]]
    b = [[F(1), F(1)], [F(1), F(-1)]]
    # The basis is the canonical RREF, so equal row spaces give equal bases.
    assert linalg.row_space_basis(a) == linalg.row_space_basis(b) == a
    assert linalg.row_space_basis(a + [[F(3), F(-5)]]) == a
    assert linalg.row_space_basis([[F(2), F(2)], [F(-1), F(-1)]]) == [[F(1), F(1)]]
    assert linalg.row_space_basis(a) != linalg.row_space_basis([[F(1), F(1)]])


def test_solve():
    rows = [[F(1), F(1)], [F(1), F(-1)], [F(2), F(0)]]
    sol = linalg.solve(rows, [F(3), F(1), F(4)])
    assert sol == [F(2), F(1)]
    assert linalg.solve(rows, [F(3), F(1), F(5)]) is None


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


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_sparse_elimination_matches_dense_reference(system):
    n, rows, rhs = system
    sparse = [{j: c for j, c in enumerate(row) if c} for row in rows]
    r = _dense_rank(rows)
    assert linalg.rank(rows) == r == linalg.rank(sparse)
    ker = linalg.kernel_basis(sparse, n)
    assert len(ker) + r == n
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows for v in ker)
    assert _dense_rank(ker) == len(ker)
    if rows:
        sol = linalg.solve(rows, rhs)
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        assert (sol is None) == (_dense_rank(augmented) > r)
        if sol is not None:
            assert [sum(a * x for a, x in zip(row, sol)) for row in rows] == rhs
