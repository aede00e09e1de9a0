"""Matchings written as endpoint arcs, the form the tests spell them in.

An endpoint is ("w" | "e", position) and an arc is a pair of endpoints.  The
library holds a matching only as its partner tuple: for each west point and
then each east point, the index of the point it is joined to.  ``from_arcs``
and ``arcs_of`` convert between the two forms, ``matching_str`` prints the
arcs as ``str`` of a matching does, and ``endpoint_arc_lists`` enumerates
the planar matchings by endpoint arithmetic, as a reference for
``enumerate_matchings``.
"""

from skeinlab.internal_skein import Matching, MatchingError


def _points(n_west, n_east):
    return [("w", i) for i in range(n_west)] + [("e", j) for j in range(n_east)]


def from_arcs(n_west, n_east, arcs):
    """The ``Matching`` with the endpoint arcs ``arcs``.

    A point that no arc joins has partner -1, so the constructor's
    ``MatchingError`` covers arcs that miss a point or meet one twice.
    """
    index = {p: i for i, p in enumerate(_points(n_west, n_east))}
    partners = [-1] * len(index)
    for a, b in arcs:
        partners[index[a]], partners[index[b]] = index[b], index[a]
    return Matching(n_west, partners)


def arcs_of(m):
    """The endpoint arcs of ``m``: each arc's ends sorted, then the arcs sorted."""
    points = _points(m.n_west, m.n_east)
    return tuple(sorted(tuple(sorted((points[i], points[j]))) for i, j in enumerate(m.partners) if i < j))


def matching_str(n_west, n_east, arcs):
    """The text of a matching as ``str`` prints it, from its endpoint arcs."""
    body = ",".join(f"{a[0]}{a[1]}-{b[0]}{b[1]}" for a, b in sorted(tuple(sorted(p)) for p in arcs))
    return f"matching({n_west},{n_east}:{body})"


def endpoint_arc_lists(n_west, n_east):
    """The endpoint arcs of every planar matching, in the order of the
    circular recursion: circular positions run down the west points and back
    up the east points, and position lo is joined to each j > lo that leaves
    an even number of positions inside."""
    total = n_west + n_east
    if total % 2:
        raise MatchingError("odd number of boundary points")

    def circular(lo, hi):
        if lo > hi:
            yield ()
            return
        for j in range(lo + 1, hi + 1, 2):
            for inner in circular(lo + 1, j - 1):
                for outer in circular(j + 1, hi):
                    yield ((lo, j),) + inner + outer

    def endpoint(i):
        return ("w", i) if i < n_west else ("e", n_east - 1 - (i - n_west))

    return [tuple((endpoint(a), endpoint(b)) for a, b in pairs) for pairs in circular(0, total - 1)]
