"""Long-word references that share no code with the engine's constants.

The oracle expands all 2^c smoothings, so it stops at a few crossings.  Two
identities hold at any length, and each is written here from the Kauffman
bracket alone: delta = -q^2 - q^-2 and q are spelled out literally, as
``oracle.py`` does, and no engine constant is read.

* Torus closures.  ``cup 0; cup 0; x 1`` (n times) ``; cap 0; cap 0`` closes
  a 2-strand twist into a (2, n) torus link.  On TL_2 the crossing is
  q + q^-1 e with e^2 = delta e, and the closure takes 1 to delta^2 and e to
  delta (Kauffman-Lins, 1994), so the bracket is
  (delta^2 - 1) q^n + (-q^-3)^n; with ``xb`` swap q and q^-1.
* Inverse words.  A word followed by its inverse (reversed, with x and xb
  swapped) reduces to the parallel diagram at every state pair
  (Reidemeister II).

At the sizes below the tests take about 0.25 s on a 2-core Intel Xeon host
(CPython 3.11), 0.15 s of it the width-3 word of 1,000 crossings.

Mutant table, measured by applying each mutant of
``tests/test_mutants.MUTANTS`` with ``memo_clear()`` around it and running
both identities at every size below:

=====  ===================================  =====  ========
key    mutant                               torus  inverse
=====  ===================================  =====  ========
L      LOOP times q                         fails  fails
C      C[+,-] and CBAR[-,+] negated         holds  holds
E      EAST_EXCHANGE_SWAP times q           holds  holds
W      WEST_EXCHANGE_ARC negated            holds  holds
X      CROSS_PARALLEL times q               fails  fails
=====  ===================================  =====  ========

Under L every torus closure fails (n = 0 too, whose bracket is delta^2);
under X all but the two crossingless n = 0 closures do, and every inverse
word fails under both.  C changes returning-arc weights, which a closed
diagram and a braid word never meet at the boundary; E and W change the
sorting of parallel diagrams, which the inverse identity meets on both sides.
"""

import random

import pytest

from skeinlab.diagram import UNIT_TANGLE, SkeinElement, SliceWord, StatedWord, reduce, reduce_parallel
from skeinlab.scalar import HalfLaurent

ONE = HalfLaurent({0: 1})
Q, Q_INV = HalfLaurent({2: 1}), HalfLaurent({-2: 1})
DELTA = HalfLaurent({4: -1, -4: -1})

TORUS_LENGTHS = [*range(13), 101, 500]
#: (width, crossings) of the seeded words that are followed by their inverse.
INVERSE_SIZES = [(3, 1000), (6, 60), (8, 30)]


def torus_closure(kind, n):
    return SliceWord(0, (("cup", 0), ("cup", 0)) + ((kind, 1),) * n + (("cap", 0), ("cap", 0)))


def torus_bracket(kind, n):
    """(delta^2 - 1) q^n + (-q^-3)^n for ``x``, with q and q^-1 swapped for ``xb``."""
    q, kink = (Q, HalfLaurent({-6: -1})) if kind == "x" else (Q_INV, HalfLaurent({6: -1}))
    return (DELTA * DELTA - ONE) * q**n + kink**n


@pytest.mark.parametrize("kind", ["x", "xb"])
def test_torus_closures(kind):
    for n in TORUS_LENGTHS:
        got = reduce(StatedWord(torus_closure(kind, n)))
        assert got == SkeinElement.of(UNIT_TANGLE, torus_bracket(kind, n)), (kind, n)


def inverse_words(width, crossings, seed=1):
    """A seeded braid word followed by its inverse, and three state pairs."""
    rng = random.Random(seed)
    slices = tuple((rng.choice(("x", "xb")), rng.randrange(width - 1)) for _ in range(crossings))
    inverse = tuple(("xb" if kind == "x" else "x", i) for kind, i in reversed(slices))
    states = [tuple(tuple(rng.choice((1, -1)) for _ in range(width)) for _ in range(2)) for _ in range(3)]
    return SliceWord(width, slices + inverse), states


@pytest.mark.parametrize("width, crossings", INVERSE_SIZES)
def test_word_times_its_inverse_is_parallel(width, crossings):
    word, states = inverse_words(width, crossings)
    for west, east in states:
        assert reduce(StatedWord(word, west, east)) == reduce_parallel(west, east), (west, east)
