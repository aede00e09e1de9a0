"""Named verification suites behind the ``verify`` command.

Each suite is a list of (name, thunk) cases; a thunk returns None on success
or a witness string describing the first failure.  Suites only use public
operations of the other modules, so a convention drift anywhere shows up as
a red case with a printable counterexample.

Every case is a module-level function that takes the bounds it runs to as
keyword arguments; ``_case`` binds them and formats the label from the same
values.  Where a family stops below ``--max-degree``, the cap is named below.
"""

from __future__ import annotations

import functools
import random
import string
import time
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import bigon_skein as B
from . import comodule_rt as CM
from . import excision as EX
from . import internal_skein as IS
from . import linalg
from . import quantum_sl2 as QS
from .diagram import BasisTangle, SkeinElement, SliceWord, StatedWord, resolve_crossings
from .diagram import reduce as reduce_diagram
from .oracle import oracle_reduce
from .report import Case, Report
from .scalar import ONE, HalfLaurent

DEFAULT_SPECS = (Fraction(7, 5), Fraction(11, 7))

#: Random words the rt suite reduces both by the engine and by the oracle.
ORACLE_WORDS = 200

#: Largest --max-degree the CLI ``verify`` accepts: the largest degree at which a cold
#: ``verify all`` finishes in under 60 s.  On a 2-core Intel Xeon host (CPython 3.11) it took
#: 18.6-20.4 s (59 MiB) at degree 5; at degree 6 it was stopped unfinished after 75 s and
#: 323 MiB (the st cases alone take 318 s there, 108 MiB), and each degree above multiplies
#: the st matchings.
MAX_CLI_DEGREE = 5

# Caps below --max-degree, each with what raising it costs in a cold process on a 2-core
# Intel Xeon host (CPython 3.11, three runs), where all of ``verify all --max-degree 3``
# takes 0.30-0.36 s.

#: Strands per factor of the identities over pairs of basis tangles, and of the single-tangle
#: cases grouped with them.  At 3, the coproduct-algebra-map case takes 309-349 ms instead of
#: 17-29, the exchange law 104-138 ms instead of 8-13, and crossed stacking 82-96 ms instead
#: of 8-13.
PAIR_STRANDS = 2
#: Gluing dimensions: degree 3 adds 0.15-0.24 s, at both points.
GLUING_DEGREE = 2

# Fixed bounds, independent of --max-degree.
RT_WORDS, RT_POINTS = 60, 6  # one-sided random words whose rt vectors are compared, and their points
PAIRING_DEGREE = 2  # the dual pairing laws
PLANE_DEGREE = 4  # the quantum plane pieces V_n whose comodule axioms are checked
U_RELATIONS_DEGREE = 3  # the tensor powers of V carrying the enveloping-algebra relations
PRODUCT_POINTS = 4  # boundary points per factor of the st product compatibility case

Check = tuple[str, Callable[[], str | None]]


def _case(template: str, fn: Callable[..., str | None], *inputs, **bounds) -> Check:
    """The case ``fn(*inputs, **bounds)``, labelled by ``template`` formatted with the same
    ``bounds``, each of which it must name.  ``inputs`` (specializations, seed) go unnamed."""
    named = {field for _, field, _, _ in string.Formatter().parse(template) if field is not None}
    if named != set(bounds):
        raise ValueError(f"label {template!r} names {sorted(named)}, the case runs to {sorted(bounds)}")
    return template.format(**bounds), functools.partial(fn, *inputs, **bounds)


def _el(b: BasisTangle) -> SkeinElement:
    return SkeinElement.of(b)


# -- random diagram generation ---------------------------------------------------

def random_stated_word(rng: random.Random, max_crossings: int = 3, max_points: int = 6) -> StatedWord:
    while True:
        west = rng.randrange(0, max_points - 1)
        rows = west
        slices: list[tuple[str, int]] = []
        crossings = 0
        for _ in range(rng.randrange(0, 8)):
            options = ["cup"]
            if rows >= 2:
                options.append("cap")
                if crossings < max_crossings:
                    options += ["x", "xb"]
            kind = rng.choice(options)
            if kind == "cup":
                i = rng.randrange(0, rows + 1)
                rows += 2
            else:
                i = rng.randrange(0, rows - 1)
                if kind == "cap":
                    rows -= 2
                else:
                    crossings += 1
            slices.append((kind, i))
        if west + rows <= max_points:
            word = SliceWord(west, tuple(slices))
            return StatedWord(
                word,
                tuple(rng.choice((1, -1)) for _ in range(west)),
                tuple(rng.choice((1, -1)) for _ in range(rows)),
            )


# -- suite: rt (Kauffman engine versus independent evaluations) -------------------

def oracle_equivalence(seed: int, *, words: int) -> str | None:
    rng = random.Random(seed or 20212022)
    for _ in range(words):
        d = random_stated_word(rng)
        if reduce_diagram(d) != oracle_reduce(d):
            from .syntax import format_diagram

            return f"engine != oracle on {format_diagram(d)}"
    return None


def _braid_words(length: int) -> Iterable[tuple[tuple[str, int], ...]]:
    gens = [("x", 0), ("x", 1), ("xb", 0), ("xb", 1)]
    words: list[tuple[tuple[str, int], ...]] = [()]
    for _ in range(length):
        words = [w + (g,) for w in words for g in gens]
    return words


def reidemeister_ii() -> str | None:
    """RII on 3-strand braid words of length <= 2, compared on Kauffman resolutions.

    Equal resolutions reduce equally at every state pair (see ``diagram.reduce``),
    so this implies the stated comparison and also fails a non-canonical resolution."""
    for base in list(_braid_words(0)) + list(_braid_words(1)) + list(_braid_words(2)):
        want = resolve_crossings(SliceWord(3, base))
        for pos in range(len(base) + 1):
            for row in (0, 1):
                for pair in ((("x", row), ("xb", row)), (("xb", row), ("x", row))):
                    if resolve_crossings(SliceWord(3, base[:pos] + pair + base[pos:])) != want:
                        return f"RII fails inserting {pair} at {pos} in {base}"
    return None


def reidemeister_iii() -> str | None:
    """RIII after 3-strand braid words of length <= 1, compared on Kauffman
    resolutions; sound by the lemma in ``diagram.reduce``, as for ``reidemeister_ii``."""
    for base in list(_braid_words(0)) + list(_braid_words(1)):
        left = base + (("x", 0), ("x", 1), ("x", 0))
        right = base + (("x", 1), ("x", 0), ("x", 1))
        if resolve_crossings(SliceWord(3, left)) != resolve_crossings(SliceWord(3, right)):
            return f"RIII fails after {base}"
    return None


def kink_factors() -> str | None:
    minus_q3 = HalfLaurent.q_pow(3, -1)
    minus_qm3 = HalfLaurent.q_pow(-3, -1)
    for states in CM.state_tuples(1):
        base = reduce_diagram(StatedWord(SliceWord(1, ()), states, states))
        pos = reduce_diagram(StatedWord(SliceWord(1, (("cup", 1), ("x", 0), ("cap", 1))), states, states))
        neg = reduce_diagram(StatedWord(SliceWord(1, (("cup", 1), ("xb", 0), ("cap", 1))), states, states))
        if pos != base.scale(minus_q3):
            return f"positive kink factor != -q^3 on state {states}"
        if neg != base.scale(minus_qm3):
            return f"negative kink factor != -q^-3 on state {states}"
    return None


def rt_factors_through_reduce(seed: int, *, words: int, points: int) -> str | None:
    rng = random.Random((seed or 1) * 7 + 1)
    tried = 0
    while tried < words:
        # Words with all boundary points on the east edge: the stated
        # reduction is a pure scalar per state vector, and must match
        # the corresponding entry of the evaluated tangle vector.
        d = random_stated_word(rng, max_crossings=2, max_points=points)
        if d.word.west_arity:
            continue
        tried += 1
        vec = CM.rt_evaluate(d.word)
        for east in CM.state_tuples(d.word.east_arity):
            red = reduce_diagram(StatedWord(d.word, (), east))
            want = SkeinElement.unit().scale(vec[CM.state_index(east)][0])
            if red != want:
                from .syntax import format_diagram

                return f"rt entry differs from stated reduction on {format_diagram(d)}"
    return None


def rt_suite(max_degree: int, specs, seed: int) -> list[Check]:
    return [
        _case("reduce equals all-smoothings oracle on {words} random words", oracle_equivalence, seed,
              words=ORACLE_WORDS),
        _case("Reidemeister II invariance on 3-strand words", reidemeister_ii),
        _case("Reidemeister III invariance on 3-strand words", reidemeister_iii),
        _case("kinks multiply by -q^3 (positive) and -q^-3 (negative)", kink_factors),
        _case("one-sided diagrams: rt vector equals stated reduction ({words} random words, <= {points} points)",
              rt_factors_through_reduce, seed, words=RT_WORDS, points=RT_POINTS),
    ]


# -- suite: hopf --------------------------------------------------------------------

def _coassociativity_through(*, strands: int) -> str | None:
    """Exact coassociativity on every basis tangle of at most ``strands``
    strands, which are those of F_(strands-1) and F_strands."""
    for n in sorted({max(strands - 1, 0), strands}):
        ok, witness = EX.check_coassociativity(n)
        if not ok:
            return witness
    return None


def counit_law(*, strands: int) -> str | None:
    for b in B.basis_tangles(strands):
        left = SkeinElement.zero()
        right = SkeinElement.zero()
        for (b1, b2), c in B.comul_basis(b).items():
            left.add_term(b2, B.counit_basis(b1) * c)
            right.add_term(b1, B.counit_basis(b2) * c)
        if left != _el(b) or right != _el(b):
            return f"counit law fails on {b}"
    return None


def antipode_laws(*, strands: int) -> str | None:
    for b in B.basis_tangles(strands):
        target = SkeinElement.unit().scale(B.counit_basis(b))
        left = SkeinElement.zero()
        right = SkeinElement.zero()
        for (b1, b2), c in B.comul_basis(b).items():
            for t, d in B.antipode_basis(b1).items():
                left.add_scaled(B.mul_basis(t, b2), c * d)
            for t, d in B.antipode_basis(b2).items():
                right.add_scaled(B.mul_basis(b1, t), c * d)
        if left != target or right != target:
            return f"antipode convolution law fails on {b}"
    return None


def comul_algebra_map(*, strands: int) -> str | None:
    small = B.basis_tangles(strands)
    for b1 in small:
        for b2 in small:
            left = B.comul(B.mul_basis(b1, b2))
            right = B.TensorElement.zero(2)
            y_legs = B.comul_basis(b2).items()
            for (u1, u2), c in B.comul_basis(b1).items():
                for (v1, v2), d in y_legs:
                    right.add_scaled(B.tensor2(B.mul_basis(u1, v1), B.mul_basis(u2, v2)), c * d)
            if left != right:
                return f"comul is not an algebra map on {b1}, {b2}"
    return None


def rot_properties(*, strands: int, pair_strands: int) -> str | None:
    gen = B.generator
    small = B.basis_tangles(pair_strands)
    if B.rot_star(gen("b")) != gen("c") or B.rot_star(gen("a")) != gen("a"):
        return "rot_* generator dictionary fails"
    for b in B.basis_tangles(strands):
        if B.rot_star(B.rot_star(_el(b))) != _el(b):
            return f"rot_* is not an involution on {b}"
    for b1 in small:
        for b2 in small:
            if B.rot_star(B.mul(_el(b1), _el(b2))) != B.mul(B.rot_star(_el(b1)), B.rot_star(_el(b2))):
                return f"rot_* not an algebra map on {b1}, {b2}"
    for b in small:
        left = B.comul(B.rot_star(_el(b)))
        right = B.TensorElement.zero(2)
        for (b1, b2), c in B.comul(_el(b)).items():
            right.add_scaled(B.tensor2(B.rot_star(_el(b2)), B.rot_star(_el(b1))), c)
        if left != right:
            return f"rot_* does not reverse the coproduct on {b}"
    return None


def product_relations() -> str | None:
    a, b, c, d = (B.generator(x) for x in "abcd")
    if B.mul(a, d) - B.mul(b, c).scale(HalfLaurent.q_pow(-2)) != SkeinElement.unit():
        return "ad - q^-2 bc != 1"
    if B.mul(c, a) != B.mul(a, c).scale(HalfLaurent.q_pow(2)):
        return "ca != q^2 ac"
    if B.mul(d, a) - B.mul(c, b).scale(HalfLaurent.q_pow(2)) != SkeinElement.unit():
        return "da - q^2 cb != 1"
    return None


def hopf_suite(max_degree: int, specs, seed: int) -> list[Check]:
    pairs = min(max_degree, PAIR_STRANDS)
    return [
        _case("coassociativity on <= {strands} strands", _coassociativity_through, strands=max_degree),
        _case("counit laws on <= {strands} strands", counit_law, strands=max_degree),
        _case("antipode convolution laws on <= {strands} strands", antipode_laws, strands=max_degree),
        _case("coproduct is an algebra morphism (<= {strands} strand factors)", comul_algebra_map, strands=pairs),
        _case("rot_*: involution (<= {strands} strands), algebra map, coproduct-reversing "
              "(<= {pair_strands} strands)", rot_properties, strands=max_degree, pair_strands=pairs),
        _case("defining product relations of the generators", product_relations),
    ]


# -- suite: iso (transport to the quantum coordinate algebra) ----------------------

def generator_dictionary() -> str | None:
    pairs = {"a": (1, 1), "b": (1, -1), "c": (-1, 1), "d": (-1, -1)}
    for letter, (mu, nu) in pairs.items():
        if QS.to_skein(QS.gen(letter)) != SkeinElement.of(BasisTangle(1, (mu,), (nu,))):
            return f"generator {letter} maps to the wrong tangle"
    return None


def roundtrip(*, degree: int) -> str | None:
    for m in QS.pbw_monomials(degree):
        x = QS.HopfElement.of(m)
        if QS.from_skein(QS.to_skein(x)) != x:
            return f"from(to({m})) != {m}"
    for b in B.basis_tangles(degree):
        y = _el(b)
        if QS.to_skein(QS.from_skein(y)) != y:
            return f"to(from({b})) != {b}"
    return None


def algebra_morphism(*, degree: int) -> str | None:
    small = QS.pbw_monomials(degree)
    for m1 in small:
        for m2 in small:
            x, y = QS.HopfElement.of(m1), QS.HopfElement.of(m2)
            if QS.to_skein(QS.mul(x, y)) != B.mul(QS.to_skein(x), QS.to_skein(y)):
                return f"transport breaks the product on {m1}, {m2}"
    return None


def coalgebra_morphism(*, degree: int) -> str | None:
    for m in QS.pbw_monomials(degree):
        x = QS.HopfElement.of(m)
        left = B.TensorElement.zero(2)
        for (m1, m2), c in QS.comul(x).items():
            left.add_scaled(
                B.tensor2(QS.to_skein(QS.HopfElement.of(m1)), QS.to_skein(QS.HopfElement.of(m2))), c
            )
        if left != B.comul(QS.to_skein(x)):
            return f"transport breaks the coproduct on {m}"
    return None


def counit_antipode_match(*, degree: int) -> str | None:
    for m in QS.pbw_monomials(degree):
        x = QS.HopfElement.of(m)
        if QS.counit(x) != B.counit(QS.to_skein(x)):
            return f"counit mismatch on {m}"
        if QS.to_skein(QS.antipode(x)) != B.antipode(QS.to_skein(x)):
            return f"antipode mismatch on {m}"
    return None


def pairing_laws(*, degree: int) -> str | None:
    gens = ["E", "F", "K", "Kinv"]
    if QS.pairing(["E"], QS.gen("b")) != ONE:
        return "<E, b> != 1"
    if QS.pairing(["K"], QS.normalize("ad")) != ONE:
        return "<K, ad> != 1"
    coef = HalfLaurent.q_pow(2) - HalfLaurent.q_pow(-2)
    for m in QS.pbw_monomials(degree):
        x = QS.HopfElement.of(m)
        lhs = (QS.pairing(["E", "F"], x) - QS.pairing(["F", "E"], x)) * coef
        rhs = QS.pairing(["K"], x) - QS.pairing(["Kinv"], x)
        if lhs != rhs:
            return f"commutator pairing fails on {m}"
    for g in gens:
        sg = {"E": None, "F": None, "K": "Kinv", "Kinv": "K"}
        for m in QS.pbw_monomials(degree):
            x = QS.HopfElement.of(m)
            # <S(u), y> = <u, S(y)> checked on K and its inverse.
            if sg[g]:
                if QS.pairing([sg[g]], x) != QS.pairing([g], QS.antipode(x)):
                    return f"<S({g}), {m}> != <{g}, S({m})>"
    return None


def iso_suite(max_degree: int, specs, seed: int) -> list[Check]:
    pairs = min(max_degree, PAIR_STRANDS)
    return [
        _case("generator dictionary a..d -> single-strand tangles", generator_dictionary),
        _case("transport roundtrips on degree <= {degree}", roundtrip, degree=max_degree),
        _case("transport is an algebra morphism on degree <= {degree}", algebra_morphism, degree=pairs),
        _case("transport is a coalgebra morphism on degree <= {degree}", coalgebra_morphism, degree=pairs),
        _case("counit and antipode commute with transport on degree <= {degree}", counit_antipode_match,
              degree=pairs),
        _case("dual pairing laws and commutator relation on degree <= {degree}", pairing_laws,
              degree=PAIRING_DEGREE),
    ]


# -- suite: coquasi ------------------------------------------------------------------

def r_values() -> str | None:
    a, b, c, d = (B.generator(x) for x in "abcd")
    q = HalfLaurent.q_pow(1)
    qi = HalfLaurent.q_pow(-1)
    qm = HalfLaurent.q_pow(1) + HalfLaurent.q_pow(-3, -1)
    table = [
        (a, a, q),
        (a, d, qi),
        (d, a, qi),
        (d, d, q),
        (b, c, qm),
        (c, b, HalfLaurent.zero()),
        (a, b, HalfLaurent.zero()),
        (b, b, HalfLaurent.zero()),
    ]
    for x, y, want in table:
        if B.r_form(x, y) != want:
            return f"R generator value mismatch: got {B.r_form(x, y)}, want {want}"
    return None


def theta_values() -> str | None:
    a, b, c, d = (B.generator(x) for x in "abcd")
    mq3 = HalfLaurent.q_pow(3, -1)
    for x, want in ((a, mq3), (d, mq3), (b, HalfLaurent.zero()), (c, HalfLaurent.zero())):
        if B.theta_form(x) != want:
            return "coribbon functional generator values mismatch"
    return None


def exchange_law(*, strands: int) -> str | None:
    small = B.basis_tangles(strands)
    for b1 in small:
        for b2 in small:
            left = SkeinElement.zero()
            right = SkeinElement.zero()
            y_legs = B.comul_basis(b2).items()
            for (x1, x2), cx in B.comul_basis(b1).items():
                for (y1, y2), cy in y_legs:
                    w = cx * cy
                    left.add_scaled(B.mul_basis(y1, x1), B.r_form_basis(x2, y2) * w)
                    right.add_scaled(B.mul_basis(x2, y2), B.r_form_basis(x1, y1) * w)
            if left != right:
                return f"coquasitriangular exchange fails on {b1}, {b2}"
    return None


def theta_central(*, strands: int) -> str | None:
    for bt in B.basis_tangles(strands):
        left = SkeinElement.zero()
        right = SkeinElement.zero()
        for (x1, x2), cx in B.comul_basis(bt).items():
            left.add_term(x2, B.theta_form_basis(x1) * cx)
            right.add_term(x1, B.theta_form_basis(x2) * cx)
        if left != right:
            return f"coribbon functional is not central on {bt}"
    return None


def braiding_oracle() -> str | None:
    if CM.braiding_matrix_VV() != CM.rt_evaluate(SliceWord(2, (("x", 0),))):
        return "braiding on V(x)V differs from the RT crossing matrix"
    return None


def coquasi_suite(max_degree: int, specs, seed: int) -> list[Check]:
    pairs = min(max_degree, PAIR_STRANDS)
    return [
        _case("co-R-matrix generator values (q, q^-1, q - q^-3)", r_values),
        _case("coribbon functional values -q^3 on a, d and 0 on b, c", theta_values),
        _case("exchange law m_op = R * m * R-bar (<= {strands} strand pairs)", exchange_law, strands=pairs),
        _case("coribbon functional centrality (<= {strands} strands)", theta_central, strands=pairs),
        _case("braiding on V(x)V equals the RT crossing matrix", braiding_oracle),
    ]


# -- suite: halfribbon ---------------------------------------------------------------

def t_generator_values() -> str | None:
    vals = {
        "a": HalfLaurent.zero(),
        "b": HalfLaurent.s_pow(5, -1),
        "c": HalfLaurent.s_pow(1),
        "d": HalfLaurent.zero(),
    }
    for letter, want in vals.items():
        if B.t_form(B.generator(letter)) != want:
            return f"t({letter}) mismatch"
    return None


def convolution_inverse(*, strands: int) -> str | None:
    for bt in B.basis_tangles(strands):
        if B.convolve(B.t_form_basis, B.t_inv_form_basis)(bt) != B.counit_basis(bt):
            return f"t * t^-1 != eps on {bt}"
        if B.convolve(B.t_inv_form_basis, B.t_form_basis)(bt) != B.counit_basis(bt):
            return f"t^-1 * t != eps on {bt}"
    return None


def product_law(*, strands: int, pair_strands: int) -> str | None:
    small = B.basis_tangles(pair_strands)
    for b1 in small:
        for b2 in small:
            if b1.n + b2.n > strands:
                continue
            lhs = B.t_form(B.mul_basis(b1, b2))
            y_legs = B.comul_basis(b2).items()
            rhs = sum(
                (
                    B.t_form_basis(y1) * B.t_form_basis(x1) * B.r_form_basis(x2, y2) * cx * cy
                    for (x1, x2), cx in B.comul_basis(b1).items()
                    for (y1, y2), cy in y_legs
                ),
                HalfLaurent.zero(),
            )
            if lhs != rhs:
                return f"t(xy) product law fails on {b1}, {b2}"
    return None


def inversion_identities(*, strands: int) -> str | None:
    for bt in B.basis_tangles(strands):
        x = _el(bt)
        if B.ht_coaction(B.inv_edge(x, "east", inverse=False)) != x:
            return f"half twist does not invert the east inversion on {bt}"
        if B.inv_edge(B.inv_edge(x, "east", False), "east", True) != x:
            return f"inv^-1 o inv != id on {bt}"
    return None


def ht_squares_to_twist(*, strands: int) -> str | None:
    for bt in B.basis_tangles(strands):
        x = _el(bt)
        twisted = B.ht_coaction(B.ht_coaction(x))
        want = SkeinElement.zero()
        for (x1, x2), c in B.comul_basis(bt).items():
            want.add_term(x1, B.theta_form_basis(x2) * c)
        if twisted != want:
            return f"ht^2 != theta coaction on {bt}"
    return None


def halfribbon_suite(max_degree: int, specs, seed: int) -> list[Check]:
    pairs = min(max_degree, PAIR_STRANDS)
    return [
        _case("half-coribbon generator matrix (0, -q^5/2; q^1/2, 0)", t_generator_values),
        _case("t * t^-1 = t^-1 * t = eps on <= {strands} strands", convolution_inverse, strands=max_degree),
        _case("t(xy) = t(y_1) t(x_1) R(x_2 (x) y_2) (<= {pair_strands} strands per factor, "
              "<= {strands} in all)", product_law, strands=max_degree, pair_strands=pairs),
        _case("ht o inv = id and inv^-1 o inv = id at the east edge on <= {strands} strands",
              inversion_identities, strands=max_degree),
        _case("half-twist coaction squares to the twist (<= {strands} strands)", ht_squares_to_twist,
              strands=pairs),
    ]


# -- suite: leftright -----------------------------------------------------------------

def bridge(*, strands: int) -> str | None:
    for bt in B.basis_tangles(strands):
        lhs = SkeinElement.zero()
        rhs = SkeinElement.zero()
        for (x1, x2), c in B.comul_basis(bt).items():
            lhs.add_scaled(B.antipode_basis(x1), B.t_form_basis(x2) * c)
            rhs.add_scaled(B.rot_star_basis(x2), B.t_form_basis(x1) * c)
        if lhs != rhs:
            return f"left/right bridge fails on {bt}"
    return None


def west_conjugation(*, strands: int) -> str | None:
    for bt in B.basis_tangles(strands):
        x = _el(bt)
        for inverse in (False, True):
            if B.inv_edge(x, "west", inverse) != B.rot_star(B.inv_edge(B.rot_star(x), "east", inverse)):
                return f"west inversion is not the rotation conjugate on {bt}"
    return None


def leftright_suite(max_degree: int, specs, seed: int) -> list[Check]:
    return [
        _case("S(x_1) t(x_2) = rot(x_2) t(x_1) on <= {strands} strands", bridge, strands=max_degree),
        _case("west inversion is the rotation conjugate of the east one (<= {strands} strands)",
              west_conjugation, strands=min(max_degree, PAIR_STRANDS)),
    ]


# -- suite: braidop -------------------------------------------------------------------

def crossed_stacking(*, strands: int) -> str | None:
    ok, witness = IS.check_braided_opposite(strands)
    return None if ok else witness


def opposite_unital(*, strands: int) -> str | None:
    for bt in B.basis_tangles(strands):
        x = _el(bt)
        if B.braided_opposite_mul(SkeinElement.unit(), x) != x:
            return f"bop(1, x) != x on {bt}"
        if B.braided_opposite_mul(x, SkeinElement.unit()) != x:
            return f"bop(x, 1) != x on {bt}"
    return None


def braidop_suite(max_degree: int, specs, seed: int) -> list[Check]:
    pairs = min(max_degree, PAIR_STRANDS)
    return [
        _case("m o c equals the crossed-stacking diagram (<= {strands} strands)", crossed_stacking, strands=pairs),
        _case("braided opposite product is unital (<= {strands} strands)", opposite_unital, strands=pairs),
    ]


# -- suite: comodule ------------------------------------------------------------------

def axioms(*, max_n: int) -> str | None:
    for n in range(max_n + 1):
        try:
            CM.quantum_plane_Vn(n).check_axioms()
        except CM.ComoduleError as exc:
            return f"V_{n}: {exc}"
    return None


def vn_is_standard() -> str | None:
    if CM.quantum_plane_Vn(1) != CM.standard_V():
        return "degree-1 quantum plane piece differs from the standard corepresentation"
    if CM.quantum_plane_Vn(0) != CM.trivial():
        return "degree-0 quantum plane piece is not trivial"
    return None


def u_relations(*, max_n: int) -> str | None:
    q4 = HalfLaurent.q_pow(4)
    q4i = HalfLaurent.q_pow(-4)
    coef = HalfLaurent.q_pow(2) - HalfLaurent.q_pow(-2)
    for n in range(1, max_n + 1):
        w = CM.tensor_power_V(n)
        K = CM.u_action("K", w)
        Ki = CM.u_action("Kinv", w)
        E = CM.u_action("E", w)
        F = CM.u_action("F", w)
        dim = w.dim
        KE = CM.mat_mul(K, E)
        EK = CM.mat_mul(E, K)
        if KE != [[q4 * EK[i][j] for j in range(dim)] for i in range(dim)]:
            return f"KE != q^4 EK on the {n}-fold tensor power"
        KF = CM.mat_mul(K, F)
        FK = CM.mat_mul(F, K)
        if KF != [[q4i * FK[i][j] for j in range(dim)] for i in range(dim)]:
            return f"KF != q^-4 FK on the {n}-fold tensor power"
        EF = CM.mat_mul(E, F)
        FE = CM.mat_mul(F, E)
        for i in range(dim):
            for j in range(dim):
                if (EF[i][j] - FE[i][j]) * coef != K[i][j] - Ki[i][j]:
                    return f"commutator relation fails on the {n}-fold tensor power"
        if CM.mat_mul(K, Ki) != CM.identity_matrix(dim):
            return f"K Kinv != id on the {n}-fold tensor power"
    return None


def ht_values() -> str | None:
    want = [
        [HalfLaurent.zero(), HalfLaurent.s_pow(5, -1)],
        [HalfLaurent.s_pow(1), HalfLaurent.zero()],
    ]
    if CM.ht_matrix(CM.standard_V()) != want:
        return "half twist on V differs from (0, -q^5/2; q^1/2, 0)"
    v = CM.standard_V()
    vv = CM.tensor(v, v)
    lhs = CM.ht_matrix(vv)
    # ht on a tensor product: (ht (x) ht) o (fl o braiding)
    br = CM.braiding_matrix_VV()
    fl = [[HalfLaurent.zero()] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            fl[j * 2 + i][i * 2 + j] = ONE
    flbr = CM.mat_mul(fl, br)
    h = CM.ht_matrix(v)
    hh = [
        [h[i1][j1] * h[i2][j2] for j1 in range(2) for j2 in range(2)]
        for i1 in range(2)
        for i2 in range(2)
    ]
    if lhs != CM.mat_mul(hh, flbr):
        return "tensor half twist != (ht (x) ht) o (fl o braiding)"
    return None


def theta_is_scalar() -> str | None:
    mq3 = HalfLaurent.q_pow(3, -1)
    got = CM.theta_matrix(CM.standard_V())
    if got != [[mq3, HalfLaurent.zero()], [HalfLaurent.zero(), mq3]]:
        return "twist on V is not -q^3 id"
    return None


def multiplicities(specs, *, max_n: int) -> str | None:
    """dim End(V^(x)n) = sum_k mult(k, n)^2, certified at s0 by a sandwich.

    The kernel dimension of the intertwiner condition at s0 is an upper
    bound on the generic dimension; the Temperley-Lieb matrices of the
    (n, n) planar matchings are exact intertwiners, so the rank of their
    span at s0 is a lower bound (see ``linalg``).
    """
    table = ((0, 2, 1), (2, 2, 1), (1, 1, 1), (0, 4, 2), (1, 3, 2), (3, 3, 1))
    for k, n, want in table:
        if CM.multiplicity(k, n) != want:
            return f"multiplicity({k},{n}) != {want}"
    s0 = specs[0]
    at = linalg.at_point(s0)
    for n in range(max_n + 1):
        w = CM.tensor_power_V(n)
        tl = []
        for m in IS.enumerate_matchings(n, n):
            f = CM.rt_evaluate(m.word)
            if not CM.is_intertwiner(w, w, f):
                return f"lower bound: the matrix of {m} is not an intertwiner"
            flat = (x for row in f for x in row)
            tl.append({i: at(x) for i, x in enumerate(flat) if x})
        lower = linalg.rank(tl)
        upper = CM.intertwiner_dimension(w, w, s0)
        want = sum(CM.multiplicity(k, n) ** 2 for k in range(n + 1))
        for bound, got in (("lower", lower), ("upper", upper)):
            if got != want:
                return (
                    f"{bound} bound {got} on the endomorphism dimension of the "
                    f"{n}-fold power != {want} at s0={s0} mod {linalg.P} (lower {lower}, upper {upper})"
                )
    return None


def comodule_suite(max_degree: int, specs, seed: int) -> list[Check]:
    return [
        _case("comodule axioms for the quantum plane pieces (n <= {max_n})", axioms, max_n=PLANE_DEGREE),
        _case("degree-1 plane piece is the standard corepresentation", vn_is_standard),
        _case("enveloping-algebra relations as matrices (n <= {max_n})", u_relations, max_n=U_RELATIONS_DEGREE),
        _case("half-twist matrices: generator values and tensor law", ht_values),
        _case("twist acts on V as -q^3", theta_is_scalar),
        _case("tensor-power multiplicities and intertwiner dimensions (n <= {max_n})", multiplicities, specs,
              max_n=max_degree),
    ]


# -- suite: st ------------------------------------------------------------------------

def _splits(points: int) -> list[tuple[int, int]]:
    """Every (west, east) arity of at most ``points`` boundary points in all."""
    return [(nw, total - nw) for total in range(0, points + 1, 2) for nw in range(total + 1)]


def intertwiners(*, points: int) -> str | None:
    for nw, ne in _splits(points):
        for m in IS.enumerate_matchings(nw, ne):
            ok, witness = IS.check_st_intertwiner(m, IS.st_map(m))
            if not ok:
                return witness
    return None


def naturality(*, points: int) -> str | None:
    for nw, ne in _splits(points):
        for m in IS.enumerate_matchings(nw, ne):
            table = IS.st_map(m)
            for kind, side, pos in IS.all_naturality_checks(m):
                if (m.n_west + m.n_east + (2 if kind == "cap" else -2)) > points:
                    continue
                ok, witness = IS.check_st_naturality(m, kind, side, pos, table)
                if not ok:
                    return witness
    return None


def counts(*, points: int) -> str | None:
    for nw, ne in _splits(points):
        got = len(IS.enumerate_matchings(nw, ne))
        want = IS.catalan((nw + ne) // 2)
        if got != want:
            return f"matching count {got} != Catalan {want} at ({nw},{ne})"
    return None


def ranks(specs, *, points: int) -> str | None:
    for nw, ne in _splits(points):
        tables = [IS.st_map(m) for m in IS.enumerate_matchings(nw, ne)]
        for s0 in specs:
            rank, cat, pw = IS.st_rank(nw, ne, s0, tables)
            if not rank == cat == pw:
                return f"rank/Catalan/Peter-Weyl mismatch at ({nw},{ne}), s0={s0} mod {linalg.P}: {rank},{cat},{pw}"
    return None


def products(*, points: int) -> str | None:
    factors = [(m, IS.st_map(m)) for nw, ne in _splits(points) for m in IS.enumerate_matchings(nw, ne)]
    for m1, t1 in factors:
        for m2, t2 in factors:
            ok, witness = IS.check_product_compatibility(m1, m2, t1, t2)
            if not ok:
                return witness
    return None


def st_suite(max_degree: int, specs, seed: int) -> list[Check]:
    """Matchings of at most 2 * max_degree boundary points: a matching of 2D
    points has D arcs, the st analogue of D strands."""
    points = 2 * max_degree
    return [
        _case("state tables are two-sided comodule maps (<= {points} points)", intertwiners, points=points),
        _case("cap/cup naturality for every insertion (<= {points} points)", naturality, points=points),
        _case("matching enumeration is Catalan-complete (<= {points} points)", counts, points=points),
        _case("rank = Catalan = Peter-Weyl at every specialization point (<= {points} points)", ranks, specs,
              points=points),
        _case("side-by-side composites map to products (<= {points} points per factor)", products,
              points=PRODUCT_POINTS),
    ]


# -- suite: excision ------------------------------------------------------------------

def gluing(specs, seed: int, *, n: int) -> str | None:
    for s0 in specs:
        rep = EX.gluing_excision_check(n, s0, seed=seed)
        if not rep.passed:
            return (
                f"degree {n} at s0={s0}: fails {', '.join(rep.failures())}; "
                f"dims {rep.dims}, increments {rep.increments}"
                + "".join(f"; {w}" for w in rep.torus_weights)
            )
    return None


def excision_suite(max_degree: int, specs, seed: int) -> list[Check]:
    # Coassociativity puts the splitting image in the cotensor kernel.  The hopf suite and each
    # gluing case check it too, but ``verify excision`` runs alone, and this case reaches
    # --max-degree, above the GLUING_DEGREE of the gluing cases.
    return [
        _case("exact containment of the splitting image in the cotensor kernel (n <= {strands})",
              _coassociativity_through, strands=max_degree),
        *(
            _case("invariants variants match the splitting image in degree {n}", gluing, specs, seed, n=n)
            for n in range(min(max_degree, GLUING_DEGREE) + 1)
        ),
    ]


# -- dispatch -------------------------------------------------------------------------

#: Suite name -> builder of its checks from (max_degree, specs, seed).
_BUILDERS: dict[str, Callable[[int, Sequence[Fraction], int], list[Check]]] = {
    "hopf": hopf_suite,
    "iso": iso_suite,
    "coquasi": coquasi_suite,
    "halfribbon": halfribbon_suite,
    "leftright": leftright_suite,
    "braidop": braidop_suite,
    "rt": rt_suite,
    "comodule": comodule_suite,
    "st": st_suite,
    "excision": excision_suite,
}

SUITES = tuple(_BUILDERS)


def build_suite(
    name: str,
    max_degree: int = 3,
    specs: Sequence[Fraction] = DEFAULT_SPECS,
    seed: int = 0,
) -> list[Check]:
    specs = tuple(specs)
    args = (max_degree, specs, seed)
    if name in _BUILDERS:
        return _BUILDERS[name](*args)
    if name == "all":
        out: list[Check] = []
        for sub in SUITES:
            out.extend((f"{sub}: {label}", fn) for label, fn in build_suite(sub, *args))
        return out
    raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES + ('all',))}")


def run_suite(
    name: str,
    max_degree: int = 3,
    specs: Sequence[Fraction] = DEFAULT_SPECS,
    seed: int = 0,
) -> Report:
    checks = build_suite(name, max_degree, specs, seed)
    parameters = {"max_degree": max_degree, "specializations": [str(s) for s in specs], "seed": seed}
    report = Report(suite=name, parameters=parameters)
    start = time.monotonic()
    for label, fn in checks:
        witness = fn()
        report.cases.append(Case(name=label, status="pass" if witness is None else "fail", witness=witness))
    report.wall_time = time.monotonic() - start
    return report
