"""Which cases of ``verify all --max-degree 3`` each constant mutant makes fail.

Each mutant changes one Kauffman constant of the engine.  A named constant
is rebound under its name in every skeinlab module that binds it (``LOOP``
in scalar, diagram and internal_skein); the oracle keeps its own loop value
under another name, so the two evaluators part.  The arc weights are entries
of one shared table, changed in place.  Each run starts and ends with
``memo_clear()``.  ``KILLS`` pins the exact failing cases of every mutant,
and ``WITNESS_DIGESTS`` a SHA-256 of their witness texts, so a change that
alters what a case can catch, or what a failing case reports, shows here.
The digests do not depend on ``PYTHONHASHSEED``.
"""

import hashlib
import sys

import pytest

import skeinlab.cli  # noqa: F401  (loads every module a mutant rebinds in)
import skeinlab.diagram as D
from skeinlab.diagram import memo_clear
from skeinlab.scalar import HalfLaurent
from skeinlab.suites import build_suite, run_suite

Q = HalfLaurent.q_pow(1)


def _rebind(name, change):
    """The mutant that rebinds ``name`` to ``change`` of its value wherever skeinlab binds it."""

    def apply(monkeypatch):
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "skeinlab" and name in vars(module):
                monkeypatch.setattr(module, name, change(vars(module)[name]))

    return apply


def _negate_arcs(monkeypatch):
    monkeypatch.setitem(D.C, (1, -1), -D.C[1, -1])
    monkeypatch.setitem(D.CBAR, (-1, 1), -D.CBAR[-1, 1])


#: Key -> (mutant, its change).
MUTANTS = {
    "L": ("LOOP times q", _rebind("LOOP", lambda v: v * Q)),
    "C": ("C[+,-] and CBAR[-,+] negated", _negate_arcs),
    "E": ("EAST_EXCHANGE_SWAP times q", _rebind("EAST_EXCHANGE_SWAP", lambda v: v * Q)),
    "W": ("WEST_EXCHANGE_ARC negated", _rebind("WEST_EXCHANGE_ARC", lambda v: -v)),
    "X": ("CROSS_PARALLEL times q", _rebind("CROSS_PARALLEL", lambda v: v * Q)),
}

#: Every case of ``verify all --max-degree 3`` -> the keys of the mutants that make it fail.
KILLS = {
    "hopf: coassociativity on <= 3 strands": "CEW",
    "hopf: counit laws on <= 3 strands": "CEW",
    "hopf: antipode convolution laws on <= 3 strands": "CEW",
    "hopf: coproduct is an algebra morphism (<= 2 strand factors)": "CEW",
    "hopf: rot_*: involution (<= 3 strands), algebra map, coproduct-reversing (<= 2 strands)": "CEW",
    "hopf: defining product relations of the generators": "CE",
    "iso: generator dictionary a..d -> single-strand tangles": "",
    "iso: transport roundtrips on degree <= 3": "E",
    "iso: transport is an algebra morphism on degree <= 2": "CEW",
    "iso: transport is a coalgebra morphism on degree <= 2": "CEW",
    "iso: counit and antipode commute with transport on degree <= 2": "CE",
    "iso: dual pairing laws and commutator relation on degree <= 2": "",
    "coquasi: co-R-matrix generator values (q, q^-1, q - q^-3)": "",
    "coquasi: coribbon functional values -q^3 on a, d and 0 on b, c": "C",
    "coquasi: exchange law m_op = R * m * R-bar (<= 2 strand pairs)": "CEW",
    "coquasi: coribbon functional centrality (<= 2 strands)": "CEWX",
    "coquasi: braiding on V(x)V equals the RT crossing matrix": "CX",
    "halfribbon: half-coribbon generator matrix (0, -q^5/2; q^1/2, 0)": "C",
    "halfribbon: t * t^-1 = t^-1 * t = eps on <= 3 strands": "LCEWX",
    "halfribbon: t(xy) = t(y_1) t(x_1) R(x_2 (x) y_2) (<= 2 strands per factor, <= 3 in all)": "LCEWX",
    "halfribbon: ht o inv = id and inv^-1 o inv = id at the east edge on <= 3 strands": "LCEWX",
    "halfribbon: half-twist coaction squares to the twist (<= 2 strands)": "CEW",
    "leftright: S(x_1) t(x_2) = rot(x_2) t(x_1) on <= 3 strands": "LCEWX",
    "leftright: west inversion is the rotation conjugate of the east one (<= 2 strands)": "",
    "braidop: m o c equals the crossed-stacking diagram (<= 2 strands)": "LCEWX",
    "braidop: braided opposite product is unital (<= 2 strands)": "CW",
    "rt: reduce equals all-smoothings oracle on 200 random words": "LCEWX",
    "rt: Reidemeister II invariance on 3-strand words": "LX",
    "rt: Reidemeister III invariance on 3-strand words": "LX",
    "rt: kinks multiply by -q^3 (positive) and -q^-3 (negative)": "LX",
    "rt: one-sided diagrams: rt vector equals stated reduction (60 random words, <= 6 points)": "LC",
    "comodule: comodule axioms for the quantum plane pieces (n <= 4)": "",
    "comodule: degree-1 plane piece is the standard corepresentation": "",
    "comodule: enveloping-algebra relations as matrices (n <= 3)": "",
    "comodule: half-twist matrices: generator values and tensor law": "CX",
    "comodule: twist acts on V as -q^3": "C",
    "comodule: tensor-power multiplicities and intertwiner dimensions (n <= 3)": "C",
    "st: state tables are two-sided comodule maps (<= 6 points)": "CEW",
    "st: cap/cup naturality for every insertion (<= 6 points)": "LCEW",
    "st: matching enumeration is Catalan-complete (<= 6 points)": "",
    "st: rank = Catalan = Peter-Weyl at every specialization point (<= 6 points)": "",
    "st: side-by-side composites map to products (<= 4 points per factor)": "CEW",
    "excision: exact containment of the splitting image in the cotensor kernel (n <= 3)": "CEW",
    "excision: invariants variants match the splitting image in degree 0": "",
    "excision: invariants variants match the splitting image in degree 1": "CE",
    "excision: invariants variants match the splitting image in degree 2": "CEWX",
}

#: Mutant key -> SHA-256 of its failing cases' labels and witnesses, in report order.
WITNESS_DIGESTS = {
    "L": "8272be86c54f35e9bb22bc2ef689d3e29fd5fd106e42917fdf35bd189081395e",
    "C": "b699880a18576d7b5b92c8ef05fd1655d6987ade89b37e8a23fd2157ccf60360",
    "E": "5672960e9145e40480fcbb2c6070133788a576567a3220f70e6b9f69163aa8aa",
    "W": "1915ef4003feb55adc75c3a3684d6227ec3e63c5b14df49067852349ed61416d",
    "X": "dbcb27ff5e9fdef4ad58b1f0b430ea51d7b7d2623510724cb07fc4070edde7b1",
}


def test_kills_lists_every_case_once():
    assert [label for label, _ in build_suite("all", 3)] == list(KILLS)
    assert all(set(keys) <= set(MUTANTS) for keys in KILLS.values())


@pytest.mark.parametrize("key", list(MUTANTS))
def test_mutant_fails_exactly_its_cases(key, monkeypatch):
    _, apply = MUTANTS[key]
    memo_clear()
    try:
        apply(monkeypatch)
        report = run_suite("all", 3)
    finally:
        monkeypatch.undo()
        memo_clear()
    failed = [(case.name, case.witness) for case in report.cases if case.status == "fail"]
    assert [name for name, _ in failed] == [label for label, keys in KILLS.items() if key in keys]
    text = "\n".join(f"{name}|{witness}" for name, witness in failed)
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGESTS[key]
