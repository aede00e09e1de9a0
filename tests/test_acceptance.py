"""Acceptance suite: one test per criterion, each printing a PASS line.

Every identity is exact (zero polynomial tolerance); rank statements run at
two independent rational specialization points.  Runtime bounds from the
criteria are asserted with a wall clock.
"""

import json
import random
import time
from fractions import Fraction

import jsonschema

import skeinlab.bigon_skein as B
import skeinlab.comodule_rt as CM
import skeinlab.excision as EX
import skeinlab.internal_skein as IS
import skeinlab.quantum_sl2 as QS
from skeinlab.diagram import BasisTangle, SkeinElement, SliceWord, StatedWord, reduce
from skeinlab.oracle import oracle_reduce
from skeinlab.report import REPORT_SCHEMA
from skeinlab.scalar import HalfLaurent
from skeinlab.suites import random_stated_word

SPECS = (Fraction(7, 5), Fraction(11, 7))


def _announce(k: int, label: str, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {k:02d}: PASS - {label}{timing}")


def el(bt):
    return SkeinElement.of(bt)


def sweedler(x):
    return list(B.comul(x).items())


def test_criterion_01_kauffman_engine_vs_oracle():
    start = time.monotonic()
    rng = random.Random(20212022)
    for _ in range(200):
        d = random_stated_word(rng, max_crossings=3, max_points=6)
        assert reduce(d) == oracle_reduce(d), f"oracle mismatch on {d}"

    # Reidemeister II and III on 3-strand braid words.
    gens = [("x", 0), ("x", 1), ("xb", 0), ("xb", 1)]
    words = [()] + [(g,) for g in gens] + [(g, h) for g in gens for h in gens]
    states = CM.state_tuples(3)
    for base in words:
        for pos in range(len(base) + 1):
            for row in (0, 1):
                for pair in ((("x", row), ("xb", row)), (("xb", row), ("x", row))):
                    modified = base[:pos] + pair + base[pos:]
                    for west in states:
                        for east in states:
                            assert reduce(
                                StatedWord(SliceWord(3, base), west, east)
                            ) == reduce(StatedWord(SliceWord(3, modified), west, east))
    for base in words:
        left = base + (("x", 0), ("x", 1), ("x", 0))
        right = base + (("x", 1), ("x", 0), ("x", 1))
        for west in states:
            for east in states:
                assert reduce(StatedWord(SliceWord(3, left), west, east)) == reduce(
                    StatedWord(SliceWord(3, right), west, east)
                )

    # Positive kink factor.
    for st in ((1,), (-1,)):
        base = reduce(StatedWord(SliceWord(1, ()), st, st))
        kinked = reduce(
            StatedWord(SliceWord(1, (("cup", 1), ("x", 0), ("cap", 1))), st, st)
        )
        assert kinked == base.scale(HalfLaurent.q_pow(3, -1))

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    _announce(1, "Kauffman engine vs brute-force oracle, RII/RIII, kink -q^3", elapsed)


def test_criterion_02_hopf_axioms():
    start = time.monotonic()
    tangles = B.basis_tangles(3)
    for bt in tangles:
        x = el(bt)
        # Coassociativity.
        two = B.comul(x)
        left = B.TensorElement.zero(3)
        right = B.TensorElement.zero(3)
        for (b1, b2), c in two.items():
            for (u, v), cc in B.comul(el(b1)).items():
                left = left + B.TensorElement(3, {(u, v, b2): c * cc})
            for (u, v), cc in B.comul(el(b2)).items():
                right = right + B.TensorElement(3, {(b1, u, v): c * cc})
        assert left == right, f"coassociativity fails on {bt}"
        # Counit laws.
        l1 = SkeinElement.zero()
        l2 = SkeinElement.zero()
        for (b1, b2), c in two.items():
            l1 = l1 + el(b2).scale(B.counit(el(b1)) * c)
            l2 = l2 + el(b1).scale(B.counit(el(b2)) * c)
        assert l1 == x and l2 == x, f"counit law fails on {bt}"
        # Antipode convolution laws.
        target = SkeinElement.unit().scale(B.counit(x))
        s1 = SkeinElement.zero()
        s2 = SkeinElement.zero()
        for (b1, b2), c in two.items():
            s1 = s1 + B.mul(B.antipode(el(b1)), el(b2)).scale(c)
            s2 = s2 + B.mul(el(b1), B.antipode(el(b2))).scale(c)
        assert s1 == target and s2 == target, f"antipode law fails on {bt}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 60s"
    _announce(2, "bigon Hopf axioms exact on <= 3 strands", elapsed)


def test_criterion_03_transport_isomorphism():
    for letter, (mu, nu) in {"a": (1, 1), "b": (1, -1), "c": (-1, 1), "d": (-1, -1)}.items():
        assert QS.to_skein(QS.gen(letter)) == el(BasisTangle(1, (mu,), (nu,)))
    for m in QS.pbw_monomials(3):
        x = QS.HopfElement.of(m)
        assert QS.from_skein(QS.to_skein(x)) == x
    for bt in B.basis_tangles(3):
        y = el(bt)
        assert QS.to_skein(QS.from_skein(y)) == y
    small = QS.pbw_monomials(2)
    for m1 in small:
        for m2 in small:
            if m1.degree + m2.degree > 3:
                continue
            x, y = QS.HopfElement.of(m1), QS.HopfElement.of(m2)
            assert QS.to_skein(QS.mul(x, y)) == B.mul(QS.to_skein(x), QS.to_skein(y))
    for m in QS.pbw_monomials(3):
        x = QS.HopfElement.of(m)
        left = B.TensorElement.zero(2)
        for (m1, m2), c in QS.comul(x).items():
            left = left + B.tensor2(
                QS.to_skein(QS.HopfElement.of(m1)), QS.to_skein(QS.HopfElement.of(m2))
            ).scale(c)
        assert left == B.comul(QS.to_skein(x)), f"coalgebra transport fails on {m}"
    _announce(3, "transport isomorphism: inverse algebra-and-coalgebra maps, degree <= 3")


def test_criterion_04_coquasitriangular_coribbon():
    a, b, c, d = (B.generator(x) for x in "abcd")
    q = HalfLaurent.q_pow
    assert B.r_form(a, a) == q(1)
    assert B.r_form(a, d) == q(-1)
    assert B.r_form(d, a) == q(-1)
    assert B.r_form(d, d) == q(1)
    assert B.r_form(b, c) == q(1) + q(-3, -1)
    assert B.theta_form(a) == q(3, -1) and B.theta_form(d) == q(3, -1)
    assert B.theta_form(b).is_zero() and B.theta_form(c).is_zero()
    small = B.basis_tangles(2)
    for b1 in small:
        for b2 in small:
            x, y = el(b1), el(b2)
            lhs = SkeinElement.zero()
            rhs = SkeinElement.zero()
            for (x1, x2), cx in B.comul(x).items():
                for (y1, y2), cy in B.comul(y).items():
                    w = cx * cy
                    lhs = lhs + B.mul(el(y1), el(x1)).scale(B.r_form(el(x2), el(y2)) * w)
                    rhs = rhs + B.mul(el(x2), el(y2)).scale(B.r_form(el(x1), el(y1)) * w)
            assert lhs == rhs, f"exchange law fails on {b1}, {b2}"
    for bt in small:
        x = el(bt)
        lhs = SkeinElement.zero()
        rhs = SkeinElement.zero()
        for (x1, x2), cx in B.comul(x).items():
            lhs = lhs + el(x2).scale(B.theta_form(el(x1)) * cx)
            rhs = rhs + el(x1).scale(B.theta_form(el(x2)) * cx)
        assert lhs == rhs, f"twist centrality fails on {bt}"
    assert CM.braiding_matrix_VV() == CM.rt_evaluate(SliceWord(2, (("x", 0),)))
    _announce(4, "co-R values, twist values, exchange law, centrality, braiding oracle")


def test_criterion_05_half_ribbon_axioms():
    tangles = B.basis_tangles(3)
    for bt in tangles:
        x = el(bt)
        assert B.convolve(B.t_form_basis, B.t_inv_form_basis)(bt) == B.counit(x)
        assert B.convolve(B.t_inv_form_basis, B.t_form_basis)(bt) == B.counit(x)
        assert B.convolve(B.t_form_basis, B.t_form_basis)(bt) == B.theta_form(x)
        assert B.t_form(x) == B.counit(B.inv_edge(x, "east", inverse=True))
    small = B.basis_tangles(2)
    for b1 in small:
        for b2 in small:
            if b1.n + b2.n > 3:
                continue
            x, y = el(b1), el(b2)
            lhs = B.t_form(B.mul(x, y))
            rhs = HalfLaurent.zero()
            for (x1, x2), cx in B.comul(x).items():
                for (y1, y2), cy in B.comul(y).items():
                    rhs = rhs + B.t_form(el(y1)) * B.t_form(el(x1)) * B.r_form(
                        el(x2), el(y2)
                    ) * cx * cy
            assert lhs == rhs, f"t product law fails on {b1}, {b2}"
    _announce(5, "half-ribbon axioms: t convolutions, t*t = twist, t = eps o inv^-1")


def test_criterion_06_left_right_bridge():
    for bt in B.basis_tangles(3):
        x = el(bt)
        lhs = SkeinElement.zero()
        rhs = SkeinElement.zero()
        for (x1, x2), c in B.comul(x).items():
            lhs = lhs + B.antipode(el(x1)).scale(B.t_form(el(x2)) * c)
            rhs = rhs + B.rot_star(el(x2)).scale(B.t_form(el(x1)) * c)
        assert lhs == rhs, f"bridge identity fails on {bt}"
    _announce(6, "left/right bridge S(x_1)t(x_2) = rot(x_2)t(x_1) on <= 3 strands")


def test_criterion_07_braided_opposite():
    ok, witness = IS.check_braided_opposite(2)
    assert ok, witness
    _announce(7, "braided-opposite product: algebra equals crossed diagram, <= 2 strands")


def test_criterion_08_st_suite():
    start = time.monotonic()
    splits = [
        (nw, total - nw) for total in range(0, 7, 2) for nw in range(total + 1)
    ]
    for nw, ne in splits:
        for m in IS.enumerate_matchings(nw, ne):
            ok, witness = IS.check_st_intertwiner(m, IS.st_map(m))
            assert ok, witness
            table = IS.st_map(m)
            for kind, side, pos in IS.all_naturality_checks(m):
                ok, witness = IS.check_st_naturality(m, kind, side, pos, table)
                assert ok, witness
    for nw, ne in splits:
        tables = [IS.st_map(m) for m in IS.enumerate_matchings(nw, ne)]
        for s0 in SPECS:
            rank, cat, pw = IS.st_rank(nw, ne, s0, tables)
            assert rank == cat == pw, (nw, ne, s0, rank, cat, pw)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 8 runtime {elapsed:.1f}s exceeds 2min"
    _announce(8, "state correspondence: intertwiners, naturality, rank triple, <= 6 points", elapsed)


def test_criterion_09_excision_suite():
    start = time.monotonic()
    for n in range(4):
        ok, witness = EX.check_coassociativity(n)
        assert ok, witness
    for n in range(3):
        for s0 in SPECS:
            glue = EX.gluing_excision_check(n, s0)
            assert glue.passed, (n, s0, glue.dims, glue.increments)
            assert all(v == (n + 1) ** 2 for v in glue.increments.values())
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"criterion 9 runtime {elapsed:.1f}s exceeds 3min"
    _announce(9, "excision: exact containment n <= 3; dims and increments n <= 2, two points", elapsed)


def test_criterion_10_comodule_suite():
    for n in range(5):
        CM.quantum_plane_Vn(n).check_axioms()
    q = HalfLaurent.q_pow
    coef = q(2) - q(-2)
    for n in range(1, 4):
        w = CM.tensor_power_V(n)
        K, Ki = CM.u_action("K", w), CM.u_action("Kinv", w)
        E, F = CM.u_action("E", w), CM.u_action("F", w)
        dim = w.dim
        KE, EK = CM.mat_mul(K, E), CM.mat_mul(E, K)
        assert KE == [[q(4) * EK[i][j] for j in range(dim)] for i in range(dim)]
        KF, FK = CM.mat_mul(K, F), CM.mat_mul(F, K)
        assert KF == [[q(-4) * FK[i][j] for j in range(dim)] for i in range(dim)]
        EF, FE = CM.mat_mul(E, F), CM.mat_mul(F, E)
        for i in range(dim):
            for j in range(dim):
                assert (EF[i][j] - FE[i][j]) * coef == K[i][j] - Ki[i][j]
    ht = CM.ht_matrix(CM.standard_V())
    assert ht == [
        [HalfLaurent.zero(), HalfLaurent.s_pow(5, -1)],
        [HalfLaurent.s_pow(1), HalfLaurent.zero()],
    ]
    _announce(10, "comodule axioms n <= 4, enveloping relations n <= 3, half-twist values")


def test_criterion_11_cli():
    import subprocess
    import sys

    start = time.monotonic()
    from skeinlab.syntax import format_element, parse_element
    from test_cli import random_element

    rng = random.Random(424242)
    for _ in range(500):
        x = random_element(rng)
        assert parse_element(format_element(x)) == x

    proc = subprocess.run(
        [sys.executable, "-m", "skeinlab.cli", "verify", "all", "--max-degree", "3", "--json"],
        capture_output=True,
        text=True,
        timeout=290,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    data = json.loads(proc.stdout)
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["totals"]["fail"] == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"criterion 11 runtime {elapsed:.1f}s exceeds 5min"
    _announce(11, "CLI round-trips, JSON schema, verify all --max-degree 3 exits 0", elapsed)
