"""The benchmark's three workloads: inputs, the timed call and the gate.

Input generation (``make_inputs``) is plain data and imports nothing from
skeinlab, so the parent process can build inputs from the seed and hand the
child only JSON.  Everything else runs inside a fresh child interpreter.

Each workload defines

* ``prepare(inputs)``: turn JSON inputs into skeinlab objects (set-up time),
* ``run(prepared)``: the timed region, from the first call into skeinlab to
  the verdict,
* ``gate(prepared, output, trusted)``: the untimed correctness gate.  It
  returns ``(attempted, failed, verdict)``: operations attempted, operations
  that failed, and a digest of the verdict that two runs on the same inputs
  must reproduce exactly.  ``trusted`` is the digest of an earlier run on the
  same inputs that passed the full gate, or None; an output with that digest
  is identical to one already checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

WORKLOADS = ("verify_all", "excision_d3", "braid_reduce")

#: verify_all runs the CLI exactly as a user would: default spec points
#: 7/5 and 11/7, 6 max points, 200 oracle words, no --seed (a seed adds a
#: third spec point), and never --cache or --workers.
VERIFY_ARGV = ["verify", "all", "--max-degree", "3", "--json"]

EXCISION_DEGREE = 3
EXCISION_POINT = (7, 5)

BRAID_STRANDS = 4
BRAID_CROSSINGS = range(6, 15)  # one stratum per crossing count
BRAID_WORDS_PER_STRATUM = 4
BRAID_STATE_PAIRS = 3
#: Words this short are also compared against the all-smoothings oracle.
ORACLE_MAX_CROSSINGS = 7


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- input generation (parent side, no skeinlab import) --------------------------


def braid_inputs(seed: int, crossings=BRAID_CROSSINGS, per_stratum: int = BRAID_WORDS_PER_STRATUM) -> list[dict]:
    """Seeded 4-strand braid words, stratified by crossing count.

    Rows cycle through 0, 1, 2 as in the braid (x0 x1 x2)^k, from a seeded
    start row and in a seeded direction; the seed also picks every crossing
    kind and the boundary states.  Resolution cost depends on the rows, not
    on the kinds, so two seeds give different words of the same size:
    freely drawn rows change a word's smoothing loops, and with them the
    work, by tens of percent.
    """
    rng = random.Random(seed)
    rows = BRAID_STRANDS - 1
    words = []
    for c in crossings:
        for _ in range(per_stratum):
            start, step = rng.randrange(rows), rng.choice((1, -1))
            slices = [[rng.choice(("x", "xb")), (start + step * k) % rows] for k in range(c)]
            states = [
                [
                    [rng.choice((1, -1)) for _ in range(BRAID_STRANDS)],
                    [rng.choice((1, -1)) for _ in range(BRAID_STRANDS)],
                ]
                for _ in range(BRAID_STATE_PAIRS)
            ]
            words.append({"slices": slices, "states": states})
    return words


def make_inputs(workload: str, seed: int):
    if workload == "verify_all":
        return {"argv": VERIFY_ARGV}
    if workload == "excision_d3":
        return {"degree": EXCISION_DEGREE, "point": list(EXCISION_POINT)}
    if workload == "braid_reduce":
        return {"words": braid_inputs(seed)}
    raise ValueError(f"unknown workload {workload!r}")


# -- verify_all -------------------------------------------------------------------


def _verify_prepare(inputs):
    from skeinlab import cli

    return cli, list(inputs["argv"])


def _verify_run(prepared):
    cli, argv = prepared
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def verify_gate(prepared, output, trusted=None):
    """Exit code 0, a schema-valid report, and no failing case."""
    from skeinlab.report import validate_report_dict

    code, text = output
    try:
        report = json.loads(text)
        validate_report_dict(report)
    except (ValueError, KeyError, TypeError) as exc:
        return 1, 1, _digest(["invalid report", code, str(exc)])
    totals = report["totals"]
    failed = totals["fail"] + (1 if code != 0 and totals["fail"] == 0 else 0)
    verdict = [[c["name"], c["status"]] for c in report["cases"]]
    return max(totals["total"], 1), failed, _digest([code, verdict])


# -- excision_d3 ------------------------------------------------------------------


def _excision_prepare(inputs):
    from skeinlab import excision

    return excision, inputs["degree"], Fraction(*inputs["point"])


def _excision_run(prepared):
    excision, n, s0 = prepared
    return excision.gluing_excision_check(n, s0)


def excision_gate(prepared, report, trusted=None):
    """The check passes and all five dimensions equal D_n (20 at degree 3)."""
    excision, n, _ = prepared
    expected = excision.filtration_dimension(n)
    ok = (
        report.passed
        and len(report.dims) == 5
        and all(d == expected for d in report.dims.values())
    )
    return 1, 0 if ok else 1, _digest([report.passed, sorted(report.dims.items())])


# -- braid_reduce -----------------------------------------------------------------


def _braid_prepare(inputs):
    from skeinlab import diagram

    calls = []
    for w in inputs["words"]:
        word = diagram.SliceWord(BRAID_STRANDS, tuple((k, i) for k, i in w["slices"]))
        for west, east in w["states"]:
            calls.append(diagram.StatedWord(word, tuple(west), tuple(east)))
    return diagram, calls


def _braid_run(prepared):
    # Look reduce up at call time so a latency probe or tracer sees each call.
    diagram, calls = prepared
    return [diagram.reduce(stated) for stated in calls]


def braid_call_ok(stated, result, rt) -> bool:
    """counit(reduce(T(eps, kappa))) == rt[kappa][eps] for ``rt`` the RT matrix
    of the word, plus the all-smoothings oracle for short words."""
    from skeinlab.bigon_skein import counit
    from skeinlab.comodule_rt import state_index
    from skeinlab.oracle import oracle_reduce

    if counit(result) != rt[state_index(stated.east)][state_index(stated.west)]:
        return False
    if stated.word.crossing_count() <= ORACLE_MAX_CROSSINGS:
        return result == oracle_reduce(stated)
    return True


def braid_gate(prepared, results, trusted=None):
    from skeinlab.comodule_rt import rt_evaluate
    from skeinlab.syntax import format_element

    _, calls = prepared
    verdict = _digest([format_element(r) for r in results])
    if verdict == trusted and len(results) == len(calls):
        return len(calls), 0, verdict
    rts = {}
    failed = 0
    for stated, result in zip(calls, results):
        if stated.word not in rts:
            rts[stated.word] = rt_evaluate(stated.word)
        failed += not braid_call_ok(stated, result, rts[stated.word])
    failed += len(calls) - len(results)
    return len(calls), failed, verdict


PREPARE = {"verify_all": _verify_prepare, "excision_d3": _excision_prepare, "braid_reduce": _braid_prepare}
RUN = {"verify_all": _verify_run, "excision_d3": _excision_run, "braid_reduce": _braid_run}
GATE = {"verify_all": verify_gate, "excision_d3": excision_gate, "braid_reduce": braid_gate}
