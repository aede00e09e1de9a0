"""Tests of the benchmark itself: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Three small words, so a traced child finishes in about a second.
SMALL_WORDS = workloads.braid_inputs(5, crossings=range(3, 6), per_stratum=1)


def _traced_child(words):
    request = {"workload": "braid_reduce", "inputs": {"words": words}, "src": str(run.SRC), "trace": 1}
    result, err = run.spawn(request, timeout=120)
    assert result is not None, err
    return result


def test_traced_call_counts_repeat_exactly():
    first, second = _traced_child(SMALL_WORDS), _traced_child(SMALL_WORDS)
    counts = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["diagram.reduce.calls"] == 3 * len(SMALL_WORDS)
    assert first["verdict"] == second["verdict"]
    assert first["failed"] == 0 and first["unexercised"] == []


def test_untraced_child_installs_nothing_unless_probed():
    request = {"workload": "braid_reduce", "inputs": {"words": SMALL_WORDS}, "src": str(run.SRC), "trace": 0}
    plain, err = run.spawn(request, timeout=120)
    assert plain is not None, err
    probed, err = run.spawn(dict(request, probe=True), timeout=120)
    assert probed is not None, err
    assert "reduce_ms" not in plain and "layers" not in plain
    assert len(probed["reduce_ms"]) == 3 * len(SMALL_WORDS)
    assert plain["verdict"] == probed["verdict"]


def _prepared_small():
    return workloads.PREPARE["braid_reduce"]({"words": SMALL_WORDS})


def test_gate_accepts_true_results():
    prepared = _prepared_small()
    attempted, failed, _ = workloads.braid_gate(prepared, workloads.RUN["braid_reduce"](prepared))
    assert (attempted, failed) == (9, 0)


@pytest.mark.parametrize("diagonal", [True, False])
def test_gate_catches_corrupted_reduce(diagonal):
    from skeinlab.diagram import BasisTangle, SkeinElement

    prepared = _prepared_small()
    results = workloads.RUN["braid_reduce"](prepared)
    # A diagonal tangle changes the counit; an off-diagonal one keeps it and
    # is caught by the oracle comparison for short words.
    nu = (1, 1, 1, 1) if diagonal else (1, 1, 1, -1)
    results[4] = results[4] + SkeinElement.of(BasisTangle(4, (1, 1, 1, 1), nu))
    _, failed, _ = workloads.braid_gate(prepared, results)
    assert failed == 1


def test_seeds_change_words_but_not_strata():
    a, b = workloads.braid_inputs(1), workloads.braid_inputs(2)
    assert [w["slices"] for w in a] != [w["slices"] for w in b]

    def strata(words):
        return Counter(len(w["slices"]) for w in words)

    assert strata(a) == strata(b) == Counter({c: 4 for c in range(6, 15)})
    assert sum(len(w["states"]) for w in a) == 108
    assert workloads.braid_inputs(1) == a


def test_verify_gate_counts_failing_cases():
    report = {
        "suite": "all",
        "parameters": {},
        "cases": [{"name": "a", "status": "pass", "witness": None}, {"name": "b", "status": "fail", "witness": "w"}],
        "totals": {"pass": 1, "fail": 1, "total": 2},
        "wall_time": 0.1,
    }
    assert workloads.verify_gate(None, (1, json.dumps(report)))[:2] == (2, 1)
    assert workloads.verify_gate(None, (0, "not json"))[:2] == (1, 1)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_specs()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_every_traced_function_is_exercised_by_a_listed_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    covered = {name for w in spec["workloads"] for name in tracer.EXERCISED[w["name"]]}
    assert covered == set(tracer.TRACED)
    assert set(tracer.EXERCISED) == set(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "braid_reduce", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
