"""skeinlab benchmark: one command, cold processes, fixed workloads.

    python3 bench/run.py --workload {verify_all,excision_d3,braid_reduce}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measured run is a fresh interpreter,
started one at a time (closed loop, one client), because every CLI user pays
for skeinlab's process-global memos cold.  Children get a fixed
PYTHONHASHSEED, ``src`` on PYTHONPATH, and no SKEINLAB_CACHE; no workload
passes ``--cache`` or ``--workers``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of traced children, run
alternately with untraced ones to give the tracing overhead.  The line
before it holds the run's metadata (revision, machine, seed, samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import per_layer_specs  # noqa: E402

#: Set-up-only children per run, on top of one set-up sample per measured child.
SETUP_SPAWNS = 5
#: Measured children per untraced run even when they overrun the window, so
#: the reported figures are medians.
MIN_ROUNDS = 2
#: Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "SKEINLAB_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(request: dict, timeout: float) -> tuple[dict | None, str]:
    """Run one child to completion; returns (result, error)."""
    request = dict(request, spawn_t=time.monotonic())
    with subprocess.Popen(
        [sys.executable, "-s", str(BENCH / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(request), timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timeout"
        except BaseException:
            proc.kill()  # leaving the with block waits for it
            raise
    if proc.returncode != 0 or not out.strip():
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(out.strip().splitlines()[-1]), ""


def machine_info(workload: str, seed: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout without .git reports no revision, not that of an enclosing repository.
    rev = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "skeinlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": rev,
        "git_dirty": bool(status) if rev else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    base = {"workload": workload, "inputs": workloads.make_inputs(workload, seed), "src": str(SRC)}
    errors: list[str] = []
    setups: list[float] = []
    for _ in range(SETUP_SPAWNS):
        res, err = spawn(dict(base, setup_only=True, trace=0), hard_deadline - time.monotonic())
        if res is None:
            errors.append(err)
        else:
            setups.append(res["setup_s"])

    # Closed loop: one child at a time; with tracing, an untraced and a
    # traced child per round.  After MIN_ROUNDS (one when tracing), stop
    # before a round that would overrun the window.
    kinds = (0, 1) if trace else (0,)
    min_rounds = 1 if trace else MIN_ROUNDS
    runs: dict[int, list[dict]] = {k: [] for k in kinds}
    round_s: list[float] = []
    trusted = None
    while True:
        t0 = time.monotonic()
        for kind in kinds:
            request = dict(base, trace=kind, probe=trace and not kind, trusted=trusted)
            res, err = spawn(request, hard_deadline - time.monotonic())
            if res is None:
                errors.append(err)
                continue
            runs[kind].append(res)
            setups.append(res["setup_s"])
            if trusted is None and res["failed"] == 0:
                trusted = res["verdict"]
        round_s.append(time.monotonic() - t0)
        next_end = time.monotonic() + statistics.median(round_s)
        if errors or next_end > hard_deadline:
            break
        if len(round_s) >= min_rounds and next_end > start + seconds:
            break

    children = [r for k in kinds for r in runs[k]]
    expected = max((r["attempted"] for r in children), default=1)
    attempted = sum(r["attempted"] for r in children) + expected * len(errors)
    failed = sum(r["failed"] for r in children) + expected * len(errors)
    verdicts = {r["verdict"] for r in children}
    problems = list(errors)
    if len(verdicts) > 1:
        problems.append(f"verdicts differ across children: {sorted(verdicts)}")

    def med(kind: int, key: str) -> float:
        return statistics.median(r[key] for r in runs[kind])

    metrics: dict[str, dict] = {}
    if runs[0] and (not trace or runs[1]):
        if trace:
            traced = runs[1]
            for r in traced:
                if r["unexercised"]:
                    problems.append(f"no calls recorded for {', '.join(r['unexercised'])}")
            counts = {json.dumps({k: v for k, v in r["layers"].items() if k.endswith(".calls")}) for r in traced}
            if len(counts) > 1:
                problems.append("call counts differ between traced children")
            layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
            layers["trace.overhead_frac"] = med(1, "wall_s") / med(0, "wall_s") - 1.0
            # Children repeat the same calls in the same order, so each call's
            # latency is taken as its median over the untraced children, which
            # drops a burst of host noise that hit one child.
            per_child = [r["reduce_ms"] for r in runs[0]]
            if len({len(lat) for lat in per_child}) > 1:
                problems.append("children made different numbers of reduce calls")
            reduce_ms = [statistics.median(call) for call in zip(*per_child)]
            layers["diagram.reduce.p50_ms"] = percentile(reduce_ms, 0.5)
            layers["diagram.reduce.p90_ms"] = percentile(reduce_ms, 0.9)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in per_layer_specs()}
        else:
            values = {
                "wall_s": med(0, "wall_s"),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": med(0, "peak_rss_mb"),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        problems.append("no measured child completed")

    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    meta = dict(
        machine_info(workload, seed),
        trace=int(trace),
        fail_frac=failed / max(attempted, 1),
        children={str(k): [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "setup_s": r["setup_s"]} for r in runs[k]] for k in kinds},
        setup_samples=setups,
        elapsed_s=time.monotonic() - start,
    )
    return result, meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "skeinlab" / "__init__.py").is_file():
        print(f"bench: no skeinlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
