"""One measured run of one workload in a fresh interpreter.

Reads a JSON request on stdin, prints one JSON result line on stdout.  The
parent starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and passes the monotonic time at which it spawned the process, so
``setup_s`` covers interpreter start, ``import skeinlab`` and input set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def run(req: dict) -> dict:
    import skeinlab
    from skeinlab import diagram

    src = Path(req["src"]).resolve()
    if src not in Path(skeinlab.__file__).resolve().parents:
        raise RuntimeError(f"imported skeinlab from {skeinlab.__file__}, not from {src}")
    name = req["workload"]
    prepared = workloads.PREPARE[name](req["inputs"])
    setup_s = time.monotonic() - req["spawn_t"]
    out = {"setup_s": setup_s}
    if req.get("setup_only"):
        return out

    tracer = None
    samples: list[float] = []
    if req["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    elif req.get("probe"):
        from tracer import install_latency_probe

        install_latency_probe("skeinlab.diagram", "reduce", samples)
    memo_before = len(diagram.memo_snapshot())

    t0, c0 = time.perf_counter(), time.process_time()
    output = workloads.RUN[name](prepared)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the gate

    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s, memo_before, len(diagram.memo_snapshot()))
        out["unexercised"] = tracer.unexercised(name)
    attempted, failed, verdict = workloads.GATE[name](prepared, output, req.get("trusted"))
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=failed,
        verdict=verdict,
    )
    if req.get("probe"):
        out["reduce_ms"] = [1000.0 * t for t in samples]
    return out


def main() -> None:
    req = json.loads(sys.stdin.read())
    result = run(req)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
