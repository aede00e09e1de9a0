"""Per-layer tracing from outside the program.

The tracer wraps the public functions listed in ``LAYERS`` and every name
bound to them anywhere in the loaded skeinlab package (module attributes,
``from .x import f`` aliases, and functions stored in module-level dicts such
as excision's ``_DEFECTS`` registry).  Each wrapped call is a span on one
stack; when it ends its self time -- its duration minus the time covered by
its child spans -- is added to the function's totals.  Spans are aggregated
as they close rather than stored, because the scalar layer alone makes
millions of calls.

``LAYERS`` lists the traced functions per module; README.md maps each layer
to the end-to-end metric and workload it should move.  ``EXERCISED`` names
the functions each workload must call; a traced run fails when one of them
records no calls, which catches a binding the tracer missed.
"""

from __future__ import annotations

import functools
import sys
import time

#: module -> {metric name: attribute}; methods are given as ``Class.method``.
LAYERS: dict[str, dict[str, str]] = {
    "scalar": {
        "mul": "HalfLaurent.__mul__",
        "add": "HalfLaurent.__add__",
        "pow": "HalfLaurent.__pow__",
        "specialize": "HalfLaurent.specialize",
    },
    **{
        module: {fn: fn for fn in functions}
        for module, functions in {
            "diagram": ("reduce", "resolve_crossings", "word_to_arcs", "evaluate_arcs", "reduce_parallel"),
            "bigon_skein": ("mul", "comul", "antipode", "rot_star", "inv_edge", "t_form", "t_inv_form", "r_form"),
            "quantum_sl2": ("mul", "comul", "to_skein", "from_skein", "pairing"),
            "comodule_rt": ("rt_evaluate", "tensor_power_V", "mat_mul", "intertwiner_dimension"),
            "internal_skein": (
                "st_map",
                "check_st_intertwiner",
                "check_st_naturality",
                "st_rank",
                "check_product_compatibility",
            ),
            "excision": (
                "comul_image_rows",
                "cotensor_defect",
                "merged_invariance_defect",
                "hh0_defect_L",
                "hh0_defect_l_ht",
                "check_coassociativity",
            ),
            "linalg": ("kernel_basis", "rank", "rref", "solve"),
            "oracle": ("oracle_reduce",),
        }.items()
    },
}

TRACED = [f"{module}.{fn}" for module, functions in LAYERS.items() for fn in functions]

#: workload -> traced functions it must call.
EXERCISED = {
    "verify_all": TRACED,
    "excision_d3": [
        name
        for name in TRACED
        if name.split(".")[0] in ("scalar", "diagram", "bigon_skein", "excision", "linalg")
        and name not in ("bigon_skein.r_form", "excision.check_coassociativity", "linalg.rank")
    ],
    "braid_reduce": [
        "scalar.mul",
        "scalar.add",
        "scalar.pow",
        "diagram.reduce",
        "diagram.resolve_crossings",
        "diagram.word_to_arcs",
        "diagram.evaluate_arcs",
    ],
}

#: suites of ``verify all``, timed by wrapping their case thunks.
SUITES = ("hopf", "iso", "coquasi", "halfribbon", "leftright", "braidop", "rt", "comodule", "st", "excision")

#: layer extras: name -> (unit, better)
EXTRAS = {
    "diagram.resolve_crossings.distinct_ratio": ("ratio", "higher"),
    "diagram.resolve_crossings.terms": ("count", "lower"),
    "diagram.evaluate_arcs.fresh": ("count", "lower"),
    "diagram.evaluate_arcs.hit_ratio": ("ratio", "higher"),
    "diagram.memo_entries": ("count", "lower"),
    "bigon_skein.t_form.distinct_ratio": ("ratio", "higher"),
    "diagram.reduce.p50_ms": ("ms", "lower"),
    "diagram.reduce.p90_ms": ("ms", "lower"),
    "linalg.kernel_basis.rows": ("count", "lower"),
    "linalg.kernel_basis.cols": ("count", "lower"),
    "linalg.kernel_basis.kernel_dim": ("count", "lower"),
}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, functions in LAYERS.items():
        for fn in functions:
            specs.append((f"{module}.{fn}.calls", "count", "lower"))
            specs.append((f"{module}.{fn}.self_s", "s", "lower"))
        specs.append((f"{module}.share", "ratio", "lower"))
        specs.extend((name, *ub) for name, ub in EXTRAS.items() if name.startswith(module + "."))
    specs.extend((f"suites.{s}.wall_s", "s", "lower") for s in SUITES)
    specs.append(("suites.cases", "count", "higher"))
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


def _skeinlab_modules():
    return [m for name, m in list(sys.modules.items()) if name == "skeinlab" or name.startswith("skeinlab.")]


def rebind(orig, replacement) -> None:
    """Point every module-level name and registry entry bound to ``orig`` at
    ``replacement``."""
    for module in _skeinlab_modules():
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, replacement)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = replacement


def install_latency_probe(target_module: str, name: str, samples: list[float]) -> None:
    """Append the latency of every call of one function to ``samples``.

    One clock pair per call and no stack.  It runs only in the untraced
    child of each round of a traced run, for the reduce latency percentiles.
    """
    orig = getattr(sys.modules[target_module], name)
    clock = time.perf_counter

    @functools.wraps(orig)
    def probe(*args, **kwargs):
        t0 = clock()
        out = orig(*args, **kwargs)
        samples.append(clock() - t0)
        return out

    rebind(orig, probe)


class Tracer:
    """Span stack with per-function call counts and self time."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self._stack: list[list[float]] = []
        #: distinct first arguments of the functions whose memo potential is sized
        self.distinct: dict[str, set] = {"diagram.resolve_crossings": set(), "bigon_skein.t_form": set()}
        self.resolve_terms = 0
        self.kernel_shape = (0, 0, 0)  # rows, cols, kernel dim of the largest system

    def wrap(self, name: str, fn, after=None):
        """Span wrapper; ``after(args, result)`` records extra counters."""
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, out)
            return out

        return span

    def _record(self, name: str, args, out) -> None:
        self.distinct[name].add(args[0])
        if name == "diagram.resolve_crossings":
            self.resolve_terms += len(out)

    def _wrap_kernel_basis(self, fn):
        def kernel_basis(rows, n):
            rows = list(rows)  # count the rows of a generator argument
            basis = fn(rows, n)
            if n * len(rows) > self.kernel_shape[0] * self.kernel_shape[1]:
                self.kernel_shape = (len(rows), n, len(basis))
            return basis

        return functools.wraps(fn)(kernel_basis)

    def install(self) -> None:
        """Wrap every listed function at every binding; needs skeinlab imported."""
        import skeinlab.cli  # noqa: F401  (loads every traced module)
        import skeinlab.oracle  # noqa: F401
        from skeinlab import suites

        for module, functions in LAYERS.items():
            mod = sys.modules[f"skeinlab.{module}"]
            for short, attr in functions.items():
                name = f"{module}.{short}"
                if "." in attr:  # a method, e.g. HalfLaurent.__mul__
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                    continue
                orig = getattr(mod, attr)
                after = functools.partial(self._record, name) if name in self.distinct else None
                inner = self._wrap_kernel_basis(orig) if name == "linalg.kernel_basis" else orig
                rebind(orig, self.wrap(name, inner, after))

        build = suites.build_suite

        @functools.wraps(build)
        def build_suite(name, *args, **kwargs):
            checks = build(name, *args, **kwargs)
            if name not in SUITES:
                return checks
            return [(label, self.wrap(f"suites.{name}", fn)) for label, fn in checks]

        rebind(build, build_suite)

    def metrics(self, wall_s: float, memo_before: int, memo_after: int) -> dict[str, float]:
        """Every per-layer metric that a traced child measures; the reduce
        latency percentiles and trace.overhead_frac come from untraced ones."""
        out: dict[str, float] = {}
        for module, functions in LAYERS.items():
            module_self = 0.0
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = self.calls.get(name, 0)
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
                module_self += self.self_s.get(name, 0.0)
            out[f"{module}.share"] = module_self / wall_s if wall_s > 0 else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        resolve_calls = self.calls.get("diagram.resolve_crossings", 0)
        out["diagram.resolve_crossings.distinct_ratio"] = ratio(
            len(self.distinct["diagram.resolve_crossings"]), resolve_calls
        )
        out["diagram.resolve_crossings.terms"] = self.resolve_terms
        eval_calls = self.calls.get("diagram.evaluate_arcs", 0)
        fresh = memo_after - memo_before
        out["diagram.evaluate_arcs.fresh"] = fresh
        out["diagram.evaluate_arcs.hit_ratio"] = ratio(eval_calls - fresh, eval_calls)
        out["diagram.memo_entries"] = memo_after
        out["bigon_skein.t_form.distinct_ratio"] = ratio(
            len(self.distinct["bigon_skein.t_form"]), self.calls.get("bigon_skein.t_form", 0)
        )
        rows, cols, kdim = self.kernel_shape
        out["linalg.kernel_basis.rows"] = rows
        out["linalg.kernel_basis.cols"] = cols
        out["linalg.kernel_basis.kernel_dim"] = kdim
        cases = 0
        for s in SUITES:
            out[f"suites.{s}.wall_s"] = self.total_s.get(f"suites.{s}", 0.0)
            cases += self.calls.get(f"suites.{s}", 0)
        out["suites.cases"] = cases
        return out

    def unexercised(self, workload: str) -> list[str]:
        """Functions this workload must call that recorded no calls."""
        return [name for name in EXERCISED[workload] if not self.calls.get(name)]
