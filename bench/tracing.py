"""Span tracing for the benchmark, installed from outside the library.

`Tracer.install()` wraps the public spernerlib functions listed in LAYERS and
rebinds each wrapper under every name that a loaded spernerlib module holds
for the original function, so calls made inside the library are traced too.
Each call records a span (name, start, end, parent span, query id) in
memory; work counts are recorded at the same boundaries. Nothing is written
until the caller asks for `snapshot()`.

Only the benchmark's traced runs install a tracer; untraced runs call the
library untouched.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# The line bench/sperner_traced.py writes to stderr just before `cli.main`,
# so that imports made during main can be told from those before it.
MAIN_STARTS = "sperner_traced: cli.main starts"

# (module, function, span name); span name None means "count calls only",
# so the callee's time stays in its caller's self time.
LAYERS = (
    ("bigcomb", "left_adjoint", "bigcomb.left_adjoint"),
    ("sperner_estimates", "lower_w", "sperner_estimates.lower_w"),
    ("sperner_estimates", "lower_v", "sperner_estimates.lower_v"),
    ("sperner_estimates", "upper_w", "sperner_estimates.upper"),
    ("sperner_estimates", "upper_v", "sperner_estimates.upper"),
    ("sperner", "min_embedding", "sperner.min_embedding"),
    ("sperner", "vw_pattern_kind", "sperner.vw_pattern_kind"),
    ("sperner", "sp_dispatch", "sperner.dispatch"),
    ("sperner", "asp_dispatch", "sperner.dispatch"),
    ("poset_core", "are_isomorphic", None),
    ("poset_core", "down_set_lattice", "poset_core.down_set_lattice"),
    ("poset_core", "direct_power", "poset_core.direct_power"),
    ("poset_core", "is_distributive_lattice", "poset_core.is_distributive_lattice"),
    ("poset_core", "join_irreducibles", "poset_core.join_irreducibles"),
    ("witness", "witness_w", "witness.construct"),
    ("witness", "witness_v", "witness.construct"),
    ("witness", "witness_bounded", "witness.construct"),
    ("witness", "certify", "witness.certify"),
    ("oracle", "enumerate_copies", "oracle.enumerate_copies"),
    ("oracle", "max_clique", "oracle.max_clique"),
    ("oracle", "sp_exhaustive", "oracle.sp_exhaustive"),
    ("lattice_genset", "gmin_bruteforce", "lattice_genset.gmin_bruteforce"),
    ("lattice_genset", "gmin_power", "lattice_genset.gmin_power"),
    ("cli", "main", "cli.main"),
)

ESTIMATE_CACHES = ("lower_w", "lower_v", "upper_w", "upper_v")


def _certify_pairs(args, kwargs, result) -> int:
    if result.mode == "full":
        return result.copies * (result.copies - 1) // 2
    return kwargs.get("sample_pairs", 200_000)


# span name -> (count name, function of (args, kwargs, result) giving the count)
_COUNTS = {
    "poset_core.direct_power": ("poset_core.direct_power.elements",
                                lambda a, kw, r: r.size),
    "witness.construct": ("witness.construct.copies", lambda a, kw, r: len(r)),
    "witness.certify": ("witness.certify.pairs", _certify_pairs),
    "oracle.enumerate_copies": ("oracle.enumerate_copies.copies",
                                lambda a, kw, r: len(r)),
    "lattice_genset.gmin_bruteforce": (
        "lattice_genset.gmin_bruteforce.carrier_elements",
        lambda a, kw, r: (a[0] if a else kw["lattice"]).size),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, query id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        for module, _, _ in LAYERS:
            importlib.import_module("spernerlib." + module)
        mods = [m for name, m in list(sys.modules.items())
                if name == "spernerlib" or name.startswith("spernerlib.")]
        for module, func, span in LAYERS:
            original = getattr(sys.modules["spernerlib." + module], func)
            self._originals[f"{module}.{func}"] = original
            wrapper = self._wrap(original, span, f"{module}.{func}.calls")
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, original, span, calls_name):
        counts = self.counts
        if span is None:
            def counted(*args, **kwargs):
                counts[calls_name] += 1
                return original(*args, **kwargs)
            return counted
        spans, stack = self.spans, self._stack
        extra = _COUNTS.get(span)
        probing = span == "bigcomb.left_adjoint"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[calls_name] += 1
            if probing:
                f = args[0]

                def probe(n):
                    counts["bigcomb.left_adjoint.probes"] += 1
                    return f(n)
                args = (probe,) + args[1:]
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                counts[extra[0]] += extra[1](args, kwargs, result)
            return result
        return traced

    def cache_info(self) -> dict[str, list[int]]:
        """[hits, misses] of each estimate cache, read from the originals."""
        out = {}
        for name in ESTIMATE_CACHES:
            info = self._originals[f"sperner_estimates.{name}"].cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def snapshot(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts),
                "cache": self.cache_info()}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus that of direct children.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of it and their durations can be summed.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals


def pass_layers(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by benchmark metric name.

    For cli-session each query is a process: its wall time splits into the
    numpy import and the rest of the spernerlib import made before main
    (both from -X importtime), the `cli.main` span (which holds any import
    made during main), and the process overhead that remains (interpreter
    start and exit).
    """
    self_s: dict[str, float] = {}
    counts: Counter = Counter()
    hits = misses = 0
    misses_of = Counter()
    cli = Counter()
    for idx, snap in enumerate(result["layers"]):
        for name, value in self_times(snap["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + value
        counts.update(snap["counts"])
        for name, (h, m) in snap["cache"].items():
            hits += h
            misses += m
            misses_of[name] += m
        if "imports" in snap:
            numpy = snap["imports"]["numpy"]
            library = snap["imports"]["spernerlib"]
            main = sum(end - start for name, start, end, _, _ in snap["spans"]
                       if name == "cli.main")
            cli["cli.import_numpy_s"] += numpy
            cli["cli.import_spernerlib_s"] += library
            cli["cli.process_overhead_s"] += (result["latencies_s"][idx]
                                             - numpy - library - main)
    queries = len(result["latencies_s"])
    certify_s = self_s.get("witness.certify", 0.0)
    pairs = counts["witness.certify.pairs"]
    out = {
        "bigcomb.left_adjoint.calls": counts["bigcomb.left_adjoint.calls"],
        "bigcomb.left_adjoint.probes": counts["bigcomb.left_adjoint.probes"],
        "sperner_estimates.lower_w.misses": misses_of["lower_w"],
        "sperner_estimates.lower_v.misses": misses_of["lower_v"],
        "sperner_estimates.cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "sperner.min_embedding.calls_per_query":
            counts["sperner.min_embedding.calls"] / queries,
        "poset_core.are_isomorphic.calls":
            counts["poset_core.are_isomorphic.calls"],
        "poset_core.direct_power.elements":
            counts["poset_core.direct_power.elements"],
        "witness.construct.copies": counts["witness.construct.copies"],
        "witness.certify.pairs": pairs,
        "witness.certify.pairs_per_s": pairs / certify_s if certify_s else 0.0,
        "oracle.enumerate_copies.copies":
            counts["oracle.enumerate_copies.copies"],
        "lattice_genset.gmin_bruteforce.carrier_elements":
            counts["lattice_genset.gmin_bruteforce.carrier_elements"],
    }
    for _, _, span in LAYERS:
        if span is not None:
            out[span + ".self_s"] = self_s.get(span, 0.0)
    out.update({k: cli[k] for k in ("cli.import_numpy_s",
                                    "cli.import_spernerlib_s",
                                    "cli.process_overhead_s")})
    out["attributed_s"] = sum(self_s.values()) + sum(cli.values())
    return out


# Per-layer values that count work; they must repeat exactly for one seed.
WORK_COUNTS = ("bigcomb.left_adjoint.calls", "bigcomb.left_adjoint.probes",
               "sperner_estimates.lower_w.misses",
               "sperner_estimates.lower_v.misses",
               "sperner_estimates.cache_hit_ratio",
               "sperner.min_embedding.calls_per_query",
               "poset_core.are_isomorphic.calls",
               "poset_core.direct_power.elements",
               "witness.construct.copies", "witness.certify.pairs",
               "oracle.enumerate_copies.copies",
               "lattice_genset.gmin_bruteforce.carrier_elements")
