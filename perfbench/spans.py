"""Per-layer spans for topolab, recorded from outside the package.

`Tracer.install()` wraps the public functions listed in TARGETS and rebinds
each wrapper in every loaded `topolab.*` namespace that holds the original,
so calls made through `from .finspace import ...` imports are seen too.
Methods are rebound on their class. No file of the package changes.

Each call records a span (name, start, end, parent) in memory; `write()`
saves them when the pass ends. Aggregates are kept as the spans close:

- `<layer>.s`: inclusive seconds of the outermost calls of that function;
- `<layer>.calls`: number of calls, cache hits included;
- `<module>.self_s`: span time minus the time covered by child spans,
  summed over every span of the module;
- a few work counters named in COUNTERS.

`misses` come from `cache_info()` of the lru_cache'd originals.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "finspace", "mapspace", "hypertop", "fntop", "duality",
    "checkers", "explorer", "reports", "cli",
)

QUESTION_IDS = (
    "q1", "q2", "q3.1", "q3.2", "q3.3", "q4", "q5",
    "q6", "q7", "q8", "q9", "q10", "q11", "q12",
)

# (module, attribute, layer name); several attributes may share a layer name
TARGETS = (
    ("finspace", "separation_profile", "finspace.separation_profile"),
    ("finspace", "local_profile", "finspace.local_profile"),
    ("finspace", "compactness_verdict", "finspace.cover_verdict"),
    ("finspace", "boundedness_verdict", "finspace.cover_verdict"),
    ("finspace", "subspace", "finspace.subspace"),
    ("finspace", "generate_from_subbasis", "finspace.generate_from_subbasis"),
    ("finspace", "enumerate_topologies", "finspace.enumerate_topologies"),
    ("mapspace", "enumerate_continuous", "mapspace.enumerate_continuous"),
    ("mapspace", "z_topology", "mapspace.z_topology"),
    ("mapspace", "relative_profile", "mapspace.relative_profile"),
    ("hypertop", "scott", "hypertop.scott"),
    ("hypertop", "strong_scott", "hypertop.strong_scott"),
    ("hypertop", "z_scott", "hypertop.z_scott"),
    ("hypertop", "strong_z_scott", "hypertop.strong_z_scott"),
    ("hypertop", "compact_subbasis_topology", "hypertop.compact_subbasis_topology"),
    ("fntop", "named_function_topology", "fntop.named_function_topology"),
    ("fntop", "kset_topology", "fntop.kset_topology"),
    ("fntop", "lift_open_family", "fntop.lift_open_family"),
    ("fntop", "compare_topologies", "fntop.compare_topologies"),
    ("fntop", "evaluation_witness", "fntop.evaluation_witness"),
    ("fntop", "FnTopology.as_space", "fntop.FnTopology.as_space"),
    ("duality", "tau_of_t", "duality.tau_of_t"),
    ("duality", "t_of_tau", "duality.t_of_tau"),
    ("duality", "is_admissible_on_ozy", "duality.is_admissible_on_ozy"),
    ("checkers", "theorem_suite", "checkers.theorem_suite"),
    ("checkers", "refute_splitting", "checkers.refute_splitting"),
    ("checkers", "composition_check", "checkers.composition_check"),
    ("explorer", "question_search", "explorer.question_search"),
    ("reports", "suite_to_json", "reports.serialize"),
    ("reports", "VerdictReport.to_dict", "reports.serialize"),
    ("cli", "main", "cli.main"),
)

# every lru_cache'd function of the package at the seed commit
CACHED = (
    ("finspace", "_profile"),
    ("finspace", "enumerate_topologies"),
    ("mapspace", "enumerate_continuous"),
    ("mapspace", "o_z_family"),
    ("mapspace", "z_topology"),
    ("mapspace", "relative_profile"),
    ("mapspace", "sierpinski_correspondence"),
    ("hypertop", "scott"),
    ("hypertop", "strong_scott"),
    ("hypertop", "z_scott"),
    ("hypertop", "strong_z_scott"),
    ("hypertop", "compact_subbasis_topology"),
    ("fntop", "named_function_topology"),
)

COUNTERS = (
    "finspace.cover_verdict.literal_share",
    "hypertop.opens_out",
    "checkers.refute_splitting.instances",
)

# layers timed in the worker's cold pass; reports and cli are timed in the
# CLI process, where serialization sits on the user's path
WORKER_MODULES = MODULES[:7]
CLI_MODULES = MODULES[7:]


def _layer_metric_names() -> tuple[str, ...]:
    names = []
    seen = set()
    for _, _, layer in TARGETS:
        if layer in seen:
            continue
        seen.add(layer)
        if layer == "explorer.question_search":
            names.extend(f"{layer}.{qid}.s" for qid in QUESTION_IDS)
            continue
        names.extend((f"{layer}.s", f"{layer}.calls"))
    for module, attr in CACHED:
        names.append(f"{module}.{attr}.misses")
    names.extend(COUNTERS)
    names.extend(f"{m}.self_s" for m in MODULES)
    names.append("trace_overhead")
    return tuple(names)


LAYER_METRICS = _layer_metric_names()


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".misses", ".instances", ".opens_out")):
        return "count"
    if name.endswith(("_share", "_overhead")):
        return "ratio"
    return "s"


def lru_caches() -> dict[str, object]:
    """Every lru_cache'd function defined at module level in topolab, found
    by scanning, so a cache added later is covered without a list edit."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "topolab" or modname.startswith("topolab.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                if getattr(value, "__module__", "") == modname:
                    found[f"{modname.split('.')[-1]}.{attr}"] = value
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._active: Counter = Counter()
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._cached: dict[str, object] = {}

    def install(self) -> None:
        loaded = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "topolab" or name.startswith("topolab."))
        ]
        mods = {mod.__name__.split(".")[-1]: mod for mod in loaded}
        for module, attr in CACHED:
            self._cached[f"{module}.{attr}"] = getattr(mods[module], attr)
        for module, attr, layer in TARGETS:
            mod = mods.get(module)
            if mod is None:  # cli is loaded only in the CLI process
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), layer, module))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, layer, module)
            for other in loaded:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    def _wrap(self, fn, layer: str, module: str):
        spans = self.spans
        stack = self._stack
        active = self._active
        totals = self.totals
        calls = self.calls
        self_s = self.self_s
        on_result = self._on_result
        cache_info = getattr(fn, "cache_info", None)
        per_question = layer == "explorer.question_search"

        def wrapper(*args, **kwargs):
            name = layer
            if per_question:
                qid = args[0] if args else kwargs["qid"]
                name = f"{layer}.{qid}"
            misses = cache_info().misses if cache_info else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                active[name] -= 1
                if not active[name]:
                    totals[name] += dur
                calls[name] += 1
                self_s[module] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, start, end, parent)
            computed = cache_info is None or cache_info().misses > misses
            on_result(layer, result, computed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _on_result(self, layer: str, result, computed: bool) -> None:
        if layer == "finspace.cover_verdict":
            if result[1] == "literal-covers":
                self.counts["finspace.cover_verdict.literal"] += 1
        elif layer.startswith("hypertop.") and computed:
            self.counts["hypertop.opens_out"] += len(result.opens)
        elif layer == "checkers.refute_splitting":
            self.counts["checkers.refute_splitting.instances"] += result.instance_count

    def summary(self, modules=MODULES) -> dict[str, float]:
        """Raw per-layer numbers for the given modules; run.py merges the
        worker's and the CLI processes' summaries into LAYER_METRICS."""
        out: dict[str, float] = {}
        for name in set(self.totals) | set(self.calls):
            if name.split(".")[0] in modules:
                out[f"{name}.s"] = self.totals[name]
                out[f"{name}.calls"] = self.calls[name]
        for key, fn in self._cached.items():
            if key.split(".")[0] in modules:
                out[f"{key}.misses"] = fn.cache_info().misses
        if "finspace" in modules:
            cover_calls = self.calls["finspace.cover_verdict"]
            literal = self.counts["finspace.cover_verdict.literal"]
            out["finspace.cover_verdict.literal_share"] = (
                literal / cover_calls if cover_calls else 0.0
            )
        for key in ("hypertop.opens_out", "checkers.refute_splitting.instances"):
            if key.split(".")[0] in modules:
                out[key] = self.counts[key]
        for module in modules:
            out[f"{module}.self_s"] = self.self_s[module]
        return out

    def write(self, path: str, layers: dict) -> None:
        """Save the summary and every span as [name, start, end, parent]."""
        spans = [list(s) for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"layers": layers, "spans": spans}, fh)
