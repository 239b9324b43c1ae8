"""Per-layer tracing, recorded from the benchmark's side of each call.

Layers are the package's modules. Counts come from wrappers installed on
module attributes and class operators for the duration of a traced run,
and from a counting dict passed as the public ``cache=`` argument. Self
time comes from cProfile: each function's own time goes to the module that
defines it, and time in the standard library or builtins goes to the
package module (or the benchmark) that called it, split over callers in
proportion to the time each caller's calls took.
"""

from __future__ import annotations

import cProfile
import contextlib
import os
import pstats
import time
from collections import Counter, defaultdict
from typing import Dict, Optional

LAYERS = ("lattice", "refined_poly", "chord_recursion", "direct_enumerator", "cli")
HARNESS = "harness"


class CountingCache(dict):
    """Sub-degree cache that counts lookups, hits and stored solutions."""

    def __init__(self, counts: Counter, *args):
        super().__init__(*args)
        self.counts = counts

    def get(self, key, default=None):
        self.counts["cache_lookups"] += 1
        if key in self:
            self.counts["cache_hits"] += 1
            return dict.__getitem__(self, key)
        return default

    def __getitem__(self, key):
        self.counts["cache_lookups"] += 1
        value = dict.__getitem__(self, key)
        self.counts["cache_hits"] += 1
        return value

    def __setitem__(self, key, value):
        self.counts["subdegrees_solved"] += 1
        dict.__setitem__(self, key, value)


class Tracer:
    """Counters, timers and a profiler for the traced passes of one run."""

    def __init__(self, src_pkg_dir: str, bench_dir: str):
        self.pkg_dir = os.path.realpath(src_pkg_dir)
        self.bench_dir = os.path.realpath(bench_dir)
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.absent = set()
        self.profile = cProfile.Profile()

    def new_cache(self) -> CountingCache:
        return CountingCache(self.counts)

    @contextlib.contextmanager
    def installed(self, pkg, cli):
        """Wrap the layer entry points; restore the originals on exit."""
        saved = []

        def swap(owner, name, make, metric_names=()):
            orig = getattr(owner, name, None)
            if orig is None:
                self.absent.update(metric_names)
                return
            saved.append((owner, name, orig))
            setattr(owner, name, make(orig))

        counts, times = self.counts, self.times
        chord = pkg.chord_recursion
        enumerator = pkg.direct_enumerator
        poly_cls = pkg.RefinedPolynomial

        def n_terms(x):
            if isinstance(x, poly_cls):
                return sum(1 for _ in x.items())
            return 1 if x else 0

        def counted_sub_multisets(orig):
            def wrapper(pool):
                counts["suffix_states"] += 1
                for item in orig(pool):
                    counts["candidates"] += 1
                    yield item
            return wrapper

        def counted_op(kind):
            def make(orig):
                def wrapper(a, b):
                    counts[kind] += 1
                    counts["term_products"] += n_terms(a) * n_terms(b)
                    return orig(a, b)
                return wrapper
            return make

        def counted_iter(key):
            def make(orig):
                def wrapper(*args, **kwargs):
                    counts[key + "_calls"] += 1
                    for item in orig(*args, **kwargs):
                        counts[key] += 1
                        yield item
                return wrapper
            return make

        def timed(key):
            def make(orig):
                def wrapper(*args, **kwargs):
                    t0 = time.perf_counter()
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        times[key] += time.perf_counter() - t0
                return wrapper
            return make

        def counted_load(orig):
            def wrapper(path):
                counts["cache_bytes"] += os.path.getsize(path)
                t0 = time.perf_counter()
                try:
                    loaded = orig(path)
                finally:
                    times["load_s"] += time.perf_counter() - t0
                counts["loads"] += 1
                counts["cache_entries"] += len(loaded)
                return CountingCache(counts, loaded)
            return wrapper

        swap(chord, "_sub_multisets", counted_sub_multisets,
             ("chord_recursion.suffix_states", "chord_recursion.candidates"))
        for name in ("__mul__", "__rmul__"):
            swap(poly_cls, name, counted_op("mul_calls"))
        for name in ("__add__", "__radd__"):
            swap(poly_cls, name, counted_op("add_calls"))
        swap(enumerator, "enumerate_trees", counted_iter("trees"))
        swap(enumerator, "iter_solutions", counted_iter("solutions"))
        swap(cli, "load_cache", counted_load)
        swap(cli, "save_cache", timed("save_s"))
        swap(cli, "parse_degree", timed("parse_s"))
        try:
            yield
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)

    def profiled(self, fn):
        self.profile.enable()
        try:
            return fn()
        finally:
            self.profile.disable()

    def self_times(self) -> Dict[str, float]:
        """Total profiled own time per layer, plus the benchmark's share."""
        stats = pstats.Stats(self.profile).stats
        shares_memo: Dict[tuple, Dict[str, float]] = {}

        def own_layer(func) -> Optional[str]:
            path = func[0]
            if path.startswith("<") or path == "~":
                return None
            path = os.path.realpath(path)
            if os.path.dirname(path) == self.pkg_dir:
                return os.path.splitext(os.path.basename(path))[0]
            if os.path.dirname(path) == self.bench_dir:
                return HARNESS
            return None

        def shares(func, visiting) -> Dict[str, float]:
            layer = own_layer(func)
            if layer is not None:
                return {layer: 1.0}
            if func in shares_memo:
                return shares_memo[func]
            if func in visiting or func not in stats:
                return {}
            visiting.add(func)
            callers = stats[func][4]
            total = sum(edge[2] for edge in callers.values())
            calls = sum(edge[1] for edge in callers.values())
            out: Dict[str, float] = defaultdict(float)
            for caller, edge in callers.items():
                weight = edge[2] / total if total > 0 else edge[1] / calls
                for layer, share in shares(caller, visiting).items():
                    out[layer] += weight * share
            visiting.discard(func)
            shares_memo[func] = dict(out)
            return shares_memo[func]

        result: Dict[str, float] = {name: 0.0 for name in LAYERS + (HARNESS,)}
        for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
            resolved = shares(func, set())
            unresolved = 1.0 - sum(resolved.values())
            for layer, share in resolved.items():
                if layer in result:
                    result[layer] += tottime * share
                else:
                    unresolved += share
            # code no layer called, such as the profiler's own switch
            result[HARNESS] += tottime * unresolved
        return result
