"""Inputs, set-up and checked operations of the three benchmark workloads.

Every workload drives the package only through its public entry points:
``refined_invariant``, ``oracle_invariant`` and ``cli.main``. A pass runs
each of the workload's fixed inputs once and checks every output against
``reference.json`` (exact equality), for palindromy and for uniform parity.
The degree sets are fixed; the workload seed only permutes the input order
and draws the oracle's moment seeds, so the work per pass does not depend
on it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import statistics
import time
from functools import partial
from typing import Callable, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

Terms = Dict[int, int]


def partitions(n: int, largest: int = 0):
    """Partitions of ``n`` as nonincreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def triangle_specs(max_degree: int) -> List[str]:
    return [
        f"P2:{d}:" + ",".join(map(str, lam))
        for d in range(1, max_degree + 1)
        for lam in partitions(d)
    ]


HEXAGON = "(1,0),(0,1),(-1,1),(-1,0),(0,-1),(1,-1)"

# The CORPUS degrees of the test suite (all at most 8 ends) plus P1xP1:1,3,
# an odd count so the median call lands on one degree, not between two.
ORACLE_SPECS = [
    "P2:1", "P2:2", "P2:2:2", "P2:3:3", "P2:3:2,1",
    "(-2,0),(0,-2),(2,2)", "(0,-2),(-1,1),(1,1)",
    "P1xP1:1,1", "P1xP1:1,2", "P1xP1:2,2", HEXAGON,
    "(-3,1),(1,-2),(2,1)", "(-1,0)^2,(1,2),(1,-2)", "(0,-1)^2,(-1,1),(1,1)",
    "P1xP1:1,3",
]

# Full and quick (--quick) inputs per workload. chord-cold's degrees take
# about 0.13, 0.18, 0.45, 0.7 and 1.0 s on a quiet core: the median call
# falls on P2:6:3,1,1,1 and the 90th percentile on P2:7:2,2,2,1, each well
# apart from its neighbours. P2:7 itself (3.3 s) left too few calls per run
# for steady percentiles.
SPECS = {
    "chord-cold": {
        "full": ["P2:5", "P1xP1:3,4", "P2:6:3,1,1,1", "P2:6", "P2:7:2,2,2,1"],
        "quick": ["P2:3", "P2:4", "P1xP1:2,2"],
    },
    "cli-warm": {
        "full": triangle_specs(6)
        + [f"P1xP1:{a},{b}" for a in (1, 2) for b in (1, 2, 3)]
        + [HEXAGON],
        "quick": triangle_specs(3) + ["P1xP1:1,1", HEXAGON],
    },
    "oracle-verify": {
        "full": ORACLE_SPECS,
        "quick": [s for s in ORACLE_SPECS if s not in
                  ("P2:3:3", "P2:3:2,1", "P1xP1:2,2", "P1xP1:1,3")],
    },
}
ORACLE_SEEDS_PER_DEGREE = 2
# The persistent cache of cli-warm holds what computing every triangle
# degree up to this degree leaves behind (318 entries, about 55 KB).
PREFILL_MAX_DEGREE = 6
WORKLOADS = tuple(SPECS)

# On a shared 2-vCPU Intel Xeon VM the same code ran up to twice as slowly
# for stretches of seconds to minutes. Every timed interval is
# therefore scaled by (NOMINAL_KERNEL_S / k) ** CONTENTION_EXPONENT, where k
# is the mean time of a fixed kernel measured right before and right after
# it: "calibrated seconds". NOMINAL_KERNEL_S is the kernel's time on an
# uncontended core of a 2-vCPU Intel Xeon VM (Python 3.11), so calibrated
# and wall seconds agree on a quiet machine. The package's code slows less
# than the kernel does: the log-log slope of each workload's time against
# the kernel's was 0.68-0.74 over 100 s of alternating samples and between
# 0.7 and 1.0 across whole runs; the exponent sits between.
KERNEL_STEPS = 20_000
NOMINAL_KERNEL_S = 0.005
CONTENTION_EXPONENT = 0.85
LONG_CALL_S = 0.1


def calibrated(elapsed: float, kernel_before: float, kernel_after: float) -> float:
    """``elapsed`` wall seconds in calibrated seconds."""
    kernel = (kernel_before + kernel_after) / 2
    return elapsed * (NOMINAL_KERNEL_S / kernel) ** CONTENTION_EXPONENT


def kernel_seconds() -> float:
    """Time of a fixed pure-Python kernel of the package's kind of work
    (small tuples, dict updates, integer products)."""
    t0 = time.perf_counter()
    acc: Dict[tuple, int] = {}
    for i in range(KERNEL_STEPS):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    return time.perf_counter() - t0


def load_reference(path: str = REFERENCE_PATH):
    """Reference values by spec, and the cli-warm cache prefill entries."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    values = {spec: _terms(t) for spec, t in raw["values"].items()}
    prefill = [
        (tuple(tuple(v) for v in vecs), _terms(t)) for vecs, t in raw["prefill"]
    ]
    return values, prefill


def _terms(raw) -> Terms:
    return {int(k): int(c) for k, c in raw.items()}


def parse_text(text: str) -> Terms:
    """Read the CLI's text rendering, e.g. ``q + 7 + q^-1`` or
    ``2*q^(3/2) - q^(-1/2)``, back into half-exponent terms."""
    text = text.strip()
    if text == "0":
        return {}
    terms: Terms = {}
    for tok in text.replace(" - ", " + -").split(" + "):
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        if "q" not in tok:
            half, coeff = 0, int(tok)
        else:
            coeff_text, power = tok.split("q")
            coeff = int(coeff_text.rstrip("*")) if coeff_text else 1
            if not power:
                half = 2
            elif power.startswith("^("):
                if not power.endswith("/2)"):
                    raise ValueError(f"bad power in {tok!r}")
                half = int(power[2:-3])
            else:
                half = 2 * int(power[1:])
        if half in terms:
            raise ValueError(f"repeated power in {text!r}")
        terms[half] = sign * coeff
    return terms


def well_formed(terms: Terms) -> bool:
    """Palindromic with all exponents of one parity, as every invariant is."""
    return (
        all(terms.get(-k) == c for k, c in terms.items())
        and len({k & 1 for k in terms}) <= 1
    )


class Workload:
    """One workload's inputs after set-up, and the passes run over them."""

    def __init__(self, name: str, seed: int, quick: bool, reference, workdir: str,
                 calibrate: bool = True):
        self.name = name
        self.calibrate = calibrate
        self.rng = random.Random(seed)
        self.specs = list(SPECS[name]["quick" if quick else "full"])
        self.rng.shuffle(self.specs)
        self.values, self.prefill = reference
        self.cache_path = os.path.join(workdir, "cache.jsonl")
        self.oracle_calls = 0
        self.errors: List[str] = []
        self.kernels: List[float] = []

    def setup(self) -> None:
        """Import the package and build the inputs: parsed degrees, and for
        cli-warm the persistent cache file written by ``save_cache``."""
        self.pkg = importlib.import_module("refined_chord")
        self.cli = importlib.import_module("refined_chord.cli")
        self.degrees = [self.cli.parse_degree(s) for s in self.specs]
        if self.name == "cli-warm":
            pkg = self.pkg
            cache = {
                pkg.canonical_key(pkg.make_degree(vecs)): pkg.RefinedPolynomial(terms)
                for vecs, terms in self.prefill
            }
            self.cli.save_cache(self.cache_path, cache)
            with open(self.cache_path, "rb") as fh:
                self.prefill_bytes = fh.read()

    def run_pass(self, new_cache: Callable[[], dict]):
        """Run every input once and check each output.

        Returns the per-call latencies and the pass time (the sum of all
        call times), both in calibrated seconds, and the operations
        attempted and failed (raised, or a wrong value)."""
        pkg = self.pkg
        ops = []  # (spec, call, counted in the latencies)
        for spec, d in zip(self.specs, self.degrees):
            if self.name == "chord-cold":
                ops.append((spec, partial(pkg.refined_invariant, d, cache=new_cache()), True))
            elif self.name == "cli-warm":
                ops.append((spec, partial(self._cli_compute, spec), True))
            else:
                # the cross-check: the recursion once, the oracle per moment seed
                ops.append((spec, partial(pkg.refined_invariant, d, cache=new_cache()), False))
                for _ in range(ORACLE_SEEDS_PER_DEGREE):
                    seed = self.rng.randrange(10**6)
                    ops.append((spec, partial(pkg.oracle_invariant, d, seed=seed), True))
                    self.oracle_calls += 1
        latencies: List[float] = []
        total = 0.0
        failed = 0
        before = self._kernel()
        for spec, call, in_latency in ops:
            if self.name == "cli-warm":
                # untimed: every call starts from the same cache file, so
                # the input order does not change the work
                with open(self.cache_path, "wb") as fh:
                    fh.write(self.prefill_bytes)
            t0 = time.perf_counter()
            try:
                result = call()
                terms = result if isinstance(result, dict) else dict(result.items())
            except Exception as exc:  # a raising operation counts as failed
                terms = exc
            elapsed = time.perf_counter() - t0
            # a long call is scaled by the median of several kernel runs
            after = self._kernel(5 if elapsed > LONG_CALL_S else 1)
            elapsed = calibrated(elapsed, before, after)
            before = after
            total += elapsed
            if in_latency:
                latencies.append(elapsed)
            if not self._ok(spec, terms):
                failed += 1
        return latencies, total, len(ops), failed

    def _kernel(self, runs: int = 1) -> float:
        if not self.calibrate:
            return NOMINAL_KERNEL_S
        self.kernels.append(statistics.median(kernel_seconds() for _ in range(runs)))
        return self.kernels[-1]

    def _cli_compute(self, spec: str) -> Terms:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(["compute", spec, "--cache-path", self.cache_path])
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return parse_text(out.getvalue())

    def _ok(self, spec: str, terms) -> bool:
        if isinstance(terms, Exception):
            why = f"raised {terms!r}"
        elif terms != self.values[spec] or not well_formed(terms):
            why = "differs from the reference"
        else:
            return True
        if len(self.errors) < 5:
            self.errors.append(f"{self.name} {spec}: {why}")
        return False
