"""Acceptance gate: one test per contract criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Criterion 2 pins the degree-5 triangle invariant to the reference table this
package was built against. The chord recursion, an independent literal
enumeration over labeled ends, and the brute-force oracle (applied to every
subproblem within its reach, through 11 ends) all agree on a value that
differs from that table in three middle coefficients, so the criterion is
implemented exactly as stated and fails; the regression value both engines
agree on is pinned in test_chord_recursion.py.
"""

import random
import time
from collections import Counter

from refined_chord import (
    RefinedPolynomial,
    cp2_degree,
    oracle_invariant,
    refined_invariant,
)
from refined_chord.cli import main, render_partition
from refined_chord.direct_enumerator import (
    _DegenerateConfiguration,
    sample_generic_moments,
)
from refined_chord.lattice import omega
from refined_chord.refined_poly import _check_cached
from conftest import CORPUS, NON_CP2, NON_PRIMITIVE
from ring import add, mul, q_analog
from test_direct_enumerator import _vertex_positions
from tree_reference import enumerate_trees, iter_solutions

P = RefinedPolynomial


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {verdict}{suffix}")


def _sym(pairs):
    """Build a palindromic polynomial from its nonnegative-exponent half."""
    terms = {}
    for k, c in pairs.items():
        terms[k] = c
        terms[-k] = c
    return P(terms)


# Reference table for the triangle degrees d <= 4. The printed source table
# shows 8*q^(-7/2) in the d=4, tangency-4 row, which is impossible for a
# palindromic invariant and is contradicted by both engines (the brute-force
# oracle reaches this 9-end degree directly); the coefficient is 7.
GOLDEN_TABLE = {
    (1, (1,)): _sym({0: 1}),
    (2, (1, 1)): _sym({0: 1}),
    (2, (2,)): _sym({1: 1}),
    (3, (1, 1, 1)): _sym({2: 1, 0: 7}),
    (3, (2, 1)): _sym({3: 1, 1: 6}),
    (3, (3,)): _sym({4: 1, 2: 5, 0: 6}),
    (4, (1, 1, 1, 1)): _sym({6: 1, 4: 10, 2: 55, 0: 172}),
    (4, (2, 1, 1)): _sym({7: 1, 5: 9, 3: 45, 1: 133}),
    (4, (3, 1)): _sym({8: 1, 6: 8, 4: 36, 2: 96, 0: 117}),
    (4, (4,)): _sym({9: 1, 7: 7, 5: 28, 3: 68, 1: 88}),
    (4, (2, 2)): _sym({8: 1, 6: 8, 4: 36, 2: 104, 0: 150}),
}

# Degree-5 value exactly as stated in the reference table (see module
# docstring); both engines compute 1745, 5273 and 10719 for the three
# middle coefficients instead.
DEGREE5_STATED = _sym({12: 1, 10: 13, 8: 91, 6: 455, 4: 1695, 2: 5023, 0: 11185})

_oracle_memo = {}


def _oracle(d, seed):
    # keyed by the vectors, not the class key, so each degree runs the oracle
    key = (d.vectors, seed)
    if key not in _oracle_memo:
        _oracle_memo[key] = oracle_invariant(d, seed=seed)
    return _oracle_memo[key]


def test_criterion_1_golden_table(capsys):
    t0 = time.time()
    assert main(["table", "--max-degree", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    elapsed = time.time() - t0
    expected = {}
    for (d, lam), poly in GOLDEN_TABLE.items():
        expected[f"N_{d}({render_partition(lam)})"] = poly.to_text()
    actual = {}
    for line in lines:
        label, _, text = line.partition(" = ")
        actual[label.strip()] = text.strip()
    ok = actual == expected and elapsed < 10.0
    _report(1, "golden table d<=4", ok, f"{len(lines)} rows in {elapsed:.2f}s")
    assert actual == expected
    assert elapsed < 10.0


def test_criterion_2_degree_five(capsys):
    t0 = time.time()
    computed = refined_invariant(cp2_degree(5, [1] * 5), cache={})
    elapsed = time.time() - t0
    ok = computed == DEGREE5_STATED and elapsed < 600.0
    _report(2, "degree-5 value as stated", ok, f"{elapsed:.2f}s")
    assert elapsed < 600.0
    assert computed == DEGREE5_STATED, (
        "computed degree-5 invariant differs from the stated reference value "
        "in three middle coefficients:\n"
        f"  computed: {computed.to_text()}\n"
        f"  stated:   {DEGREE5_STATED.to_text()}\n"
        "The computed value is confirmed by an independent labeled "
        "re-enumeration and by the brute-force oracle on every subproblem "
        "with at most 11 ends; the stated constant appears to carry a "
        "transcription error, and this test documents the discrepancy."
    )


def test_degree_five_by_oracle():
    # evidence for the value pinned in
    # test_chord_recursion.py::test_degree_five_regression: the subset-DP
    # oracle reaches the 15-end degree directly and agrees with it
    value = oracle_invariant(cp2_degree(5, [1] * 5), seed=0, max_ends=15)
    assert value == _sym({12: 1, 10: 13, 8: 91, 6: 455, 4: 1745, 2: 5273, 0: 10719})


def test_criterion_3_oracle_equivalence(capsys):
    names = [name for name, _ in CORPUS]
    assert len(CORPUS) >= 12
    assert sum(1 for n in names if n in NON_PRIMITIVE) >= 3
    assert sum(1 for n in names if n in NON_CP2) >= 3
    # every tabulated triangle degree small enough for the oracle is present
    for required in ("P2:1", "P2:2", "P2:2:2", "P2:3:3", "P2:3:2,1"):
        assert required in names
    t0 = time.time()
    failures = []
    for name, d in CORPUS:
        assert d.m <= 8
        rec = refined_invariant(d, cache={})
        for seed in (0, 1, 2):
            if _oracle(d, seed) != rec:
                failures.append((name, seed))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    _report(3, "oracle equivalence on corpus", ok,
            f"{len(CORPUS)} degrees x 3 seeds in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_4_invariance_suite(capsys):
    seed_failures = []
    for name, d in CORPUS:
        if len({_oracle(d, s) for s in (0, 1, 2)}) != 1:
            seed_failures.append(name)
    end_failures = []
    for name, d in CORPUS:
        counts = Counter(d.vectors)
        values = set()
        for a in sorted(counts):
            for b in sorted(counts):
                if a == b and counts[a] < 2:
                    continue
                values.add(refined_invariant(d, v1=a, vm=b, cache={}))
        if len(values) != 1:
            end_failures.append(name)
    ok = not seed_failures and not end_failures
    _report(4, "seed and end-choice invariance", ok)
    assert not seed_failures, seed_failures
    assert not end_failures, end_failures


def test_criterion_5_structural_properties(capsys):
    computed = [refined_invariant(d, cache={}) for _, d in CORPUS]
    computed.extend(
        refined_invariant(cp2_degree(d, list(lam)), cache={})
        for d, lam in GOLDEN_TABLE
    )
    computed.append(refined_invariant(cp2_degree(5, [1] * 5), cache={}))
    bad = []
    for poly in computed:
        try:
            _check_cached("computed", poly)
        except ValueError:
            bad.append(("palindromic and parity", poly))
        if not all(isinstance(c, int) and c > 0 for _, c in poly.items()):
            bad.append(("positivity", poly))
    ok = not bad
    _report(5, "palindromicity, positivity, parity", ok,
            f"{len(computed)} invariants")
    assert not bad, bad


def test_criterion_6_identity_suite(capsys):
    s = P({1: 1, -1: -1})

    def bracket(n):
        return P({2 * n: 1, -2 * n: -1})

    rng = random.Random(61803)
    found = 0
    tried = 0
    while found < 1000:
        tried += 1
        assert tried < 500_000
        a1, a2, a3 = (
            (rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(3)
        )
        a12 = (a1[0] + a2[0], a1[1] + a2[1])
        a13 = (a1[0] + a3[0], a1[1] + a3[1])
        a23 = (a2[0] + a3[0], a2[1] + a3[1])
        if any(
            x <= 0
            for x in (
                omega(a1, a2), omega(a2, a3), omega(a1, a3),
                omega(a1, a23), omega(a12, a3), omega(a2, a13),
            )
        ):
            continue
        found += 1
        lhs = mul(bracket(omega(a2, a3)), bracket(omega(a1, a23)))
        rhs = add(
            mul(bracket(omega(a1, a2)), bracket(omega(a12, a3))),
            mul(bracket(omega(a1, a3)), bracket(omega(a2, a13))),
        )
        assert lhs == rhs, (a1, a2, a3)
    for a in range(1, 51):
        assert mul(q_analog(a), s) == P({a: 1, -a: -1})
    _report(6, "wall-crossing and q-analog identities", True,
            f"{found} triples")


def test_criterion_7_tree_counts(capsys):
    expected = {3: 1, 4: 3, 5: 15, 6: 105, 7: 945, 8: 10395}
    counts = {m: sum(1 for _ in enumerate_trees(m)) for m in range(3, 9)}
    ok = counts == expected
    _report(7, "trivalent topology counts", ok, str(counts))
    assert counts == expected


def test_criterion_8_exact_residues(capsys):
    checked = 0
    for name, d in CORPUS:
        if d.m > 6:
            continue
        mu = None
        for attempt in range(100):
            candidate = sample_generic_moments(d, 90 + attempt)
            try:
                solutions = list(iter_solutions(d, candidate))
            except _DegenerateConfiguration:
                continue
            mu = candidate
            break
        assert mu is not None, name
        assert sum(mu) == 0
        for tree, sol, mults in solutions:
            checked += 1
            pos, leaf_vertex, mask, parent, adj, order = _vertex_positions(tree, d, sol)
            for j in range(d.m):
                residue = omega(d.vectors[j], pos[leaf_vertex[j]]) - mu[j]
                assert residue == 0, (name, j)
            for v in order:
                outs = []
                for w in adj[v]:
                    if w < d.m:
                        outs.append(d.vectors[w])
                    else:
                        src = mask[w] if parent.get(w) == v else mask[v]
                        sx = sum(d.vectors[j][0] for j in src)
                        sy = sum(d.vectors[j][1] for j in src)
                        outs.append((sx, sy) if parent.get(w) == v else (-sx, -sy))
                assert (sum(o[0] for o in outs), sum(o[1] for o in outs)) == (0, 0)
    ok = checked > 0
    _report(8, "zero-residue exactness", ok, f"{checked} solved curves")
    assert checked > 0
