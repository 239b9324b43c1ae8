import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from refined_chord import (
    RefinedPolynomial,
    TooLarge,
    cp2_degree,
    make_degree,
    omega,
    oracle_invariant,
    refined_invariant,
    sample_generic_moments,
)
from refined_chord import refined_poly
from refined_chord.cli import parse_degree
from refined_chord.direct_enumerator import (
    _DegenerateConfiguration,
    _subset_count,
    check_oracle_size,
)
from refined_chord.refined_poly import q_analog
from conftest import CORPUS
from tree_reference import (
    CombinatorialTree,
    FlatVertex,
    enumerate_trees,
    iter_solutions,
    refined_multiplicity,
    solve_type,
)

P = RefinedPolynomial


def double_factorial_count(m):
    out = 1
    for k in range(2 * m - 5, 0, -2):
        out *= k
    return out


@pytest.mark.parametrize("m,count", [(3, 1), (4, 3), (5, 15), (6, 105), (7, 945)])
def test_tree_counts(m, count):
    trees = list(enumerate_trees(m))
    assert len(trees) == count == double_factorial_count(m)
    # labeled shapes are pairwise distinct
    assert len({tuple(sorted(tuple(sorted(e)) for e in t.edges)) for t in trees}) == count


def test_tree_structure():
    for t in enumerate_trees(5):
        assert t.m == 5
        assert len(t.edges) == 2 * 5 - 3
        degree = {}
        for a, b in t.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        for node, deg in degree.items():
            assert deg == (1 if node < 5 else 3)


def test_enumerate_trees_rejects_small():
    with pytest.raises(ValueError):
        list(enumerate_trees(2))


def test_solve_line_vertex():
    # one trivalent vertex: the two moment equations fix its position and
    # force the third moment
    d = cp2_degree(1, [1])  # vectors sorted: (-1,0), (0,-1), (1,1)
    tree = next(enumerate_trees(3))
    sol = solve_type(tree, d, (1, 2, -3))
    assert sol is not None
    assert sol.lengths == ()
    assert sol.root == (Fraction(2), Fraction(-1))
    assert omega((-1, 0), (2, -1)) == 1  # forced moment of the first end


def test_solve_zero_slope_edge_is_singular():
    # pairing two opposite ends gives an internal edge of zero slope, a
    # non-injective type: no solution is ever reported
    d = make_degree([(-1, 0), (0, -1), (0, 1), (1, 0)])
    tree = CombinatorialTree(4, ((0, 4), (3, 4), (4, 5), (1, 5), (2, 5)))
    assert solve_type(tree, d, sample_generic_moments(d, 0)) is None


def test_solve_negative_length_means_no_solution():
    # the two nonsingular pairings of the square degree sit on opposite
    # sides of a wall: at any generic moment exactly one of them carries the
    # curve, the other's formal solution has a negative length
    d = make_degree([(-1, 0), (0, -1), (0, 1), (1, 0)])
    t_a = CombinatorialTree(4, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)))
    t_b = CombinatorialTree(4, ((0, 4), (2, 4), (4, 5), (1, 5), (3, 5)))
    mu = sample_generic_moments(d, 0)
    solved = [solve_type(t, d, mu) for t in (t_a, t_b)]
    assert sum(s is not None for s in solved) == 1


def test_oracle_cubic_nine_ends():
    # the full 135135-topology run for the degree-3 triangle
    assert oracle_invariant(cp2_degree(3, [1, 1, 1]), seed=2) == P(
        {2: 1, 0: 7, -2: 1}
    )


def test_refined_multiplicity_single_vertex():
    assert refined_multiplicity(next(enumerate_trees(3)), cp2_degree(1, [1])) == P.one()
    d = make_degree([(-1, 0), (0, -2), (1, 2)])
    assert refined_multiplicity(next(enumerate_trees(3)), d) == P({1: 1, -1: 1})


def test_refined_multiplicity_two_vertices():
    # vertices of multiplicities 1 and 3
    d = make_degree([(-1, 0), (0, -1), (0, 3), (1, -2)])
    tree = CombinatorialTree(4, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)))
    assert refined_multiplicity(tree, d) == P({2: 1, 0: 1, -2: 1})


def test_refined_multiplicity_flat_vertex():
    d = make_degree([(-1, 0), (0, -1), (0, 1), (1, 0)])
    tree = CombinatorialTree(4, ((0, 4), (3, 4), (4, 5), (1, 5), (2, 5)))
    with pytest.raises(FlatVertex):
        refined_multiplicity(tree, d)


def test_sample_generic_moments_deterministic():
    d = cp2_degree(2, [2])
    assert sample_generic_moments(d, 7) == sample_generic_moments(d, 7)
    assert sample_generic_moments(d, 7) != sample_generic_moments(d, 8)


def test_sample_generic_moments_zero_sum_exact():
    for name, d in CORPUS:
        for seed in (0, 1, 2):
            mu = sample_generic_moments(d, seed)
            assert len(mu) == d.m
            assert sum(mu) == 0
            assert len(set(mu)) == d.m


def test_oracle_line():
    assert oracle_invariant(cp2_degree(1, [1])) == P.one()


def test_oracle_conic_tangency():
    assert oracle_invariant(cp2_degree(2, [2])) == P({1: 1, -1: 1})


def test_oracle_heavy_vertical_regression():
    d = make_degree([(0, -2), (-1, 1), (1, 1)])
    assert oracle_invariant(d, seed=0) == P({1: 1, -1: 1})


def test_oracle_two_ends():
    assert oracle_invariant(make_degree([(2, 1), (-2, -1)])) == P.one()


def test_all_parallel_degree_counts_zero():
    # every tree shape for this degree has only flat vertices, so no simple
    # curve exists; both engines must return the zero polynomial
    d = make_degree([(1, 0), (1, 0), (-1, 0), (-1, 0)])
    assert oracle_invariant(d, seed=0) == P.zero()
    assert refined_invariant(d, cache={}) == P.zero()


def test_oracle_seed_independent_sample():
    for name, d in [CORPUS[2], CORPUS[7], CORPUS[11]]:
        values = {oracle_invariant(d, seed=s) for s in (0, 1, 2)}
        assert len(values) == 1, name


def test_oracle_guard():
    with pytest.raises(TooLarge):
        oracle_invariant(cp2_degree(5, [1] * 5))
    with pytest.raises(TooLarge):
        oracle_invariant(cp2_degree(2, [2]), max_ends=4)
    # explicit override admits larger degrees
    assert oracle_invariant(cp2_degree(2, [2]), max_ends=5) == P({1: 1, -1: 1})


def test_oracle_guard_on_pair_sum():
    # 12 ends pass the end guard, but the pair sum is 3696 and 2**11 * 3696
    # exceeds 2**13 * ORACLE_PAIR_GUARD (the oracle would take about 14 s)
    big = make_degree([(-9, 2), (2, -9), (7, 7)] * 4)
    with pytest.raises(TooLarge, match="pair sum 3696"):
        oracle_invariant(big)
    # raising the end guard raises the budget too
    check_oracle_size(big, max_ends=15)
    check_oracle_size(cp2_degree(5, [1] * 5), max_ends=15)
    check_oracle_size(cp2_degree(6, [2, 2, 1, 1]), max_ends=16)


# moments landing all ends on one point force a zero-length edge in a valid
# tree shape of this degree, which the exact solver must flag as degenerate
_DEGENERATE_MU = (0, 0, 0, 0)


def test_degenerate_configuration_rejected_then_redrawn(monkeypatch):
    import refined_chord.direct_enumerator as de

    d = make_degree([(-1, 0), (0, -1), (0, 1), (1, 0)])
    real = sample_generic_moments
    calls = []

    def adversarial(degree, seed):
        calls.append(seed)
        if len(calls) == 1:
            return _DEGENERATE_MU
        return real(degree, seed)

    monkeypatch.setattr(de, "sample_generic_moments", adversarial)
    value = de.oracle_invariant(d, seed=0)
    assert len(calls) >= 2  # first draw rejected, next seed used
    assert value == refined_invariant(d, cache={})


def test_zero_length_edge_rejected_then_redrawn(monkeypatch):
    # every zero-sum draw of moments in [-2, 2] for the first five ends; many
    # put a child's root exactly on its parent vertex
    import refined_chord.direct_enumerator as de

    d = dict(CORPUS)["hexagon"]
    sides = []
    for head in itertools.product(range(-2, 3), repeat=d.m - 1):
        mu = head + (-sum(head),)
        try:
            _subset_count(d.vectors, mu)
        except _DegenerateConfiguration as exc:
            mo = re.fullmatch(r"zero-length edge to (\d+) at split (\d+)\|(\d+)", str(exc))
            if mo:
                child, a, b = map(int, mo.groups())
                sides.append((mu, "a" if child == a else "b"))
    # the child is always the side a holding the split's lowest end. If the
    # other side b = b1 | b2 had its root on the vertex C of a | b, the lines
    # of a | b1 and b2 would meet at C too; that split comes first (its side
    # a | b1 is a superset of a) and raises, unless u_a + u_b1 = 0. The same
    # holds for a | b2, and both escapes together make u_b = -2 u_a parallel
    # to u_a, so that a | b itself is skipped.
    assert sides and {side for _, side in sides} == {"a"}
    degenerate = sides[0][0]
    calls = []

    def adversarial(degree, seed):
        calls.append(seed)
        return degenerate if len(calls) == 1 else sample_generic_moments(degree, seed)

    monkeypatch.setattr(de, "sample_generic_moments", adversarial)
    assert de.oracle_invariant(d, seed=0) == refined_invariant(d, cache={})
    assert len(calls) >= 2  # the zero-length draw was rejected, the next seed used


def test_genericity_failure_after_redraw_bound(monkeypatch):
    import refined_chord.direct_enumerator as de
    from refined_chord import GenericityFailure

    d = make_degree([(-1, 0), (0, -1), (0, 1), (1, 0)])
    monkeypatch.setattr(de, "sample_generic_moments", lambda degree, seed: _DEGENERATE_MU)
    with pytest.raises(GenericityFailure):
        de.oracle_invariant(d, seed=0)


def test_exact_solver_against_plain_elimination():
    import random as rnd

    from tree_reference import _solve_exact

    def plain_solve(A, b):
        n = len(A)
        M = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(A, b)]
        row = 0
        pivots = []
        for col in range(n):
            piv = next((r for r in range(row, n) if M[r][col]), None)
            if piv is None:
                continue
            M[row], M[piv] = M[piv], M[row]
            for r in range(n):
                if r != row and M[r][col]:
                    f = M[r][col] / M[row][col]
                    for c in range(col, n + 1):
                        M[r][c] -= f * M[row][c]
            pivots.append(col)
            row += 1
        if row < n:
            if any(M[r][n] for r in range(row, n)):
                return "inconsistent", None
            return "consistent", None
        xs = [M[i][n] / M[i][pivots[i]] for i in range(n)]
        return "unique", xs

    rng = rnd.Random(99)
    for trial in range(300):
        n = rng.randint(1, 6)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:
            A[-1] = [2 * x for x in A[0]]  # force rank deficiency sometimes
        b = [rng.randint(-20, 20) for _ in range(n)]
        got_status, got = _solve_exact([row[:] for row in A], list(b))
        want_status, want = plain_solve(A, b)
        assert got_status == want_status, (A, b)
        if got_status == "unique":
            assert got == want, (A, b)
            for row, bv in zip(A, b):
                assert sum(c * x for c, x in zip(row, got)) == bv


def _vertex_positions(tree, d, sol):
    """Recompute every internal vertex position from the root and lengths,
    independently of the solver's internals."""
    adj = {}
    for a, b in tree.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    m = tree.m
    root = adj[0][0]
    pos = {root: sol.root}
    parent = {root: None}
    stack = [root]
    order = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w >= m and w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)
    # internal edges indexed in the same discovery order used by the solver
    lengths = dict(zip(order[1:], sol.lengths))
    slope = {}
    mask = {v: set() for v in order}
    for v in reversed(order):
        leaves = set()
        for w in adj[v]:
            if w < m:
                leaves.add(w)
            elif parent.get(w) == v:
                leaves |= mask[w]
        mask[v] = leaves
    for v in order[1:]:
        sx = sum(d.vectors[j][0] for j in mask[v])
        sy = sum(d.vectors[j][1] for j in mask[v])
        slope[v] = (sx, sy)
    for v in order[1:]:
        px, py = pos[parent[v]]
        pos[v] = (px + lengths[v] * slope[v][0], py + lengths[v] * slope[v][1])
    leaf_vertex = {j: adj[j][0] for j in range(m)}
    return pos, leaf_vertex, mask, parent, adj, order


def test_solutions_satisfy_constraints_exactly():
    # accepted solutions reproduce every moment with zero residue, and the
    # slopes balance at every vertex
    for name, d in [CORPUS[0], CORPUS[2], CORPUS[7], CORPUS[13]]:
        mu = None
        for attempt in range(100):
            candidate = sample_generic_moments(d, 40 + attempt)
            try:
                solutions = list(iter_solutions(d, candidate))
            except _DegenerateConfiguration:
                continue
            mu = candidate
            break
        assert mu is not None, name
        assert solutions, name
        for tree, sol, mults in solutions:
            assert all(l > 0 for l in sol.lengths)
            pos, leaf_vertex, mask, parent, adj, order = _vertex_positions(tree, d, sol)
            for j in range(d.m):
                p = pos[leaf_vertex[j]]
                assert omega(d.vectors[j], p) == mu[j], (name, j)
            assert sum(mu) == 0
            for v in order:
                outs = []
                for w in adj[v]:
                    if w < d.m:
                        outs.append(d.vectors[w])
                    else:
                        sx = sum(d.vectors[j][0] for j in (mask[w] if parent.get(w) == v else mask[v]))
                        sy = sum(d.vectors[j][1] for j in (mask[w] if parent.get(w) == v else mask[v]))
                        if parent.get(w) == v:
                            outs.append((sx, sy))
                        else:
                            outs.append((-sx, -sy))
                assert (sum(o[0] for o in outs), sum(o[1] for o in outs)) == (0, 0)
            for mv in mults:
                assert mv >= 1


def test_oracle_agrees_with_recursion_spot():
    for name, d in [CORPUS[1], CORPUS[8], CORPUS[10]]:
        assert oracle_invariant(d, seed=5) == refined_invariant(d, cache={}), name


def test_three_engines_agree_on_small_corpus():
    # at one moment draw per degree, the subset DP and the literal tree sum
    # count the same curves, and both equal the chord recursion
    for name, d in CORPUS:
        if d.m > 7:
            continue
        for attempt in range(100):
            mu = sample_generic_moments(d, 3 + attempt)
            try:
                trees = P.zero()
                for _tree, _sol, mults in iter_solutions(d, mu):
                    term = P.one()
                    for mv in mults:
                        term = term * q_analog(mv)
                    trees = trees + term
                dp = _subset_count(d.vectors, mu)
            except _DegenerateConfiguration:
                continue
            break
        else:
            raise AssertionError(f"{name}: no generic draw")
        rec = refined_invariant(d, cache={})
        assert dp == trees == rec, name
        assert oracle_invariant(d, seed=3) == rec, name


@pytest.mark.parametrize("spec", ["P2:4:2,2", "P2:4", "P1xP1:3,3", "P2:5:2,2,1"])
def test_oracle_agrees_with_recursion_beyond_tree_reach(spec):
    d = parse_degree(spec)
    assert oracle_invariant(d, seed=0) == refined_invariant(d, cache={}), spec


def test_oracle_cost_stays_small_for_large_entries():
    # sum|x| * sum|y| is about 4e6 on the first degree, but every det is 1, and
    # the second has dets 1, 1001 and 1002; the keys' scale comes from the
    # dets that occur, so both answer at once. Run apart so a regression
    # fails on the timeout instead of hanging the suite.
    code = (
        "import time\n"
        "from refined_chord import make_degree, oracle_invariant, refined_invariant\n"
        "for vs in ([(1000, 999), (-1001, -1000), (1, 1)],\n"
        "           [(1000, 999), (1, 1), (1, 2), (-1002, -1002)]):\n"
        "    d = make_degree(vs)\n"
        "    t0 = time.perf_counter()\n"
        "    value = oracle_invariant(d, seed=0)\n"
        "    print(time.perf_counter() - t0, value == refined_invariant(d, cache={}))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    for line in run.stdout.splitlines():
        elapsed, agree = line.split()
        assert agree == "True"
        assert float(elapsed) < 5.0, line


def test_large_entries_cost_little_in_packed_weights():
    # splits with dets up to 693 make the weights long polynomials; packed, their
    # products are single bigint multiplies (about 3 s with dict arithmetic)
    code = (
        "import time\n"
        "from refined_chord import make_degree, oracle_invariant, refined_invariant\n"
        "d = make_degree([(-9, 2), (2, -9), (7, 7)] * 3)\n"
        "t0 = time.perf_counter()\n"
        "value = oracle_invariant(d, seed=0)\n"
        "print(time.perf_counter() - t0, value == refined_invariant(d, cache={}))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    elapsed, agree = run.stdout.split()
    assert agree == "True"
    assert float(elapsed) < 1.0, run.stdout


def test_narrow_slots_change_no_oracle_value(monkeypatch):
    # 2-bit slots overflow once a subset's value at q = 1 reaches 4, so the
    # larger CORPUS values come from the oracle's retries with wider slots
    pinned = {name: refined_invariant(d, cache={}) for name, d in CORPUS}
    monkeypatch.setattr(refined_poly, "_SLOT_BITS", 2)
    for name, d in CORPUS:
        assert oracle_invariant(d, seed=0) == pinned[name], name


fuzz_vec = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0))


@settings(max_examples=80, deadline=None)
@given(st.lists(fuzz_vec, min_size=1, max_size=8), st.integers(0, 10**6), st.data())
def test_oracle_agrees_with_recursion_on_random_degrees(vecs, seed, data):
    # close the drawn vectors by their negated sum: at most 9 ends
    closing = (-sum(x for x, _ in vecs), -sum(y for _, y in vecs))
    assume(closing != (0, 0))
    d = make_degree(vecs + [closing])
    value = refined_invariant(d, cache={})
    assert oracle_invariant(d, seed=seed) == value
    i, j = data.draw(st.lists(st.integers(0, d.m - 1), min_size=2, max_size=2, unique=True))
    assert refined_invariant(d, v1=d.vectors[i], vm=d.vectors[j], cache={}) == value
