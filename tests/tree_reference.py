"""Literal tree-enumeration reference for the moment-constraint count.

The production oracle (``refined_chord.direct_enumerator``) is a subset DP
over end moments. This module keeps the definition-level count it replaced:
for a degree with ``m`` ends it enumerates all ``(2m-5)!!`` trivalent trees
with ``m`` labeled leaves, decorates leaf ``j`` with the j-th degree vector
and its moment, and solves the moment constraints exactly: the unknowns are
the position of the vertex adjacent to leaf 0 and the lengths of the
``m-3`` bounded edges, and each of the last ``m-1`` ends contributes one
linear equation. Each labeled tree admits at most one solution, found with
exact integer elimination; solutions with every length positive are genuine
curves and contribute their refined multiplicity, the product over trivalent
vertices of the quantum integer of ``|omega(u, v)|`` for two outgoing slopes
``u, v``. Factorial in ``m``, so only small degrees are checked with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from refined_chord.direct_enumerator import _DegenerateConfiguration
from refined_chord.lattice import Degree, omega
from refined_chord.refined_poly import RefinedPolynomial
from ring import mul, q_analog

# Exact rational scalar used for solved positions and lengths. The stdlib
# Fraction already stores a reduced numerator over a positive denominator.
Rational = Fraction


class FlatVertex(RuntimeError):
    """A vertex with multiplicity zero survived filtering (a bug if seen)."""


@dataclass(frozen=True)
class CombinatorialTree:
    """A trivalent tree with ``m`` labeled leaves.

    Leaves are the nodes ``0 .. m-1``; internal nodes are ``m .. 2m-3``.
    Decoration with degree vectors and moments happens at solve time.
    """

    m: int
    edges: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class TypeSolution:
    """Exact solution of one tree's moment constraints."""

    lengths: Tuple[Fraction, ...]
    root: Tuple[Fraction, Fraction]


def enumerate_trees(m: int) -> Iterator[CombinatorialTree]:
    """Yield every trivalent tree with ``m`` labeled leaves exactly once.

    Generated by inserting leaves ``3 .. m-1`` on each edge of every smaller
    tree, which produces each labeled shape once; the count is the double
    factorial ``(2m-5)!!``.
    """
    if m < 3:
        raise ValueError(f"need at least 3 leaves, got {m}")
    base = ((0, m), (1, m), (2, m))
    yield from _grow(base, 3, m)


def _grow(edges, next_leaf, m):
    if next_leaf == m:
        yield CombinatorialTree(m, edges)
        return
    new = m + next_leaf - 2
    for i in range(len(edges)):
        a, b = edges[i]
        grown = (
            edges[:i]
            + edges[i + 1 :]
            + ((a, new), (new, b), (next_leaf, new))
        )
        yield from _grow(grown, next_leaf + 1, m)


class _Rooted(NamedTuple):
    """Tree rooted at the internal vertex next to leaf 0: adjacency, parent
    pointers, internal vertices in discovery order, internal edges as
    (parent, child) with an index map, the subtree leaf bitmask of every
    internal vertex, and the internal-edge path from the root to each."""

    adj: List[List[int]]
    root: int
    parent: List[int]
    order: List[int]
    int_edges: List[Tuple[int, int]]
    edge_index: Dict[Tuple[int, int], int]
    mask: List[int]
    path: List[Optional[Tuple[int, ...]]]


def _topology_data(tree: CombinatorialTree) -> _Rooted:
    m = tree.m
    n_nodes = 2 * m - 2
    adj: List[List[int]] = [[] for _ in range(n_nodes)]
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    root = adj[0][0]
    parent = [-1] * n_nodes
    order = [root]
    seen = [False] * n_nodes
    seen[root] = True
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w >= m and not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
                stack.append(w)
    int_edges = [(parent[v], v) for v in order[1:]]
    edge_index = {(parent[v], v): i for i, v in enumerate(order[1:])}
    mask = [0] * n_nodes
    for v in reversed(order):
        bits = 0
        for w in adj[v]:
            if w < m:
                bits |= 1 << w
            elif parent[w] == v:
                bits |= mask[w]
        mask[v] = bits
    path: List[Optional[Tuple[int, ...]]] = [None] * n_nodes
    path[root] = ()
    for v in order[1:]:
        path[v] = path[parent[v]] + (edge_index[(parent[v], v)],)
    return _Rooted(adj, root, parent, order, int_edges, edge_index, mask, path)


def _edge_slopes(vectors, int_edges, mask):
    """Slope of each internal edge oriented away from the root: the sum of
    the degree vectors of the leaves behind it (balancing condition)."""
    slopes = []
    for _, c in int_edges:
        bits = mask[c]
        sx = sy = 0
        j = 0
        while bits:
            if bits & 1:
                sx += vectors[j][0]
                sy += vectors[j][1]
            bits >>= 1
            j += 1
        slopes.append((sx, sy))
    return slopes


def _build_system(tree, vectors, mu, data, slopes):
    """Rows for ends 1..m-1: the moment of end j is omega(n_j, position of
    its vertex), with the position accumulated from the root along the tree
    path; the first end's moment is then forced by the zero-sum identity."""
    m = tree.m
    width = m - 1
    rows = []
    rhs = []
    for j in range(1, m):
        nx, ny = vectors[j]
        row = [0] * width
        row[0] = -ny
        row[1] = nx
        for e in data.path[data.adj[j][0]]:
            row[2 + e] = omega(vectors[j], slopes[e])
        rows.append(row)
        rhs.append(mu[j])
    return rows, rhs


def _solve_exact(A, b):
    """Solve the square integer system ``A x = b`` exactly.

    Fraction-free forward elimination (each update divides by the previous
    pivot, which stays exact) followed by rational back-substitution.
    Returns ``("unique", xs)``, ``("consistent", None)`` when the matrix is
    singular but ``b`` lies in its image, or ``("inconsistent", None)``.
    """
    n = len(A)
    M = [list(row) + [bv] for row, bv in zip(A, b)]
    prev = 1
    row = 0
    for col in range(n):
        piv_r = -1
        for r in range(row, n):
            if M[r][col]:
                piv_r = r
                break
        if piv_r < 0:
            continue
        if piv_r != row:
            M[row], M[piv_r] = M[piv_r], M[row]
        piv = M[row][col]
        pivot_row = M[row]
        for r in range(row + 1, n):
            Mr = M[r]
            f = Mr[col]
            for c in range(col + 1, n + 1):
                Mr[c] = (piv * Mr[c] - f * pivot_row[c]) // prev
            Mr[col] = 0
        prev = piv
        row += 1
    if row < n:
        for r in range(row, n):
            if M[r][n] != 0:
                return "inconsistent", None
        return "consistent", None
    xs: List[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        Mi = M[i]
        s = Fraction(Mi[n])
        for j in range(i + 1, n):
            s -= Mi[j] * xs[j]
        xs[i] = s / Mi[i]
    return "unique", xs


def _vertex_multiplicities(tree, vectors, data, slopes):
    """Complex multiplicity |omega(u, v)| at every internal vertex, from any
    two of its outgoing slopes (balancing makes the choice irrelevant)."""
    m = tree.m
    mults = []
    for v in data.order:
        outs = []
        for w in data.adj[v]:
            if w < m:
                outs.append(vectors[w])
            elif data.parent[w] == v:
                outs.append(slopes[data.edge_index[(v, w)]])
            else:
                s = slopes[data.edge_index[(w, v)]]
                outs.append((-s[0], -s[1]))
        mults.append(abs(omega(outs[0], outs[1])))
    return mults


def refined_multiplicity(tree: CombinatorialTree, d: Degree) -> RefinedPolynomial:
    """Product over the internal vertices of the quantum integer of the
    vertex multiplicity, for the tree decorated with the degree's vectors.

    Raises :class:`FlatVertex` if some vertex has multiplicity zero; such
    trees never solve a generic configuration and should have been filtered.
    """
    vectors = d.vectors
    data = _topology_data(tree)
    slopes = _edge_slopes(vectors, data.int_edges, data.mask)
    mults = _vertex_multiplicities(tree, vectors, data, slopes)
    if 0 in mults:
        raise FlatVertex("vertex with zero multiplicity")
    return mul(*map(q_analog, mults))


def solve_type(tree: CombinatorialTree, d: Degree, mu: Sequence[int]) -> Optional[TypeSolution]:
    """Exact solution of the moment constraints for one tree, if any.

    Returns the unique root position and strictly positive edge lengths when
    the system is invertible and the formal solution is interior; returns
    None when the system is singular or some length is not positive (both
    are normal outcomes, not errors).
    """
    data = _topology_data(tree)
    slopes = _edge_slopes(d.vectors, data.int_edges, data.mask)
    A, b = _build_system(tree, d.vectors, mu, data, slopes)
    status, xs = _solve_exact(A, b)
    if status != "unique":
        return None
    lengths = tuple(xs[2:])
    if any(l <= 0 for l in lengths):
        return None
    return TypeSolution(lengths=lengths, root=(xs[0], xs[1]))


def iter_solutions(d: Degree, mu: Sequence[int]):
    """Yield ``(tree, solution, vertex_mults)`` for every solved tree.

    Raises the internal degeneracy exception if the configuration produces
    an exact zero length or a consistent singular system; use the seeds
    accepted by :func:`oracle_invariant` to avoid it.
    """
    vectors = d.vectors
    for tree in enumerate_trees(d.m):
        data = _topology_data(tree)
        slopes = _edge_slopes(vectors, data.int_edges, data.mask)
        A, b = _build_system(tree, vectors, mu, data, slopes)
        status, xs = _solve_exact(A, b)
        if status == "consistent":
            raise _DegenerateConfiguration(f"moments in image of singular tree {tree.edges}")
        if status == "inconsistent":
            continue
        lengths = tuple(xs[2:])
        if any(l == 0 for l in lengths):
            raise _DegenerateConfiguration(f"zero length in tree {tree.edges}")
        if any(l < 0 for l in lengths):
            continue
        mults = _vertex_multiplicities(tree, vectors, data, slopes)
        yield tree, TypeSolution(lengths=lengths, root=(xs[0], xs[1])), tuple(mults)
