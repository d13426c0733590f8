"""Seeded input generators for the benchmark.

The benchmark keeps its own generators instead of importing the test
helpers, so a change to the tests can never silently change what the
benchmark measures.  Every function draws only from the `random.Random`
it is given; the same seed therefore yields the same inputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from diminimal import Family, RootedTree, WeightedTreeMatrix, build_tree
from diminimal.trees import duplicate_branch, main_roots

# the acceptance corpus mix: 204 (family, diameter) cells, n <= 200 after
# unfolding; realize constructions exist for every cell
CORPUS_CELLS: tuple[tuple[Family, int], ...] = tuple(
    [(Family.UNIFORM, d) for d in range(1, 13) for _ in range(8)]
    + [(Family.SHORT_CORE, d) for d in range(6, 12) for _ in range(10)]
    + [(Family.MIXED, d) for d in (7, 9, 11) for _ in range(16)]
)

ANCHORS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(0), Fraction(32)),
    (Fraction(-3), Fraction(29)),
    (Fraction(1, 2), Fraction(65, 2)),
    (Fraction(0), Fraction(7)),
    (Fraction(-5), Fraction(3)),
    (Fraction(-7, 3), Fraction(11, 3)),
)


def random_tree(n: int, rng: random.Random) -> RootedTree:
    """Uniform random recursive tree on n vertices rooted at 0."""
    return build_tree([(rng.randrange(i), i) for i in range(1, n)], 0)


def caterpillar(n: int, rng: random.Random) -> RootedTree:
    """A spine of 3n/4 vertices rooted at one end, the rest hung as legs on
    random spine vertices: deep, so exact values grow along the spine."""
    spine = max(2, 3 * n // 4)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return build_tree(edges, 0)


def broom(n: int, rng: random.Random) -> RootedTree:
    """A handle of up to 8 vertices ending in a star holding the rest:
    one vertex with a very wide fan-in."""
    handle = min(8, n - 1)
    edges = [(i, i + 1) for i in range(handle - 1)]
    hub = handle - 1
    edges += [(hub, v) for v in range(handle, n)]
    return build_tree(edges, rng.randrange(handle))


def random_matrix(t: RootedTree, rng: random.Random) -> WeightedTreeMatrix:
    """Small random rational entries: diagonal in [-9, 9] over 1..4,
    squared weights in [1, 16] over 1..4."""
    diag = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(t.n))
    sq = tuple(Fraction(rng.randint(1, 16), rng.randint(1, 4))
               for _ in t.edges)
    return WeightedTreeMatrix(t, diag, sq)


def random_point(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.randint(1, 8))


def branch_candidates(t: RootedTree) -> list[tuple[int, int]]:
    """Every (vertex, child) whose branch duplicate_branch accepts: a
    branch avoids the central vertices exactly when its root is not an
    ancestor-or-self of one."""
    blocked: set[int] = set()
    for r in main_roots(t):
        while r != -1 and r not in blocked:
            blocked.add(r)
            r = t.parent[r]
    return [(v, c) for v in range(t.n) for c in t.children[v] if c not in blocked]


def random_unfolding(t: RootedTree, rng: random.Random, rounds: int,
                     cap: int = 200) -> RootedTree:
    """Up to `rounds` random branch duplications avoiding the central
    vertices, keeping the vertex count at or below `cap`."""
    for _ in range(rounds):
        cands = branch_candidates(t)
        if not cands:
            return t
        v, c = rng.choice(cands)
        copies = rng.choice((1, 1, 2))
        if t.n + copies * len(t.subtree(c)) > cap:
            continue
        t = duplicate_branch(t, v, c, copies)
    return t


def dense(m: WeightedTreeMatrix) -> np.ndarray:
    """Float expansion built here rather than by the package, so the
    reference spectrum does not depend on the code under test."""
    a = np.zeros((m.n, m.n))
    for i, q in enumerate(m.diag):
        a[i, i] = float(q)
    for (u, v), w in zip(m.tree.edges, m.sq_edge):
        a[u, v] = a[v, u] = math.sqrt(float(w))
    return a


def reference_spectrum(m: WeightedTreeMatrix) -> tuple[np.ndarray, float]:
    """Ascending float eigenvalues from numpy.linalg.eigvalsh and the
    guard distance within which a float eigenvalue cannot decide a count."""
    a = dense(m)
    evs = np.linalg.eigvalsh(a)
    guard = 1e-6 * max(1.0, float(np.abs(a).max()))
    return evs, guard


def guarded(evs: np.ndarray, guard: float, x: Fraction) -> bool:
    """True when no float eigenvalue is within `guard` of x, so the float
    count of eigenvalues below x is trustworthy."""
    xf = float(x)
    i = int(np.searchsorted(evs, xf))
    near = [abs(evs[j] - xf) for j in (i - 1, i) if 0 <= j < len(evs)]
    return not near or min(near) > guard


def float_below(evs: np.ndarray, x: Fraction) -> int:
    return int(np.searchsorted(evs, float(x), side="left"))
