"""Golden digest of counts_at output.

Changes to the counting routine must leave every count unchanged.  This
test hashes counts_at over a fixed set of matrices and points:

* matrices: the realized family seeds of diameter at most 13, random,
  caterpillar and broom trees with n <= 300 and small random entries,
  random trees with entries in {-1, 0, 1} (zero pivots and nested
  zero-pairings are common there), and 10^+-300 scalings of some of them;
* points: every claimed eigenvalue, each of those +- 2^-k, points equal to
  a leaf's diagonal entry (the leaf's value is then exactly 0), random
  small rationals, and points scaled by 10^+-300.

Every fourth point is also counted on the same matrix rooted at a second
vertex.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from helpers import random_matrix, random_tree, rooted_at

from diminimal import (Family, build_tree, counts_at, make_matrix,
                       realize_family, seed)

GOLDEN = "57a8d310988979af65c2e82f0444ebd1fdd5410d87c7d0816a9bd8deea06154b"

SEEDS = ([(Family.UNIFORM, d) for d in range(1, 14)]
         + [(Family.SHORT_CORE, d) for d in range(6, 14)]
         + [(Family.MIXED, d) for d in range(7, 14, 2)])
ANCHORS = ((F(0), F(32)), (F(-3, 2), F(5, 7)))
OFFSETS = [s * F(1, 2 ** k) for k in (1, 7, 26, 52, 53, 54, 80) for s in (1, -1)]
BIG = F(10) ** 300


def caterpillar(n, rng):
    spine = max(2, 3 * n // 4)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return build_tree(edges, 0)


def broom(n, rng):
    handle = min(8, n - 1)
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, v) for v in range(handle, n)]
    return build_tree(edges, rng.randrange(handle))


def scaled(m, c, wc):
    return make_matrix(m.tree, [q * c for q in m.diag],
                       {e: w * wc for e, w in zip(m.tree.edges, m.sq_edge)})


def leaf_points(m, k):
    leaves = [v for v in range(m.n) if m.tree.degree(v) <= 1]
    return sorted({m.diag[v] for v in leaves})[:k]


def golden_cases():
    """(matrix, points) pairs in a fixed order."""
    rng = random.Random(4242)
    for i, (fam, d) in enumerate(SEEDS):
        cert = realize_family(seed(fam, d), *ANCHORS[i % 2])
        values = [v for v, _ in cert.dspec]
        yield cert.matrix, values + [v + o for v in values for o in OFFSETS]
    for n in (40, 300):
        for shape in (random_tree, caterpillar, broom):
            m = random_matrix(shape(n, rng), rng)
            pts = [F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(12)]
            pts += leaf_points(m, 10)
            yield m, pts + [F(0), BIG, -BIG, 1 / BIG, -1 / BIG]
            if n == 40:
                for c in (BIG, 1 / BIG):
                    yield scaled(m, c, c * c), [p * c for p in pts]
                    yield scaled(m, c, c), [p * c for p in pts]
    for n in (5, 12, 30, 60):
        t = random_tree(n, rng)
        m = make_matrix(t, [F(rng.randint(-1, 1)) for _ in range(n)],
                        {e: F(rng.randint(1, 2)) for e in t.edges})
        pts = [F(k, 2) for k in range(-6, 7)]
        yield m, pts + leaf_points(m, 3)


def golden_records():
    out = []
    for m, pts in golden_cases():
        other = m.n // 2
        rows = []
        for i, p in enumerate(pts):
            c = counts_at(m, p)
            rows.append([str(p), c.below, c.equal, c.above])
            if i % 4 == 0:
                c = counts_at(rooted_at(m, other), p)
                rows.append([other, c.below, c.equal, c.above])
        out.append(rows)
    return out


def test_counts_at_digest():
    blob = json.dumps(golden_records(), separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN
