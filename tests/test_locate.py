import random
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction as F
from math import gcd, isqrt, nextafter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (CORPUS_CELLS, random_matrix, random_tree, random_unfolding,
                     reference_elimination, reference_isolate, rooted_at,
                     subtree_ids)

import diminimal
import diminimal.locate as locate
from diminimal import (
    Family,
    FloatSpectrum,
    WeightedTreeMatrix,
    build_tree,
    count_in_interval,
    counts_at,
    counts_within,
    delete_vertex,
    diagonalize,
    find_parter_vertex,
    is_parter,
    isolate_eigenvalues,
    make_matrix,
    multiplicity,
    realize_family,
    reroot,
    seed,
    to_dense_float,
    trace,
)
from diminimal.locate import _run


def path_matrix(n, diag=0, w2=1):
    t = build_tree([(i, i + 1) for i in range(n - 1)], 0)
    return make_matrix(t, tuple(F(diag) for _ in range(n)),
                       {e: F(w2) for e in t.edges})


# ------------------------------------------------------- congruence runs


def test_run_path3_at_zero():
    # rooted at the middle vertex; the child pivot pair fires
    t = build_tree([(0, 1), (1, 2)], 1)
    m = make_matrix(t, (F(0), F(0), F(0)), {(0, 1): F(1), (1, 2): F(1)})
    out = diagonalize(m, F(0))
    assert out.final_values == {0: F(2), 1: F(-1, 2), 2: F(0)}
    assert out.inertia == (1, 1, 1)
    assert out.pivots == frozenset({1})


def test_run_path2_at_zero():
    m = path_matrix(2)
    out = diagonalize(m, F(0))
    assert out.final_values == {1: F(2), 0: F(-1, 2)}
    assert out.inertia == (1, 0, 1)


def test_run_path5_pivot_cascade():
    # all-zero diagonal, unit weights, shift 0: pivots fire at 3 and 1,
    # detaching the edge above each pivot as the run climbs
    m = path_matrix(5)
    out = diagonalize(m, F(0))
    assert [out.final_values[v] for v in range(5)] == [
        F(0), F(-1, 2), F(2), F(-1, 2), F(2)]
    assert set(out.removed_edges) == {(0, 1), (2, 3)}
    assert out.pivots == frozenset({1, 3})
    assert out.inertia == (2, 1, 2)


def test_run_shift_moves_diagonal():
    m = path_matrix(2, diag=3)
    out = diagonalize(m, F(-3))
    assert out.inertia == (1, 0, 1)
    out = diagonalize(m, F(0))
    # d = 3, then 3 - 1/3
    assert out.inertia == (0, 0, 2)


def test_diagonalize_root_choice_changes_nothing_inertial():
    rng = random.Random(1)
    for _ in range(25):
        t = random_tree(rng.randint(2, 20), rng)
        m = random_matrix(t, rng)
        x = F(rng.randint(-6, 6), rng.randint(1, 3))
        base = diagonalize(m, x).inertia
        for _ in range(3):
            r = rng.randrange(t.n)
            assert diagonalize(rooted_at(m, r), x).inertia == base


# ------------------------------------------- kernel against the reference


@st.composite
def tree_matrices(draw, entries, weights, max_n=12):
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    t = build_tree(edges, draw(st.integers(0, n - 1)))
    return make_matrix(t, [draw(entries) for _ in range(n)],
                       {e: draw(weights) for e in t.edges})


# small integers make zero pivots and zero-pairing cascades frequent
SMALL = tree_matrices(st.integers(-1, 1).map(F), st.integers(1, 2).map(F))
# about 200-bit entries reach the gcd != 1 branches of the integer sums
BIG = 2 ** 200
HUGE = tree_matrices(
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(F, st.integers(1, BIG), st.integers(1, BIG)), max_n=8)

MIXED = tree_matrices(st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
                      st.builds(F, st.integers(1, 16), st.integers(1, 4)), max_n=20)


def assert_matches_reference(m, x, root):
    out = diagonalize(rooted_at(m, root), x)
    d, pivots, removed = reference_elimination(m, x, root)
    assert out.final_values == d
    assert out.pivots == frozenset(pivots)
    assert out.removed_edges == tuple(sorted(removed))
    vals = list(d.values())
    neg, zero = sum(q < 0 for q in vals), sum(q == 0 for q in vals)
    assert out.inertia == (neg, zero, len(vals) - neg - zero)
    assert counts_at(rooted_at(m, root), -x) == counts_at(m, -x)
    # the kernel's own pairs stay reduced with positive denominators
    pairs: dict = {}
    _run(rooted_at(m, root).rows, [(x.numerator, x.denominator)], [pairs])
    assert all(b > 0 and gcd(a, b) == 1 for a, b in pairs.values())


@settings(max_examples=150, deadline=None)
@given(SMALL, st.integers(-3, 3).map(F))
def test_kernel_matches_reference_at_every_root(m, x):
    for r in range(m.n):
        assert_matches_reference(m, x, r)


@settings(max_examples=40, deadline=None)
@given(HUGE, st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)))
def test_kernel_matches_reference_on_200_bit_entries(m, x):
    assert_matches_reference(m, x, m.tree.root)
    assert_matches_reference(m, x, m.n - 1)


def assert_batch_is_single_runs(m, points):
    """One kernel run over a batch of points gives, at each point, what a
    run at that point alone gives: counts, root value, values and pivots,
    on the n-row form and on the quotient of m."""
    for rows in (m.rows, m.quotient):
        values, pivots = [{} for _ in points], [[] for _ in points]
        batch = _run(rows, points, values, pivots)
        assert len(batch) == len(points)
        for i, p in enumerate(points):
            vals, piv = {}, []
            assert [batch[i]] == _run(rows, [p], [vals], [piv])
            assert values[i] == vals and pivots[i] == piv


@settings(max_examples=100, deadline=None)
@given(st.one_of(SMALL, MIXED), st.lists(st.builds(F, st.integers(-20, 20),
                                                   st.integers(1, 4)), max_size=6))
def test_a_batch_of_points_is_single_point_runs_at_every_root(m, xs):
    # x = -d_v makes vertex v's own entry 0, so leaves and whole subtrees
    # hit exact zeros and the pairing rule at some points but not others
    xs = xs + [-q for q in m.diag[:4]] + [F(0)]
    for r in range(m.n):
        assert_batch_is_single_runs(rooted_at(m, r),
                                    [(x.numerator, x.denominator) for x in xs])


@pytest.mark.parametrize("family, d", [(Family.UNIFORM, 5), (Family.SHORT_CORE, 8),
                                       (Family.MIXED, 7)])
def test_a_batch_at_claimed_values_is_single_point_runs_at_every_root(family, d):
    # at a claimed value of a seed's construction many vertices are exactly
    # 0, each pairing with its parent at that point only
    cert = realize_family(seed(family, d), 0, 32)
    m = cert.matrix
    xs = [-v for v, _ in cert.dspec] + [F(1, 3)]
    xs += [-v - F(1, 2 ** 40) for v, _ in cert.dspec[:2]]
    for r in range(m.n):
        assert_batch_is_single_runs(rooted_at(m, r),
                                    [(x.numerator, x.denominator) for x in xs])


def descending_postorder(t):
    """A postorder of t that visits the children of each vertex in
    descending id order, as `_Block.order` may, since it lists a block's
    parts before its core."""
    out, stack = [], [(t.root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            out.append(v)
            continue
        stack.append((v, True))
        stack.extend((c, False) for c in sorted(t.children[v]))
    return out


def assert_run_matches_reference(rows, m, x, root):
    """`_run` over `rows` (m rooted at `root`, in any postorder) gives the
    reference's final values, pivots, counts and root value."""
    vals, piv = {}, []
    (neg, zero, top), = _run(rows, [(x.numerator, x.denominator)], [vals], [piv])
    d, pivots, _ = reference_elimination(m, x, root)
    assert {v: F(*q) for v, q in vals.items()} == d and set(piv) == pivots
    assert (neg, zero) == (sum(q < 0 for q in d.values()), sum(q == 0 for q in d.values()))
    assert F(*top) == d[root]


def test_zero_children_in_descending_order_pair_with_the_smallest():
    # three zero leaves under a zero hub, run in the order 3, 2, 1, 0: the
    # hub pairs with leaf 1, the last zero pushed, which is the smallest
    t = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    m = make_matrix(t, (F(0),) * 4, {(0, 1): F(2), (0, 2): F(3), (0, 3): F(5)})
    rows = m.rows._replace(order=(3, 2, 1, 0))
    vals, piv = {}, []
    _run(rows, [(0, 1)], [vals], [piv])
    assert vals == {3: (0, 1), 2: (0, 1), 1: (2, 1), 0: (-1, 1)} and piv == [0]
    assert_run_matches_reference(rows, m, F(0), 0)


@settings(max_examples=150, deadline=None)
@given(SMALL, st.integers(-3, 3).map(F), st.data())
def test_kernel_in_descending_child_order_matches_reference(m, x, data):
    root = data.draw(st.integers(0, m.n - 1))
    mr = rooted_at(m, root)
    rows = mr.rows._replace(order=descending_postorder(mr.tree))
    assert_run_matches_reference(rows, m, x, root)


@pytest.mark.parametrize("hub", [F(0), F(5, 2)])
def test_schur_terms_that_cancel_leave_a_sum_not_a_pairing(hub):
    # at x = 0 the leaves are 3, 3 and -3/2 with unit weights: their Schur
    # terms -1/3 - 1/3 + 2/3 sum to exactly 0, so the hub is its own entry,
    # 0 or 5/2, and pairs with nothing; in the quotient the two equal leaves
    # are one class that occurs twice, whose term is added once more
    t = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    m = make_matrix(t, (hub, F(3), F(3), F(-3, 2)), {e: F(1) for e in t.edges})
    assert_run_matches_reference(m.rows, m, F(0), 0)
    d, _, _ = reference_elimination(m, F(0), 0)
    assert d[0] == hub
    vals, piv = {}, []
    (neg, zero, top), = _run(m.quotient, [(0, 1)], [vals], [piv])
    assert len(vals) == 3 and piv == []
    assert (neg, zero, F(*top)) == (1, hub == 0, hub)
    # a zero child beside the cancelling ones still pairs with the hub: its
    # mark comes first, and the sums pushed after it leave it alone
    tz = build_tree([(0, 1), (0, 2), (0, 3), (0, 4)], 0)
    z = make_matrix(tz, (hub, F(0), F(3), F(3), F(-3, 2)), {e: F(1) for e in tz.edges})
    assert_run_matches_reference(z.rows, z, F(0), 0)
    (_, _, top), = _run(z.quotient, [(0, 1)])
    assert top == (-1, 2)


def test_a_zero_mark_survives_the_terms_pushed_after_it():
    # leaves 5, 7 (weight 3), 0 and 2, 2 under a hub: in the quotient the
    # zero leaf's class 2 marks the hub's slot, then the class of the two
    # leaves 2 adds its term (q = 2) through its parent and, once more, its
    # further parent; the hub still pairs with class 2, not class 1
    t = build_tree([(0, v) for v in range(1, 6)], 0)
    m = make_matrix(t, (F(1), F(5), F(7), F(0), F(2), F(2)),
                    {e: F(3) if e == (0, 2) else F(1) for e in t.edges})
    q = m.quotient
    assert q.extra[3] == ((4, 1),) and q.dn[2] == 0
    assert_run_matches_reference(m.rows, m, F(0), 0)
    vals, piv = {}, []
    (neg, zero, top), = _run(q, [(0, 1)], [vals], [piv])
    assert piv == [4] and vals[2] == (2, 1) and top == (-1, 2) and (neg, zero) == (1, 0)


@settings(max_examples=150, deadline=None)
@given(SMALL, st.integers(-3, 3).map(F), st.data())
def test_counts_within_matches_reference_on_connected_subsets(m, x, data):
    root = data.draw(st.integers(0, m.n - 1))
    t = reroot(m.tree, root)
    keep = {root}
    for v in reversed(t.order[:-1]):
        if t.parent[v] in keep and data.draw(st.booleans()):
            keep.add(v)
    d, _, _ = reference_elimination(m, x, root, keep)
    vals = list(d.values())
    neg, zero = sum(q < 0 for q in vals), sum(q == 0 for q in vals)
    c = counts_within(m, -x, keep)
    assert (c.below, c.equal, c.above) == (neg, zero, len(keep) - neg - zero)


# -------------------------------------------------------------- counting


def worked_matrix():
    # hub with one pendant leaf and two arms of length 2; eigenvalues -2, -1,
    # 0, 1 (twice) and 3
    t = build_tree([(0, 1), (0, 2), (2, 4), (0, 3), (3, 5)], 0)
    return make_matrix(
        t,
        (F(1), F(1), F(0), F(0), F(0), F(0)),
        {(0, 1): F(1), (0, 2): F(2), (0, 3): F(2), (2, 4): F(1), (3, 5): F(1)},
    )


def test_counts_at_worked_matrix():
    m = worked_matrix()
    assert trace(m) == F(2)
    spectrum = {F(-2): 1, F(-1): 1, F(0): 1, F(1): 2, F(3): 1}
    for lam, mult in spectrum.items():
        assert multiplicity(m, lam) == mult
    c = counts_at(m, F(-2))
    assert (c.below, c.equal, c.above) == (0, 1, 5)
    c = counts_at(m, F(10))
    assert (c.below, c.equal, c.above) == (6, 0, 0)
    c = counts_at(m, F(-10))
    assert (c.below, c.equal, c.above) == (0, 0, 6)


def test_counts_against_numpy():
    rng = random.Random(2)
    for _ in range(40):
        t = random_tree(rng.randint(1, 18), rng)
        m = random_matrix(t, rng)
        evs = np.linalg.eigvalsh(to_dense_float(m))
        x = F(rng.randint(-12, 12), rng.randint(1, 4))
        xf = float(x)
        if min(abs(evs - xf)) < 1e-9:
            continue  # too close to call in floats; exact tests cover this
        c = counts_at(m, x)
        assert c.below == int((evs < xf).sum())
        assert c.above == int((evs > xf).sum())
        assert c.equal == 0
        assert c.below + c.equal + c.above == m.n


def test_count_in_interval_boundary_flags():
    m = path_matrix(3)  # eigenvalues -sqrt2, 0, sqrt2
    assert count_in_interval(m, F(0), F(2)) == 2
    assert count_in_interval(m, F(-2), F(2)) == 3


def test_count_in_interval_single_point():
    m = path_matrix(3)  # eigenvalues -sqrt2, 0, sqrt2
    assert count_in_interval(m, F(0), F(0)) == 1
    assert count_in_interval(m, F(1), F(1)) == 0
    with mock.patch.object(locate, "counts_at", wraps=locate.counts_at) as spy:
        count_in_interval(m, F(0), F(0))
    assert spy.call_count == 1


def test_count_in_interval_rejects_reversed():
    m = path_matrix(2)
    with pytest.raises(ValueError):
        count_in_interval(m, F(1), F(0))


class SubFraction(F):
    """A Fraction subclass: converted to a Fraction like any other point."""


# one point in the forms a point may take: a Fraction is used as it is, and
# every other form is converted once
POINT_FORMS = [
    (F(-2), -2, "-2", SubFraction(-2)),
    (F(1), 1, " 1 ", SubFraction(1), Decimal(1)),
    (F(1, 2), "1/2", SubFraction(1, 2), 0.5, Decimal("0.5")),
    (F(-7, 3), "-7/3", SubFraction(-7, 3)),
]


@pytest.mark.parametrize("forms", POINT_FORMS)
def test_counts_take_a_point_in_any_rational_form(forms):
    m = worked_matrix()
    want = counts_at(m, forms[0])
    assert type(forms[0]) is F and all(type(x) is not F for x in forms[1:])
    for x in forms[1:]:
        assert counts_at(m, x) == want, x
        assert counts_within(m, x, range(m.n)) == want, x
    lo, hi = F(-5, 2), F(5, 2)
    for x in forms:
        assert count_in_interval(m, x, hi) == count_in_interval(m, forms[0], hi), x
        assert count_in_interval(m, lo, x) == count_in_interval(m, lo, forms[0]), x
        assert count_in_interval(m, x, x) == want.equal, x


def test_counts_within_subtree():
    m = path_matrix(5)
    c = counts_within(m, F(0), (0, 1, 2))
    # the restriction is P_3, eigenvalues -sqrt2, 0, sqrt2
    assert (c.below, c.equal, c.above) == (1, 1, 1)


def test_counts_within_rejects_disconnected_set():
    m = path_matrix(5)
    with pytest.raises(ValueError):
        counts_within(m, F(0), (0, 2))
    with pytest.raises(ValueError):
        counts_within(m, F(0), ())


def test_interlacing_under_vertex_deletion():
    # multiplicity changes by at most 1 when one vertex is removed
    rng = random.Random(6)
    for _ in range(30):
        t = random_tree(rng.randint(2, 16), rng)
        m = random_matrix(t, rng)
        x = F(rng.randint(-4, 4), rng.randint(1, 2))
        before = multiplicity(m, x)
        v = rng.randrange(t.n)
        after = sum(multiplicity(c, x) for c in delete_vertex(m, v))
        assert abs(after - before) <= 1


# ---------------------------------------------- float pass and exact run
#
# counts_at runs the elimination in float intervals and pairs a child whose
# interval meets 0 with a parent it dominates; where floats cannot decide a
# vertex, it ends in one exact run of the whole tree.  The tests named
# test_counts_many_* count many points through counts_at; they keep the
# names of the float filter tests they took over when that filter became
# part of counts_at, and the tests named after repairs keep the names of
# the exact subtree repairs that the one exact run replaced.


def reference_counts(m, point):
    neg, zero, pos = diagonalize(m, -point).inertia
    return locate.CountsAt(below=neg, equal=zero, above=pos)


@contextmanager
def spying_runs():
    """The orders of the rows handed to the exact kernel while the block
    runs: all of them the n-row form, a row per vertex."""
    seen = []

    def spy(rows, *args, **kwargs):
        assert set(rows.copies) == {1}
        seen.append(tuple(rows.order))
        return _run(rows, *args, **kwargs)

    with mock.patch.object(locate, "_run", spy):
        yield seen


@pytest.fixture
def exact_runs():
    with spying_runs() as seen:
        yield seen


def assert_counts_exact(m, points, roots=None):
    """counts_at against the plain exact kernel, on m and on m rooted at
    every vertex; each count makes no exact run or one of the whole tree."""
    rooted = [rooted_at(m, r) for r in (range(m.n) if roots is None else roots)]
    with spying_runs() as runs:
        for mr in rooted + [m]:
            for p in points:
                want = reference_counts(mr, p)
                runs.clear()
                assert counts_at(mr, p) == want
                assert runs in ([], [tuple(mr.rows.order)])


POINTS = st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 8)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.one_of(SMALL, MIXED), POINTS)
def test_counts_many_matches_counts_at(m, points):
    # the diagonal entries themselves make leaf values exactly 0
    assert_counts_exact(m, points + list(m.diag[:3]))


@settings(max_examples=40, deadline=None)
@given(HUGE, st.lists(st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
                      max_size=6))
def test_counts_many_matches_counts_at_on_200_bit_entries(m, points):
    assert_counts_exact(m, points)


@settings(max_examples=60, deadline=None)
@given(MIXED, POINTS, st.sampled_from([F(10) ** 300, F(1, 10 ** 300)]),
       st.booleans())
def test_counts_many_at_the_ends_of_the_float_range(m, points, c, squared):
    # diagonal and points scaled by 10^+-300 make Schur terms and sums
    # overflow or underflow; squared weights scaled by c*c = 10^+-600 leave
    # the float range altogether
    wc = c * c if squared else c
    scaled = make_matrix(m.tree, [q * c for q in m.diag],
                         {e: w * wc for e, w in zip(m.tree.edges, m.sq_edge)})
    assert_counts_exact(scaled, [p * c for p in points] + [F(0)])


@pytest.mark.parametrize("diag0, w2, point", [
    (F(10 ** 400), F(1), F(0)),
    (F(-(10 ** 400)), F(1), F(10 ** 400)),
    (F(1, 10 ** 400), F(1, 10 ** 400), F(0)),
    (F(0), F(10 ** 400), F(0)),
    (F(0), F(1), F(10 ** 400)),
    (F(0), F(1), F(-1, 10 ** 400)),
])
def test_counts_many_beyond_the_float_range(diag0, w2, point):
    t = build_tree([(0, 1), (1, 2)], 1)
    m = make_matrix(t, (diag0, F(0), F(1, 3)), {(0, 1): w2, (1, 2): F(2)})
    assert_counts_exact(m, [point, F(0), F(1), -point])


# Leaf-and-root matrices at single-rounding edges, each of which a float
# pass missing one outward rounding decides wrongly.  The leaf's value is
# 1.5 * 2^-53 + 2^-79 = (1 + 2^-53 + 2^-80) - (1 - 2^-54 - 2^-80): both
# terms round up by almost half an ulp, but the ulp of the first is twice
# that of the second, so without the first term's widening the leaf's
# lower bound comes out as 2^-52.  Through the Schur term -2^-53/v the root
# then looks positive while it is 3/5 - 2/3 < 0.  Negating the matrix and
# the point moves the same case to the upper bounds, and swapping the two
# terms between the diagonal and the point moves it from the diagonal to
# the point.  The last pair hides a squared weight of 2^-1128, which
# underflows to 0, behind a root value of +-2^-1060.
EDGE_A = 1 + F(1, 2 ** 53) + F(1, 2 ** 80)
EDGE_B = 1 - F(1, 2 ** 54) - F(1, 2 ** 80)
ROUNDING_EDGES = [(s * (b + F(3, 5)), s * a, F(1, 2 ** 53), s * b)
                  for a, b in ((EDGE_A, EDGE_B), (-EDGE_B, -EDGE_A)) for s in (1, -1)]
ROUNDING_EDGES += [(s * F(1, 2 ** 1060), s * F(1, 2 ** 1070), F(1, 2 ** 1128), F(0))
                   for s in (1, -1)]
# A leaf of 3 * 2^-1074 at the point 0 has the lower bound 2 * 2^-1074 -
# 2^-1074, which is exact, then 0.0 after the outward step: the interval
# touches 0 although the value is positive, and a float pass that took a
# lower bound of 0.0 for a positive value would divide by it.
ROUNDING_EDGES += [(F(1), s * 3 * F(1, 2 ** 1074), F(1), F(0)) for s in (1, -1)]


@pytest.mark.parametrize("root_diag, leaf_diag, w2, point", ROUNDING_EDGES)
def test_counts_many_at_single_rounding_edges(root_diag, leaf_diag, w2, point):
    m = make_matrix(build_tree([(0, 1)], 0), (root_diag, leaf_diag), {(0, 1): w2})
    assert_counts_exact(m, [point])
    d, _, _ = reference_elimination(m, -point, 0)
    neg, zero = sum(q < 0 for q in d.values()), sum(q == 0 for q in d.values())
    assert counts_at(m, point) == locate.CountsAt(neg, zero, 2 - neg - zero)


def test_counts_at_rounds_each_schur_term_outward_on_a_hub():
    # a root of 64 leaves whose terms cancel its diagonal to -2^-60.  Each
    # leaf is 1 + 2^-51, so its lower bound is 1.0, and its weight is just
    # below t = 2^-6 + 2^-54 - 2^-58, so its upper bound is t.  t is just
    # under half an ulp past a multiple of 2^-53, the ulp of the root's
    # running sum in [1/2, 1), so each subtraction of t rounded to nearest
    # rounds up by just under 2^-54.  Over the 32 steps there that beats the
    # slack of the bounds, about 2^-50, and a lower bound rounded to nearest
    # would call the root positive
    n, t = 64, 2.0 ** -6 + 2.0 ** -54 - 2.0 ** -58
    leaf, w = 1 + F(1, 2 ** 51), F(nextafter(t, 0))
    tree = build_tree([(0, v) for v in range(1, n + 1)], 0)
    m = make_matrix(tree, [n * w / leaf - F(1, 2 ** 60)] + [leaf] * n,
                    {e: w for e in tree.edges})
    assert counts_at(m, F(0)) == reference_counts(m, F(0)) == locate.CountsAt(1, 0, n)


SEEDS = [(Family.UNIFORM, d) for d in range(1, 16)] + [
    (Family.SHORT_CORE, d) for d in range(6, 16)] + [
    (Family.MIXED, d) for d in range(7, 16, 2)]


@pytest.mark.parametrize("family, d", SEEDS)
def test_counts_many_falls_back_at_every_constructed_eigenvalue(family, d, exact_runs):
    # a true eigenvalue leaves a zero that no pairing removes, which the
    # float pass cannot count, so each point ends in one exact run
    cert = realize_family(seed(family, d), 0, 32)
    m = cert.matrix
    for v, mult in cert.dspec:
        want = reference_counts(m, v)
        exact_runs.clear()
        c = counts_at(m, v)
        assert c.equal == mult and c == want
        assert exact_runs == [tuple(m.rows.order)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([c for c in CORPUS_CELLS if c[1] >= 3]),
       st.randoms(use_true_random=False), st.data())
def test_counts_at_matches_the_reference_where_repairs_nest(cell, rng, data):
    # constructed eigenvalues of random unfoldings, rooted at the
    # construction's root and anywhere else: their zero subtrees nest, where
    # exact subtree repairs once ran one inside the other
    fam, d = cell
    cert = realize_family(random_unfolding(seed(fam, d), rng, 4, cap=60), 0, 32)
    m = cert.matrix
    mr = rooted_at(m, data.draw(st.integers(0, m.n - 1)))
    for v, mult in cert.dspec:
        for mm in (m, mr):
            c = counts_at(mm, v)
            assert c == reference_counts(mm, v) and c.equal == mult


# a root with eight nonzero leaves and a zero path of 22 vertices below it:
# at the point 0 every other vertex of the path is 0, and each pairs with
# its parent in the float pass
ZERO_PATH = make_matrix(
    build_tree([(0, v) for v in range(1, 10)] + [(v, v + 1) for v in range(9, 30)], 0),
    [F(0) if v >= 9 else F(100 + v, 3) for v in range(31)],
    {e: F(1) for e in [(0, v) for v in range(1, 10)] + [(v, v + 1) for v in range(9, 30)]})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.one_of(SMALL, MIXED))
@example(m=ZERO_PATH)
def test_counts_at_keeps_exact_work_within_an_eighth_over_n(exact_runs, m):
    # exact work is no run or one run of the whole tree, n rows, well within
    # the n + n/8 of the subtree repairs the name is from (the spy's list is
    # cleared per point, so sharing it between examples is safe)
    for p in [*m.diag, F(0), F(1), F(-1)]:
        want = reference_counts(m, p)
        exact_runs.clear()
        assert counts_at(m, p) == want
        assert exact_runs in ([], [tuple(m.rows.order)])


@pytest.mark.parametrize("family, d", [(f, d) for f, d in SEEDS if d <= 9])
def test_counts_many_near_constructed_eigenvalues(family, d, exact_runs):
    cert = realize_family(seed(family, d), 0, 32)
    m, values = cert.matrix, [v for v, _ in cert.dspec]
    near = [v + s * F(1, 2 ** k) for v in values for k in range(1, 61) for s in (1, -1)]
    assert_counts_exact(m, near, roots=[m.n - 1])
    # offsets far above the float resolution never need the exact kernel
    exact_runs.clear()
    for p in [v + s * F(1, 2 ** k) for v in values for k in range(1, 21) for s in (1, -1)]:
        counts_at(m, p)
    assert exact_runs == []


def test_counts_many_decides_guarded_points(exact_runs):
    # a vertex value is 0 exactly at an eigenvalue of a subtree block; with
    # entries over 1..4 those have denominators over powers of 2 and 3, so
    # points over the prime 10007 keep every vertex value away from 0
    rng = random.Random(9)
    for _ in range(40):
        m = random_matrix(random_tree(rng.randint(1, 40), rng), rng)
        evs = np.linalg.eigvalsh(to_dense_float(m))
        pts = [F(rng.randint(-10 ** 6, 10 ** 6), 10007) for _ in range(20)]
        pts = [p for p in pts if min(abs(evs - float(p))) > 1e-6]
        want = [reference_counts(m, p) for p in pts]
        exact_runs.clear()
        assert [counts_at(m, p) for p in pts] == want
        assert exact_runs == []


def test_counts_at_repairs_a_leaf_zero_alone(exact_runs):
    # a point equal to a leaf's diagonal entry makes that leaf exactly 0;
    # its interval meets 0, it dominates its parent, and the two pair in
    # the float pass with no exact run at all.  Each leaf has its own
    # diagonal entry, so no other vertex value comes near 0.  (The test's
    # name is from the schedule before that pairing, when such a leaf was
    # repaired alone.)
    rng = random.Random(12)
    t = random_tree(300, rng)
    leaves = [v for v in t.order[8:] if not t.children[v]]
    m = random_matrix(t, rng)
    m = make_matrix(t, [F(100 + v, 3) if v in leaves else q for v, q in enumerate(m.diag)],
                    dict(zip(t.edges, m.sq_edge)))
    for v in leaves[::7]:
        p = m.diag[v]
        want = reference_counts(m, p)
        exact_runs.clear()
        assert counts_at(m, p) == want
        assert exact_runs == []


def test_counts_at_pairs_in_floats_a_zero_spine_vertex(exact_runs):
    # a caterpillar whose spine vertex 40, heading over 200 vertices, is
    # exactly 0 at the point 1/7: its interval is a few ulps about 0 and
    # its term dominates its parent, so the two pair in the float pass,
    # with no exact run of the subtree below
    rng = random.Random(3)
    t = build_tree([(v, v + 1) for v in range(239)]
                   + [(rng.randrange(240), v) for v in range(240, 300)], 0)
    m, p, s = random_matrix(t, rng), F(1, 7), 40
    diag = list(m.diag)
    diag[s] -= diagonalize(m, -p).final_values[s]
    m = make_matrix(t, diag, dict(zip(t.edges, m.sq_edge)))
    # vertex 40 is the one zero, and its parent pairs with it (a zero turns 2)
    out = diagonalize(m, -p)
    assert t.size[s] > 200 and out.pivots == {39} and out.final_values[s] == 2
    want = reference_counts(m, p)
    exact_runs.clear()
    assert counts_at(m, p) == want
    assert exact_runs == []
    assert_counts_exact(m, [p])


def test_counts_at_pairs_in_floats_only_a_child_that_dominates(exact_runs):
    # at the point 1 the leaf is 2^-80, inside its float interval of about
    # +-2^-52, and the root without the leaf's term is 2^80 + 1, which the
    # leaf's term of -2^80 does not dominate: both values are positive, so
    # a pairing would count one negative too many, and the pass goes exact
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (2 + 2 ** 80, 1 + F(1, 2 ** 80)), {(0, 1): F(1)})
    exact_runs.clear()
    assert counts_at(m, F(1)) == locate.CountsAt(below=0, equal=0, above=2)
    assert exact_runs == [t.order]
    assert_counts_exact(m, [F(1)])


def test_counts_at_pairs_in_floats_nothing_above_a_block_root_that_pairs(exact_runs):
    # the star of three leaves on vertex 0, all entries 0 and rooted at leaf
    # 1, at the point 0 (its eigenvalues are -sqrt(3), 0, 0 and sqrt(3)):
    # leaves 2 and 3 may both be 0, so the pass ends in one exact run, in
    # which vertex 0 pairs with leaf 2 and sends nothing up.  That leaves
    # the root at 0; sending up an exact term of 2 would make it positive
    t = build_tree([(0, 1), (0, 2), (0, 3)], 1)
    m = make_matrix(t, (F(0),) * 4, {e: F(1) for e in t.edges})
    exact_runs.clear()
    assert counts_at(m, F(0)) == locate.CountsAt(below=1, equal=2, above=1)
    assert exact_runs == [t.order]
    assert_counts_exact(m, [F(0)])


def test_counts_at_sums_the_exact_terms_of_repaired_siblings():
    # at the point 1 the two leaves of vertex 1 are 2^-80 and 3 * 2^-81,
    # which floats cannot tell from 0; their exact terms, -2^80 and
    # -2^81/3, cancel vertex 1 to exactly 0 only when both reach it
    t = build_tree([(0, 1), (1, 2), (1, 3)], 0)
    diag = (F(5), 1 + 2 ** 80 + F(2 ** 81, 3), 1 + F(1, 2 ** 80), 1 + F(3, 2 ** 81))
    m = make_matrix(t, diag, {e: F(1) for e in t.edges})
    assert_counts_exact(m, [F(1)])
    assert counts_at(m, F(1)) == locate.CountsAt(below=1, equal=0, above=3)


def hub_after(fill):
    """Leaves 1..fill of the root 0, then the vertex fill + 1 holding the
    leaves fill + 2 and fill + 3, last in the postorder but the root."""
    return [(0, v) for v in range(1, fill + 2)] + [(fill + 1, fill + 2), (fill + 1, fill + 3)]


CHAIN = [(0, v) for v in range(1, 10)] + [(9, 10), (10, 11)]


@pytest.mark.parametrize("edges, zeros", [
    # two zero leaves under one vertex, late and last in the postorder
    (hub_after(21), {22: 1, 23: 0, 24: 0}),
    (hub_after(22), {23: 1, 24: 0, 25: 0}),
    # vertex 10 is 2^-80 with a term of -2^80 on vertex 9, whose diagonal
    # entry is 2^80 + 1: the child does not dominate
    (CHAIN, {9: 2 ** 80 + 1, 10: 1 + F(1, 2 ** 80), 11: 1}),
])
def test_counts_at_ends_the_float_pass_when_repairs_dominate(edges, zeros, exact_runs):
    # at the point 0, only the listed vertices have the diagonal entries
    # that bring a vertex value to 0 or next to it where the float pass
    # cannot pair it; however few vertices that is, the pass ends in one
    # exact run of the whole tree, where subtree repairs once ran
    t = build_tree(edges, 0)
    diag = [zeros.get(v, F(100 + v, 3)) for v in range(t.n)]
    m = make_matrix(t, diag, {e: F(1) for e in t.edges})
    want = reference_counts(m, F(0))
    exact_runs.clear()
    assert counts_at(m, F(0)) == want
    assert exact_runs == [t.order]


def test_counts_at_on_zero_levels():
    # all-zero diagonals and unit weights on a complete binary tree make the
    # leaves and then every other level exactly 0 at the point 0: two zero
    # leaves under one vertex end the float pass in one exact run
    edges = [((v - 1) // 2, v) for v in range(1, 127)]
    t = build_tree(edges, 0)
    m = make_matrix(t, (F(0),) * 127, {e: F(1) for e in t.edges})
    for p in (F(0), F(1), F(-1), F(1, 2)):
        assert_counts_exact(m, [p], roots=[0, 1, 126])


# ------------------------------------------------------------- isolation


def test_gershgorin_contains_spectrum():
    rng = random.Random(7)
    for _ in range(25):
        t = random_tree(rng.randint(1, 15), rng)
        m = random_matrix(t, rng)
        bound = m.gershgorin_bound
        evs = np.linalg.eigvalsh(to_dense_float(m))
        assert float(-bound) <= evs.min() and evs.max() <= float(bound)
        # computed once per matrix: a second read returns the cached bound,
        # which equals the bound of a fresh copy of the matrix
        assert m.gershgorin_bound is bound
        assert WeightedTreeMatrix(m.tree, m.diag, m.sq_edge).gershgorin_bound == bound


def test_isolate_eigenvalues_path():
    m = path_matrix(3)
    ivs = isolate_eigenvalues(m, F(1, 4))
    assert sum(iv.count for iv in ivs) == 3
    for iv in ivs:
        assert iv.hi - iv.lo <= F(1, 4)
        assert iv.count >= 1
    # sqrt(2) ~ 1.4142 sits in the last interval
    assert float(ivs[-1].lo) < 2 ** 0.5 <= float(ivs[-1].hi)


def test_isolate_eigenvalues_random():
    rng = random.Random(8)
    for _ in range(15):
        t = random_tree(rng.randint(2, 14), rng)
        m = random_matrix(t, rng)
        ivs = isolate_eigenvalues(m, F(1, 8))
        assert sum(iv.count for iv in ivs) == m.n
        evs = np.linalg.eigvalsh(to_dense_float(m))
        for iv, prev in zip(ivs[1:], ivs):
            assert prev.hi <= iv.lo
        # every float eigenvalue lands in some returned interval
        for lam in evs:
            assert any(float(iv.lo) - 1e-9 < lam <= float(iv.hi) + 1e-9
                       for iv in ivs)


def _sqrt_up(w):
    """sqrt(w) rounded up onto the 10**-6 grid from (isqrt(num*den) + 1)/den."""
    r = F(isqrt(w.numerator * w.denominator) + 1, w.denominator)
    return F(-(-(r.numerator * 10**6) // r.denominator), 10**6)


def test_gershgorin_bound_matches_the_row_definition():
    # the per-vertex definition, one rounded sqrt per row entry, on entries
    # from 10**-300 to 10**300
    rng = random.Random(12)
    for _ in range(60):
        t = random_tree(rng.randint(1, 20), rng)
        diag = tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                     * F(10) ** rng.choice((-300, 0, 0, 300)) for _ in range(t.n))
        sq = tuple(F(rng.randint(1, 16), rng.randint(1, 4))
                   * F(10) ** rng.choice((-300, 0, 0, 300)) for _ in t.edges)
        m = WeightedTreeMatrix(t, diag, sq)
        rows = [abs(m.diag[v]) + sum(_sqrt_up(w) for e, w in zip(t.edges, m.sq_edge) if v in e)
                for v in range(t.n)]
        bound = m.gershgorin_bound
        assert type(bound) is F and bound == max(rows)


def _isolate_cases():
    rng = random.Random(10)
    mats = [random_matrix(random_tree(rng.randint(1, 25), rng), rng) for _ in range(20)]
    mats += [realize_family(seed(f, d), 0, 32).matrix
             for f, d in ((Family.UNIFORM, 7), (Family.SHORT_CORE, 6), (Family.MIXED, 7),
                          (Family.UNIFORM, 9), (Family.SHORT_CORE, 10), (Family.MIXED, 11),
                          (Family.UNIFORM, 12))]
    # a float expansion that overflows: isolation has no estimates
    mats.append(path_matrix(2, diag=10**400, w2=10**400))
    return mats


def test_isolate_matches_depth_first_reference():
    mats = _isolate_cases()
    for m in mats:
        whole = 2 * m.gershgorin_bound + 1
        for w in (F(1, 1000), F(1, 3), F(100), whole, 2 * whole):
            assert isolate_eigenvalues(m, w) == reference_isolate(m, w)
    for m in mats[:3] + mats[-3:]:
        w = F(1, 10**40)
        assert isolate_eigenvalues(m, w) == reference_isolate(m, w)


def _spectrum(values):
    return property(lambda m: FloatSpectrum(tuple(map(float, values(m))), 0))


def _no_spectrum(m):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("estimate", [
    _spectrum(lambda m: np.linalg.eigvalsh(to_dense_float(m)) + 0.37),
    _spectrum(lambda m: np.linalg.eigvalsh(to_dense_float(m))[::2] - 1e-4),
    _spectrum(lambda m: [1e300, -1e300] * m.n),
    _spectrum(lambda m: [float("nan")] * m.n),
    _spectrum(lambda m: [float("inf")] + [0.0] * (m.n - 1)),
    property(_no_spectrum),
], ids=["shifted", "half-missing", "far", "nan", "inf", "lapack-error"])
def test_isolate_estimates_never_decide_the_answer(monkeypatch, estimate):
    mats = _isolate_cases()[::3]
    monkeypatch.setattr(WeightedTreeMatrix, "float_spectrum", estimate)
    for m in mats:
        for w in (F(1, 1000), F(1, 3)):
            assert isolate_eigenvalues(m, w) == reference_isolate(m, w)


def _no_memory(m):
    raise MemoryError


def test_isolate_without_memory_for_the_estimates(monkeypatch):
    # the n*n float expansion cannot be had: plain bisection
    monkeypatch.setattr(diminimal.oracle, "to_dense_float", _no_memory)
    for m in _isolate_cases()[::3]:
        for w in (F(1, 1000), F(1, 3)):
            assert isolate_eigenvalues(m, w) == reference_isolate(m, w)


def test_isolate_takes_no_estimates_above_the_vertex_bound(monkeypatch):
    dense = []
    monkeypatch.setattr(diminimal.oracle, "to_dense_float",
                        lambda m: dense.append(m.n) or to_dense_float(m))
    big = path_matrix(locate._ESTIMATE_MAX_N + 1)
    own = _counting(monkeypatch, locate)
    got = isolate_eigenvalues(big, F(1, 3))
    ref = _counting(monkeypatch, diminimal)
    assert got == reference_isolate(big, F(1, 3))
    # plain bisection, point for point (the reference also counts at -B-1)
    assert sorted(own) == sorted(set(ref) - {-big.gershgorin_bound - 1})
    assert dense == []
    isolate_eigenvalues(path_matrix(locate._ESTIMATE_MAX_N), F(1, 3))
    assert dense == [locate._ESTIMATE_MAX_N]


def _counting(monkeypatch, module):
    seen = []

    def spy(m, point):
        seen.append(point)
        return counts_at(m, point)

    monkeypatch.setattr(module, "counts_at", spy)
    return seen


@pytest.mark.parametrize("family, d", [(Family.UNIFORM, 9), (Family.SHORT_CORE, 8),
                                       (Family.MIXED, 9)])
def test_isolate_counts_only_around_the_estimates(monkeypatch, family, d):
    m = realize_family(random_unfolding(seed(family, d), random.Random(d), 2), 0, 32).matrix
    own = _counting(monkeypatch, locate)
    ivs = isolate_eigenvalues(m, F(1, 1000))
    assert len(ivs) == d + 1
    assert len(own) <= 3 * len(ivs)
    _assert_every_end_counted_once(m, ivs, own)
    # deep cells: never more counts than blind bisection takes
    w = F(1, 10**40)
    own.clear()
    ivs = isolate_eigenvalues(m, w)
    _assert_every_end_counted_once(m, ivs, own)
    ref = _counting(monkeypatch, diminimal)
    assert reference_isolate(m, w) == ivs
    assert len(own) <= len(ref)


def _assert_every_end_counted_once(m, ivs, seen):
    # every end of an interval but the outer two, -B-1 and B, is a cut that
    # isolation counted through locate.counts_at, and no cut is counted twice
    bound = m.gershgorin_bound
    ends = {x for iv in ivs for x in (iv.lo, iv.hi)} - {-bound - 1, bound}
    assert ends and ends <= set(seen)
    assert len(seen) == len(set(seen))


def test_isolate_rejects_bad_width():
    m = path_matrix(2)
    with pytest.raises(ValueError):
        isolate_eigenvalues(m, F(0))


# ---------------------------------------------------------------- parter


def test_parter_vertex_on_star():
    t = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    m = make_matrix(t, (F(0),) * 4, {e: F(3) for e in t.edges})
    assert multiplicity(m, F(0)) == 2
    v = find_parter_vertex(m, F(0))
    assert v == 0
    assert is_parter(m, v, F(0))
    comps = delete_vertex(m, v)
    assert sum(multiplicity(c, F(0)) for c in comps) == 3


def test_parter_scan_takes_over_from_a_failing_candidate(monkeypatch):
    # the multiplicity and the candidate, the parent of the deepest zero, come
    # from one diagonalization; a zero faked at a leaf under a degree-2 vertex,
    # with the run's true inertia, makes the candidate fail, and the scan in
    # id order must still find a strong vertex
    c = realize_family(seed(Family.UNIFORM, 5), 0, 32)
    m, t = c.matrix, c.matrix.tree
    point = next(v for v, mult in c.dspec if mult >= 2)
    leaf = next(v for v in range(t.n) if t.degree(v) == 1 and t.parent[v] != -1
                and t.degree(t.parent[v]) < 3)
    calls, real = [], locate.diagonalize

    def zero_at_leaf(m, x):
        calls.append(x)
        return locate.DiagOutcome({leaf: F(0)}, real(m, x).inertia, (), frozenset())

    monkeypatch.setattr(locate, "diagonalize", zero_at_leaf)
    v = find_parter_vertex(m, point)
    assert calls == [-point] and v != t.parent[leaf]
    assert is_parter(m, v, point) and t.degree(v) >= 3
    assert sum(1 for comp in delete_vertex(m, v) if multiplicity(comp, point)) >= 3


def test_parter_search_reads_the_multiplicity_from_its_one_run(monkeypatch):
    # one diagonalization gives the multiplicity and the candidate: the
    # matrix itself is never counted again, only the components of a
    # candidate's deletion are
    cert = realize_family(seed(Family.UNIFORM, 5), 0, 32)
    m, point = cert.matrix, next(v for v, mult in cert.dspec if mult >= 2)
    counted, real = [], locate.counts_at

    def spy(mm, point):
        counted.append(mm.n)
        return real(mm, point)

    monkeypatch.setattr(locate, "counts_at", spy)
    with mock.patch.object(locate, "diagonalize", wraps=locate.diagonalize) as runs:
        with pytest.raises(ValueError, match=r"^multiplicity of 1/3 is 0; need at least 2$"):
            find_parter_vertex(m, F(1, 3))
        assert runs.call_count == 1 and counted == []
        v = find_parter_vertex(m, point)
        assert runs.call_count == 2 and m.n not in counted
    assert is_parter(m, v, point) and m.tree.degree(v) >= 3


def test_is_parter_false_for_leaf():
    t = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    m = make_matrix(t, (F(0),) * 4, {e: F(3) for e in t.edges})
    assert not is_parter(m, 1, F(0))


def test_parter_search_fails_cleanly_for_simple_eigenvalue():
    m = path_matrix(2)  # eigenvalues -1 and 1, both simple
    with pytest.raises(ValueError):
        find_parter_vertex(m, F(1))


def test_parter_double_broom():
    # two hubs joined by an edge, three leaves each: 0 has multiplicity 4
    edges = [(0, 1)] + [(0, v) for v in (2, 3, 4)] + [(1, v) for v in (5, 6, 7)]
    t = build_tree(edges, 0)
    m = make_matrix(t, (F(0),) * 8, {e: F(1) for e in t.edges})
    assert multiplicity(m, F(0)) == 4
    v = find_parter_vertex(m, F(0))
    assert v in (0, 1)
    assert t.degree(v) >= 3
    comps = delete_vertex(m, v)
    assert sum(multiplicity(c, F(0)) for c in comps) == 5
    assert sum(1 for c in comps if multiplicity(c, F(0))) >= 3
