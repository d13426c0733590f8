"""The quotient of a weighted tree (its minimal DAG) and exact counts over it.

`WeightedTreeMatrix.quotient` merges vertices with equal entries, equal
squared weight to the parent and equal multisets of child classes.  The
kernel counts over its rows; these tests hold those counts to the n-row
form, where every row is one vertex, on random trees, on unfoldings whose
repeated branches carry equal entries, and at the ends of the float range.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (CORPUS_CELLS, ahu, random_matrix, random_tree, random_unfolding,
                     rooted_at)

from diminimal import (
    Family,
    WeightedTreeMatrix,
    build_tree,
    counts_at,
    diagonalize,
    make_matrix,
    realize_family,
    seed,
)
from diminimal.locate import _run


def assert_quotient_counts(m, points):
    """The quotient's counts at each point equal the n-row form's, which
    equal the inertia of diagonalize; its rows hold all n vertices."""
    q = m.quotient
    assert sum(q.copies) == m.n and len(q.order) <= m.n
    # children first: every parent row comes after its child rows
    assert all(k < r for k in q.order for r, _ in ((q.parent[k], 1), *q.extra[k]) if r != -1)
    pts = [(-p.numerator, p.denominator) for p in points]
    got = [(neg, zero) for neg, zero, _ in _run(q, pts)]
    want = [(neg, zero) for neg, zero, _ in _run(m.rows, pts)]
    assert got == want
    assert got == [diagonalize(m, -p).inertia[:2] for p in points]


def shape_matrix(t, rng, entries, weights):
    """A matrix on t whose entries depend only on the shape of each vertex's
    branch, so that every repeated branch repeats its entries."""
    by_shape: dict[str, tuple[F, F]] = {}
    diag, w2 = [F(0)] * t.n, {}
    for v in t.order:
        d, w = by_shape.setdefault(ahu(t, v), (rng.choice(entries), rng.choice(weights)))
        diag[v] = d
        if t.parent[v] != -1:
            w2[(v, t.parent[v])] = w
    return make_matrix(t, diag, w2)


SMALL_ENTRIES = [F(k) for k in (-1, 0, 1)]
MIXED_ENTRIES = [F(a, b) for a in range(-9, 10) for b in (1, 2, 3, 4)]


@st.composite
def random_trees(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    return build_tree(edges, draw(st.integers(0, n - 1)))


POINTS = st.lists(st.builds(F, st.integers(-12, 12), st.integers(1, 4)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(random_trees(), POINTS, st.randoms(use_true_random=False),
       st.sampled_from([(SMALL_ENTRIES, [F(1), F(2)]), (MIXED_ENTRIES, [F(1), F(9, 4)])]))
def test_quotient_counts_equal_n_row_counts_on_random_trees(t, points, rng, pools):
    # entries from {-1, 0, 1} and squared weights from {1, 2} merge many
    # branches by chance and make exact zeros and pairings common
    entries, weights = pools
    m = make_matrix(t, [rng.choice(entries) for _ in range(t.n)],
                    {e: rng.choice(weights) for e in t.edges})
    assert_quotient_counts(m, points + list(m.diag[:4]) + [F(0)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORPUS_CELLS), st.randoms(use_true_random=False), POINTS)
def test_quotient_counts_equal_n_row_counts_on_unfoldings(cell, rng, points):
    # unfoldings repeat branches; the construction gives each copy the same
    # entries, and so does a matrix keyed by branch shape
    fam, d = cell
    t = random_unfolding(seed(fam, d), rng, rng.randint(1, 5), cap=120)
    cert = realize_family(t, 0, 32)
    m = cert.matrix
    values = [v for v, _ in cert.dspec]
    assert_quotient_counts(m, values + [v + F(1, 2 ** 40) for v in values] + points)
    mr = rooted_at(m, rng.randrange(m.n))
    assert_quotient_counts(mr, values + points)
    ms = shape_matrix(t, rng, SMALL_ENTRIES, [F(1), F(2)])
    assert_quotient_counts(ms, points + [F(0), F(1), F(-1)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORPUS_CELLS[:96:4]), st.randoms(use_true_random=False), POINTS,
       st.sampled_from([F(10) ** 300, F(1, 10 ** 300)]), st.booleans())
def test_quotient_counts_at_the_ends_of_the_float_range(cell, rng, points, c, squared):
    # diagonal and points scaled by 10^+-300, squared weights by c or c*c;
    # with c*c the spectrum is the claimed one times c
    fam, d = cell
    t = random_unfolding(seed(fam, d), rng, rng.randint(0, 3), cap=60)
    cert = realize_family(t, 0, 32)
    m, wc = cert.matrix, c * c if squared else c
    scaled = make_matrix(t, [q * c for q in m.diag], {e: w * wc for e, w in m.sq_weight.items()})
    pts = [v * c for v, _ in cert.dspec] + [p * c for p in points]
    assert_quotient_counts(scaled, pts)
    if squared:
        assert [counts_at(scaled, p).equal for p in pts[:len(cert.dspec)]] == [
            mult for _, mult in cert.dspec]


# each case: two leaves of vertex 0 whose (diagonal, squared weight) pairs
# differ in one field of the class key only
ONE_FIELD_APART = {
    "diagonal numerator": ((F(1, 2), F(3, 4)), (F(3, 2), F(3, 4))),
    "diagonal denominator": ((F(1, 2), F(3, 4)), (F(1, 3), F(3, 4))),
    "weight numerator": ((F(1, 2), F(3, 4)), (F(1, 2), F(5, 4))),
    "weight denominator": ((F(1, 2), F(3, 4)), (F(1, 2), F(3, 5))),
}


@pytest.mark.parametrize("field", ONE_FIELD_APART)
def test_a_class_key_missing_a_field_is_caught(field):
    # a key without the field would merge the two leaves into one class of
    # two copies and count the second leaf with the first leaf's entries
    (d1, w1), (d2, w2) = ONE_FIELD_APART[field]
    t = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    m = make_matrix(t, (F(0), d1, d2, d1), {(0, 1): w1, (0, 2): w2, (0, 3): w1})
    q = m.quotient
    assert len(q.order) == 3 and sorted(q.copies) == [1, 1, 2]
    # at each leaf's own diagonal value that leaf is 0 and pairs with vertex 0
    assert_quotient_counts(m, [d1, d2, F(0), F(1, 7)])


def test_a_class_key_counts_each_child_class():
    # vertices 1 and 4 both have children of one class only, two against
    # three of them: their classes differ by the count alone
    t = build_tree([(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (4, 7)], 0)
    m = make_matrix(t, [F(0)] * 8, {e: F(1) for e in t.edges})
    q = m.quotient
    assert len(q.order) == 4 and sorted(q.copies) == [1, 1, 1, 5]
    assert_quotient_counts(m, [F(0), F(1), F(-1), F(2), F(3, 2)])


def test_a_tree_without_repeats_is_its_own_quotient():
    rng = random.Random(4)
    t = random_tree(60, rng)
    m = make_matrix(t, [F(v) for v in range(t.n)], {e: F(1) for e in t.edges})
    q = m.quotient
    assert len(q.order) == t.n and list(q.copies) == [1] * t.n
    assert [q.dn[k] for k in q.order] == [m.arrays.dn[v] for v in t.order]
    assert_quotient_counts(m, [F(k, 3) for k in range(-9, 10)])


@pytest.mark.parametrize("d, classes", [(5, 8), (9, 22), (15, 58), (21, 112)])
def test_a_uniform_construction_has_few_classes(d, classes):
    cert = realize_family(seed(Family.UNIFORM, d), 0, 32)
    m = cert.matrix
    assert len(m.quotient.order) == classes and sum(m.quotient.copies) == m.n
    assert m.quotient is m.quotient  # cached


def test_the_quotient_is_read_from_the_matrix_alone():
    # equal matrices built two ways have equal quotients
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(random_tree(rng.randint(1, 30), rng), rng)
        other = WeightedTreeMatrix.from_arrays(m.tree, *m.arrays[2:])
        assert other.quotient == m.quotient
