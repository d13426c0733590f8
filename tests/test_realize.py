import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CORPUS_CELLS, random_unfolding

import diminimal
from diminimal import (
    Family,
    Variant,
    build_tree,
    diameter,
    ladder,
    main_roots,
    make_matrix,
    realize_family,
    realize_integral,
    realize_variant,
    recognize_family,
    reroot,
    seed,
    trace,
    verify_certificate,
)
from diminimal.matrices import Rows


# ----------------------------------------------------------------- ladders


def test_ladder_values():
    assert ladder(0, 32, 1).values == (-32, 0, 32, 64)
    assert ladder(0, 32, 2).values == (-48, -32, 0, 32, 80, 96)
    assert ladder(0, 32, 3).values == (-56, -48, -32, 0, 32, 80, 104, 112)
    assert ladder(0, 32, 4).values == (
        -60, -56, -48, -32, 0, 32, 80, 104, 116, 120)
    assert ladder(0, 32, 5).values == (
        -62, -60, -56, -48, -32, 0, 32, 80, 104, 116, 122, 124)


def test_ladder_small_gap():
    assert ladder(0, 2, 2).values == (-3, -2, 0, 2, 5, 6)
    lad = ladder(F(-1, 2), F(1, 2), 3)
    assert lad.values[3] == F(-1, 2) and lad.values[4] == F(1, 2)
    assert len(lad.values) == 8


def test_ladder_is_strictly_increasing():
    for k in range(1, 8):
        vals = ladder(F(-7, 3), F(2, 5), k).values
        assert len(vals) == 2 * k + 2
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_ladder_step_halves():
    lad = ladder(0, 32, 4)
    assert [lad.step(j) for j in range(4)] == [32, 16, 8, 4]


def test_ladder_rejects_bad_input():
    with pytest.raises(ValueError):
        ladder(1, 1, 2)
    with pytest.raises(ValueError):
        ladder(3, 1, 2)
    with pytest.raises(ValueError):
        ladder(0, 1, 0)
    # a uniform tree of level 18 has more than the supported 2**17 vertices
    assert len(ladder(0, 32, 17).values) == 36
    with pytest.raises(ValueError, match="^ladder level must be 1 to 17, got 18$"):
        ladder(0, 32, 18)
    for k in (1.5, "3"):
        with pytest.raises(TypeError):
            ladder(0, 32, k)
    np = pytest.importorskip("numpy")
    lad = ladder(0, 32, np.int64(3))
    assert type(lad.k) is int and lad.k == 3 and lad == ladder(0, 32, 3)


# --------------------------------------------------- frozen small matrices


def test_low_on_edge():
    t = build_tree([(0, 1)], 0)
    c = realize_variant(t, ladder(0, 1, 1), Variant.LOW)
    assert c.matrix.diag == (F(0), F(0))
    assert c.matrix.sq_edge == (F(1),)
    assert c.dspec == ((F(-1), 1), (F(1), 1))
    assert c.variant == Variant.LOW.value


def test_low_on_star():
    t = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    c = realize_variant(t, ladder(0, 3, 1), Variant.LOW)
    assert c.matrix.sq_edge == (F(3), F(3), F(3))
    assert c.dspec == ((F(-3), 1), (F(0), 2), (F(3), 1))


def test_high_level2_full_matrix():
    t = seed(Family.UNIFORM, 3)
    c = realize_variant(t, ladder(0, 32, 2), Variant.HIGH).audit()
    by_vertex = dict(enumerate(c.matrix.diag))
    assert by_vertex == {0: F(0), 1: F(16), 2: F(32), 3: F(48)}
    w = dict(zip(c.matrix.tree.edges, c.matrix.sq_edge))
    assert w == {(0, 1): F(512), (1, 3): F(1792), (2, 3): F(1536)}
    assert c.dspec == ((F(-32), 1), (F(0), 1), (F(32), 1), (F(96), 1))


def test_low_level2():
    t = seed(Family.UNIFORM, 3)
    c = realize_variant(t, ladder(0, 32, 2), Variant.LOW).audit()
    assert c.dspec == ((F(-48), 1), (F(0), 1), (F(32), 1), (F(80), 1))


def test_low_level3():
    t = seed(Family.UNIFORM, 5)
    c = realize_variant(t, ladder(0, 32, 3), Variant.LOW).audit()
    assert c.dspec == ((F(-56), 1), (F(-32), 1), (F(0), 2),
                       (F(32), 2), (F(80), 1), (F(104), 1))


def test_level4_both_variants():
    t = seed(Family.UNIFORM, 7)
    c = realize_variant(t, ladder(0, 32, 4), Variant.LOW).audit()
    assert c.dspec == ((F(-60), 1), (F(-48), 1), (F(-32), 2), (F(0), 4),
                       (F(32), 4), (F(80), 2), (F(104), 1), (F(116), 1))
    c = realize_variant(t, ladder(0, 32, 4), Variant.HIGH).audit()
    assert c.dspec == ((F(-56), 1), (F(-48), 1), (F(-32), 2), (F(0), 4),
                       (F(32), 4), (F(80), 2), (F(104), 1), (F(120), 1))


def test_shifted_variants_on_edge():
    t = build_tree([(0, 1)], 0)
    c = realize_variant(t, ladder(0, 32, 1), Variant.LOW_SHIFT, F(16))
    assert set(c.matrix.diag) == {F(16), F(0)}
    assert c.matrix.sq_edge == (F(512),)
    assert c.dspec == ((F(-16), 1), (F(32), 1))

    c = realize_variant(t, ladder(0, 32, 1), Variant.HIGH_SHIFT, F(16))
    assert set(c.matrix.diag) == {F(48), F(32)}
    assert c.matrix.sq_edge == (F(1536),)
    assert c.dspec == ((F(0), 1), (F(80), 1))


def test_shift_bounds_enforced():
    # the shift must lie strictly between 0 and the top ladder step
    for t, lad in ((build_tree([(0, 1)], 0), ladder(0, 32, 1)),
                   (seed(Family.UNIFORM, 3), ladder(0, 32, 2))):
        top = lad.step(lad.k - 1)
        for variant in (Variant.LOW_SHIFT, Variant.HIGH_SHIFT):
            for shift in (None, F(0), F(-1)):
                with pytest.raises(ValueError, match="need a positive shift"):
                    realize_variant(t, lad, variant, shift)
            with pytest.raises(ValueError, match=f"too large at level {lad.k}"):
                realize_variant(t, lad, variant, top)


def test_unshifted_variants_reject_a_shift():
    t = build_tree([(0, 1)], 0)
    for variant in (Variant.LOW, Variant.HIGH):
        with pytest.raises(ValueError, match="takes no shift"):
            realize_variant(t, ladder(0, 32, 1), variant, F(3))
        assert realize_variant(t, ladder(0, 32, 1), variant).shift is None


def test_variant_requires_central_root():
    t = reroot(seed(Family.UNIFORM, 4), 0)
    if t.root not in main_roots(t):
        with pytest.raises(ValueError):
            realize_variant(t, ladder(0, 32, 2), Variant.LOW)


def test_variant_requires_matching_ladder_level():
    t = seed(Family.UNIFORM, 3)
    with pytest.raises(ValueError):
        realize_variant(t, ladder(0, 32, 3), Variant.LOW)


NOT_UNIFORM = "^tree is not uniformly decomposable from its root$"


def test_variant_rejects_non_uniform_tree():
    p5 = build_tree([(0, 1), (1, 2), (2, 3), (3, 4)], 2)
    with pytest.raises(ValueError, match=NOT_UNIFORM):
        realize_variant(p5, ladder(0, 32, 2), Variant.LOW)


@pytest.mark.parametrize("fam, d", [(Family.SHORT_CORE, 8), (Family.SHORT_CORE, 9),
                                    (Family.MIXED, 9)])
def test_variant_rejects_short_core_and_mixed_trees_at_every_central_root(fam, d):
    # each central root has a whole-piece certificate, a short-core one, so
    # the family check is the only refusal
    t = seed(fam, d)
    for r in main_roots(t):
        tr = reroot(t, r)
        assert diminimal.realize._whole_piece_cert(tr, r) is not None
        for variant in Variant:
            shift = None if variant in (Variant.LOW, Variant.HIGH) else F(1)
            with pytest.raises(ValueError, match=NOT_UNIFORM):
                realize_variant(tr, ladder(0, 32, (d + 1) // 2), variant, shift)


def test_a_variant_of_one_vertex_is_refused():
    with pytest.raises(ValueError, match="^need at least one edge to realize$"):
        realize_variant(build_tree([], 0), ladder(0, 32, 1), Variant.LOW)


# ------------------------------------------------------- family realization


def test_family_uniform_d9_worked_example():
    c = realize_family(seed(Family.UNIFORM, 9), 0, 32)
    assert c.matrix.n == 32
    assert c.dspec == (
        (F(-62), 1), (F(-56), 1), (F(-48), 2), (F(-32), 4), (F(0), 8),
        (F(32), 8), (F(80), 4), (F(104), 2), (F(116), 1), (F(122), 1))
    assert c.distinct_values == 10
    assert verify_certificate(c.matrix, c.dspec) == []


def test_family_keeps_caller_labels():
    t = reroot(seed(Family.UNIFORM, 4), 0)
    c = realize_family(t, 0, 32)
    assert c.matrix.tree.root == t.root
    assert c.matrix.tree.parent == t.parent


def test_realize_entries_read_one_recognition(monkeypatch):
    # once a tree's analysis is cached, no public realize entry analyses
    # the tree again: each builds on the rooting the analysis keeps
    real_analyze, calls = diminimal.trees._analyze_family, []

    def analyze(t):
        calls.append(t)
        return real_analyze(t)

    monkeypatch.setattr(diminimal.trees, "_analyze_family", analyze)
    trees = [seed(fam, d) for fam, d in ONE_PER_PATH]
    for d in range(1, 12):
        s = seed(Family.UNIFORM, d)
        trees += [reroot(s, r) for r in main_roots(s)] + [reroot(s, s.n - 1)]
    for t in trees:
        d = diameter(t)
        recognize_family(t)
        assert calls, "the recognizer analyses the tree through _analyze_family"
        calls.clear()
        certs = [realize_family(t, 0, 32), realize_integral(t, 0)]
        if t.root in main_roots(t) and recognize_family(t).family is Family.UNIFORM:
            certs.append(realize_variant(t, ladder(0, 32, (d + 1) // 2), Variant.HIGH))
        assert calls == [], (t.root, t.parent)
        for c in certs:
            assert c.distinct_values == d + 1
            assert verify_certificate(c.matrix, c.dspec) == []


def relabelled(t, r):
    """t with each id v renamed n - 1 - v, rooted at the new name of r."""
    return build_tree([(t.n - 1 - u, t.n - 1 - v) for u, v in t.edges], t.n - 1 - r)


def first_leaf(t):
    return next(v for v in range(t.n) if t.degree(v) == 1)


def test_a_tree_is_rooted_at_its_centre_once(monkeypatch):
    # recognition, its certificate and the builder share the analysis's
    # rooting: a tree rooted off the centre is rooted there once, or for a
    # mixed tree whose LOW half is at the second end of the central edge
    # once more at that end, and a tree rooted where the builder starts
    # not at all
    uni, mixed = seed(Family.UNIFORM, 9), relabelled(seed(Family.MIXED, 9), 0)
    sides = recognize_family(mixed).certificate["sides"]
    assert [side["kind"] for side in sides] == ["uniform", "short_core"]
    cases = [(reroot(uni, first_leaf(uni)), 1), (reroot(mixed, first_leaf(mixed)), 2),
             *((seed(fam, d), 0) for fam, d in ONE_PER_PATH)]
    real_reroot, new = diminimal.trees.reroot, []

    def spy(t, r):
        out = real_reroot(t, r)
        if out is not t:
            new.append(out)
        return out

    monkeypatch.setattr(diminimal.trees, "reroot", spy)
    for t, want in cases:
        new.clear()
        tag = recognize_family(t)
        certs = [realize_family(t, 0, 32), realize_integral(t, 0)]
        assert len(new) == want, (tag.family, t.root)
        for c in certs:
            assert c.matrix.tree is t and c.distinct_values == tag.diameter + 1


def test_family_short_core_even():
    for d in (6, 8, 10):
        t = seed(Family.SHORT_CORE, d)
        c = realize_family(t, 0, 32).audit()
        assert c.distinct_values == d + 1
        assert sum(m for _, m in c.dspec) == t.n
        assert verify_certificate(c.matrix, c.dspec) == []


def test_family_short_core_odd():
    for d in (7, 9):
        t = seed(Family.SHORT_CORE, d)
        c = realize_family(t, 0, 32).audit()
        assert c.distinct_values == d + 1
        assert sum(m for _, m in c.dspec) == t.n


def test_family_mixed():
    for d in (7, 9, 11):
        t = seed(Family.MIXED, d)
        c = realize_family(t, 0, 32).audit()
        assert c.distinct_values == d + 1
        assert sum(m for _, m in c.dspec) == t.n


def test_family_rational_endpoints():
    t = seed(Family.MIXED, 7)
    c = realize_family(t, F(-7, 3), F(11, 3)).audit()
    assert c.distinct_values == 8
    assert c.dspec[3][0] == F(-7, 3) or F(-7, 3) in [v for v, _ in c.dspec]


def test_family_small_primed_certified():
    # the smallest short-core and mixed trees: one LOW half (d=4), or two
    # halves at level 1 (d=5), where the HIGH half's leaf core is the LOW
    # leaf raised to beta
    rng = random.Random(16)
    for fam, d, variant in ((Family.SHORT_CORE, 4, "short-core-even"),
                            (Family.SHORT_CORE, 5, "short-core-odd"),
                            (Family.MIXED, 5, "mixed")):
        s = seed(fam, d)
        u = random_unfolding(s, rng, 3)
        for t in (s, u, reroot(u, rng.randrange(u.n))):
            c = realize_family(t, 0, 32).audit()
            assert (c.family, c.variant, c.distinct_values) == (fam, variant, d + 1)
            assert realize_integral(t, 1).distinct_values == d + 1


def test_family_rejects_unsupported_tree():
    p7 = build_tree([(i, i + 1) for i in range(6)], 0)
    with pytest.raises(ValueError):
        realize_family(p7, 0, 32)


def test_family_rejects_alpha_ge_beta():
    with pytest.raises(ValueError):
        realize_family(seed(Family.UNIFORM, 3), 5, 5)


def test_family_on_unfoldings():
    rng = random.Random(21)
    for fam, d in ((Family.UNIFORM, 6), (Family.SHORT_CORE, 7),
                   (Family.MIXED, 9)):
        t = random_unfolding(seed(fam, d), rng, 5)
        c = realize_family(t, 0, 32).audit()
        assert c.distinct_values == d + 1
        assert sum(m for _, m in c.dspec) == t.n
        assert verify_certificate(c.matrix, c.dspec) == []


# ------------------------------------------------------------ assemblies


def test_assembly_records_bookkeeping():
    c = realize_family(seed(Family.UNIFORM, 7), 0, 32)
    assert c.assemblies
    for rec in c.assemblies:
        assert rec.forced == rec.a + rec.b - rec.y
        assert rec.sq_delta > 0
        assert rec.side in ("max", "min")
        members = set(rec.core_vertices)
        for _, verts, _ in rec.parts:
            members.update(verts)
        total = sum(m for _, m in rec.pred)
        assert total == len(members)


def test_certificate_json_fields():
    c = realize_family(seed(Family.UNIFORM, 5), 0, 32)
    blob = c.to_json()
    assert blob["family"] == "uniform"
    assert blob["alpha"] == "0" and blob["beta"] == "32"
    assert len(blob["dspec"]) == 6


def test_assembly_records_are_built_on_first_read(monkeypatch):
    real, made = diminimal.realize.AssemblyRecord.__init__, []

    def counted(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(diminimal.realize.AssemblyRecord, "__init__", counted)
    t = seed(Family.MIXED, 9)
    c = realize_family(t, 0, 32)
    assert not made
    records = c.assemblies
    assert len(made) == len(records) > 1
    # a second read builds nothing
    assert c.assemblies is records
    assert len(made) == len(records)
    # the last record is the finished block
    assert records[-1].pred == c.dspec
    assert sorted(records[-1].core_vertices + sum((v for _, v, _ in records[-1].parts), ())) \
        == list(range(t.n))


def test_two_realizations_of_one_tree_are_equal():
    t = seed(Family.SHORT_CORE, 7)
    t = reroot(t, t.n - 1)
    a, b = realize_family(t, 0, 32), realize_family(t, 0, 32)
    assert a == b and hash(a) == hash(b)
    assert a.assemblies == b.assemblies
    assert a != realize_family(t, 0, 16)


def test_a_vertex_left_unjoined_is_refused(monkeypatch):
    # a join that drops one of three like leaves keeps its claims
    # consistent, so only the cover check of the finished block sees it
    real = diminimal.realize._Builder.join_blocks

    def drop_one(self, core, parts, y, side, expect_forced):
        return real(self, core, parts[:-1], y, side, expect_forced)

    star = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    monkeypatch.setattr(diminimal.realize._Builder, "join_blocks", drop_one)
    with pytest.raises(RuntimeError, match="^the final block does not cover the whole tree$"):
        realize_family(star, 0, 32)


# -------------------------------------------------------------- integral


def test_integral_path4():
    t = build_tree([(0, 1), (1, 2), (2, 3)], 0)
    c = realize_integral(t, 0)
    assert c.dspec == ((F(-3), 1), (F(0), 1), (F(2), 1), (F(5), 1))
    assert trace(c.matrix) == 4
    assert c.beta == 2  # default grain for level 2


def test_integral_shifts_with_alpha():
    t = seed(Family.UNIFORM, 5)
    c0 = realize_integral(t, 0)
    c7 = realize_integral(t, 7)
    assert [v - 7 for v, _ in c7.dspec] == [v for v, _ in c0.dspec]
    assert all(v.denominator == 1 for v, _ in c7.dspec)


def test_integral_beta_override():
    t = seed(Family.UNIFORM, 5)
    c = realize_integral(t, 0, beta=8)  # grain 4 divides 8
    assert all(v.denominator == 1 for v, _ in c.dspec)
    with pytest.raises(ValueError):
        realize_integral(t, 0, beta=6)  # not a multiple of the grain
    with pytest.raises(ValueError):
        realize_integral(t, 0, beta=0)
    with pytest.raises(ValueError):
        realize_integral(t, F(1, 2))


def test_an_integral_realization_with_a_fractional_beta_is_refused():
    with pytest.raises(ValueError, match=r"^beta must be an integer, got 17/2$"):
        realize_integral(seed(Family.UNIFORM, 5), 0, beta=F(17, 2))


def test_integral_across_families():
    rng = random.Random(22)
    for fam, d in ((Family.UNIFORM, 8), (Family.SHORT_CORE, 9),
                   (Family.MIXED, 7)):
        t = random_unfolding(seed(fam, d), rng, 4)
        for alpha in (-5, 0, 4):
            c = realize_integral(t, alpha)
            assert all(v.denominator == 1 for v, _ in c.dspec)
            assert c.distinct_values == d + 1


# ------------------------------------------------------------ verification


def test_verify_certificate_flags_corruption():
    c = realize_family(seed(Family.UNIFORM, 5), 0, 32)
    assert verify_certificate(c.matrix, c.dspec) == []

    wrong_mult = list(c.dspec)
    wrong_mult[0] = (wrong_mult[0][0], wrong_mult[0][1] + 1)
    assert verify_certificate(c.matrix, tuple(wrong_mult))

    shifted = tuple((v + 1, m) for v, m in c.dspec)
    assert verify_certificate(c.matrix, shifted)

    missing = c.dspec[:-1]
    assert verify_certificate(c.matrix, missing)


@pytest.mark.parametrize("reorder", [
    lambda spec: (spec[1], spec[0], *spec[2:]),
    lambda spec: (spec[0], (spec[0][0], spec[1][1]), *spec[2:]),
], ids=["swapped", "repeated"])
def test_dspec_values_out_of_order_are_refused(reorder):
    c = realize_family(seed(Family.UNIFORM, 5), 0, 32)
    problems = verify_certificate(c.matrix, reorder(c.dspec))
    assert problems[0] == "dspec values are not strictly increasing"


def test_verify_certificate_counts_once_per_claimed_value(monkeypatch):
    c = realize_family(seed(Family.SHORT_CORE, 7), 0, 32)
    seen = []

    real = diminimal.realize._run

    def spy(rows, points):
        seen.append((rows, list(points)))
        return real(rows, points)

    monkeypatch.setattr(diminimal.realize, "_run", spy)
    assert verify_certificate(c.matrix, c.dspec) == []
    # one run over the whole tree, its quotient, at every claimed value
    assert len(seen) == 1 and seen[0][0] is c.matrix.quotient
    assert seen[0][1] == [(-v.numerator, v.denominator) for v, _ in c.dspec]
    # the extreme-value checks reuse those counts
    low = ((c.dspec[0][0] + 1, c.dspec[0][1]),) + c.dspec[1:]
    problems = verify_certificate(c.matrix, low)
    assert f"{c.dspec[0][1]} eigenvalues below the claimed minimum" in problems


def test_finish_refuses_what_verify_certificate_refuses(monkeypatch):
    # counts that hide one eigenvalue below the minimum pass every
    # multiplicity, sum and diameter check; only the extreme check sees it.
    # Only runs over all rows, as of the whole matrix, are falsified, so
    # the joins' pin-point tests pass and _finish is the one that refuses.
    real = diminimal.realize._run

    def one_below(rows, *points):
        runs = real(rows, *points)
        if len(rows.order) < len(rows.dn):
            return runs
        return [(neg + 1, zero, top) for neg, zero, top in runs]

    monkeypatch.setattr(diminimal.realize, "_run", one_below)
    with pytest.raises(RuntimeError, match="^1 eigenvalues below the claimed minimum"):
        realize_family(seed(Family.UNIFORM, 5), 0, 4)


def test_certificate_guards_survive_python_O():
    # under -O a plain assert would vanish and let a certificate through
    code = (
        "import diminimal.realize as r\n"
        "from diminimal import Family, seed\n"
        "real = r._run\n"
        "def fake(rows, *points):\n"
        "    runs = real(rows, *points)\n"
        "    if len(rows.order) < len(rows.dn):\n"
        "        return runs\n"
        "    return [(0, sum(rows.copies), top) for _, _, top in runs]\n"
        "r._run = fake\n"
        "try:\n"
        "    r.realize_family(seed(Family.UNIFORM, 5), 0, 4)\n"
        "except RuntimeError as exc:\n"
        "    print('refused:', exc)\n"
        "else:\n"
        "    print('issued')\n"
    )
    src = str(Path(diminimal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("refused: claimed multiplicity"), out.stdout


# ------------------------------------------------------ each claim once

# one tree per construction path: uniform, short-core even and odd, mixed
ONE_PER_PATH = [(Family.UNIFORM, 7), (Family.SHORT_CORE, 8),
                (Family.SHORT_CORE, 7), (Family.MIXED, 9)]


def sabotage_join(monkeypatch, at):
    """Double the solved squared weight of the `at`-th join (1-based)."""
    real, calls = diminimal.realize._delta_squared, []

    def doubled(core_value, part_values):
        calls.append(1)
        num, den = real(core_value, part_values)
        if len(calls) == at:
            num, den = F(2 * num, den).as_integer_ratio()
        return num, den

    monkeypatch.setattr(diminimal.realize, "_delta_squared", doubled)


def audit_with(cert, mutate):
    """The audit of `cert` after mutate(builder), which may change what the
    build logged: the claims, or the pieces to probe."""
    mutate(cert._builder)
    return cert.audit()


def first_probe(monkeypatch, cert, fault):
    """Ready the audit of `cert` with `_run` replaced by fault(real, rows,
    points, pivots, order), where order is the postorder of the first piece
    it probes, and return that piece's block, anchor and ladder values.  The
    audit runs each block once for all its checks, so a join that took the
    piece in reads the same faulty run."""
    real, builder = diminimal.realize._run, cert._builder
    blk, anchor, _, level = builder.pieces[0]
    monkeypatch.setattr(diminimal.realize, "_run", lambda rows, points, pivots=None:
                        fault(real, rows, points, pivots, blk.order))
    return blk, anchor, [builder.frac(v) for v in builder.ladders[level]]


def first_interlacing_point(anchor, vals):
    """The first interlacing probe of a piece: values[1] (LOW) or values[2]
    (HIGH) of its ladder."""
    return vals[1] if anchor is Variant.LOW else vals[2]


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_probe_off_the_forced_value_is_refused(monkeypatch, fam, d):
    # the zero probes take the forced value the build logged: one grid step
    # away from it the root keeps a nonzero value
    probed = []

    def moved(builder):
        blk, anchor, forced, level = builder.pieces[0]
        builder.pieces[0] = blk, anchor, forced + 1, level
        probed.append((blk.root, builder.frac(forced + 1)))

    cert = realize_family(seed(fam, d), 0, 32)
    with pytest.raises(RuntimeError, match=r"^block at \d+: no zero at the root at \S+$") as exc:
        audit_with(cert, moved)
    (root, at), = probed
    assert exc.value.args[0] == f"block at {root}: no zero at the root at {at}"


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_zero_count_that_does_not_rise_by_one_is_refused(monkeypatch, fam, d):
    # one more zero in the run of the whole piece at each of its points, so
    # deleting its root would add none where it pairs: the join that took
    # the piece in reads that run at its claims and refuses them first
    def one_more(real, rows, points, pivots, order):
        runs = real(rows, points, pivots=pivots)
        return runs if rows.order != order else [(a, z + 1, top) for a, z, top in runs]

    cert = realize_family(seed(fam, d), 0, 32)
    blk, _, _ = first_probe(monkeypatch, cert, one_more)
    (lam, mult), *_ = blk.spec
    with pytest.raises(RuntimeError, match=r"^block at \d+: claimed multiplicity ") as exc:
        cert.audit()
    assert exc.value.args[0].startswith(
        f"block at {blk.root}: claimed multiplicity {mult} at {lam}, measured {mult + 1}; ")


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_run_without_pairing_at_the_root_is_refused(monkeypatch, fam, d):
    # the pivots of the whole piece's run are dropped, so none is at its root
    def no_pivots(real, rows, points, pivots, order):
        return real(rows, points, pivots=[[] for _ in pivots] if rows.order == order else pivots)

    cert = realize_family(seed(fam, d), 0, 32)
    blk, anchor, vals = first_probe(monkeypatch, cert, no_pivots)
    with pytest.raises(RuntimeError, match=r"^block at \d+: no pairing at the root at \S+$") as exc:
        cert.audit()
    assert exc.value.args[0] == (f"block at {blk.root}: no pairing at the root "
                                 f"at {first_interlacing_point(anchor, vals)}")


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_first_join_is_refused_by_the_block_check(monkeypatch, fam, d):
    # the audit checks a joined block twice: its claims where the next join
    # takes it in, and its structural probes as a piece.  verify_certificate
    # refuses the wrong matrix before the audit, so here it lets all through
    monkeypatch.setattr(diminimal.realize, "verify_certificate", lambda m, dspec: [])
    sabotage_join(monkeypatch, 1)
    cert = realize_family(seed(fam, d), 0, 32)
    with pytest.raises(RuntimeError, match=r"^block at \d+: (claimed multiplicity "
                       r"|multiplicities sum to |\d+ eigenvalues (below|above) )"):
        cert.audit()
    with pytest.raises(RuntimeError, match=r"^block at \d+: no zero at the root "):
        audit_with(cert, lambda builder: builder.log.clear())


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_first_join_is_refused_on_the_default_path(monkeypatch, fam, d):
    # a later pin-point test or the finished certificate refuses it, as a
    # construction bug: a RuntimeError, never the ValueError of bad input
    sabotage_join(monkeypatch, 1)
    with pytest.raises(RuntimeError, match=r"^(block at \d+: pin point \S+ is not strictly "
                                           r"(above|below) its spectrum|claimed multiplicity )"):
        realize_family(seed(fam, d), 0, 32)


def test_a_pin_point_not_beyond_the_block_spectra_is_refused(monkeypatch):
    # alpha is in every block spectrum; the run at the pin point shows that
    # it is not beyond them, and no user input can get there
    real = diminimal.realize._Builder._plan

    def alpha_pin(self, v, h, anchor, shift, level):
        core, part, _, side, forced = real(self, v, h, anchor, shift, level)
        return core, part, self.alpha, side, forced

    monkeypatch.setattr(diminimal.realize._Builder, "_plan", alpha_pin)
    with pytest.raises(RuntimeError, match=r"^block at \d+: pin point 0 is not strictly "
                                           r"(above|below) its spectrum"):
        realize_family(seed(Family.UNIFORM, 5), 0, 32)


@pytest.mark.parametrize("fam,d,half", [
    (Family.SHORT_CORE, 8, Variant.LOW), (Family.SHORT_CORE, 7, Variant.LOW),
    (Family.MIXED, 9, Variant.LOW), (Family.SHORT_CORE, 7, Variant.HIGH),
    (Family.MIXED, 9, Variant.HIGH)])
def test_a_wrong_pin_point_at_a_half_is_refused(monkeypatch, fam, d, half):
    # a half is a piece one level above its ladder, pinned through _plan like
    # every other piece; even short-core trees have no HIGH half
    real = diminimal.realize._Builder._plan

    def alpha_pin_at_half(self, v, h, anchor, shift, level):
        core, part, y, side, forced = real(self, v, h, anchor, shift, level)
        at_half = h == level + 1 and anchor is half
        return core, part, (self.alpha if at_half else y), side, forced

    monkeypatch.setattr(diminimal.realize._Builder, "_plan", alpha_pin_at_half)
    with pytest.raises(RuntimeError, match=r"^block at \d+: pin point \S+ is not strictly "
                                           r"(above|below) its spectrum"):
        realize_family(seed(fam, d), 0, 32)


@pytest.mark.parametrize("fam,d", [(Family.SHORT_CORE, 7), (Family.MIXED, 9)])
def test_a_wrong_pin_point_at_the_central_join_is_refused(monkeypatch, fam, d):
    # the two halves of an odd tree are joined through _plan too, as a piece
    # two levels above its ladder; one step lower the pin point is the HIGH
    # half's forced top, which is in that half's spectrum
    real = diminimal.realize._Builder._plan

    def low_pin_at_join(self, v, h, anchor, shift, level):
        core, part, y, side, forced = real(self, v, h, anchor, shift, level)
        if h == level + 2:
            y -= self.step(level - 1)
        return core, part, y, side, forced

    monkeypatch.setattr(diminimal.realize._Builder, "_plan", low_pin_at_join)
    with pytest.raises(RuntimeError, match=r"^block at \d+: pin point \S+ is not strictly "
                                           r"above its spectrum$"):
        realize_family(seed(fam, d), 0, 32)


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_last_join_is_refused_by_finish(monkeypatch, fam, d):
    t = seed(fam, d)
    joins = len(realize_family(t, 0, 32).assemblies)
    sabotage_join(monkeypatch, joins)
    with pytest.raises(RuntimeError, match="claimed multiplicity"):
        realize_family(t, 0, 32)


def join_runs(monkeypatch, fam, d, audited):
    """Realize seed(fam, d) and record the exact runs of verify_certificate
    and of the audit's checks of the blocks joins took in, as (sorted
    vertices, points), a run of the matrix's quotient as all its vertices;
    the audit's structural probes of the pieces are left out."""
    real, runs = diminimal.realize._run, []

    def spy(rows, points, **kwargs):
        runs.append((rows, list(points)))
        return real(rows, points, **kwargs)

    monkeypatch.setattr(diminimal.realize, "_run", spy)
    c = realize_family(seed(fam, d), 0, 32)
    if audited:
        audit_with(c, lambda builder: builder.pieces.clear())
    return c, [(tuple(range(c.matrix.n)) if rows is c.matrix.quotient
                else tuple(sorted(rows.order)), points) for rows, points in runs]


def points(spec, *extra):
    """Kernel points at the values of `spec`, then at `extra`."""
    return [(-v.numerator, v.denominator) for v in [v for v, _ in spec] + list(extra)]


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_each_joined_block_but_the_last_is_checked_once(monkeypatch, fam, d):
    c, runs = join_runs(monkeypatch, fam, d, audited=True)
    joined = [tuple(sorted(rec.core_vertices + sum((v for _, v, _ in rec.parts), ())))
              for rec in c.assemblies]
    assert joined[-1] == tuple(range(c.matrix.n))
    checked = [v for v, _ in runs[1:] if len(v) > 1]
    assert sorted(checked) == sorted(joined[:-1])

    # verify_certificate runs the whole tree once; then the audit runs every
    # block a join took in once, at the block's claimed values and the pin
    # point, in the order of the joins
    want = [(tuple(range(c.matrix.n)), points(c.dspec))]
    for rec in c.assemblies:
        want.append((rec.core_vertices, points(rec.core_pred, rec.y)))
        want += [(v, points(spec, rec.y)) for _, v, spec in rec.parts]
    assert runs == want


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_each_joined_block_runs_once_at_its_pin_point(monkeypatch, fam, d):
    # by default each block a join takes in gives its root value once, at
    # the join's pin point, from its claims
    real, runs = diminimal.realize._Builder._root_value, []

    def spy(self, blk, y, side):
        runs.append((tuple(sorted(blk.order)), self.frac(y)))
        return real(self, blk, y, side)

    monkeypatch.setattr(diminimal.realize._Builder, "_root_value", spy)
    c = realize_family(seed(fam, d), 0, 32)
    want = []
    for rec in c.assemblies:
        want.append((rec.core_vertices, rec.y))
        want += [(v, rec.y) for _, v, _ in rec.parts]
    assert runs == want


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_the_default_path_runs_the_kernel_once_on_the_finished_matrix(monkeypatch, fam, d):
    # the joint weights come from the claims; the one exact run is
    # verify_certificate's, of the whole tree at the claimed values
    c, runs = join_runs(monkeypatch, fam, d, audited=False)
    assert runs == [(tuple(range(c.matrix.n)), points(c.dspec))]


@pytest.mark.parametrize("fam,d,slices", [(Family.UNIFORM, 9, 63), (Family.SHORT_CORE, 10, 77),
                                           (Family.MIXED, 11, 110)])
def test_the_audit_runs_each_slice_once(monkeypatch, fam, d, slices):
    # verify_certificate runs the quotient; then the audit runs each block it
    # checks once, at all the points its checks ask of it, and nothing else
    real, runs = diminimal.realize._run, []

    def spy(rows, points, **kwargs):
        runs.append(rows.order)
        return real(rows, points, **kwargs)

    monkeypatch.setattr(diminimal.realize, "_run", spy)
    c = realize_family(seed(fam, d), 0, 32).audit()
    assert runs[0] == range(len(c.matrix.quotient.order))
    built = [b.order for blk, *_ in c._builder.log for b in (blk, blk.core, *blk.parts)]
    assert all(any(order is b for b in built) for order in runs[1:])
    assert len(runs) == len({frozenset(order) for order in runs}) == 1 + slices


@pytest.mark.parametrize("fam,d", [(Family.UNIFORM, 6), (Family.SHORT_CORE, 8),
                                   (Family.MIXED, 9)])
def test_the_audit_reads_the_matrix_at_the_construction_root(fam, d):
    # the certificate's matrix is rooted as the input tree; the audit's
    # slices are postorder blocks of the construction root
    t = seed(fam, d)
    for r in (t.n - 1, t.n // 2):
        c = realize_family(reroot(t, r), 0, 32).audit()
        assert c.matrix.tree.root == r != c.construction_root


def closed_form_cases():
    """Every seed with d <= 15 of the three families, then 50 random
    unfoldings of the corpus cells."""
    rng = random.Random(20)
    for fam, lo in ((Family.UNIFORM, 1), (Family.SHORT_CORE, 6), (Family.MIXED, 7)):
        yield from (seed(fam, d) for d in range(lo, 16, 2 if fam is Family.MIXED else 1))
    for fam, d in rng.sample(CORPUS_CELLS, 50):
        yield random_unfolding(seed(fam, d), rng, rng.randint(1, 8))


def test_the_closed_form_root_value_equals_the_kernel():
    # in place of the audit: each logged closed form against one kernel run
    # of its block in the finished matrix, at the pin point
    seen = []

    def both(cert):
        builder = cert._builder
        tail = cert.matrix.rerooted(builder.rt).rows[1:]
        for blk, y, *_, dc, dp in builder.log:
            for block, value in zip((blk.core, *blk.parts), (dc, *dp)):
                (_, _, top), = diminimal.realize._run(Rows(block.order, *tail),
                                                      [(-y, builder.q)])
                seen.append((F(*value), F(*top)))
        return cert

    joins = 0
    for t in closed_form_cases():
        joins += len(both(realize_family(t, 0, 32)).assemblies)
    assert len(seen) > joins > 1000
    assert all(closed == kernel for closed, kernel in seen)


def move_one_net_value(monkeypatch):
    """Move one value of the first consumed block with two or more net
    values one grid step at a time away from the pin point, to a value
    not in net: the pin point and the exponents still pass, the root
    value from the claims is wrong."""
    real, moved = diminimal.realize._Builder._root_value, []

    def wrong(self, blk, y, side):
        if not moved and len(blk.net) > 1:
            lam = next(lam for lam, e in blk.net.items() if e > 0)
            away = -1 if side == "max" else 1
            new = lam + away
            while new in blk.net:
                new += away
            blk.net = {new if k == lam else k: e for k, e in blk.net.items()}
            moved.append(blk.root)
        return real(self, blk, y, side)

    monkeypatch.setattr(diminimal.realize._Builder, "_root_value", wrong)
    return moved


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_root_value_is_refused(monkeypatch, fam, d):
    # a wrong closed form gives a wrong weight, which the certificate
    # refuses; the audit compares each logged closed form with the kernel at
    # the pin point, so it refuses a wrong value logged for a right matrix
    moved = move_one_net_value(monkeypatch)
    with pytest.raises(RuntimeError):
        realize_family(seed(fam, d), 0, 32)
    assert moved
    monkeypatch.undo()
    logged = []

    def one_more(builder):
        blk, *rest, dc, dp = builder.log[0]
        builder.log[0] = (blk, *rest, (dc[0] + dc[1], dc[1]), dp)
        logged.append((blk.root, F(*dc), F(*dc) + 1))

    cert = realize_family(seed(fam, d), 0, 32)
    with pytest.raises(RuntimeError, match=r"^block at \d+: root value \S+ at the pin "
                                           r"point, \S+ from the claims$") as exc:
        audit_with(cert, one_more)
    (root, kernel, claimed), = logged
    assert exc.value.args[0] == (f"block at {root}: root value {kernel} at the pin point, "
                                 f"{claimed} from the claims")


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_logged_pin_point_inside_a_block_spectrum_is_refused(monkeypatch, fam, d):
    # the first join logged with its core's claimed value as the pin point:
    # the audit's kernel run counts a zero there, so it is not beyond
    def inside(builder):
        blk, _, side, *rest = builder.log[0]
        (lam,) = blk.core.pred
        builder.log[0] = (blk, lam, side, *rest)

    cert = realize_family(seed(fam, d), 0, 32)
    with pytest.raises(RuntimeError, match=r"^block at \d+: pin point \S+ is not strictly "
                                           r"(above|below) its spectrum$"):
        audit_with(cert, inside)


def test_a_weight_that_is_not_positive_is_refused(monkeypatch):
    # interlacing claims give a positive weight; this guards the kernel
    # from a zero or negative squared weight all the same
    real, calls = diminimal.realize._delta_squared, []

    def negated(core_value, part_values):
        calls.append(1)
        num, den = real(core_value, part_values)
        return -num, den

    monkeypatch.setattr(diminimal.realize, "_delta_squared", negated)
    with pytest.raises(RuntimeError, match=r"^block at \d+: solved squared weight -\S+ "
                                           r"is not positive$"):
        realize_family(seed(Family.UNIFORM, 5), 0, 32)
    assert len(calls) == 1


def claim_at_first_join(monkeypatch, claim):
    """Replace the claimed spectrum of the first join's core, always a leaf,
    by claim(value, y, side); a leaf less its root is empty, so its net is
    its pred."""
    real, calls = diminimal.realize._Builder.join_blocks, []

    def wrong(self, core, parts, y, side, expect_forced):
        if not calls:
            assert len(core.order) == 1
            (val,) = core.pred
            core.pred = core.net = claim(val, y, side)
        calls.append(core.root)
        return real(self, core, parts, y, side, expect_forced)

    monkeypatch.setattr(diminimal.realize._Builder, "join_blocks", wrong)


WRONG_CLAIMS = {
    # the multiplicity moves one grid step away from the pin point
    "moved": (lambda val, y, side: {val + (-1 if side == "max" else 1): 1},
              r"^forced value \S+, expected \S+$"),
    "on the pin point": (lambda val, y, side: {y: 1},
                         r"^block at \d+: pin point \S+ is not strictly (above|below) "
                         r"its spectrum$"),
    "not interlacing": (lambda val, y, side: {val: 2},
                        r"^block at \d+: claimed spectra do not interlace$"),
}


@pytest.mark.parametrize("wrong", WRONG_CLAIMS)
@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_wrong_claims_at_the_first_join_are_refused(monkeypatch, fam, d, wrong):
    # a RuntimeError, never the ZeroDivisionError of a zero root value or
    # the ValueError of bad input
    claim, message = WRONG_CLAIMS[wrong]
    claim_at_first_join(monkeypatch, claim)
    with pytest.raises(RuntimeError, match=message):
        realize_family(seed(fam, d), 0, 32)


@pytest.mark.parametrize("fam,d", ONE_PER_PATH + [(Family.UNIFORM, 8)])
def test_one_tree_is_analysed_once(monkeypatch, fam, d):
    t = seed(fam, d)
    swept = []
    real_find_center = diminimal.trees._find_center

    def find_center(tree):
        swept.append(tree)
        return real_find_center(tree)

    monkeypatch.setattr(diminimal.trees, "_find_center", find_center)
    assert recognize_family(t).family is fam

    def analyze(t):
        raise AssertionError("the tree was recognized twice")

    monkeypatch.setattr(diminimal.trees, "_analyze_family", analyze)
    c = realize_integral(t, 0)
    assert verify_certificate(c.matrix, c.dspec) == []
    assert c.matrix.tree is t
    assert len(swept) == 1 and swept[0] is t


# ------------------------------------- guards no realization reaches
#
# Each test below reaches a claim check by a direct call or through one
# monkeypatched collaborator: the checks hold on every input the public
# functions accept, so only a broken construction could trip them.


def test_a_value_off_the_grid_is_refused():
    with pytest.raises(RuntimeError, match=r"^1/3 is not a multiple of 1/2$"):
        diminimal.realize._grid(F(1, 3), 2)


@pytest.mark.parametrize("span, k, level", [(0, 1, 1), (1, 2, 2)])
def test_a_ladder_that_is_not_strictly_increasing_is_refused(span, k, level):
    # a span of 0, or one that 2**(k-1) does not divide: the step of level 2
    # is span >> 1 = 0, and values repeat
    with pytest.raises(RuntimeError, match=f"^ladder level {level} is not strictly increasing$"):
        diminimal.realize._ladder_levels(0, span, k)


@pytest.mark.parametrize("level", [0, 4])
def test_a_piece_built_at_a_wrong_height_is_refused(level):
    t = seed(Family.UNIFORM, 5)
    b = diminimal.realize._Builder(diminimal.realize._whole_piece_cert(t, t.root),
                                   F(0), F(32), 3)
    with pytest.raises(ValueError, match=f"^piece at {t.root} has height 3, "
                                         f"expected {level} to {level + 2}$"):
        b.build(t.root, t.height_below[t.root], Variant.LOW, 0, level)


def bare_builder(monkeypatch, root_value=(-1, 1)):
    """A builder over the path 1 - 0 - 2 rooted at 0, its grid the integers,
    whose blocks all have `root_value` at every pin point."""
    b = diminimal.realize._Builder(build_tree([(0, 1), (0, 2)], 0), F(0), F(32), 1)
    monkeypatch.setattr(b, "_root_value", lambda blk, y, side: root_value)
    return b


def leaf(b, v, lam):
    """The one-vertex block of v claiming the value lam."""
    return diminimal.realize._Block(v, 1, {lam: 1}, {lam: 1}, b.q)


@pytest.mark.parametrize("core, parts", [
    ((1, 0), [(0, 20)]),  # the tree's root as a part of its own child
    ((0, 0), [(2, 20), (2, 20)]),  # one vertex as two parts: it hangs twice
])
def test_a_part_root_that_cannot_hang_is_refused(monkeypatch, core, parts):
    b = bare_builder(monkeypatch)
    with pytest.raises(RuntimeError, match=f"^part root {parts[-1][0]} cannot "
                                           f"hang from {core[0]}$"):
        b.join_blocks(leaf(b, *core), [leaf(b, *p) for p in parts], 40, "max",
                      expect_forced=-40)


def test_a_join_of_a_lone_vertex_is_refused(monkeypatch):
    # with no parts the merged claim is one value, which cannot be both the
    # lowest and the highest to merge inward
    b = bare_builder(monkeypatch)
    monkeypatch.setattr(diminimal.realize, "_delta_squared", lambda dc, dp: (1, 1))
    with pytest.raises(RuntimeError, match=r"^block extremes 5, 5 cannot both merge inward$"):
        b.join_blocks(leaf(b, 0, 5), [], 40, "max", expect_forced=-30)


def test_a_join_without_parts_is_refused(monkeypatch):
    # with no parts the solved squared weight has a zero denominator; the
    # refusal names the pair instead of dividing by it
    b = bare_builder(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^block at 0: solved squared weight -1/0 "
                                           r"is not positive$"):
        b.join_blocks(leaf(b, 0, 5), [], 40, "max", expect_forced=-30)


def test_a_merged_value_that_escapes_the_pin_point_is_refused(monkeypatch):
    # a pin point 5 inside the claims 0, 10, 20: 0 and 20 merge inward and
    # force 15, and the 10 left over lies outside (15, 5)
    b = bare_builder(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^merged block values escape \(15, 5\)$"):
        b.join_blocks(leaf(b, 0, 0), [leaf(b, 1, 10), leaf(b, 2, 20)], 5, "max",
                      expect_forced=15)


def test_an_integral_realization_with_a_fractional_eigenvalue_is_refused(monkeypatch):
    real = diminimal.realize.realize_family

    def off_by_half(t, alpha, beta):
        (lam, mult), *rest = real(t, alpha, beta).dspec
        return SimpleNamespace(dspec=((lam + F(1, 2), mult), *rest))

    monkeypatch.setattr(diminimal.realize, "realize_family", off_by_half)
    with pytest.raises(RuntimeError, match="^integral construction produced a "
                                           "fractional eigenvalue$"):
        realize_integral(seed(Family.UNIFORM, 5), 0)


# ------------------------------------------- contracts on random trees

# the ValueErrors realize_family documents, for valid (alpha, beta)
DOCUMENTED = re.compile(r"unsupported family \(diameter \d+\)|need at least one edge")


@st.composite
def labelled_trees(draw, max_n=300):
    """A random recursive tree, or a random unfolding of a family seed with
    that family, ids permuted and rooted anywhere: (tree, family or None)."""
    fam = None
    if draw(st.booleans()):
        n = draw(st.integers(1, max_n))
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    else:
        fam, d = draw(st.sampled_from(CORPUS_CELLS))
        t = random_unfolding(seed(fam, d), draw(st.randoms(use_true_random=False)),
                             rounds=draw(st.integers(0, 8)), cap=max_n)
        n, edges = t.n, t.edges
    label = draw(st.permutations(range(n)))
    return build_tree([(label[u], label[v]) for u, v in edges],
                      draw(st.integers(0, n - 1))), fam


@settings(max_examples=150, deadline=None)
@given(labelled_trees())
def test_recognize_never_raises_and_realize_raises_only_documented_errors(case):
    t, fam = case
    tag = recognize_family(t)
    assert fam is None or tag.family is fam
    try:
        c = realize_family(t, 0, 32)
    except ValueError as exc:
        assert DOCUMENTED.match(str(exc)), exc
        assert fam is None and (tag.family is Family.UNSUPPORTED or tag.diameter == 0)
    else:
        assert c.family is tag.family
        assert c.distinct_values == tag.diameter + 1
