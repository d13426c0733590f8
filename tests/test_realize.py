import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import random_unfolding

import diminimal
from diminimal import (
    Family,
    Variant,
    build_tree,
    ladder,
    main_roots,
    realize_family,
    realize_high,
    realize_high_shifted,
    realize_integral,
    realize_low,
    realize_low_shifted,
    realize_variant,
    recognize_family,
    reroot,
    seed,
    trace,
    verify_certificate,
)


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


# --------------------------------------------------- frozen small matrices


def test_low_on_edge():
    t = build_tree([(0, 1)], 0)
    c = realize_low(t, ladder(0, 1, 1))
    assert c.matrix.diag == (F(0), F(0))
    assert c.matrix.sq_edge == (F(1),)
    assert c.dspec == ((F(-1), 1), (F(1), 1))
    assert c.variant == Variant.LOW.value


def test_low_on_star():
    t = build_tree([(0, 1), (0, 2), (0, 3)], 0)
    c = realize_low(t, ladder(0, 3, 1))
    assert c.matrix.sq_edge == (F(3), F(3), F(3))
    assert c.dspec == ((F(-3), 1), (F(0), 2), (F(3), 1))


def test_high_level2_full_matrix():
    t = seed(Family.UNIFORM, 3)
    c = realize_high(t, ladder(0, 32, 2), deep=True)
    by_vertex = dict(enumerate(c.matrix.diag))
    assert by_vertex == {0: F(0), 1: F(16), 2: F(32), 3: F(48)}
    w = {e: c.matrix.sq_weight[e] for e in c.matrix.tree.edges}
    assert w == {(0, 1): F(512), (1, 3): F(1792), (2, 3): F(1536)}
    assert c.dspec == ((F(-32), 1), (F(0), 1), (F(32), 1), (F(96), 1))


def test_low_level2():
    t = seed(Family.UNIFORM, 3)
    c = realize_low(t, ladder(0, 32, 2), deep=True)
    assert c.dspec == ((F(-48), 1), (F(0), 1), (F(32), 1), (F(80), 1))


def test_low_level3():
    t = seed(Family.UNIFORM, 5)
    c = realize_low(t, ladder(0, 32, 3), deep=True)
    assert c.dspec == ((F(-56), 1), (F(-32), 1), (F(0), 2),
                       (F(32), 2), (F(80), 1), (F(104), 1))


def test_level4_both_variants():
    t = seed(Family.UNIFORM, 7)
    c = realize_low(t, ladder(0, 32, 4), deep=True)
    assert c.dspec == ((F(-60), 1), (F(-48), 1), (F(-32), 2), (F(0), 4),
                       (F(32), 4), (F(80), 2), (F(104), 1), (F(116), 1))
    c = realize_high(t, ladder(0, 32, 4), deep=True)
    assert c.dspec == ((F(-56), 1), (F(-48), 1), (F(-32), 2), (F(0), 4),
                       (F(32), 4), (F(80), 2), (F(104), 1), (F(120), 1))


def test_shifted_variants_on_edge():
    t = build_tree([(0, 1)], 0)
    c = realize_low_shifted(t, ladder(0, 32, 1), F(16))
    assert set(c.matrix.diag) == {F(16), F(0)}
    assert c.matrix.sq_edge == (F(512),)
    assert c.dspec == ((F(-16), 1), (F(32), 1))

    c = realize_high_shifted(t, ladder(0, 32, 1), F(16))
    assert set(c.matrix.diag) == {F(48), F(32)}
    assert c.matrix.sq_edge == (F(1536),)
    assert c.dspec == ((F(0), 1), (F(80), 1))


def test_shift_bounds_enforced():
    t = build_tree([(0, 1)], 0)
    with pytest.raises(ValueError):
        realize_low_shifted(t, ladder(0, 32, 1), F(0))
    with pytest.raises(ValueError):
        realize_low_shifted(t, ladder(0, 32, 1), F(32))
    with pytest.raises(ValueError):
        realize_high_shifted(t, ladder(0, 32, 1), F(-1))


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
            realize_low(t, ladder(0, 32, 2))


def test_variant_requires_matching_ladder_level():
    t = seed(Family.UNIFORM, 3)
    with pytest.raises(ValueError):
        realize_low(t, ladder(0, 32, 3))


def test_variant_rejects_non_uniform_tree():
    p5 = build_tree([(0, 1), (1, 2), (2, 3), (3, 4)], 2)
    with pytest.raises(ValueError):
        realize_low(p5, ladder(0, 32, 2))


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


def test_family_builds_uniform_trees_from_one_recognition(monkeypatch):
    def second_recognition(*args):
        raise RuntimeError("uniform trees must not be recognized twice")

    monkeypatch.setattr(diminimal.realize, "_whole_piece_cert", second_recognition)
    for d in range(1, 12):
        t = seed(Family.UNIFORM, d)
        c = realize_family(reroot(t, t.n - 1), 0, 32)
        assert c.distinct_values == d + 1
        assert verify_certificate(c.matrix, c.dspec) == []


def test_family_short_core_even():
    for d in (6, 8, 10):
        t = seed(Family.SHORT_CORE, d)
        c = realize_family(t, 0, 32, deep=True)
        assert c.distinct_values == d + 1
        assert sum(m for _, m in c.dspec) == t.n
        assert verify_certificate(c.matrix, c.dspec) == []


def test_family_short_core_odd():
    for d in (7, 9):
        t = seed(Family.SHORT_CORE, d)
        c = realize_family(t, 0, 32, deep=True)
        assert c.distinct_values == d + 1
        assert sum(m for _, m in c.dspec) == t.n


def test_family_mixed():
    for d in (7, 9, 11):
        t = seed(Family.MIXED, d)
        c = realize_family(t, 0, 32, deep=True)
        assert c.distinct_values == d + 1
        assert sum(m for _, m in c.dspec) == t.n


def test_family_rational_endpoints():
    t = seed(Family.MIXED, 7)
    c = realize_family(t, F(-7, 3), F(11, 3), deep=True)
    assert c.distinct_values == 8
    assert c.dspec[3][0] == F(-7, 3) or F(-7, 3) in [v for v, _ in c.dspec]


def test_family_small_primed_rejected():
    for fam, d in ((Family.SHORT_CORE, 4), (Family.SHORT_CORE, 5),
                   (Family.MIXED, 5)):
        with pytest.raises(ValueError):
            realize_family(seed(fam, d), 0, 32)


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
        c = realize_family(t, 0, 32, deep=True)
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


def test_verify_certificate_counts_once_per_claimed_value(monkeypatch):
    c = realize_family(seed(Family.SHORT_CORE, 7), 0, 32)
    seen = []

    real = diminimal.realize._exact_counts

    def spy(m, point):
        seen.append(point)
        return real(m, point)

    monkeypatch.setattr(diminimal.realize, "_exact_counts", spy)
    assert verify_certificate(c.matrix, c.dspec) == []
    assert seen == [v for v, _ in c.dspec]
    # the extreme-value checks reuse those counts
    low = ((c.dspec[0][0] + 1, c.dspec[0][1]),) + c.dspec[1:]
    problems = verify_certificate(c.matrix, low)
    assert f"{c.dspec[0][1]} eigenvalues below the claimed minimum" in problems


def test_finish_refuses_what_verify_certificate_refuses(monkeypatch):
    # counts that hide one eigenvalue below the minimum pass every
    # multiplicity, sum and diameter check; only the extreme check sees it
    real = diminimal.realize._exact_counts

    def one_below(m, point):
        c = real(m, point)
        return diminimal.CountsAt(c.below + 1, c.equal, c.above - 1)

    monkeypatch.setattr(diminimal.realize, "_exact_counts", one_below)
    with pytest.raises(RuntimeError, match="eigenvalues below the claimed minimum"):
        realize_family(seed(Family.UNIFORM, 5), 0, 4)


def test_certificate_guards_survive_python_O():
    # under -O a plain assert would vanish and let a certificate through
    code = (
        "import diminimal.realize as r\n"
        "from diminimal import CountsAt, Family, seed\n"
        "r._exact_counts = lambda m, p: CountsAt(0, m.n, 0)\n"
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
        d2 = real(core_value, part_values)
        return 2 * d2 if len(calls) == at else d2

    monkeypatch.setattr(diminimal.realize, "_delta_squared", doubled)


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_first_join_is_refused_by_the_block_check(monkeypatch, fam, d):
    sabotage_join(monkeypatch, 1)
    with pytest.raises(RuntimeError, match=r"^block at \d+: CountsAt"):
        realize_family(seed(fam, d), 0, 32)


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_last_join_is_refused_by_finish(monkeypatch, fam, d):
    t = seed(fam, d)
    joins = len(realize_family(t, 0, 32).assemblies)
    sabotage_join(monkeypatch, joins)
    with pytest.raises(RuntimeError, match="claimed multiplicity"):
        realize_family(t, 0, 32)


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_each_joined_block_but_the_last_is_checked_once(monkeypatch, fam, d):
    real, checked = diminimal.realize._Builder._verify_block, []

    def spy(self, blk):
        checked.append(blk.vertices)
        return real(self, blk)

    monkeypatch.setattr(diminimal.realize._Builder, "_verify_block", spy)
    c = realize_family(seed(fam, d), 0, 32)
    joined = [tuple(sorted(rec.core_vertices + sum((v for _, v, _ in rec.parts), ())))
              for rec in c.assemblies]
    assert joined[-1] == tuple(range(c.matrix.n))
    assert sorted(checked) == sorted(joined[:-1])


@pytest.mark.parametrize("fam,d", ONE_PER_PATH + [(Family.UNIFORM, 8)])
def test_one_tree_is_analysed_once(monkeypatch, fam, d):
    t = seed(fam, d)
    swept = []
    real_farthest = diminimal.trees._farthest

    def farthest(tree, start):
        swept.append(tree)
        return real_farthest(tree, start)

    monkeypatch.setattr(diminimal.trees, "_farthest", farthest)
    assert recognize_family(t).family is fam

    def split(self, v, cap=None):
        raise AssertionError("the tree was recognized twice")

    monkeypatch.setattr(diminimal.trees._Recognizer, "split", split)
    c = realize_integral(t, 0)
    assert verify_certificate(c.matrix, c.dspec) == []
    assert c.matrix.tree is t
    assert len(swept) == 2 and all(s is t for s in swept)
