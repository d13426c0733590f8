import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CORPUS_CELLS, random_unfolding

import diminimal
from diminimal import (
    Family,
    Variant,
    build_tree,
    ladder,
    main_roots,
    realize_family,
    realize_integral,
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
    c = realize_variant(t, ladder(0, 32, 2), Variant.HIGH, deep=True)
    by_vertex = dict(enumerate(c.matrix.diag))
    assert by_vertex == {0: F(0), 1: F(16), 2: F(32), 3: F(48)}
    w = {e: c.matrix.sq_weight[e] for e in c.matrix.tree.edges}
    assert w == {(0, 1): F(512), (1, 3): F(1792), (2, 3): F(1536)}
    assert c.dspec == ((F(-32), 1), (F(0), 1), (F(32), 1), (F(96), 1))


def test_low_level2():
    t = seed(Family.UNIFORM, 3)
    c = realize_variant(t, ladder(0, 32, 2), Variant.LOW, deep=True)
    assert c.dspec == ((F(-48), 1), (F(0), 1), (F(32), 1), (F(80), 1))


def test_low_level3():
    t = seed(Family.UNIFORM, 5)
    c = realize_variant(t, ladder(0, 32, 3), Variant.LOW, deep=True)
    assert c.dspec == ((F(-56), 1), (F(-32), 1), (F(0), 2),
                       (F(32), 2), (F(80), 1), (F(104), 1))


def test_level4_both_variants():
    t = seed(Family.UNIFORM, 7)
    c = realize_variant(t, ladder(0, 32, 4), Variant.LOW, deep=True)
    assert c.dspec == ((F(-60), 1), (F(-48), 1), (F(-32), 2), (F(0), 4),
                       (F(32), 4), (F(80), 2), (F(104), 1), (F(116), 1))
    c = realize_variant(t, ladder(0, 32, 4), Variant.HIGH, deep=True)
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


def test_variant_rejects_non_uniform_tree():
    p5 = build_tree([(0, 1), (1, 2), (2, 3), (3, 4)], 2)
    with pytest.raises(ValueError):
        realize_variant(p5, ladder(0, 32, 2), Variant.LOW)


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


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_first_join_is_refused_by_the_block_check(monkeypatch, fam, d):
    # deep mode checks a joined block twice: its structural probes right
    # after the join, and its claims when the next join takes it in
    sabotage_join(monkeypatch, 1)
    with pytest.raises(RuntimeError, match=r"^block at \d+: no zero at the root "):
        realize_family(seed(fam, d), 0, 32, deep=True)
    monkeypatch.setattr(diminimal.realize._Builder, "_deep_checks", lambda *args: None)
    sabotage_join(monkeypatch, 1)  # a fresh count of joins
    with pytest.raises(RuntimeError, match=r"^block at \d+: (claimed multiplicity "
                       r"|multiplicities sum to |\d+ eigenvalues (below|above) )"):
        realize_family(seed(fam, d), 0, 32, deep=True)


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
    real = diminimal.realize._Builder._pin

    def alpha_pin(self, cert, anchor, shift, level):
        _, side, forced = real(self, cert, anchor, shift, level)
        return self.alpha, side, forced

    monkeypatch.setattr(diminimal.realize._Builder, "_pin", alpha_pin)
    with pytest.raises(RuntimeError, match=r"^block at \d+: pin point 0 is not strictly "
                                           r"(above|below) its spectrum"):
        realize_family(seed(Family.UNIFORM, 5), 0, 32)


@pytest.mark.parametrize("fam,d,half", [
    (Family.SHORT_CORE, 8, Variant.LOW), (Family.SHORT_CORE, 7, Variant.LOW),
    (Family.MIXED, 9, Variant.LOW), (Family.SHORT_CORE, 7, Variant.HIGH),
    (Family.MIXED, 9, Variant.HIGH)])
def test_a_wrong_pin_point_at_a_half_is_refused(monkeypatch, fam, d, half):
    # a half is a piece one level above its ladder, pinned through _pin like
    # every other piece; even short-core trees have no HIGH half
    real = diminimal.realize._Builder._pin

    def alpha_pin_at_half(self, cert, anchor, shift, level):
        y, side, forced = real(self, cert, anchor, shift, level)
        return (self.alpha if cert.height > level and anchor is half else y), side, forced

    monkeypatch.setattr(diminimal.realize._Builder, "_pin", alpha_pin_at_half)
    with pytest.raises(RuntimeError, match=r"^block at \d+: pin point \S+ is not strictly "
                                           r"(above|below) its spectrum"):
        realize_family(seed(fam, d), 0, 32)


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_a_wrong_last_join_is_refused_by_finish(monkeypatch, fam, d):
    t = seed(fam, d)
    joins = len(realize_family(t, 0, 32).assemblies)
    sabotage_join(monkeypatch, joins)
    with pytest.raises(RuntimeError, match="claimed multiplicity"):
        realize_family(t, 0, 32)


def join_runs(monkeypatch, fam, d, deep):
    """Realize seed(fam, d) and record the exact runs of its joins and of
    verify_certificate, as (sorted vertices, points), a run of the
    matrix's quotient as all its vertices; the structural probes of deep
    mode are left out."""
    real, runs, probing = diminimal.realize._run, [], []
    real_probes = diminimal.realize._Builder._deep_checks

    def spy(rows, points, **kwargs):
        if not probing:
            runs.append((rows, list(points)))
        return real(rows, points, **kwargs)

    def probes(*args):
        probing.append(True)
        real_probes(*args)
        probing.pop()

    monkeypatch.setattr(diminimal.realize, "_run", spy)
    monkeypatch.setattr(diminimal.realize._Builder, "_deep_checks", probes)
    c = realize_family(seed(fam, d), 0, 32, deep=deep)
    return c, [(tuple(range(c.matrix.n)) if rows is c.matrix.quotient
                else tuple(sorted(rows.order)), points) for rows, points in runs]


def points(spec, *extra):
    """Kernel points at the values of `spec`, then at `extra`."""
    return [(-v.numerator, v.denominator) for v in [v for v, _ in spec] + list(extra)]


@pytest.mark.parametrize("fam,d", ONE_PER_PATH)
def test_each_joined_block_but_the_last_is_checked_once(monkeypatch, fam, d):
    c, runs = join_runs(monkeypatch, fam, d, deep=True)
    joined = [tuple(sorted(rec.core_vertices + sum((v for _, v, _ in rec.parts), ())))
              for rec in c.assemblies]
    assert joined[-1] == tuple(range(c.matrix.n))
    checked = [v for v, _ in runs[:-1] if len(v) > 1]
    assert sorted(checked) == sorted(joined[:-1])

    # in deep mode each join runs every block it consumes once, at the
    # block's claimed values and the pin point; verify_certificate runs the
    # whole tree once
    want = []
    for rec in c.assemblies:
        want.append((rec.core_vertices, points(rec.core_pred, rec.y)))
        want += [(v, points(spec, rec.y)) for _, v, spec in rec.parts]
    want.append((tuple(range(c.matrix.n)), points(c.dspec)))
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
    c, runs = join_runs(monkeypatch, fam, d, deep=False)
    assert runs == [(tuple(range(c.matrix.n)), points(c.dspec))]


def closed_form_cases():
    """Every seed with d <= 15 of the three families, then 50 random
    unfoldings of the corpus cells."""
    rng = random.Random(20)
    for fam, lo in ((Family.UNIFORM, 1), (Family.SHORT_CORE, 6), (Family.MIXED, 7)):
        yield from (seed(fam, d) for d in range(lo, 16, 2 if fam is Family.MIXED else 1))
    for fam, d in rng.sample(CORPUS_CELLS, 50):
        yield random_unfolding(seed(fam, d), rng, rng.randint(1, 8))


def test_the_closed_form_root_value_equals_the_kernel(monkeypatch):
    real, seen = diminimal.realize._Builder._root_value, []

    def both(self, blk, y, side):
        num, den = real(self, blk, y, side)
        (_, _, top), = diminimal.realize._run(self._rows(blk.order), [(-y, self.q)])
        seen.append((F(num, den), F(*top)))
        return num, den

    monkeypatch.setattr(diminimal.realize._Builder, "_root_value", both)
    joins = 0
    for t in closed_form_cases():
        joins += len(realize_family(t, 0, 32).assemblies)
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
    # deep mode compares each closed form with the kernel at the pin point;
    # by default the wrong weight it gives is refused by the certificate
    moved = move_one_net_value(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^block at \d+: root value \S+ at the pin "
                                           r"point, \S+ from the claims$"):
        realize_family(seed(fam, d), 0, 32, deep=True)
    assert moved
    moved.clear()
    with pytest.raises(RuntimeError):
        realize_family(seed(fam, d), 0, 32)
    assert moved


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

    def piece(t, v, cap=None):
        raise AssertionError("the tree was recognized twice")

    monkeypatch.setattr(diminimal.trees, "_piece", piece)
    c = realize_integral(t, 0)
    assert verify_certificate(c.matrix, c.dspec) == []
    assert c.matrix.tree is t
    assert len(swept) == 1 and swept[0] is t


# ------------------------------------------- contracts on random trees

# the ValueErrors realize_family documents, for valid (alpha, beta)
DOCUMENTED = re.compile(r"unsupported family \(diameter \d+\)|need at least one edge"
                        r"|no construction is defined for (short-core|mixed) "
                        r"trees of diameter [0-5] ")


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
        assert fam is None and (tag.family is Family.UNSUPPORTED or tag.diameter < 6)
    else:
        assert c.family is tag.family
        assert c.distinct_values == tag.diameter + 1
