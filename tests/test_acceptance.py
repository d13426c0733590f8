"""Acceptance gate for the package: ten criteria covering the worked
construction, random unfolding corpora, integral spectra, the diameter-4
multiplicity formula, oracle agreement, interval isolation, multiplicity-
raising vertices, assembly bookkeeping, family recognition, and the deep
instrumented checks.  Each criterion is one test; tolerances and budgets
are pinned in the asserts."""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np

from helpers import generic_d4, random_matrix, random_tree, random_unfolding

from diminimal import (
    Family,
    Variant,
    build_tree,
    compare_counts,
    counts_within,
    delete_vertex,
    find_parter_vertex,
    is_parter,
    isolate_eigenvalues,
    ladder,
    main_roots,
    multiplicity,
    realize_family,
    realize_integral,
    realize_variant,
    recognize_family,
    seed,
    to_dense_float,
    trace,
)


def test_criterion_01_worked_uniform_d9_construction():
    start = time.perf_counter()
    cert = realize_family(seed(Family.UNIFORM, 9), 0, 32)
    elapsed = time.perf_counter() - start
    assert cert.dspec == (
        (F(-62), 1), (F(-56), 1), (F(-48), 2), (F(-32), 4), (F(0), 8),
        (F(32), 8), (F(80), 4), (F(104), 2), (F(116), 1), (F(122), 1))
    assert cert.matrix.n == 32
    assert elapsed < 1.0


def test_criterion_02_random_unfolding_corpus(corpus):
    assert len(corpus.runs) >= 200
    assert corpus.elapsed < 60.0
    for run in corpus.runs:
        d = recognize_family(run.tree).diameter
        assert run.cert.distinct_values == d + 1
        assert sum(m for _, m in run.cert.dspec) == run.tree.n
        assert run.tree.n <= 200


def test_criterion_03_integral_spectra_on_corpus(corpus):
    alphas = list(range(-5, 6))
    for i, run in enumerate(corpus.runs):
        cert = realize_integral(run.tree, alphas[i % len(alphas)])
        assert all(v.denominator == 1 for v, _ in cert.dspec)
        assert cert.distinct_values == run.cert.distinct_values


def test_criterion_04_diameter4_multiplicity_formula():
    # full grid: arm count p from 2 to 5, leaf loads 1..4 at the hub and
    # every arm; 64+256+1024+4096 cases
    cases = 0
    for p in range(2, 6):
        for ts in itertools.product((1, 2, 3, 4), repeat=p + 1):
            t = generic_d4(p, ts)
            cert = realize_integral(t, 0)
            expected = (
                (F(-3), 1),
                (F(-2), p - 1),
                (F(0), 1 - p + sum(ts[1:])),
                (F(2), ts[0] + p - 1),
                (F(5), 1),
            )
            assert cert.dspec == expected, (p, ts, cert.dspec)
            cases += 1
    assert cases == 5440


def test_criterion_05_oracle_agreement_on_guarded_points():
    rng = random.Random(20260815)
    conclusive = agreed = 0
    for _ in range(200):
        t = random_tree(rng.randint(2, 20), rng)
        m = random_matrix(t, rng)
        dense = to_dense_float(m)
        evs = np.linalg.eigvalsh(dense)
        scale = max(1.0, float(np.abs(dense).max()))
        picked = 0
        while picked < 5:
            pt = F(rng.randint(-40, 40), rng.randint(1, 6))
            if min(abs(evs - float(pt))) < 1e-6 * scale:
                continue  # too close to an eigenvalue to be a fair probe
            picked += 1
            rep = compare_counts(m, pt)
            if rep.conclusive:
                conclusive += 1
                agreed += rep.agree
    assert conclusive >= 900
    assert agreed == conclusive


def test_criterion_06_adaptive_isolation_of_extremes():
    rng = random.Random(77)
    mats = [realize_family(seed(Family.UNIFORM, 7), 0, 32).matrix,
            realize_family(seed(Family.SHORT_CORE, 8), -3, 29).matrix,
            realize_family(seed(Family.MIXED, 9), 0, 7).matrix]
    mats += [random_matrix(random_tree(rng.randint(3, 15), rng), rng)
             for _ in range(10)]
    for m in mats:
        width = m.gershgorin_bound / 2
        for _ in range(80):
            ivs = isolate_eigenvalues(m, width)
            assert sum(iv.count for iv in ivs) == m.n
            if ivs[0].count == 1 and ivs[-1].count == 1:
                break
            width /= 2
        else:
            raise AssertionError("extreme eigenvalues never isolated")
        assert ivs[0].hi - ivs[0].lo <= width
        assert ivs[-1].hi - ivs[-1].lo <= width


def test_criterion_07_multiplicity_raising_vertices(corpus):
    checked = 0
    for run in corpus.runs:
        m = run.cert.matrix
        for lam, mult in run.cert.dspec:
            if mult < 2:
                continue
            v = find_parter_vertex(m, lam)
            assert is_parter(m, v, lam)
            assert m.tree.degree(v) >= 3
            comps = delete_vertex(m, v)
            assert sum(multiplicity(c, lam) for c in comps) == mult + 1
            assert sum(1 for c in comps if multiplicity(c, lam) >= 1) >= 3
            checked += 1
    assert checked >= 200


def test_criterion_08_assembly_bookkeeping(corpus):
    checked = 0
    for run in corpus.runs:
        cert = run.cert
        m = cert.matrix
        assert trace(m) == sum(v * mult for v, mult in cert.dspec)
        for rec in cert.assemblies:
            members = list(rec.core_vertices)
            merged: dict[F, int] = dict(rec.core_pred)
            for _, verts, pred in rec.parts:
                members.extend(verts)
                for v, cnt in pred:
                    merged[v] = merged.get(v, 0) + cnt
            pred = dict(rec.pred)
            assert rec.forced == rec.a + rec.b - rec.y
            # interior additivity on the finished matrix: within the block,
            # every merged value keeps its count except one copy of each
            # extreme moved to the pinned and forced positions
            probe = set(merged) | {rec.y, rec.forced}
            for lam in probe:
                got = counts_within(m, lam, tuple(members))
                assert got.equal == pred.get(lam, 0), (lam, rec)
            expect = dict(merged)
            expect[rec.a] -= 1
            expect[rec.b] -= 1
            expect = {k: v for k, v in expect.items() if v}
            expect[rec.y] = 1
            expect[rec.forced] = 1
            assert pred == expect
            checked += 1
    assert checked >= 400


def test_criterion_09_recognition_round_trip_and_invariance():
    pairs = ([(Family.UNIFORM, d) for d in range(1, 16)]
             + [(Family.SHORT_CORE, d) for d in range(4, 16)]
             + [(Family.MIXED, d) for d in range(5, 16, 2)])
    for fam, d in pairs:
        tag = recognize_family(seed(fam, d))
        assert (tag.family, tag.diameter) == (fam, d)

    # 1000 single duplications, each followed by re-recognition
    rng = random.Random(99)
    done = 0
    trees = {pair: seed(*pair) for pair in pairs}
    order = itertools.cycle(pairs)
    while done < 1000:
        pair = next(order)
        t = random_unfolding(trees[pair], rng, rounds=1, cap=350)
        trees[pair] = t
        tag = recognize_family(t)
        assert (tag.family, tag.diameter) == pair, (pair, t.n)
        done += 1


def test_criterion_10_deep_instrumented_realizations():
    rng = random.Random(5150)

    def uniform_sample():
        d = rng.randint(2, 8)
        return random_unfolding(seed(Family.UNIFORM, d), rng, rng.randint(0, 4),
                                cap=60), d

    # indices of the ladder values each variant leaves out, by parity
    drop_map = {
        (Variant.LOW, 0): (-1,),      # even diameter: top value only
        (Variant.LOW, 1): (1, -1),    # odd: second value and top
        (Variant.HIGH, 0): (0,),
        (Variant.HIGH, 1): (0, -2),
    }
    for variant in (Variant.LOW, Variant.HIGH):
        for _ in range(50):
            t, d = uniform_sample()
            k = (d + 1) // 2
            lad = ladder(0, 32, k)
            cert = realize_variant(t, lad, variant, deep=True)
            drops = drop_map[(variant, d % 2)]
            expect = set(lad.values) - {lad.values[i] for i in drops}
            assert {v for v, _ in cert.dspec} == expect
            assert cert.distinct_values == d + 1
            assert sum(m for _, m in cert.dspec) == t.n

    for variant in (Variant.LOW_SHIFT, Variant.HIGH_SHIFT):
        for _ in range(10):
            t, d = uniform_sample()
            k = (d + 1) // 2
            lad = ladder(0, 32, k)
            top = lad.step(k - 1)
            for _ in range(3):
                shift = F(rng.randint(1, 8 * top.numerator - 1),
                          8 * top.denominator)
                cert = realize_variant(t, lad, variant, shift, deep=True)
                vals = {v for v, _ in cert.dspec}
                base = set(lad.values) - {lad.values[0], lad.values[-1]}
                if variant is Variant.LOW_SHIFT:
                    expect = base | {lad.values[0] + shift}
                    if d % 2 == 1:
                        expect -= {lad.values[1]}
                else:
                    expect = base | {lad.values[-1] + shift}
                    if d % 2 == 1:
                        expect -= {lad.values[-2]}
                assert vals == expect, (d, shift, sorted(vals))
                assert cert.distinct_values == d + 1
