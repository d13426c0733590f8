"""The four benchmark workloads.

A workload turns a seed into a list of operations.  An operation ("op") is
one user-level call into the package; the runner times `Op.run`, then
checks its output with `Op.check` (explicit comparisons, never `assert`, so
`python -O` cannot strip them) and feeds `Op.canon` into the output digest.

Every workload has the same four steps:

* `generate(seed)` builds the inputs (timed, part of set-up),
* `reference(inputs)` computes expected answers with numpy (untimed),
* `ops(inputs, ref)` closes over both to make the op list,
* `warm_up(inputs)` runs one op per shared input so lazy caches are full
  before timing (timed, part of set-up).

Modules are looked up through their attributes at call time
(``realize.realize_family``, not a bound name), so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import io
import json
import random
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import diminimal.cli as cli
import diminimal.locate as locate
import diminimal.realize as realize
import diminimal.trees as trees
from diminimal import Family, RootedTree, seed as seed_tree
from diminimal.matrices import format_rational, matrix_to_json, parse_rational

from inputs import (ANCHORS, CORPUS_CELLS, branch_candidates, broom,
                    caterpillar, float_below, guarded, random_matrix,
                    random_point, random_tree, random_unfolding,
                    reference_spectrum)


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    canon: Callable[[object], str]


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _spectrum_problems(dspec, n: int, d: int) -> list[str]:
    out = []
    if len(dspec) != d + 1:
        out.append(f"{len(dspec)} distinct values, expected {d + 1}")
    total = sum(m for _, m in dspec)
    if total != n:
        out.append(f"multiplicities sum to {total}, expected {n}")
    return out


def _interval_problems(ivs, n: int, width: Fraction) -> list[str]:
    """(lo, hi, count) triples: positive counts summing to n, widths at most
    `width`, sorted and pairwise disjoint."""
    out = []
    if sum(c for _, _, c in ivs) != n:
        out.append(f"interval counts sum to {sum(c for _, _, c in ivs)}, not {n}")
    for lo, hi, c in ivs:
        if c <= 0 or not lo < hi or hi - lo > width:
            out.append(f"bad interval ({lo}, {hi}] count {c}")
    for (_, hi, _), (lo, _, _) in zip(ivs, ivs[1:]):
        if hi > lo:
            out.append(f"intervals overlap or are unsorted at {hi} > {lo}")
    return out


def _dspec_in_intervals(ivs, dspec) -> list[str]:
    """Each interval holds exactly the claimed multiplicities in (lo, hi]."""
    out = []
    for lo, hi, c in ivs:
        want = sum(m for v, m in dspec if lo < v <= hi)
        if want != c:
            out.append(f"({lo}, {hi}] holds {c}, exact spectrum says {want}")
    return out


# ---------------------------------------------------------------------------
# realize_corpus
# ---------------------------------------------------------------------------

class RealizeCorpus:
    """Random branch-duplication unfoldings of all three families over the
    204-cell corpus mix (d from 1 to 12, n <= 200).  One op recognizes the
    tree, realizes it (every other op integrally) and verifies the
    certificate.  trees and realize do the work; locate runs only at exact
    eigenvalues; no oracle runs."""

    name = "realize_corpus"
    # fixed interleaving of the cells, the same for every seed, so any
    # prefix of the op list has nearly the corpus mix of diameters
    ORDER = tuple(sorted(range(len(CORPUS_CELLS)),
                         key=lambda i: (i * 89) % len(CORPUS_CELLS)))

    def generate(self, seed: int):
        rng = random.Random(seed)
        cells = []
        # the number of unfolding rounds (0 to 6) follows the cell index, so
        # the mix of tree sizes hardly moves with the seed
        for i, (fam, d) in enumerate(CORPUS_CELLS):
            t = random_unfolding(seed_tree(fam, d), rng, rounds=i % 7)
            cells.append((fam, d, t.parent, t.root))
        return [cells[i] for i in self.ORDER]

    def reference(self, inputs):
        return None

    def ops(self, inputs, ref) -> list[Op]:
        return [self._op(k, *cell) for k, cell in enumerate(inputs)]

    def _op(self, k: int, fam: Family, d: int, parent, root) -> Op:
        integral = k % 2 == 1
        alpha, beta = ANCHORS[k % len(ANCHORS)]
        alpha_int = k % 11 - 5

        def run():
            t = RootedTree(parent, root)
            tag = trees.recognize_family(t)
            if integral:
                cert = realize.realize_integral(t, alpha_int)
            else:
                cert = realize.realize_family(t, alpha, beta)
            return tag, cert, realize.verify_certificate(cert.matrix, cert.dspec)

        def check(out) -> list[str]:
            tag, cert, problems = out
            bad = list(problems)
            if (tag.family, tag.diameter) != (fam, d):
                bad.append(f"recognized {tag.family.value}/{tag.diameter}, "
                           f"expected {fam.value}/{d}")
            bad += _spectrum_problems(cert.dspec, len(parent), d)
            if integral and any(v.denominator != 1 for v, _ in cert.dspec):
                bad.append("integral realization has a fractional eigenvalue")
            return bad

        def canon(out) -> str:
            cert = out[1]
            return _canon_json({"matrix": matrix_to_json(cert.matrix),
                                "certificate": cert.to_json()})

        return Op(run, check, canon)

    def warm_up(self, inputs) -> None:
        fam, d, parent, root = inputs[0]
        realize.realize_family(RootedTree(parent, root), 0, 32)


# ---------------------------------------------------------------------------
# locate_points
# ---------------------------------------------------------------------------

class LocatePoints:
    """counts_at and count_in_interval at random small rationals on large
    random weighted trees of three contrasting shapes: random recursive,
    caterpillar (deep) and broom (wide fan-in).  Only locate works.

    n is 1000 and 2000: the eigvalsh reference is dense, and at n = 2000 it
    already costs about a second of untimed set-up per matrix."""

    name = "locate_points"
    SIZES = (1000, 2000)
    SHAPES = (random_tree, caterpillar, broom)
    POINTS = 240

    def generate(self, seed: int):
        rng = random.Random(seed)
        mats = [random_matrix(shape(n, rng), rng)
                for n in self.SIZES for shape in self.SHAPES]
        pts = [(random_point(rng), random_point(rng)) for _ in range(4 * self.POINTS)]
        return mats, pts

    def reference(self, inputs):
        mats, pts = inputs
        specs = [reference_spectrum(m) for m in mats]
        # op k queries matrix k % len(mats); draw from the shared point
        # pool until a pair is guarded on that matrix
        chosen, it = [], iter(pts)
        for k in range(self.POINTS):
            evs, guard = specs[k % len(mats)]
            for a, b in it:
                if guarded(evs, guard, a) and guarded(evs, guard, b):
                    chosen.append((min(a, b), max(a, b)))
                    break
            else:
                raise RuntimeError("point pool exhausted")
        return specs, chosen

    def ops(self, inputs, ref) -> list[Op]:
        mats, _ = inputs
        specs, chosen = ref
        out = []
        for k, (a, b) in enumerate(chosen):
            m = mats[k % len(mats)]
            evs = specs[k % len(mats)][0]
            if (k // len(mats)) % 2 == 0:
                out.append(self._counts_op(m, a, float_below(evs, a)))
            else:
                out.append(self._interval_op(
                    m, a, b, float_below(evs, b) - float_below(evs, a)))
        return out

    @staticmethod
    def _counts_op(m, p: Fraction, want_below: int) -> Op:
        def check(c) -> list[str]:
            bad = []
            if c.below + c.equal + c.above != m.n:
                bad.append(f"counts {c} do not sum to {m.n}")
            if (c.below, c.equal) != (want_below, 0):
                bad.append(f"counts_at {p}: {c}, eigvalsh says {want_below} below")
            return bad

        return Op(lambda: locate.counts_at(m, p), check,
                  lambda c: f"c {p} {c.below} {c.equal} {c.above}")

    @staticmethod
    def _interval_op(m, a: Fraction, b: Fraction, want: int) -> Op:
        def check(c) -> list[str]:
            if c != want:
                return [f"count_in_interval [{a}, {b}] = {c}, eigvalsh says {want}"]
            return []

        return Op(lambda: locate.count_in_interval(m, a, b), check,
                  lambda c: f"i {a} {b} {c}")

    def warm_up(self, inputs) -> None:
        for m in inputs[0]:
            locate.counts_at(m, 0)


# ---------------------------------------------------------------------------
# isolate_bisect
# ---------------------------------------------------------------------------

class IsolateBisect:
    """isolate_eigenvalues at width 1/1000 on small constructed matrices
    (heavily repeated exact eigenvalues) and random matrices, n from 8 to
    32.  Same locate layer as locate_points, but the cost comes from
    rational bit growth over many bisection points, not from n."""

    name = "isolate_bisect"
    WIDTH = Fraction(1, 1000)
    PAIRS = 80
    CELLS = ((Family.UNIFORM, 5), (Family.UNIFORM, 6), (Family.UNIFORM, 7),
             (Family.SHORT_CORE, 6), (Family.SHORT_CORE, 7),
             (Family.MIXED, 7))

    def generate(self, seed: int):
        rng = random.Random(seed)
        mats = []
        # cells, unfolding rounds and sizes follow a fixed schedule so that
        # every seed gets the same mix of costs; the seed picks the shapes
        # and the entries
        for k in range(self.PAIRS):
            fam, d = self.CELLS[k % len(self.CELLS)]
            t = random_unfolding(seed_tree(fam, d), rng, k % 4, cap=32)
            alpha, beta = ANCHORS[rng.randrange(len(ANCHORS))]
            cert = realize.realize_family(t, alpha, beta)
            mats.append((cert.matrix, cert.dspec))
            n = 8 + (7 * k) % 25
            mats.append((random_matrix(random_tree(n, rng), rng), None))
        return mats

    def reference(self, inputs):
        return [reference_spectrum(m) for m, _ in inputs]

    def ops(self, inputs, ref) -> list[Op]:
        return [self._op(m, dspec, *spec) for (m, dspec), spec in zip(inputs, ref)]

    def _op(self, m, dspec, evs, guard) -> Op:
        width = self.WIDTH

        def check(ivs) -> list[str]:
            trip = [(iv.lo, iv.hi, iv.count) for iv in ivs]
            bad = _interval_problems(trip, m.n, width)
            if dspec is not None:
                bad += _dspec_in_intervals(trip, dspec)
            if trip and guarded(evs, guard, trip[0][0]) and float_below(evs, trip[0][0]):
                bad.append("eigvalsh finds eigenvalues below the first interval")
            seen = 0
            for lo, hi, c in trip:
                seen += c
                if guarded(evs, guard, hi) and float_below(evs, hi) != seen:
                    bad.append(f"eigvalsh counts {float_below(evs, hi)} "
                               f"eigenvalues up to {hi}, intervals {seen}")
            return bad

        def canon(ivs) -> str:
            return ";".join(f"{format_rational(iv.lo)},{format_rational(iv.hi)},"
                            f"{iv.count}" for iv in ivs)

        return Op(lambda: locate.isolate_eigenvalues(m, width), check, canon)

    def warm_up(self, inputs) -> None:
        locate.isolate_eigenvalues(inputs[0][0], self.WIDTH)
        for m, _ in inputs:
            locate.counts_at(m, 0)


# ---------------------------------------------------------------------------
# cli_certify
# ---------------------------------------------------------------------------

class CliCertify:
    """cli.main in-process on files in a scratch directory.  Each flow is
    seed or unfold, recognize, construct --out, verify, verify
    --cross-check, locate at two points, a coarse isolate, and export as
    json and as dot, on trees with n <= 32.  The only workload in which
    cli, the matrices JSON I/O and the float oracle do work.

    The cross-check costs 20 ms to 1 s, growing as n cubed; with ten ops
    per flow it is a tenth of the ops, so p90 falls among the many mid-cost
    ops rather than on a gap between cross-checks of adjacent sizes."""

    name = "cli_certify"
    FLOWS = 26
    CELLS = ((Family.UNIFORM, 3), (Family.UNIFORM, 4), (Family.UNIFORM, 5),
             (Family.UNIFORM, 6), (Family.UNIFORM, 7), (Family.UNIFORM, 8),
             (Family.UNIFORM, 9), (Family.SHORT_CORE, 6), (Family.SHORT_CORE, 7),
             (Family.SHORT_CORE, 8), (Family.SHORT_CORE, 9), (Family.MIXED, 7),
             (Family.MIXED, 9))
    WIDTH = "1"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, seed: int):
        """Each flow: (family, d, n, unfold args or None, construct args,
        two locate points).  Unfold flows start from a seed file written
        here."""
        rng = random.Random(seed)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        flows = []
        for j in range(self.FLOWS):
            fam, d = self.CELLS[j % len(self.CELLS)]
            t = seed_tree(fam, d)
            unfold = None
            if j % 2 == 1:
                cands = [(v, c) for v, c in branch_candidates(t)
                         if t.n + len(t.subtree(c)) <= 32]
                if cands:
                    # the largest branch that fits, so the tree size (which
                    # sets the oracle's cost) does not depend on the seed
                    big = max(len(t.subtree(c)) for _, c in cands)
                    v, c = rng.choice([(v, c) for v, c in cands
                                       if len(t.subtree(c)) == big])
                    base = self.workdir / f"base{j}.json"
                    base.write_text(_canon_json(
                        {"n": t.n, "root": t.root,
                         "edges": [list(e) for e in t.edges]}))
                    unfold = (str(base), v, c)
                    t = trees.duplicate_branch(t, v, c, 1)
            if j % 3 == 2:
                construct = ["--alpha", str(rng.randint(-5, 5)), "--integral"]
            else:
                a, b = ANCHORS[rng.randrange(len(ANCHORS))]
                construct = ["--alpha", format_rational(a), "--beta", format_rational(b)]
            points = tuple(format_rational(random_point(rng)) for _ in range(2))
            flows.append((fam, d, t.n, unfold, construct, points))
        return flows

    def reference(self, inputs):
        return None

    def ops(self, inputs, ref) -> list[Op]:
        out = []
        for j, flow in enumerate(inputs):
            out += self._flow(j, *flow)
        return out

    def _flow(self, j, fam, d, n, unfold, construct, points) -> list[Op]:
        tree = str(self.workdir / f"t{j}.json")
        mat = str(self.workdir / f"m{j}.json")

        def call(argv):
            def run():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(argv)
                return rc, out.getvalue(), err.getvalue()
            return run

        def claimed():
            with open(mat) as fh:
                cert = json.load(fh)["certificate"]
            return [(parse_rational(e["value"]), e["multiplicity"])
                    for e in cert["dspec"]]

        def op(argv, check, out_file=None) -> Op:
            def full_check(res) -> list[str]:
                rc, out, err = res
                if rc != 0:
                    return [f"{' '.join(argv[:1])} exited {rc}: {err.strip()}"]
                return check(out)

            def canon(res) -> str:
                # the scratch directory name differs from run to run
                text = f"{res[0]}\n{res[1]}".replace(str(self.workdir), "<dir>")
                if out_file is not None:
                    with open(out_file) as fh:
                        text += fh.read()
                return text

            return Op(call(argv), full_check, canon)

        def check_tree(_) -> list[str]:
            with open(tree) as fh:
                got = json.load(fh)["n"]
            return [] if got == n else [f"tree has {got} vertices, expected {n}"]

        def check_construct(_) -> list[str]:
            dspec = claimed()
            bad = _spectrum_problems(dspec, n, d)
            if "--integral" in construct and any(v.denominator != 1 for v, _ in dspec):
                bad.append("integral construction has a fractional eigenvalue")
            return bad

        def check_verify(out) -> list[str]:
            return [] if out.startswith("ok:") else [f"verify printed {out!r}"]

        def check_recognize(out) -> list[str]:
            want = f"family: {fam.value}\ndiameter: {d}\n"
            return [] if out.startswith(want) else [f"recognize printed {out[:60]!r}"]

        def check_locate(point):
            def check(out) -> list[str]:
                got = {k: int(v) for k, v in
                       re.findall(r"(below|equal|above): (\d+)", out)}
                p = parse_rational(point)
                dspec = claimed()
                want = {"below": sum(m for v, m in dspec if v < p),
                        "equal": sum(m for v, m in dspec if v == p),
                        "above": sum(m for v, m in dspec if v > p)}
                return [] if got == want else [f"locate {point}: {got}, expected {want}"]
            return check

        def check_isolate(out) -> list[str]:
            trip = [(parse_rational(lo), parse_rational(hi), int(c)) for lo, hi, c in
                    re.findall(r"\((\S+), (\S+)\] count=(\d+)", out)]
            return (_interval_problems(trip, n, parse_rational(self.WIDTH))
                    + _dspec_in_intervals(trip, claimed()))

        def check_json(out) -> list[str]:
            with open(mat) as fh:
                want = json.load(fh)
            return [] if json.loads(out) == want else ["export json differs from construct"]

        def check_dot(out) -> list[str]:
            verts = len(re.findall(r"^  \d+ \[label=", out, re.M))
            edges = len(re.findall(r"^  \d+ -- \d+ ", out, re.M))
            if not out.startswith("graph matrix {") or (verts, edges) != (n, n - 1):
                return [f"export dot has {verts} vertices and {edges} edges"]
            return []

        if unfold is None:
            first = ["seed", "--family", fam.value, "--diameter", str(d), "--out", tree]
        else:
            base, v, c = unfold
            first = ["unfold", "--tree", base, "--vertex", str(v), "--branch", str(c),
                     "--copies", "1", "--out", tree]
        return [
            op(first, check_tree, tree),
            op(["recognize", "--tree", tree], check_recognize),
            op(["construct", "--tree", tree, *construct, "--out", mat],
               check_construct, mat),
            op(["verify", "--matrix", mat], check_verify),
            op(["verify", "--matrix", mat, "--cross-check"], check_verify),
            *[op(["locate", "--matrix", mat, "--point", p], check_locate(p))
              for p in points],
            op(["isolate", "--matrix", mat, "--width", self.WIDTH], check_isolate),
            op(["export", "--matrix", mat, "--format", "json"], check_json),
            op(["export", "--matrix", mat, "--format", "dot"], check_dot),
        ]

    def warm_up(self, inputs) -> None:
        for o in self._flow(0, *inputs[0]):
            o.run()


WORKLOADS = {w.name: w for w in (RealizeCorpus, LocatePoints, IsolateBisect, CliCertify)}
