"""Golden digest of recognition and construction output.

Refactors of the recognizer or the builder must leave every certificate,
constructed matrix and assembly log unchanged.  This test hashes them over
a fixed tree set: every family seed of diameter at most 15, seeded random
unfoldings of them, the single vertex, random trees (mostly unsupported),
and each of those trees rooted once more at a non-central vertex.
"""

import hashlib
import json
import random
from dataclasses import asdict
from fractions import Fraction

from helpers import random_tree, random_unfolding

from diminimal import (
    Family,
    build_tree,
    main_roots,
    matrix_to_json,
    realize_family,
    realize_integral,
    recognize_family,
    reroot,
    seed,
)
from diminimal.matrices import format_rational

# the 12 records of the short-core d=4, d=5 and mixed d=5 seeds, their
# unfoldings and rerootings went from a refusal to a certificate; the
# other 113 are unchanged
GOLDEN = "4307b8e4a19fdb4a55f75142231c37969687c217f9937b3fa420f25854057e41"


def _seeds():
    for d in range(1, 16):
        yield Family.UNIFORM, d
    for d in range(4, 16):
        yield Family.SHORT_CORE, d
    for d in range(5, 16, 2):
        yield Family.MIXED, d


def golden_trees():
    rng = random.Random(5150)
    trees = [build_tree([], 0)]
    for fam, d in _seeds():
        s = seed(fam, d)
        trees.append(s)
        if d <= 11:
            trees.append(random_unfolding(s, rng, rounds=3, cap=120))
    trees += [random_tree(n, rng) for n in (5, 8, 12, 17, 24, 33, 40)]
    out = []
    for t in trees:
        out.append(t)
        off = [v for v in range(t.n) if v not in main_roots(t)]
        if off:
            out.append(reroot(t, off[len(off) // 2]))
    return out


def _construct(fn, *args):
    try:
        cert = fn(*args)
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        "matrix": matrix_to_json(cert.matrix),
        "certificate": cert.to_json(),
        "assemblies": [asdict(rec) for rec in cert.assemblies],
    }


def golden_records(t):
    tag = recognize_family(t)
    return {
        "tree": [t.root, list(t.parent)],
        "recognize": [tag.family.value, tag.diameter, tag.certificate],
        "family": _construct(realize_family, t, Fraction(-3, 2), Fraction(5, 7)),
        "integral": _construct(realize_integral, t, 1),
    }


def golden_digest():
    records = [golden_records(t) for t in golden_trees()]
    text = json.dumps(records, sort_keys=True, separators=(",", ":"),
                      default=format_rational)
    return hashlib.sha256(text.encode()).hexdigest()


def test_recognize_and_construct_output_is_unchanged():
    assert golden_digest() == GOLDEN
