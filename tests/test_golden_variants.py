"""Golden digest of the four spectral variants.

`tests/test_golden.py` reaches the builder only through `realize_family`
and `realize_integral`, which never ask for a shifted variant.  This test
hashes every certificate, constructed matrix and assembly log of
`realize_variant` in all four shapes over the uniform seeds of diameter 1
to 9 and one seeded random unfolding of each, with and without the deep
checks.  A second digest pins the odd ones among those trees rerooted at
the larger-id endpoint of the central edge, the other central root
`realize_variant` accepts.  The anchors (-7/3, 2/5) are not dyadic and the
shifts, 1/3 and 5/7 of the top ladder step, have odd denominators, so the
builder's arithmetic meets denominators from every source at once.
"""

import hashlib
import json
import random
from dataclasses import asdict
from fractions import Fraction

from helpers import random_unfolding

from diminimal import (Family, Variant, ladder, main_roots, matrix_to_json,
                       realize_variant, reroot, seed)
from diminimal.matrices import format_rational

GOLDEN = "684d7a9b861b973672a00fe45041230b5c02b7287e1ea6c98f5b996d73e0f4d9"
GOLDEN_OTHER_ENDPOINT = "a95931773fe807e2bf2a6f9d59ea0102ff8459da6662ecf661173316c1dd06b5"

ALPHA, BETA = Fraction(-7, 3), Fraction(2, 5)


def variant_trees():
    rng = random.Random(6620)
    for d in range(1, 10):
        s = seed(Family.UNIFORM, d)
        yield d, s
        yield d, random_unfolding(s, rng, rounds=3, cap=40)


def variant_records(t, d):
    k = (d + 1) // 2
    lad = ladder(ALPHA, BETA, k)
    top = lad.step(k - 1)
    runs = [(Variant.LOW, None), (Variant.HIGH, None)]
    for v in (Variant.LOW_SHIFT, Variant.HIGH_SHIFT):
        runs += [(v, top / 3), (v, 5 * top / 7)]
    out = []
    for variant, shift in runs:
        for deep in (False, True):
            cert = realize_variant(t, lad, variant, shift, deep)
            out.append({
                "matrix": matrix_to_json(cert.matrix),
                "certificate": cert.to_json(),
                "assemblies": [asdict(rec) for rec in cert.assemblies],
            })
    return {"tree": [t.root, list(t.parent)], "runs": out}


def other_endpoint_trees():
    for d, t in variant_trees():
        if d % 2:
            yield d, reroot(t, main_roots(t)[1])


def variant_digest(trees):
    records = [variant_records(t, d) for d, t in trees]
    text = json.dumps(records, sort_keys=True, separators=(",", ":"),
                      default=format_rational)
    return hashlib.sha256(text.encode()).hexdigest()


def test_variant_construction_output_is_unchanged():
    assert variant_digest(variant_trees()) == GOLDEN


def test_variant_output_at_the_other_endpoint_is_unchanged():
    assert variant_digest(other_endpoint_trees()) == GOLDEN_OTHER_ENDPOINT
