"""Every tree of 2 to 14 vertices, each at several rootings.

networkx lists the free trees of each order once up to isomorphism (the
WROM algorithm: Wright, Richmond, Odlyzko & McKay, SIAM J. Comput. 15,
1986).  Each tree is taken rooted at vertex 0, at vertex n - 1 and at its
first central vertex, and with its ids reversed.  Over all of them the
documented contracts hold exactly: `recognize_family` never raises and its
family depends on neither rooting nor labels, it agrees with the recursive
piece rule of `helpers.reference_pieces`, every supported tree gets d + 1
certified values, audited, and every other tree the documented refusal.
"""

from fractions import Fraction
from functools import cache

import networkx as nx
import pytest

from helpers import reference_pieces

from diminimal import (Family, build_tree, diameter, main_roots, realize_family,
                       realize_integral, recognize_family, reroot)

# OEIS A000055: free trees with n unlabelled vertices, n = 1..14
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159)


@cache
def small_trees():
    """{n: trees of n vertices, rooted at 0} for n = 2..14."""
    return {n: [build_tree(sorted(tuple(sorted(e)) for e in g.edges()), 0)
                for g in nx.nonisomorphic_trees(n)] for n in range(2, 15)}


@cache
def cases():
    """(tree, its rootings) for every small tree."""
    return [(t, [reroot(t, r) for r in sorted({0, t.n - 1, main_roots(t)[0]})])
            for ts in small_trees().values() for t in ts]


def relabelled(t):
    """t with id v renamed n - 1 - v."""
    n = t.n
    return build_tree([(n - 1 - u, n - 1 - v) for u, v in t.edges], n - 1 - t.root)


def test_the_small_tree_counts_are_oeis_a000055():
    assert [len(small_trees()[n]) for n in range(2, 15)] == list(A000055[1:])


def test_the_family_depends_on_neither_rooting_nor_labels():
    for t, rootings in cases():
        families = {recognize_family(tr).family for tr in [*rootings, relabelled(t)]}
        assert len(families) == 1, t.parent
        assert recognize_family(t).diameter == diameter(t)


def test_the_mask_rule_agrees_with_the_recursive_reference():
    # the family, the kinds of the central pieces and their certificates
    supported = 0
    for _, rootings in cases():
        for tr in rootings:
            tag, pieces = recognize_family(tr), reference_pieces(tr)
            if pieces is None:
                assert tag.family is Family.UNSUPPORTED, tr.parent
                continue
            supported += 1
            cert = tag.certificate
            got = ([(None, cert["piece"])] if "piece" in cert
                   else [(s["kind"] == "uniform", s["piece"]) for s in cert["sides"]])
            want = [(pc.uniform if "sides" in cert else None, pc.to_json()) for pc in pieces]
            assert got == want, tr.parent
            uniform = [pc.uniform for pc in pieces]
            assert tag.family is (Family.UNIFORM if all(uniform) else Family.MIXED
                                  if any(uniform) else Family.SHORT_CORE), tr.parent
    assert supported == 2392


def test_every_supported_small_tree_is_certified_and_audited():
    families = {}
    for _, rootings in cases():
        for tr in rootings:
            fam, d = recognize_family(tr).family, diameter(tr)
            if fam is Family.UNSUPPORTED:
                continue
            families[fam, min(d, 6)] = families.get((fam, min(d, 6)), 0) + 1
            c = realize_family(tr, 0, 32).audit()
            assert c.distinct_values == d + 1 and c.matrix.tree is tr
            ci = realize_integral(tr, 1)
            assert ci.distinct_values == d + 1
            assert all(v.denominator == 1 for v, _ in ci.dspec)
    # the short-core trees of diameter 4 and 5 and the mixed ones of
    # diameter 5 are among them
    assert all(families.get(k) for k in [(Family.SHORT_CORE, 4), (Family.SHORT_CORE, 5),
                                         (Family.MIXED, 5)])


def test_every_unsupported_small_tree_gets_the_documented_refusal():
    refused = 0
    for _, rootings in cases():
        for tr in rootings:
            if recognize_family(tr).family is not Family.UNSUPPORTED:
                continue
            refused += 1
            d = diameter(tr)
            for fn, args in ((realize_family, (0, 32)), (realize_integral, (1,))):
                with pytest.raises(ValueError, match=rf"^unsupported family \(diameter {d}\); "
                                                     r"no construction applies$"):
                    fn(tr, *(Fraction(a) for a in args))
    assert refused == 8500
