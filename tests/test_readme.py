"""The library tour of README.md, run as it is written.  Each expression
statement's value is checked against what its comment states, and each
comment is checked to be in the tour, so neither can drift alone."""

import ast
import re
from fractions import Fraction as F
from pathlib import Path

from diminimal import CountsAt, diameter

README = Path(__file__).resolve().parent.parent / "README.md"

DSPEC = ((-62, 1), (-56, 1), (-48, 2), (-32, 4), (0, 8),
         (32, 8), (80, 4), (104, 2), (116, 1), (122, 1))


def _disjoint_cover(intervals):
    """The four eigenvalues of the path, one to an interval of width <= 1/8,
    the intervals in order and disjoint."""
    return (sum(i.count for i in intervals) == 4
            and all(i.hi - i.lo <= F(1, 8) for i in intervals)
            and all(a.hi <= b.lo for a, b in zip(intervals, intervals[1:])))


# (expression statement, its comment in the tour, the value it states or a
# test of the value)
STATED = [
    ("counts_at(m, Fraction(1, 2))", "# CountsAt(below=2, equal=0, above=2)",
     CountsAt(below=2, equal=0, above=2)),
    ("multiplicity(m, 0)", "# 0", 0),
    ("count_in_interval(m, -3, 3)", "# 4: all four eigenvalues, ±0.851 and ±2.351", 4),
    ("isolate_eigenvalues(m, Fraction(1, 8))", "# disjoint rational intervals", _disjoint_cover),
    ("cert.dspec", "# ((-62, 1), (-56, 1), (-48, 2), (-32, 4), (0, 8),\n"
                   "#  (32, 8), (80, 4), (104, 2), (116, 1), (122, 1))   10 = diameter + 1",
     DSPEC),
    ("verify_certificate(cert.matrix, cert.dspec)", "# [] means every claim checks", []),
]


def _tour() -> str:
    after = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return after.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_readme_tour_states_what_it_returns():
    tour = _tour()
    namespace, values = {}, {}
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(tour, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert list(values) == [source for source, _, _ in STATED]
    for source, comment, stated in STATED:
        assert re.search(re.escape(source) + r"\s+" + re.escape(comment), tour), source
        value = values[source]
        assert stated(value) if callable(stated) else value == stated, source
    # the comments on the assignments: the path on 4 vertices, and a
    # 32-vertex tree of diameter 9 whose dspec has diameter + 1 values
    assert namespace["t"].n == 4 and diameter(namespace["t"]) == 3
    tree = namespace["tree"]
    assert tree.n == 32 and diameter(tree) == 9 and len(DSPEC) == 10
