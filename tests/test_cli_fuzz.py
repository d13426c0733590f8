"""Fuzzing of `cli.main` on mutated tree, matrix and certificate files.

Each example takes a valid document, replaces or deletes up to three of
its nodes (the top included) and runs one command on the result.  Whatever
the file holds, the CLI must answer with exit code 0, 1 or 2, and an exit 1
must come with exactly one stderr line, starting with "error:".  A float in
place of an integer the loaders read (a vertex count, a vertex id or a
multiplicity) must be refused with exit 1, even when it is integral, and
so must an object or a string in place of a list the loaders read, even
when it has as many keys or characters as the list has items.

Trees stay at n <= 30 and no command seeds a tree, since seed sizes grow as
2^(d/2).
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diminimal import Family, matrix_to_json, realize_family, seed, tree_to_json
from diminimal.cli import main

HUGE = "1" + "0" * 400

# wrong types, out-of-range ids, and 1/0 and 10^400 rationals
BAD_VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, -1, -999, 29, 30, 31, 999, 10 ** 400,
    1.5, float("inf"), float("nan"),
    "", "x", "1.5", "matrix", "1/0", "-3/0", "0/0", HUGE, "-" + HUGE, "1/" + HUGE,
    [], [0], [[0, 1]], [0, 1, 2], {}, {"u": 0}, {"value": "0"},
])

TREES = [tree_to_json(seed(f, d)) for f, d in
         ((Family.UNIFORM, 4), (Family.SHORT_CORE, 6), (Family.MIXED, 7))]
MATRICES = []
for _tree_doc in (seed(Family.UNIFORM, 4), seed(Family.SHORT_CORE, 7)):
    _cert = realize_family(_tree_doc, 0, 32)
    MATRICES.append({"matrix": matrix_to_json(_cert.matrix),
                     "certificate": _cert.to_json()})
MATRICES.append(MATRICES[0]["matrix"])

# same-kind replacements keep most files loadable, so the commands get past
# the loaders: ids in and out of range, ids as floats (which the loaders
# refuse), rationals that are zero, negative, undefined or 10^400
IDS = st.one_of(st.integers(-2, 32), st.sampled_from([999, 10 ** 400]),
                st.integers(-2, 32).map(float), st.integers(-2, 32).map(lambda i: i + 0.99))
RATIONALS = st.sampled_from(
    ["0", "-1", "7/3", "1/0", "-3/0", HUGE, "-" + HUGE, "1/" + HUGE])


def _nodes(doc, path=()):
    """Paths to every node of a JSON document, the top first."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _lookalikes(node):
    """An object and a string with as many keys or characters as the list
    `node` has items: iterating them looks like iterating the list."""
    return [{str(i): v for i, v in enumerate(node)},
            "".join(str(i % 10) for i in range(len(node)))]


def _replacements(node):
    if isinstance(node, list):
        return st.one_of(st.sampled_from(_lookalikes(node)), BAD_VALUES)
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        return BAD_VALUES
    return st.one_of(IDS if isinstance(node, int) else RATIONALS, BAD_VALUES)


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            doc = copy.deepcopy(draw(BAD_VALUES))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.integers(0, 2)) == 0:
            del parent[path[-1]]
        else:
            value = draw(_replacements(parent[path[-1]]))
            parent[path[-1]] = copy.deepcopy(value)
    return doc


TREE_COMMANDS = st.one_of(
    st.just(["recognize"]),
    st.just(["construct", "--alpha", "0", "--beta", "32"]),
    st.just(["construct", "--alpha", "1", "--integral"]),
    st.builds(lambda v, b, c: ["unfold", "--vertex", str(v), "--branch", str(b),
                               "--copies", str(c)],
              st.integers(-3, 33), st.integers(-3, 33), st.integers(1, 2)),
)

MATRIX_COMMANDS = st.one_of(
    st.just(["verify"]),
    st.just(["verify", "--cross-check"]),
    st.sampled_from(["0", "32", "-3/2", HUGE]).map(lambda p: ["locate", "--point", p]),
    st.just(["isolate", "--width", "1/4"]),
    st.sampled_from(["dot", "json"]).map(lambda f: ["export", "--format", f]),
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def run_on(path, doc, command, flag):
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], flag, str(path), *command[1:]])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
    else:
        assert err.getvalue() == ""
    return code


@settings(max_examples=150, deadline=None)
@given(doc=mutated(TREES), command=TREE_COMMANDS)
def test_cli_survives_mutated_tree_files(doc_path, doc, command):
    run_on(doc_path, doc, command, "--tree")


@settings(max_examples=200, deadline=None)
@given(doc=mutated(MATRICES), command=MATRIX_COMMANDS)
def test_cli_survives_mutated_matrix_and_certificate_files(doc_path, doc, command):
    run_on(doc_path, doc, command, "--matrix")


def _read_paths(doc, wanted, cert_field):
    """Paths to the nodes that satisfy `wanted` among those the loaders
    read: everything but the certificate, and its `cert_field` nodes."""
    out = []
    for path in _nodes(doc):
        node = doc
        for key in path:
            node = node[key]
        if wanted(node) and ("certificate" not in path or path[-1] == cert_field):
            out.append(path)
    return out


def _draw_read_node(data, wanted, cert_field):
    """A tree or matrix document, the parent of one node it reads and that
    node's key."""
    is_tree = data.draw(st.booleans())
    doc = copy.deepcopy(data.draw(st.sampled_from(TREES if is_tree else MATRICES)))
    path = data.draw(st.sampled_from(_read_paths(doc, wanted, cert_field)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    return is_tree, doc, parent, path[-1]


def _run_reader(doc_path, data, is_tree, doc, key, cert_field):
    """Run a command that reads the mutated node."""
    if is_tree:
        command, flag = data.draw(TREE_COMMANDS), "--tree"
    elif key == cert_field:
        command, flag = data.draw(st.sampled_from([["verify"], ["verify", "--cross-check"]])), "--matrix"
    else:
        command, flag = data.draw(MATRIX_COMMANDS), "--matrix"
    return run_on(doc_path, doc, command, flag)


def _is_int(node):
    return isinstance(node, int) and not isinstance(node, bool)


def _is_full_list(node):
    return isinstance(node, list) and len(node) > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), offset=st.sampled_from([0.0, 0.25, 0.5, 0.99, -0.5]))
def test_cli_refuses_a_float_for_an_integer(doc_path, data, offset):
    is_tree, doc, parent, key = _draw_read_node(data, _is_int, "multiplicity")
    parent[key] += offset + 0.0
    assert _run_reader(doc_path, data, is_tree, doc, key, "multiplicity") == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), as_object=st.booleans())
def test_cli_refuses_an_object_or_a_string_for_a_list(doc_path, data, as_object):
    is_tree, doc, parent, key = _draw_read_node(data, _is_full_list, "dspec")
    parent[key] = _lookalikes(parent[key])[0 if as_object else 1]
    assert _run_reader(doc_path, data, is_tree, doc, key, "dspec") == 1
