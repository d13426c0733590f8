import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diminimal
from diminimal import Family, counts_at, realize_integral, seed, tree_to_json
from diminimal.cli import (_RATIONAL_FLAGS, _build_parser, _fold_rational_flags,
                           _rational_arg, main)


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv, **kwargs):
    """`python -m diminimal` in a fresh process on this package's source;
    stdout and stderr are captured unless `stdout` is given."""
    src = str(Path(diminimal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # block-buffered stdout, as in a shell pipeline
    env.pop("PYTHONUNBUFFERED", None)
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "diminimal", *argv],
                          stderr=subprocess.PIPE, text=True, env=env, **kwargs)


def write_tree(path, edges, root=0, n=None):
    if n is None:
        n = 1 + max(max(e) for e in edges) if edges else 1
    path.write_text(json.dumps({"n": n, "root": root, "edges": edges}))
    return str(path)


def test_seed_writes_tree(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run_cli("seed", "--family", "uniform", "--diameter", "5",
                   "--out", str(out)) == 0
    blob = json.loads(out.read_text())
    assert blob["n"] == 8
    assert len(blob["edges"]) == 7


def test_seed_rejects_unknown_family(capsys):
    assert run_cli("seed", "--family", "spooky", "--diameter", "5") == 1
    assert "family" in capsys.readouterr().err


def test_seed_stdout_when_no_out(capsys):
    assert run_cli("seed", "--family", "uniform", "--diameter", "2") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["n"] == 3


def test_recognize(tmp_path, capsys):
    p = write_tree(tmp_path / "t.json", [[0, 1], [1, 2], [2, 3], [3, 4]])
    assert run_cli("recognize", "--tree", p) == 0
    out = capsys.readouterr().out
    assert "family: short-core" in out
    assert "diameter: 4" in out


def test_recognize_unsupported(tmp_path, capsys):
    p = write_tree(tmp_path / "t.json", [[i, i + 1] for i in range(6)])
    assert run_cli("recognize", "--tree", p) == 0
    assert "family: unsupported" in capsys.readouterr().out


@pytest.mark.parametrize("n, leaves", [(10 ** 5, False), (10 ** 4, True)])
def test_recognize_deep_tree_is_unsupported(tmp_path, capsys, n, leaves):
    # a path, or a caterpillar with one leaf per spine vertex
    s = n // 2 if leaves else n
    edges = [[i, i + 1] for i in range(s - 1)] + [[i, s + i] for i in range(n - s)]
    p = write_tree(tmp_path / "t.json", edges)
    assert run_cli("recognize", "--tree", p) == 0
    out, err = capsys.readouterr()
    assert "family: unsupported" in out and err == ""


def test_unfold_grows_tree(tmp_path, capsys):
    src = tmp_path / "t.json"
    dst = tmp_path / "u.json"
    write_tree(src, [[0, 1], [1, 2], [2, 3], [3, 4]])
    assert run_cli("unfold", "--tree", str(src), "--vertex", "2",
                   "--branch", "3", "--copies", "2", "--out", str(dst)) == 0
    blob = json.loads(dst.read_text())
    assert blob["n"] == 9


def test_unfold_rejects_bad_branch(tmp_path, capsys):
    src = write_tree(tmp_path / "t.json", [[0, 1], [1, 2], [2, 3]])
    assert run_cli("unfold", "--tree", src, "--vertex", "0",
                   "--branch", "1", "--copies", "1") == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("vertex", ["999", "-1"])
def test_unfold_rejects_vertex_out_of_range(tmp_path, capsys, vertex):
    # vertex 4 is the parent of 3, so a child check alone reads -1 as vertex 4
    src = write_tree(tmp_path / "t.json", [[0, 1], [1, 4], [4, 3], [3, 2]])
    assert run_cli("unfold", "--tree", src, "--vertex", vertex,
                   "--branch", "3", "--copies", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"vertex {vertex} out of range" in err


def test_construct_locate_verify_round_trip(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1], [1, 2], [2, 3]])
    assert run_cli("construct", "--tree", str(tree), "--alpha", "0",
                   "--beta", "32", "--out", str(mat)) == 0
    summary = capsys.readouterr().out
    assert "4 distinct eigenvalues" in summary

    blob = json.loads(mat.read_text())
    assert set(blob) == {"matrix", "certificate"}
    assert len(blob["certificate"]["dspec"]) == 4

    assert run_cli("locate", "--matrix", str(mat), "--point", "0") == 0
    out = capsys.readouterr().out
    assert "equal: 1" in out

    assert run_cli("locate", "--matrix", str(mat), "--point", "1/3") == 0
    assert "equal: 0" in capsys.readouterr().out

    assert run_cli("verify", "--matrix", str(mat)) == 0
    assert "ok" in capsys.readouterr().out

    assert run_cli("verify", "--matrix", str(mat), "--cross-check") == 0
    assert "ok" in capsys.readouterr().out


def test_construct_integral(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1], [1, 2], [2, 3]])
    assert run_cli("construct", "--tree", str(tree), "--alpha", "-2",
                   "--integral", "--out", str(mat)) == 0
    blob = json.loads(mat.read_text())
    vals = [d["value"] for d in blob["certificate"]["dspec"]]
    assert all("/" not in v for v in vals)


def test_construct_rejects_fractional_alpha_in_integral_mode(tmp_path, capsys):
    tree = write_tree(tmp_path / "t.json", [[0, 1]])
    assert run_cli("construct", "--tree", tree, "--alpha", "1/2",
                   "--integral") == 1
    assert "integer" in capsys.readouterr().err


def test_construct_integral_takes_beta(tmp_path, capsys):
    t = seed(Family.UNIFORM, 5)
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    tree.write_text(json.dumps(tree_to_json(t)))
    assert run_cli("construct", "--tree", str(tree), "--alpha", "0", "--integral",
                   "--beta", "8", "--out", str(mat)) == 0
    capsys.readouterr()
    want = realize_integral(t, 0, 8).to_json()["dspec"]
    assert want != realize_integral(t, 0).to_json()["dspec"]
    assert json.loads(mat.read_text())["certificate"]["dspec"] == want
    # beta - alpha = 7 is off the grain 4 of diameter 5
    assert run_cli("construct", "--tree", str(tree), "--alpha", "0", "--integral",
                   "--beta", "7") == 1
    assert_one_error_line(capsys)


def test_construct_has_no_beta_override(tmp_path, capsys):
    tree = write_tree(tmp_path / "t.json", [[0, 1], [1, 2]])
    assert run_cli("construct", "--tree", tree, "--alpha", "0", "--integral",
                   "--beta-override", "12") == 1
    assert "error: unrecognized arguments: --beta-override" in capsys.readouterr().err


def test_construct_rejects_unsupported_tree(tmp_path, capsys):
    tree = write_tree(tmp_path / "t.json", [[i, i + 1] for i in range(6)])
    assert run_cli("construct", "--tree", tree, "--alpha", "0",
                   "--beta", "1") == 1
    assert "error:" in capsys.readouterr().err


def test_verify_detects_tampering(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1], [1, 2]])
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "4",
            "--out", str(mat))
    capsys.readouterr()
    blob = json.loads(mat.read_text())
    blob["matrix"]["diag"][0] = "99"
    mat.write_text(json.dumps(blob))
    assert run_cli("verify", "--matrix", str(mat)) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["swapped", "repeated"])
def test_verify_reports_dspec_values_out_of_order_first(tmp_path, capsys, kind):
    _, mat = make_tree_and_matrix(tmp_path)
    capsys.readouterr()
    blob = json.loads(Path(mat).read_text())
    dspec = blob["certificate"]["dspec"]
    if kind == "swapped":
        dspec[0], dspec[1] = dspec[1], dspec[0]
    else:
        dspec[1]["value"] = dspec[0]["value"]
    Path(mat).write_text(json.dumps(blob))
    assert run_cli("verify", "--matrix", mat) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL: dspec values are not strictly increasing"


def test_verify_reports_a_conclusive_oracle_disagreement(tmp_path, capsys, monkeypatch):
    import diminimal.cli as cli
    from diminimal.oracle import AgreementReport
    _, mat = make_tree_and_matrix(tmp_path)
    capsys.readouterr()

    def disagree(m, point, exact=None):
        return AgreementReport(True, False, (0, 1, 3), (1, 0, 3), 1e-9)

    monkeypatch.setattr(cli, "compare_counts", disagree)
    assert run_cli("verify", "--matrix", mat, "--cross-check") == 2
    out = capsys.readouterr().out.splitlines()
    # the path's four claimed values, each disagreeing
    assert out == [f"FAIL: float oracle disagrees at {v}: exact (0, 1, 3), approx (1, 0, 3)"
                   for v in ("-48", "0", "32", "80")]


def test_verify_requires_certificate(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1]])
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "1",
            "--out", str(mat))
    capsys.readouterr()
    bare = json.loads(mat.read_text())["matrix"]
    mat.write_text(json.dumps(bare))
    assert run_cli("verify", "--matrix", str(mat)) == 1
    assert "certificate" in capsys.readouterr().err


def test_isolate(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    # hub with a pendant leaf and two arms: uniform, diameter 4
    write_tree(tree, [[0, 1], [0, 2], [2, 3], [0, 4], [4, 5]])
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "32",
            "--out", str(mat))
    capsys.readouterr()
    assert run_cli("isolate", "--matrix", str(mat), "--width", "4") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    counts = [int(ln.rsplit("count=", 1)[1]) for ln in lines]
    assert sum(counts) == 6


def test_isolate_deep_cells_sum_to_n(tmp_path, capsys):
    tree, mat = tmp_path / "t.json", tmp_path / "m.json"
    run_cli("seed", "--family", "uniform", "--diameter", "7", "--out", str(tree))
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "32",
            "--out", str(mat))
    capsys.readouterr()
    assert run_cli("isolate", "--matrix", str(mat), "--width", f"1/{10**40}") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert sum(int(ln.rsplit("count=", 1)[1]) for ln in lines) == 16


@pytest.mark.parametrize("width", ["0", "-1/2"])
def test_isolate_refuses_a_non_positive_width(tmp_path, capsys, width):
    tree, mat = tmp_path / "t.json", tmp_path / "m.json"
    write_tree(tree, [[0, 1], [1, 2]])
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "1",
            "--out", str(mat))
    capsys.readouterr()
    assert run_cli("isolate", "--matrix", str(mat), "--width", width) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: width must be positive\n"


def test_cross_check_builds_one_float_spectrum(tmp_path, capsys, monkeypatch):
    import diminimal.oracle as oracle
    tree, mat = tmp_path / "t.json", tmp_path / "m.json"
    run_cli("seed", "--family", "uniform", "--diameter", "7", "--out", str(tree))
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "32",
            "--out", str(mat))
    capsys.readouterr()
    calls = []
    for name in ("to_dense_float", "dense_eigenvalues"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    assert run_cli("verify", "--matrix", str(mat), "--cross-check") == 0
    assert "ok: 8 distinct eigenvalues" in capsys.readouterr().out
    assert calls == ["to_dense_float", "dense_eigenvalues"]


def test_locate_accepts_bare_matrix_json(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({
        "tree": {"n": 2, "root": 0, "edges": [[0, 1]]},
        "diag": ["0", "0"],
        "sq_edge": [{"u": 0, "v": 1, "w2": "1"}],
    }))
    assert run_cli("locate", "--matrix", str(mat), "--point", "1") == 0
    assert "equal: 1" in capsys.readouterr().out


@pytest.mark.parametrize("edges", [[[0, 1], [0, 1]], [[0, 1], [1, 0]]])
def test_edge_listed_twice_is_a_clean_error(tmp_path, capsys, edges):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({
        "tree": {"n": 2, "root": 0, "edges": [[0, 1]]},
        "diag": ["0", "0"],
        "sq_edge": [{"u": u, "v": v, "w2": w2} for (u, v), w2 in zip(edges, ["1", "4"])],
    }))
    for command in (["locate", "--point", "3/2"], ["export", "--format", "json"]):
        assert run_cli(command[0], "--matrix", str(mat), *command[1:]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "listed twice" in err


# d=15 fits the stdout buffer and meets the closed pipe at the final flush;
# d=21 does not, and meets it inside the write
@pytest.mark.parametrize("diameter", ["15", "21"])
def test_closed_stdout_exits_one_quietly(diameter):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_module("seed", "--family", "uniform", "--diameter", diameter,
                         stdout=write_end)
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == ""


def make_tree_and_matrix(tmp_path):
    """A path tree file and its constructed matrix file, under tmp_path."""
    tree = write_tree(tmp_path / "t.json", [[0, 1], [1, 2], [2, 3]])
    mat = str(tmp_path / "m.json")
    assert main(["construct", "--tree", tree, "--alpha", "0", "--beta", "32",
                 "--out", mat]) == 0
    return tree, mat


@pytest.mark.parametrize("target", ["missing/x.json", "."])
@pytest.mark.parametrize("command", ["seed", "unfold", "construct"])
def test_unwritable_out_is_a_clean_error(tmp_path, capsys, command, target):
    tree, _ = make_tree_and_matrix(tmp_path)
    capsys.readouterr()
    argv = {
        "seed": ["seed", "--family", "uniform", "--diameter", "5"],
        "unfold": ["unfold", "--tree", tree, "--vertex", "2", "--branch", "3",
                   "--copies", "1"],
        "construct": ["construct", "--tree", tree, "--alpha", "0", "--beta", "32"],
    }[command]
    out = str(tmp_path / target)
    assert run_cli(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert_one_error_line_in(err)
    assert err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("command", ["seed", "unfold"])
def test_outputs_above_the_vertex_bound_are_refused(tmp_path, capsys, command):
    # 2**41 and 10**12 + 4 vertices: building either would exhaust memory
    tree, _ = make_tree_and_matrix(tmp_path)
    capsys.readouterr()
    argv = {
        "seed": ["seed", "--family", "uniform", "--diameter", "81"],
        "unfold": ["unfold", "--tree", tree, "--vertex", "2", "--branch", "3",
                   "--copies", str(10 ** 12)],
    }[command]
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_error_line_in(err)
    assert "more than the supported 131072" in err


@pytest.mark.parametrize("command", ["construct", "verify"])
def test_files_above_the_vertex_bound_are_refused(tmp_path, capsys, monkeypatch,
                                                  command):
    # the 24-vertex uniform seed of diameter 8 and its matrix, read with the
    # bound patched down to 16
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps(tree_to_json(seed(Family.UNIFORM, 8))))
    tree = str(tree)
    mat = str(tmp_path / "m.json")
    assert run_cli("construct", "--tree", tree, "--alpha", "0", "--beta", "32",
                   "--out", mat) == 0
    capsys.readouterr()
    monkeypatch.setattr(diminimal.trees, "MAX_VERTICES", 16)
    argv = {
        "construct": ["construct", "--tree", tree, "--alpha", "0", "--beta", "32"],
        "verify": ["verify", "--matrix", mat],
    }[command]
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_error_line_in(err)
    assert "tree claims 24 vertices, more than the supported 16" in err


@pytest.mark.parametrize("argv", [
    ["seed", "--family", "uniform", "--diameter", "5"],
    ["seed", "--family", "uniform", "--diameter", "5", "--out", "{dir}/s.json"],
    ["unfold", "--tree", "{tree}", "--vertex", "2", "--branch", "3", "--copies", "1"],
    ["recognize", "--tree", "{tree}"],
    ["construct", "--tree", "{tree}", "--alpha", "0", "--beta", "32"],
    ["construct", "--tree", "{tree}", "--alpha", "0", "--beta", "32",
     "--out", "{dir}/c.json"],
    ["locate", "--matrix", "{mat}", "--point", "0"],
    ["isolate", "--matrix", "{mat}", "--width", "8"],
    ["verify", "--matrix", "{mat}"],
    ["export", "--matrix", "{mat}", "--format", "dot"],
    ["export", "--matrix", "{mat}", "--format", "json"],
    ["recognize", "--tree", "{dir}/missing.json"],
    ["--help"],
    ["seed", "--help"],
], ids=" ".join)
def test_stdout_closed_at_startup_is_a_reader_that_left(tmp_path, argv):
    tree, mat = make_tree_and_matrix(tmp_path)
    argv = [a.format(dir=tmp_path, tree=tree, mat=mat) for a in argv]
    closed = run_module(*argv, stdout=None, preexec_fn=lambda: os.close(1))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        gone = run_module(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (closed.returncode, closed.stderr) == (gone.returncode, gone.stderr)
    assert "Traceback" not in closed.stderr


def test_locate_zero_denominator_is_a_clean_error(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({
        "tree": {"n": 2, "root": 0, "edges": [[0, 1]]},
        "diag": ["1/0", "0"],
        "sq_edge": [{"u": 0, "v": 1, "w2": "1"}],
    }))
    assert run_cli("locate", "--matrix", str(mat), "--point", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("content", ["5", '["matrix"]', '"matrix"'])
@pytest.mark.parametrize("command", [["verify"], ["locate", "--point", "0"],
                                     ["isolate", "--width", "1"],
                                     ["export", "--format", "json"]])
def test_non_object_matrix_file_is_a_clean_error(tmp_path, capsys, content, command):
    mat = tmp_path / "m.json"
    mat.write_text(content)
    assert run_cli(command[0], "--matrix", str(mat), *command[1:]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_error_line_in(err)


def assert_one_error_line_in(err):
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["recognize"],
                                     ["construct", "--alpha", "0", "--beta", "4"]])
def test_float_ids_are_refused_not_truncated(tmp_path, capsys, command):
    # int() would read this as the 2-vertex edge rooted at 0
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps({"n": 2.9, "root": 0.7, "edges": [[0, 1.99]]}))
    assert run_cli(command[0], "--tree", str(tree), *command[1:]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("field, value", [("u", 0.0), ("v", 1.5), ("v", True)])
def test_float_matrix_ids_are_refused(tmp_path, capsys, field, value):
    mat = tmp_path / "m.json"
    edge = {"u": 0, "v": 1, "w2": "1"}
    edge[field] = value
    mat.write_text(json.dumps({"tree": {"n": 2, "root": 0, "edges": [[0, 1]]},
                               "diag": ["0", "0"], "sq_edge": [edge]}))
    assert run_cli("locate", "--matrix", str(mat), "--point", "1") == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("mult", [1.7, 1.0, "1", True])
def test_verify_refuses_a_non_integer_multiplicity(tmp_path, capsys, mult):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1], [1, 2]])
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "4",
            "--out", str(mat))
    capsys.readouterr()
    blob = json.loads(mat.read_text())
    blob["certificate"]["dspec"][0]["multiplicity"] = mult
    mat.write_text(json.dumps(blob))
    assert run_cli("verify", "--matrix", str(mat)) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("diag", [{"0": "7/2", "1": "5"}, "35"])
@pytest.mark.parametrize("command", [["locate", "--point", "5"],
                                     ["export", "--format", "json"], ["verify"]])
def test_diag_must_be_a_json_array(tmp_path, capsys, diag, command):
    # iterating an object gives its keys and a string its characters, which
    # would read as the diagonals (0, 1) and (3, 5)
    mat = tmp_path / "m.json"
    matrix = {"tree": {"n": 2, "root": 0, "edges": [[0, 1]]}, "diag": diag,
              "sq_edge": [{"u": 0, "v": 1, "w2": "1"}]}
    mat.write_text(json.dumps({"matrix": matrix, "certificate": {"dspec": []}}))
    assert run_cli(command[0], "--matrix", str(mat), *command[1:]) == 1
    assert_one_error_line(capsys)


def test_a_passing_cross_check_runs_the_kernel_once(tmp_path, capsys, monkeypatch):
    # verify_certificate's one run proves the counts at every claimed value;
    # the cross-check reads them from the dspec instead of counting again
    import diminimal.cli as cli
    import diminimal.locate as locate
    import diminimal.oracle as oracle
    import diminimal.realize as realize
    tree, mat = tmp_path / "t.json", tmp_path / "m.json"
    run_cli("seed", "--family", "uniform", "--diameter", "7", "--out", str(tree))
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "32",
            "--out", str(mat))
    capsys.readouterr()
    real_run, real_compare, calls, reports = locate._run, oracle.compare_counts, [], []

    def run(*args, **kwargs):
        calls.append("_run")
        return real_run(*args, **kwargs)

    def compare(m, point, exact=None):
        reports.append((m, point, real_compare(m, point, exact)))
        return reports[-1][2]

    monkeypatch.setattr(locate, "_run", run)
    monkeypatch.setattr(realize, "_run", run)
    for module in (locate, oracle, cli):
        monkeypatch.setattr(module, "counts_at", lambda *a: calls.append("counts_at"))
    monkeypatch.setattr(cli, "compare_counts", compare)
    assert run_cli("verify", "--matrix", str(mat), "--cross-check") == 0
    assert capsys.readouterr().out == "ok: 8 distinct eigenvalues verified on 16 vertices\n"
    assert calls == ["_run"]
    monkeypatch.undo()
    # the counts read from the dspec are the counts at each value
    assert len(reports) == 8
    for m, point, rep in reports:
        c = counts_at(m, point)
        assert rep.conclusive and rep.agree and rep.exact == (c.below, c.equal, c.above)


def test_a_refused_certificate_is_cross_checked_from_fresh_counts(tmp_path, capsys, monkeypatch):
    # a refused dspec implies no counts: the cross-check counts each value
    # itself, so the float oracle agrees and only the refusals are printed
    import diminimal.locate as locate
    import diminimal.oracle as oracle
    _, mat = make_tree_and_matrix(tmp_path)
    capsys.readouterr()
    blob = json.loads(Path(mat).read_text())
    blob["certificate"]["dspec"][1]["multiplicity"] = 2
    Path(mat).write_text(json.dumps(blob))
    counted = []
    monkeypatch.setattr(oracle, "counts_at", lambda m, point: counted.append(point)
                        or locate.counts_at(m, point))
    want = ["FAIL: claimed multiplicity 2 at 0, measured 1",
            "FAIL: multiplicities sum to 5, matrix order is 4"]
    assert run_cli("verify", "--matrix", mat) == 2
    assert capsys.readouterr().out.splitlines() == want
    assert run_cli("verify", "--matrix", mat, "--cross-check") == 2
    assert capsys.readouterr().out.splitlines() == want
    assert counted == [-48, 0, 32, 80]


def test_cross_check_overflow_is_a_clean_error(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1], [1, 2], [2, 3]])
    assert run_cli("construct", "--tree", str(tree), "--alpha", "0",
                   "--beta", "32", "--out", str(mat)) == 0
    blob = json.loads(mat.read_text())
    blob["matrix"]["diag"][0] = str(10**400)
    mat.write_text(json.dumps(blob))
    out = run_module("verify", "--matrix", str(mat), "--cross-check")
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr
    # the exact commands never leave rationals, so they still work
    out = run_module("locate", "--matrix", str(mat), "--point", "1")
    assert out.returncode == 0
    assert out.stdout == "below: 1\nequal: 0\nabove: 3\n"


def test_cross_check_without_memory_is_a_clean_error(tmp_path, capsys, monkeypatch):
    import diminimal.oracle as oracle
    _, mat = make_tree_and_matrix(tmp_path)
    capsys.readouterr()

    def no_memory(m):
        raise MemoryError

    monkeypatch.setattr(oracle, "to_dense_float", no_memory)
    assert run_cli("verify", "--matrix", mat, "--cross-check") == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command", [["recognize", "--tree"],
                                     ["locate", "--point", "0", "--matrix"]])
def test_json_nested_too_deep_is_a_clean_error(tmp_path, command):
    # the decoder recurses once per level and gives up long before this
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    out = run_module(*command, str(deep))
    assert out.returncode == 1 and out.stdout == ""
    assert_one_error_line_in(out.stderr)
    assert out.stderr.startswith(f"error: {deep} is not valid JSON: ")


def test_parser_is_reused_across_calls(tmp_path, capsys):
    tree = write_tree(tmp_path / "t.json", [[0, 1], [1, 2], [2, 3]])
    mat = tmp_path / "m.json"
    assert run_cli("construct", "--tree", tree, "--alpha", "0",
                   "--beta", "32", "--out", str(mat)) == 0
    capsys.readouterr()
    calls = [("locate", "--matrix"),
             ("locate", "--matrix", str(mat), "--point", "-1/2"),
             ("recognize", "--tree", tree)]
    for argv in calls:
        rc = run_cli(*argv)
        fresh = run_module(*argv)
        assert rc == fresh.returncode
        assert capsys.readouterr().out == fresh.stdout
    assert [run_cli(*argv) for argv in calls] == [1, 0, 0]


def test_export_dot(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1]])
    run_cli("construct", "--tree", str(tree), "--alpha", "0", "--beta", "1",
            "--out", str(mat))
    capsys.readouterr()
    assert run_cli("export", "--matrix", str(mat), "--format", "dot") == 0
    assert capsys.readouterr().out.startswith("graph matrix {")
    assert run_cli("export", "--matrix", str(mat), "--format", "json") == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("w2", ["10" + "0" * 700, "1/1" + "0" * 700])
def test_export_dot_keeps_the_exact_weight_beyond_float_range(tmp_path, capsys, w2):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"tree": {"n": 2, "root": 0, "edges": [[0, 1]]},
                               "diag": ["0", "1"],
                               "sq_edge": [{"u": 0, "v": 1, "w2": w2}]}))
    assert run_cli("export", "--matrix", str(mat), "--format", "dot") == 0
    out, err = capsys.readouterr()
    assert f'0 -- 1 [label="w2={w2}"];' in out and err == ""


def test_negative_rational_option_values(tmp_path, capsys):
    tree = tmp_path / "t.json"
    mat = tmp_path / "m.json"
    write_tree(tree, [[0, 1], [1, 2], [2, 3]])
    assert run_cli("construct", "--tree", str(tree), "--alpha", "-1/2",
                   "--beta", "63/2", "--out", str(mat)) == 0
    capsys.readouterr()
    assert run_cli("locate", "--matrix", str(mat), "--point", "-1/2") == 0
    assert "equal: 1" in capsys.readouterr().out


def test_missing_file_is_a_clean_error(capsys):
    assert run_cli("recognize", "--tree", "/no/such/file.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_bad_usage_exits_one(capsys):
    assert run_cli("locate", "--matrix") == 1
    assert run_cli() == 1
    assert run_cli("frobnicate") == 1


# (argv, exit code, the command whose parser prints, None for the top level,
# and the start of the error line, None for help).  A command's own usage
# errors print its usage; arguments left over after a full command, like a
# command that is not one, print the top-level usage.  Usage and help come
# from the parsers themselves and only the stable start of each error line is
# pinned, since Python versions word argparse's messages apart.  No file is
# read before these.
USAGE_CASES = [
    ([], 1, None, "error: the following arguments are required: command"),
    (["bogus"], 1, None, "error: argument command: invalid choice: 'bogus' "),
    (["loc"], 1, None, "error: argument command: invalid choice: 'loc' "),
    (["-h"], 0, None, None),
    (["locate", "-h"], 0, "locate", None),
    (["locate"], 1, "locate",
     "error: the following arguments are required: --matrix, --point\n"),
    (["locate", "--matrix"], 1, "locate",
     "error: argument --matrix: expected one argument\n"),
    (["seed", "--family", "nope"], 1, "seed",
     "error: argument --family: invalid choice: 'nope' "),
    (["isolate", "--matrix", "m.json", "--width", "1/x"], 1, "isolate",
     "error: argument --width: not a rational: '1/x'\n"),
    (["locate", "--matrix", "m.json", "--point", "1/3", "stray"], 1, None,
     "error: unrecognized arguments: stray\n"),
    # options are taken by their full names only, so a rational value that
    # starts with "-" is never split from an abbreviated option
    (["locate", "--matrix", "m.json", "--poin", "-1/3"], 1, "locate",
     "error: the following arguments are required: --point\n"),
    (["construct", "--tree", "t.json", "--alph", "-1/2"], 1, "construct",
     "error: the following arguments are required: --alpha\n"),
    # the command name comes first; Python versions refuse a leading `--`
    # in their own words, or main refuses what the parser let through
    (["--", "seed", "--family", "uniform", "--diameter", "3"], 1, None, "error: "),
]


@pytest.mark.parametrize("argv, code, command, error", USAGE_CASES,
                         ids=[" ".join(argv) or "no-arguments" for argv, *_ in USAGE_CASES])
def test_usage_output_is_pinned(capsys, monkeypatch, argv, code, command, error):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    top, commands = _build_parser()
    parser = commands[command] if command else top
    assert run_cli(*argv) == code
    out, err = capsys.readouterr()
    if error is None:
        assert (out, err) == (parser.format_help(), "")
        return
    usage = parser.format_usage()
    assert out == "" and err.startswith(usage), err
    line = err[len(usage):]
    assert line.startswith(error) and line.endswith("\n") and line.count("\n") == 1


# one full argument list per command
FULL_COMMANDS = [
    ["seed", "--family", "mixed", "--diameter", "3"],
    ["unfold", "--tree", "t.json", "--vertex", "0", "--branch", "1", "--copies", "2"],
    ["recognize", "--tree", "t.json"],
    ["construct", "--tree", "t.json", "--alpha", "0", "--integral"],
    ["locate", "--matrix", "m.json", "--point", "-1/2"],
    ["isolate", "--matrix", "m.json", "--width", "1/8"],
    ["verify", "--matrix", "m.json", "--cross-check"],
    ["export", "--matrix", "m.json", "--format", "dot"],
]


def test_a_namespace_from_the_top_level_parser_is_refused(capsys, monkeypatch):
    # as CPython 3.13.13 returns for a leading `--`: only a command's own
    # parser leads to a command
    top, _ = _build_parser()
    calls = []
    ns = argparse.Namespace(fn=lambda args: calls.append(args) or 0)
    monkeypatch.setattr(top, "parse_args", lambda argv: ns)
    assert run_cli("--", "seed", "--family", "uniform", "--diameter", "3") == 1
    assert calls == []
    out, err = capsys.readouterr()
    usage = top.format_usage()
    assert out == "" and err.startswith(usage)
    line = err[len(usage):]
    assert line.startswith("error: ") and line.count("\n") == 1


def test_the_folded_flags_are_the_rational_options():
    # _fold_rational_flags keeps a value like "-1/2" with its option; the
    # parsers say which options take a rational
    _, commands = _build_parser()
    rational = {flag for command in commands.values() for action in command._actions
                if action.type is _rational_arg for flag in action.option_strings}
    assert rational == _RATIONAL_FLAGS == {"--alpha", "--beta", "--point", "--width"}


def test_a_command_parses_alike_on_its_own_and_through_the_top_level():
    # main parses a command's arguments only with that command's parser; the
    # namespaces match only while the top-level parser has no option or
    # default of its own, which nothing would read
    top, commands = _build_parser()
    assert sorted(commands) == sorted(argv[0] for argv in FULL_COMMANDS)
    for argv in FULL_COMMANDS:
        via_top = vars(top.parse_args(_fold_rational_flags(argv)))
        assert via_top.pop("command") == argv[0]
        own = commands[argv[0]].parse_args(_fold_rational_flags(argv)[1:])
        assert vars(own) == via_top


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "diminimal", "seed", "--family", "mixed",
         "--diameter", "7"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["n"] == 14
