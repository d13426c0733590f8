"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import diminimal.locate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from diminimal import CountsAt  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Workload instances shrunk so a test runs in seconds, and a digest
    over the first 12 ops."""
    monkeypatch.setattr(run, "DIGEST_OPS", 12)
    monkeypatch.setattr(workloads.LocatePoints, "SIZES", (40, 70))
    monkeypatch.setattr(workloads.LocatePoints, "POINTS", 24)
    monkeypatch.setattr(workloads.IsolateBisect, "PAIRS", 6)
    monkeypatch.setattr(workloads.CliCertify, "FLOWS", 2)

    def make(name):
        cls = workloads.WORKLOADS[name]
        return cls(tmp_path / name) if cls is workloads.CliCertify else cls()
    return make


def _digest(wl, seed: int) -> tuple[object, str, int]:
    inputs = wl.generate(seed)
    ops = wl.ops(inputs, wl.reference(inputs))
    res = run.Pass()
    for i in range(run.DIGEST_OPS):
        res.step(ops[i % len(ops)])
    return inputs, res.digest, res.failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_digest(small, name):
    a_inputs, a_digest, a_failed = _digest(small(name), 7)
    b_inputs, b_digest, b_failed = _digest(small(name), 7)
    _, c_digest, _ = _digest(small(name), 8)
    assert a_inputs == b_inputs
    assert a_digest == b_digest != ""
    assert c_digest != a_digest
    assert a_failed == b_failed == 0


def test_wrong_count_from_a_fake_layer_is_a_failure(small, monkeypatch):
    wl = small("locate_points")
    inputs = wl.generate(3)
    ops = wl.ops(inputs, wl.reference(inputs))
    real = diminimal.locate.counts_at

    def one_extra_zero(m, point, root=None):
        c = real(m, point, root)
        return CountsAt(c.below, c.equal + 1, c.above - 1)

    monkeypatch.setattr(diminimal.locate, "counts_at", one_extra_zero)
    res = run.run_ops(ops, 0, 20)
    assert res.failed == len(res.times) >= 20
    assert res.problems


def test_raising_op_is_counted_not_fatal():
    boom = workloads.Op(lambda: 1 / 0, lambda out: [], str)
    fine = workloads.Op(lambda: 2, lambda out: [] if out == 2 else ["bad"], str)
    res = run.run_ops([boom, fine], 0, 4)
    assert (len(res.times), res.failed) == (4, 2)
    assert "ZeroDivisionError" in res.problems[0]


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert run.percentile(xs, 50) == 50
    assert run.percentile(xs, 90) == 90
    assert run.percentile(list(reversed(xs)), 90) == 90
    assert run.percentile([5.0], 90) == 5.0
    assert run.percentile([1, 2, 3], 50) == 2
    assert run.percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_scaled_times_follow_the_probe():
    nominal = run.CAL_NOMINAL_S
    assert run.scaled([1.0, 2.0], [nominal, nominal]) == [1.0, 2.0]
    assert run.scaled([1.0], [2 * nominal]) == [0.5]
    # a single outlying probe does not move the windowed median
    probes = [nominal] * 4 + [50 * nominal] + [nominal] * 4
    assert run.scaled([1.0] * 9, probes, window=5)[4] == 1.0


def test_self_times_subtract_direct_children_only():
    sp = [["bench.op", "bench", -1, 0.0, 10.0],
          ["realize.realize_family", "realize", 0, 1.0, 8.0],
          ["locate.counts_at", "locate", 1, 2.0, 3.0],
          ["locate._run", "locate", 1, 4.0, 6.5],
          ["trees.recognize_family", "trees", 0, 8.5, 9.5]]
    assert spans.self_times(sp) == [2.0, 3.5, 1.0, 2.5, 1.0]

    tr = spans.Tracer()
    tr.spans = sp
    m = spans.layer_metrics(tr)
    assert m["realize.self_s"] == 3.5
    assert m["locate.self_s"] == 3.5
    assert m["trees.recognize.self_s"] == 1.0
    assert m["realize.final_verify.s"] == 1.0
    assert m["realize.join_runs.calls"] == 1
    assert m["trace.self_sum_s"] == 10.0


def test_tracer_records_nesting_and_restores_every_attribute():
    originals = {(mod, attr): getattr(sys.modules[mod], attr)
                 for mod, attr, _, _ in spans.PATCHES}
    assert spans.wrapped_targets() == []
    tr = spans.Tracer()
    tr.install()
    try:
        assert len(spans.wrapped_targets()) == len(spans.PATCHES)
        with tr.span("bench.op", "bench"):
            diminimal.locate.count_in_interval(_path3(), -5, 5)
    finally:
        tr.restore()
    assert spans.wrapped_targets() == []
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
    names = [(s[0], s[2]) for s in tr.spans]
    assert names == [("bench.op", -1), ("locate.count_in_interval", 0),
                     ("locate.counts_at", 1), ("locate.counts_at", 1)]
    assert tr.totals["locate.vertices"] == 6


def test_emitted_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tr = spans.Tracer()
    emitted = dict(spans.layer_metrics(tr))
    emitted.update({"trace.wall_s": 0.0, "trace.overhead_ratio": 1.0,
                    "cli.cold_start_s": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: run._unit(k) for k in emitted}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _path3():
    from diminimal import build_tree, make_matrix
    t = build_tree([(0, 1), (1, 2)], 0)
    return make_matrix(t, (0, 0, 0), {(0, 1): 1, (1, 2): Fraction(1, 4)})
