"""Benchmark for diminimal: exact eigenvalue location and certified
minimum-distinct-eigenvalue realization on tree matrices.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): realize_corpus, locate_points,
isolate_bisect, cli_certify.  The package is imported from ``src/`` of the
checkout this file sits in; there is nothing to build.  One process, one
thread of Python, BLAS capped to one thread.

With ``--trace 0`` the workload's op list is cycled, each op timed on its
own, until S seconds have passed and at least MIN_OPS ops have run; a run
stops only at the end of a cycle, so its mix of ops is fixed by the seed.

Times are reported at a nominal machine speed.  A shared virtual machine
can change speed by up to 1.8x within seconds (seen on a 2-core x86-64
VM), which moves raw run times by 35% from run to run, far more than any
bound a benchmark could hold.  So a fixed exact-rational probe
(`calibrate`) is timed right before every op, and each op time is scaled
by CAL_NOMINAL_S over the median of the CAL_WINDOW probes around it;
set-up rounds are scaled by probes taken just before and after them.  The
unscaled figures are printed as well, under ``raw``.  End-to-end metrics:

* ``ops_per_s``   ops completed per second of (scaled) op time,
* ``op_ms.p50``, ``op_ms.p90``  nearest-rank percentiles of scaled op time
  (at least MIN_OPS samples, so p90 has at least ten beyond it),
* ``setup_s``     the median of SETUP_REPEATS scaled rounds of package
  import (numpy is loaded beforehand, once), input generation and
  warm-up; the numpy reference answers are computed once, untimed,
* ``peak_rss_mb`` the largest resident set seen after any op.

Failed or wrong ops are counted in ``failed`` (``fail_ratio`` is printed
with the other metrics) and never skipped.

With ``--trace 1`` the first TRACE_OPS ops run twice, on two fresh copies
of the inputs: op i plain, then op i with the tracer's wrappers installed
(spans.py).  The per-layer metrics come from the traced ops, unscaled;
``trace.overhead_ratio`` is traced over plain op time.  Spans are written
to ``.bench_out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the JSON result; the line before it
records the environment, sample counts, raw figures and ``output_digest``
(sha256 of the canonical outputs of the first DIGEST_OPS ops, fixed by the
seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

MIN_OPS = 100
DIGEST_OPS = 100
TRACE_OPS = 100
SETUP_REPEATS = 7
COLD_STARTS = 3
CAL_WINDOW = 9
CAL_NOMINAL_S = 3.0e-4  # the probe's time on an idle 2-core x86-64 VM

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Seconds taken by a fixed loop of small exact-rational additions, the
    kind of work the package does; the speed probe taken before each op."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 121):
        s += Fraction(i, i + 7)
    return time.perf_counter() - t0


def scaled(times: list[float], probes: list[float],
           window: int = CAL_WINDOW) -> list[float]:
    """Each time scaled to nominal speed by the median of the `window`
    probes centred on it."""
    half = window // 2
    return [t * CAL_NOMINAL_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def rss_mb() -> float:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Pass:
    """Timings and outcomes of a sequence of ops."""

    times: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    hasher: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest() if len(self.times) >= DIGEST_OPS else ""

    def step(self, op, tracer=None) -> None:
        """Probe the machine's speed, then run one op, timed alone; its
        check, digest update and memory sample happen outside the timed
        region."""
        self.probes.append(calibrate())
        out, raised = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span("bench.op", "bench"):
                    out = op.run()
        except Exception as exc:  # a failing op is counted, never fatal
            raised = exc
        self.times.append(time.perf_counter() - t0)
        try:
            bad = [f"raised {raised!r}"] if raised is not None else op.check(out)
            if len(self.times) <= DIGEST_OPS:
                self.hasher.update(b"raised\0" if raised is not None
                                   else op.canon(out).encode() + b"\0")
        except Exception as exc:
            bad = [f"check raised {exc!r}"]
        if bad:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {len(self.times) - 1}: {bad[0]}")
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())


def run_ops(ops, seconds: float, min_ops: int) -> Pass:
    """Cycle through `ops` until `seconds` have passed and `min_ops` ops
    have run, stopping only at the end of a cycle so every run does each
    op equally often."""
    res = Pass()
    start = time.perf_counter()
    while (len(res.times) < min_ops or len(res.times) % len(ops)
           or time.perf_counter() - start < seconds):
        res.step(ops[len(res.times) % len(ops)])
    return res


def run_paired(plain_ops, traced_ops, n: int, tracer) -> tuple[Pass, Pass, float]:
    """Run op i plain, then its twin on separate inputs with the wrappers
    installed, for i < n.  Alternating op by op keeps drift in machine
    speed out of the overhead ratio.  Returns both passes and the wall time
    spent inside the traced ops."""
    plain, traced = Pass(), Pass()
    wall = 0.0
    for i in range(n):
        plain.step(plain_ops[i % len(plain_ops)])
        tracer.install()
        t0 = time.perf_counter()
        try:
            traced.step(traced_ops[i % len(traced_ops)], tracer)
        finally:
            wall += time.perf_counter() - t0
            tracer.restore()
    return plain, traced, wall


def cold_starts() -> tuple[list[float], int]:
    """Wall time of sequential `python -m diminimal seed` subprocesses."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, failed = [], 0
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "diminimal", "seed", "--family", "uniform",
             "--diameter", "5"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["n"] == 8
        except (ValueError, KeyError):
            ok = False
        failed += not ok
    return times, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "diminimal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'diminimal'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    sys.path.insert(0, str(SRC))
    import numpy  # loaded once, before timing: it cannot be re-imported
    import spans

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return _run(args, workdir, spans, numpy.__version__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fresh_setup(args, workdir: Path):
    """One round of set-up on freshly imported package modules: import,
    input generation and warm-up.  Returns the workload, its inputs and
    the seconds spent, or None for an unknown workload."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("diminimal", "workloads", "inputs"):
            del sys.modules[name]
    t0 = time.perf_counter()
    import diminimal
    import diminimal.cli  # noqa: F401  (part of what a CLI user pays)
    took = time.perf_counter() - t0
    if Path(diminimal.__file__).resolve().parent != SRC / "diminimal":
        raise ImportError(f"imported diminimal from {diminimal.__file__}")
    import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        return None
    wl = cls(workdir) if cls is workloads.CliCertify else cls()
    inputs, rest = _setup(wl, args.seed)
    return wl, inputs, took + rest


def _setup(wl, seed: int):
    t0 = time.perf_counter()
    inputs = wl.generate(seed)
    wl.warm_up(inputs)
    return inputs, time.perf_counter() - t0


def _run(args, workdir: Path, spans, numpy_version: str) -> int:
    problems: list[str] = []
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        before = [calibrate() for _ in range(5)]
        got = _fresh_setup(args, workdir)
        if got is None:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        wl, inputs, took = got
        probe = statistics.median(before + [calibrate() for _ in range(5)])
        raw_setups.append(took)
        setups.append(took * CAL_NOMINAL_S / probe)
    ref = wl.reference(inputs)
    if spans.wrapped_targets():
        problems.append("wrappers installed before the untraced run: "
                        + ", ".join(spans.wrapped_targets()))

    if not args.trace:
        res = run_ops(wl.ops(inputs, ref), args.seconds, MIN_OPS)
        attempted, failed = len(res.times), res.failed
        times = scaled(res.times, res.probes)
        metrics = {
            "ops_per_s": attempted / sum(times),
            "op_ms.p50": percentile(times, 50) * 1e3,
            "op_ms.p90": percentile(times, 90) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res.peak_rss_mb,
        }
        env = {"samples": {"op_ms.p50": attempted, "op_ms.p90": attempted,
                           "beyond_p90": attempted - math.ceil(0.9 * attempted)},
               "probe_ms": statistics.median(res.probes) * 1e3,
               "raw": {"ops_per_s": attempted / sum(res.times),
                       "op_ms.p50": percentile(res.times, 50) * 1e3,
                       "op_ms.p90": percentile(res.times, 90) * 1e3,
                       "setup_s": statistics.median(raw_setups)}}
        units = END_TO_END_UNITS
        digest = res.digest
        problems += res.problems
    else:
        twin, _ = _setup(wl, args.seed)
        tracer = spans.Tracer()
        plain, traced, wall = run_paired(wl.ops(inputs, ref), wl.ops(twin, ref),
                                         TRACE_OPS, tracer)
        if spans.wrapped_targets():
            problems.append("attributes not restored: " + ", ".join(spans.wrapped_targets()))
        if traced.digest != plain.digest:
            problems.append("traced outputs differ from untraced outputs")
        attempted = len(plain.times) + len(traced.times)
        failed = plain.failed + traced.failed
        problems += plain.problems + traced.problems
        metrics = spans.layer_metrics(tracer)
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_ratio"] = sum(traced.times) / sum(plain.times)
        if metrics["trace.self_sum_s"] > wall:
            problems.append("layer self times exceed the traced wall time")
        metrics["cli.cold_start_s"] = 0.0
        if wl.name == "cli_certify":
            times, cold_failed = cold_starts()
            attempted += len(times)
            failed += cold_failed
            metrics["cli.cold_start_s"] = statistics.median(times)
        units = {k: _unit(k) for k in metrics}
        env = {"ops_per_pass": TRACE_OPS}
        digest = traced.digest
        tracer.write(OUT / f"spans-{wl.name}-{args.seed}.jsonl")

    correct = failed == 0 and not problems
    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value} {units[name]}")
    print(f"{wl.name} fail_ratio = {failed / attempted} ({failed} of {attempted})")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({"env": {
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "git_sha": git_sha(), "workload": wl.name,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": attempted, "setup_repeats": len(setups), **env,
    }, "output_digest": digest}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bits.max"):
        return "bits"
    if name.endswith("us_per_vertex"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    if name == "locate.isolate.points":
        return "count/op"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
