"""The sheafkit benchmark: seeded workloads run through ``sheafkit.cli.run``.

Run from the repository root:

    python3 bench/run.py --workload sections --seed 0 --seconds 30 --trace 0

``--workload all`` (the default) runs every workload, each in a process of
its own.  The load is a closed loop: one caller in one thread sends the
next command line only after the previous report came back.  A run repeats
whole passes over the workload's fixed instance set until ``--seconds``
have passed, then checks every report.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it spends half the time untraced and
half replaying the same operations with a span around every layer call
(see ``replay.py``), and reports per-layer metrics.  Every reported time
is scaled to a reference machine speed (see ``Pace``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and spans
are also written under ``bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
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
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ("sections", "functors", "reals")
BENCH_MODULES = ("gen", "replay", "checks")
SETUP_REPEATS = 5
DEFAULT_SEED = 0
TAIL_BEYOND = 10
PACE_REF_S = 1e-3

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def _fresh_import():
    """Import sheafkit and the benchmark's modules anew, from this checkout."""
    for name in list(sys.modules):
        if name == "sheafkit" or name.startswith("sheafkit.") or name in BENCH_MODULES:
            del sys.modules[name]
    return importlib.import_module("gen")


def _kernel():
    """Fixed pure-Python work that uses no sheafkit code: an integer loop
    and Fraction sums, about a millisecond at the reference speed."""
    x = 0
    for j in range(12_000):
        x += j * j % 7
    q = Fraction(0)
    for _ in range(2):
        for j in range(1, 80):
            q += Fraction(j * j + 1, j + 3)
    return x, q


class Pace:
    """How fast the machine ran around each timed interval.

    On a shared host other tenants slow every virtual CPU at once, by up to
    1.7x and for stretches from under a second to minutes, so raw times of
    the same work differ between runs by more than any useful bound.
    ``sample`` times ``_kernel`` once, outside any timed region; it runs
    before every timed interval and once after the last.  ``scale(t)`` is
    ``PACE_REF_S`` over the geometric mean of the kernel times just before
    and just after t: a time measured at t, multiplied by it, is the time
    the work takes at the reference speed, at which the kernel takes
    ``PACE_REF_S``.  The kernel's time next to an operation tracks the
    operation's slowdown with a slope of about 1; samples a second or more
    away track it much worse.
    """

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def scale(self, t: float) -> float:
        i = bisect.bisect_left(self.at, t)
        before = self.took[max(i - 1, 0)]
        after = self.took[min(i, len(self.took) - 1)]
        return PACE_REF_S / math.sqrt(before * after)


def setup(workload: str, seed: int, indir: str, pace: Pace):
    """Import, input generation and input-file writing, ``SETUP_REPEATS``
    times; returns the operations and the median set-up time at the
    reference speed."""
    spans = []
    for _ in range(SETUP_REPEATS):
        pace.sample()
        t0 = time.perf_counter()
        gen = _fresh_import()
        ops = gen.generate(workload, seed)
        gen.write_inputs(ops, indir)
        spans.append((t0, time.perf_counter() - t0))
    pace.sample()
    return ops, statistics.median(dt * pace.scale(t0) for t0, dt in spans)


def _run_passes(ops, call, seconds: float, pace: Pace):
    """Whole passes over ``ops`` until the pass boundary nearest ``seconds``.

    ``call(i)`` runs operation i and returns its result.  Returns per-op
    lists of (start, wall time) pairs and of results, and the pass count.
    """
    lat = [[] for _ in ops]
    results = [[] for _ in ops]
    start = time.perf_counter()
    passes = 0
    while True:
        for i in range(len(ops)):
            pace.sample()
            t0 = time.perf_counter()
            res = call(i)
            lat[i].append((t0, time.perf_counter() - t0))
            results[i].append(res)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds - 0.5 * elapsed / passes:
            pace.sample()
            return lat, results, passes


def _per_op(lat, pace: Pace):
    """Each operation's latency: the median of its repeats, each at the
    reference speed."""
    return [statistics.median(dt * pace.scale(t0) for t0, dt in v) for v in lat]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ``TAIL_BEYOND`` of n values
    beyond it."""
    p = 99
    while p > 0 and n - _rank(p, n) < TAIL_BEYOND:
        p -= 1
    return p


def _rank(p: int, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n sorted values."""
    return max(1, -(-p * n // 100))


def load_expected(workload: str) -> dict:
    """Recorded report digests of the default seed, by operation id."""
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def failures(ops, results, indir, expected, checks):
    """Per-op failed attempt counts and the problems found.

    ``expected`` maps operation ids to recorded report digests, or is None
    when the seed has none.  An operation whose first report fails a check
    failed on every pass; one whose report changed between passes failed on
    the passes that differ.
    """
    failed = []
    problems = {}
    for op, res in zip(ops, results):
        report, code = res[0]
        found = checks.check(op, report, code, indir,
                             None if expected is None else expected.get(op.id, "missing"))
        changed = sum(1 for r in res if r != res[0])
        failed.append(len(res) if found else changed)
        if changed:
            found.append(f"report changed in {changed} of {len(res)} passes")
        if found:
            problems[op.id] = found
    return failed, problems


def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _instance_sizes(ops) -> dict:
    sizes = {"operations": len(ops)}
    for op in ops:
        sizes[f"ops.{op.command}"] = sizes.get(f"ops.{op.command}", 0) + 1
    for key, name in (("rgamma_rank", "max_rgamma_rank"), ("map_degree", "max_map_degree"),
                      ("atoms", "max_formula_atoms"), ("degree", "max_poly_degree")):
        vals = [op.sizes[key] for op in ops if key in op.sizes]
        if vals:
            sizes[name] = max(vals)
    return sizes


def _end_to_end(per_op, setup_s):
    """End-to-end metrics from per-op latencies."""
    ordered = sorted(per_op)
    p = tail_percentile(len(ordered))
    return {
        "setup_s": setup_s,
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1000,
        "latency_tail_ms": ordered[_rank(p, len(ordered)) - 1] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"tail_percentile": p, "tail_samples": len(ordered),
        "tail_beyond": len(ordered) - _rank(p, len(ordered))}


def _per_layer(tracer, replay_mod, lat, traced_lat, passes, pace: Pace):
    """Per-pass span self times at the reference speed, call counts and
    sizes from a traced run."""
    metrics = {}
    selfs = replay_mod.self_times(tracer.spans, pace.scale)
    for name in replay_mod.SPANS:
        total, calls = selfs.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = (total / passes, "s")
        metrics[f"{name}.calls"] = (calls / passes, "count")
    for name, (how, unit) in replay_mod.COUNTERS.items():
        value = tracer.sums[name] / passes if how == "sum" else tracer.maxes[name]
        metrics[name] = (value, unit)
    rank_in = tracer.sums["linalg.homology.rank_in"]
    metrics["linalg.homology.kept_ratio"] = (
        tracer.sums["linalg.homology.rank_out"] / rank_in if rank_in else 0.0, "ratio")
    untraced = sum(_per_op(lat, pace))
    traced = sum(_per_op(traced_lat, pace))
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    indir = os.path.join(WORK_DIR, f"{workload}-seed{seed}-pid{os.getpid()}")
    try:
        pace = Pace()
        ops, setup_s = setup(workload, seed, indir, pace)
        from sheafkit import cli
        import checks
        import replay

        argvs = [op.resolved_argv(indir) for op in ops]
        seen = set()
        for argv in argvs:  # warm-up: lazy imports inside the commands
            if argv[0] not in seen:
                seen.add(argv[0])
                cli.run(argv)
        gc.collect()
        budget = seconds / 2 if trace else seconds
        lat, results, passes = _run_passes(ops, lambda i: cli.run(argvs[i]), budget, pace)
        metrics, tail = _end_to_end(_per_op(lat, pace), setup_s)
        wall, _ = _end_to_end([statistics.median(dt for _, dt in v) for v in lat], None)
        t0 = time.perf_counter()
        expected = load_expected(workload) if seed == DEFAULT_SEED else None
        failed, problems = failures(ops, results, indir, expected, checks)
        attempted = sum(len(r) for r in results)
        info = {"passes": passes, "check_s": time.perf_counter() - t0,
                "wall": {n: wall[n] for n in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")}}

        if trace:
            tracer = replay.Tracer()

            def traced_op(i):
                """Replay op i; its traced time is the operation span less
                the validation probe.  Returns the report and (start, time)."""
                first = len(tracer.spans)
                try:
                    res = replay.replay(argvs[i], tracer, ops[i].id)
                except Exception as e:  # a crashing replay is a mismatch
                    return (f"replay raised {type(e).__name__}: {e}", -1), (time.perf_counter(), 0.0)
                tracer.add("cli.input_bytes", ops[i].input_bytes())
                spans = tracer.spans[first:]
                probes = sum(s[2] - s[1] for s in spans if s[0] in replay.PROBES)
                return res, (spans[0][1], spans[0][2] - spans[0][1] - probes)

            _, tres, tpasses = _run_passes(ops, traced_op, seconds / 2, pace)
            traced_lat = [[r[1] for r in rs] for rs in tres]
            for i, rs in enumerate(tres):
                bad = sum(1 for r, _ in rs if r != results[i][0])
                if bad:
                    problems.setdefault(ops[i].id, []).append(
                        f"traced replay differs from the untraced report in {bad} passes")
                failed.append(bad)
                attempted += len(rs)
            shown = _per_layer(tracer, replay, lat, traced_lat, tpasses, pace)
            info["traced_passes"] = tpasses
            _write_json(f"spans-{workload}-seed{seed}.json",
                        {"fields": ["name", "start", "end", "parent", "op"],
                         "spans": tracer.spans})
        else:
            shown = {name: (metrics[name], unit) for name, unit in END_TO_END}
        nfailed = sum(failed)
        info["pace_ms_median"] = statistics.median(pace.took) * 1000
        info["pace_samples"] = len(pace.took)
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "git_revision": _git_revision(),
            "nproc": os.cpu_count(), "instances": _instance_sizes(ops), **info, **tail,
            "failed_frac": nfailed / attempted, "problems": problems}
    print(f"workload {workload}  seed {seed}  passes {passes}  ops/pass {len(ops)}  "
          f"checks {info['check_s']:.1f}s  pace {info['pace_ms_median']:.3f}ms  "
          f"python {meta['python']}  rev {meta['git_revision'][:12]}  nproc {meta['nproc']}")
    print(f"  instances: {json.dumps(meta['instances'], sort_keys=True)}")
    for name, (value, unit) in shown.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not trace:
        print(f"  {'latency_tail_ms is p' + str(tail['tail_percentile']):36s} "
              f"of {tail['tail_samples']} operations")
        print("  wall clock, not scaled to the reference speed: " +
              "  ".join(f"{n} {v:.6g}" for n, v in info["wall"].items()))
    print(f"  {'failed_frac':36s} {nfailed / attempted:14.6g} fraction "
          f"({nfailed} of {attempted} attempts)")
    for op_id, found in sorted(problems.items())[:10]:
        print(f"  FAILED {op_id}: {'; '.join(found)}")
    result = {"correct": nfailed == 0, "attempted": attempted, "failed": nfailed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()}}
    _write_json(f"{workload}-seed{seed}-trace{int(trace)}.json", {**meta, **result})
    print(json.dumps(result))
    return 0


def _write_json(name: str, obj) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_all(args) -> int:
    """Every workload in a process of its own, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "sheafkit", "__init__.py")):
        print(f"error: no sheafkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, BENCH_DIR]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
