"""Interleaved in-process passes of two source trees over one workload.

Usage (from the repository root):

    python3 scripts/ab_passes.py OLD/src NEW/src --workload functors --seed 3 \\
        --pairs 6 --passes 7

Each pair starts one child process per tree, the two in alternating order.
A child puts its tree and this repository's ``bench/`` on ``sys.path``,
reads the operations of ``bench/gen.py`` for the workload and seed, writes
their inputs to a temporary directory, calls each command once to warm up,
and then runs ``--passes`` whole passes through ``cli.run``, timing every
call.  An operation's latency is the median of its passes; the child
reports the median of those (p50), the tail by ``bench/run.py``'s
percentile rule, and operations per second, as ``bench/run.py`` computes
them.

It prints, for each tree (A the first, B the second), the median and
quartiles of each metric over the pairs, and how many pairs B won.  Then,
for each tree, one line gives each command's sum of per-operation
latencies (the median over the pairs), so a difference shows which
commands carry it.  Times are wall clock, not scaled to a reference
speed, so this complements ``bench/run.py`` on the same machine and does
not replace it.  The script writes nothing outside its temporary
directories.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
METRICS = (("p50_ms", "lower"), ("tail_ms", "lower"), ("ops_per_s", "higher"))


def child(src: str, workload: str, seed: int, passes: int) -> dict:
    """The metrics of passes over the workload with the sheafkit of src."""
    sys.path[:0] = [os.path.abspath(src), BENCH]
    import gen
    import run
    from sheafkit import cli

    ops = gen.generate(workload, seed)
    with tempfile.TemporaryDirectory() as indir:
        gen.write_inputs(ops, indir)
        argvs = [op.resolved_argv(indir) for op in ops]
        seen = set()
        for argv in argvs:  # warm-up: lazy imports inside the commands
            if argv[0] not in seen:
                seen.add(argv[0])
                cli.run(argv)
        lat = [[] for _ in argvs]
        for _ in range(passes):
            for i, argv in enumerate(argvs):
                t0 = time.perf_counter()
                cli.run(argv)
                lat[i].append(time.perf_counter() - t0)
    medians = [statistics.median(v) for v in lat]
    per_op = sorted(medians)
    p = run.tail_percentile(len(per_op))
    commands = {}
    for argv, median in zip(argvs, medians):
        commands[argv[0]] = commands.get(argv[0], 0) + median * 1000
    return {"p50_ms": statistics.median(per_op) * 1000,
            "tail_ms": per_op[run._rank(p, len(per_op)) - 1] * 1000,
            "ops_per_s": len(per_op) / sum(per_op), "commands": commands}


def spread(values) -> str:
    """Median and quartiles of values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return f"{statistics.median(values):.4g} ({q1:.4g}-{q3:.4g})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, metavar="SRC", help="two src/ directories")
    ap.add_argument("--workload", choices=("sections", "functors", "reals"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.trees[0], args.workload, args.seed, args.passes)))
        return 0
    results = {0: [], 1: []}
    for pair in range(args.pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            tree = args.trees[side]
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), tree, tree, "--child",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--passes", str(args.passes)],
                stdout=subprocess.PIPE, text=True, check=True)
            results[side].append(json.loads(out.stdout.splitlines()[-1]))
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.passes} passes, "
          "wall clock; median (quartiles)")
    for side in (0, 1):
        print(f"  {'AB'[side]} {args.trees[side]}: " + "  ".join(
            f"{name} {spread([r[name] for r in results[side]])}" for name, _ in METRICS))
    wins = []
    for name, better in METRICS:
        won = sum((b[name] < a[name]) if better == "lower" else (b[name] > a[name])
                  for a, b in zip(results[0], results[1]))
        wins.append(f"{name} {won} of {args.pairs}")
    print("  B better in: " + ", ".join(wins))
    for side in (0, 1):
        sums = [r["commands"] for r in results[side]]
        print(f"  {'AB'[side]} per command: " + ", ".join(
            f"{cmd} {statistics.median(s[cmd] for s in sums):.1f} ms" for cmd in sorted(sums[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
