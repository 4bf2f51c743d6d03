"""Digest of every benchmark report, text and ``--json``, for seeds 0-5.

Usage (from the repository root):

    python3 scripts/report_digest.py

For each workload of ``bench/gen.py`` (sections, functors, reals) and each
seed 0-5 it writes the instance inputs to a temporary directory and runs
every operation through ``cli.run``, first without and then with
``--json``.  It prints one sha256 per workload and seed, taken over
``repr((op.id, flags, exit code, report))`` of each run in operation order,
and last the sha256 of those 18 hex digests joined in order, cut to 16 hex
digits.  Two trees whose reports are byte-identical print the same lines.
The script reads ``bench/gen.py`` and writes nothing outside its temporary
directories.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import gen  # noqa: E402
from sheafkit import cli  # noqa: E402

WORKLOADS = ("sections", "functors", "reals")
SEEDS = range(6)
FLAG_SETS = ([], ["--json"])


def workload_digest(workload: str, seed: int) -> str:
    ops = gen.generate(workload, seed)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as indir:
        gen.write_inputs(ops, indir)
        for op in ops:
            argv = op.resolved_argv(indir)
            for flags in FLAG_SETS:
                report, code = cli.run(argv + flags)
                h.update(repr((op.id, flags, code, report)).encode())
    return h.hexdigest()


def main() -> int:
    digests = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            digests.append(workload_digest(workload, seed))
            print(f"{workload} seed {seed}: {digests[-1]}", flush=True)
    print(f"combined: {hashlib.sha256(''.join(digests).encode()).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
