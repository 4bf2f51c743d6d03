"""Record the default seed's reports as the expected report digests.

    python3 bench/record.py

Run it only at a commit whose reports are known to be right: ``run.py``
then requires every report of the default seed to be byte-identical to the
recorded one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path[:0] = [run.SRC, run.BENCH_DIR]
    gen = run._fresh_import()
    from sheafkit import cli
    import checks

    recorded = {}
    for workload in run.WORKLOADS:
        indir = os.path.join(run.WORK_DIR, f"record-{workload}-pid{os.getpid()}")
        try:
            ops = gen.generate(workload, run.DEFAULT_SEED)
            gen.write_inputs(ops, indir)
            recorded[workload] = {}
            for op in ops:
                report, code = cli.run(op.resolved_argv(indir))
                problems = checks.check(op, report, code, indir)
                if problems:
                    print(f"{op.id}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                recorded[workload][op.id] = checks.digest(report)
        finally:
            shutil.rmtree(indir, ignore_errors=True)
        print(f"{workload}: {len(ops)} reports recorded")
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
