"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
from sheafkit import cli  # noqa: E402


def _input_bytes(ops, indir):
    gen.write_inputs(ops, indir)
    files = {name: open(os.path.join(indir, name), "rb").read()
             for name in sorted(os.listdir(indir))}
    return [op.argv for op in ops], files


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_input_bytes(workload, tmp_path):
    first = _input_bytes(gen.generate(workload, 5), tmp_path / "a")
    again = _input_bytes(gen.generate(workload, 5), tmp_path / "b")
    other = _input_bytes(gen.generate(workload, 6), tmp_path / "c")
    assert first == again
    assert first != other


def _sample(ops):
    """The first operation of each command: the cheapest of each kind."""
    seen = {}
    for op in ops:
        seen.setdefault(op.command, op)
    return list(seen.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_reports_equal_untraced_reports(workload, tmp_path):
    ops = _sample(gen.generate(workload, 2))
    gen.write_inputs(ops, tmp_path)
    tracer = replay.Tracer()
    for op in ops:
        argv = op.resolved_argv(str(tmp_path))
        assert replay.replay(argv, tracer, op.id) == cli.run(argv)
    names = {span[0] for span in tracer.spans}
    assert "cli.op" in names and "cli.parse" in names
    ops_seen = {span[4] for span in tracer.spans}
    assert ops_seen == {op.id for op in ops}


def test_wrong_expected_report_is_counted_not_raised(tmp_path):
    ops = _sample(gen.generate("functors", 0))
    gen.write_inputs(ops, tmp_path)
    results = [[cli.run(op.resolved_argv(str(tmp_path)))] * 2 for op in ops]
    right = {op.id: checks.digest(res[0][0]) for op, res in zip(ops, results)}
    failed, problems = run.failures(ops, results, str(tmp_path), right, checks)
    assert failed == [0] * len(ops) and not problems

    wrong = dict(right, **{ops[0].id: checks.digest("not the report")})
    failed, problems = run.failures(ops, results, str(tmp_path), wrong, checks)
    assert failed == [2] + [0] * (len(ops) - 1)
    assert list(problems) == [ops[0].id]


def test_crashing_oracle_is_counted_not_raised(tmp_path):
    op = _sample(gen.generate("functors", 0))[0]
    assert op.command == "cohomology"
    gen.write_inputs([op], tmp_path)
    results = [[("H^0: not a module", 0)]]
    failed, problems = run.failures([op], results, str(tmp_path), None, checks)
    assert failed == [1]
    assert "raised" in problems[op.id][0]


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(144) == 93
    for n in (20, 84, 100, 144, 1000):
        p = run.tail_percentile(n)
        assert n - run._rank(p, n) >= run.TAIL_BEYOND
        assert n - run._rank(p + 1, n) < run.TAIL_BEYOND


def test_pace_scales_by_the_kernel_times_around_an_interval():
    pace = run.Pace()
    pace.at, pace.took = [1.0, 2.0, 3.0], [0.001, 0.004, 0.002]
    ref = run.PACE_REF_S
    assert pace.scale(1.5) == pytest.approx(ref / 0.002)  # sqrt(0.001 * 0.004)
    assert pace.scale(2.5) == pytest.approx(ref / (0.004 * 0.002) ** 0.5)
    assert pace.scale(0.5) == pytest.approx(ref / 0.001)  # only a sample after
    assert pace.scale(3.5) == pytest.approx(ref / 0.002)  # only a sample before
