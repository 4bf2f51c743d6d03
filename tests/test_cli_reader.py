"""The command-line reader against argparse.

``build_arg_parser`` below is the argparse parser the command line was read
with before the table in ``sheafkit.cli`` replaced it, kept verbatim with
its ``_ArgumentParser``.  The table reader must give the same namespace
for every command line argparse accepts, the same one-line message for
every line it refuses, and --help wherever argparse prints help.

Single-dash spellings other than -h are not drawn: argparse reads "-hx"
and "-h=x" as -h with a value it refuses, the reader as an unknown flag,
so both exit 1 with one line but not the same words.
"""

import argparse
import contextlib
import io
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from sheafkit import cli
from sheafkit.cli import (
    ParseError, _COMMANDS, cmd_basechange, cmd_chi, cmd_cohomology,
    cmd_decompose, cmd_pushforward, cmd_realize, cmd_selftest, cmd_sper_cells, cmd_sper_push,
    cmd_sper_roots, cmd_sper_set, parse_args, run,
)


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError, for the
    one-line error report, where argparse would print its usage and message
    to stderr and exit; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ParseError(message)


@cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after."""
    ap = _ArgumentParser(
        prog="sheafkit",
        description="constructible sheaf complexes on finite spectral spaces "
                    "and the real spectrum of the affine line")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **needs):
        sp = sub.add_parser(name)
        if needs.get("space"):
            sp.add_argument("--space", required=True, metavar="FILE")
        if needs.get("sheaf"):
            sp.add_argument("--sheaf", required=True, metavar="FILE")
        if needs.get("map"):
            sp.add_argument("--map", required=True, metavar="FILE")
        if needs.get("phi") == "required":
            sp.add_argument("--phi", required=True, metavar="STRING")
        elif needs.get("phi"):
            sp.add_argument("--phi", metavar="STRING")
        if needs.get("formula") == "required":
            sp.add_argument("--formula", required=True, metavar="STRING")
        elif needs.get("formula"):
            sp.add_argument("--formula", metavar="STRING")
        if needs.get("poly"):
            sp.add_argument("--poly", required=True, metavar="STRING")
        if needs.get("seed"):
            sp.add_argument("--seed", type=int, default=0, metavar="N")
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    add("cohomology", cmd_cohomology, space=True, sheaf=True)
    add("pushforward", cmd_pushforward, space=True, sheaf=True, map=True)
    add("chi", cmd_chi, space=True, sheaf=True)
    add("realize", cmd_realize, space=True, phi="required")
    add("decompose", cmd_decompose, space=True, sheaf=True)
    add("basechange", cmd_basechange, space=True, sheaf=True, map=True)
    add("sper-roots", cmd_sper_roots, poly=True)
    add("sper-set", cmd_sper_set, formula="required")
    add("sper-cells", cmd_sper_cells, formula="required")
    add("sper-push", cmd_sper_push, poly=True, formula=True, phi=True)
    add("selftest", cmd_selftest, seed=True)
    return ap


def outcome(parse, argv):
    """("args", the attributes) for an accepted line, ("error", message) for
    a refused one, ("help", exit code, whether anything was printed) for
    --help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(list(argv))
    except ParseError as e:
        return "error", str(e)
    except SystemExit as e:  # argparse's --help
        return "help", e.code or 0, bool(out.getvalue())
    if out.getvalue():
        return "help", args.fn(args)[1], True
    return "args", vars(args)


def reference(argv):
    return outcome(build_arg_parser().parse_args, argv)


def reader(argv):
    return outcome(parse_args, argv)


COMMANDS = list(_COMMANDS) + ["no-such-command"]
FLAGS = ["--space", "--sheaf", "--map", "--phi", "--formula", "--poly", "--seed", "--json",
         "--help", "-h"]
# unique and ambiguous prefixes, "=" forms, and flags no command has
SPELLINGS = ["--sp", "--sh", "--s", "--m", "--ph", "--p", "--po", "--f", "--se", "--j", "--h",
             "--he", "--space=s", "--sp=s", "--phi=-x", "--p=1", "--poly=", "--seed=3",
             "--seed=x", "--se=-1", "--json=x", "--json=", "--help=x", "--=x", "--bogus", "-x"]
VALUES = ["", "a", "7", "-x", "-1", "-1.5", "-t^2 + 1", "--", "-", "x=1", "--a b"]
TOKENS = st.sampled_from(FLAGS + SPELLINGS + VALUES + COMMANDS)


def own_flags(command):
    """The flags of a command in the reference parser, --help and --json left
    out; none for an unknown command."""
    sub = build_arg_parser()._subparsers._group_actions[0].choices.get(command)
    return [a.option_strings[0] for a in sub._actions[1:-1]] if sub else []


@st.composite
def command_lines(draw):
    """A command (or an unknown name), most of its own flags with values and
    maybe --json, then up to three tokens drawn from every class above,
    inserted anywhere, the first position included."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    for flag in own_flags(command):
        if draw(st.integers(0, 4)):
            argv += [flag, draw(st.sampled_from(VALUES + ["0", "12"]))]
    if draw(st.booleans()):
        argv.append("--json")
    for _ in range(draw(st.integers(0, 3)) * draw(st.booleans())):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(st.one_of(command_lines(), st.lists(TOKENS, max_size=8)))
def test_reader_matches_argparse(argv):
    """2000 seeded command lines, no mismatch allowed."""
    expected = reference(argv)
    assert reader(argv) == expected
    if expected[0] == "error":
        assert run(argv) == (f"error: {expected[1]}", 1)
    elif expected[0] == "help":
        assert expected == ("help", 0, True)


@pytest.mark.parametrize("argv", [
    ["cohomology", "--space", "s", "--sheaf", "k"],
    ["pushforward", "--sh=k", "--ma", "m", "--sp", "s", "--json"],
    ["realize", "--space", "s", "--phi", "-1"],
    ["sper-set", "--formula", "-t^2 + 1 > 0"],
    ["sper-push", "--poly", "t", "--poly", "t^2", "--formula", "t > 0"],
    ["selftest", "--seed", "-3"],
    ["selftest"],
])
def test_accepted_lines(argv):
    assert reader(argv) == reference(argv)
    assert reader(argv)[0] == "args"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--json", "chi"], "the following arguments are required: --space, --sheaf"),
    (["sper-push", "--p", "t"], "ambiguous option: --p could match --phi, --poly"),
    (["sper-roots", "--poly", "t", "--json=x"], "argument --json: ignored explicit argument 'x'"),
    (["selftest", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["realize", "--space", "s", "--phi", "--", "x"], "argument --phi: expected one argument"),
    (["sper-roots", "--poly", "t", "--", "--json"], "unrecognized arguments: -- --json"),
])
def test_refused_lines(argv, message):
    assert reader(argv) == reference(argv) == ("error", message)


def test_build_arg_parser_reads_like_parse_args():
    argv = ["basechange", "--space", "s", "--sheaf", "k", "--map", "m"]
    args = cli.build_arg_parser().parse_args(argv)
    assert (args.command, args.space, args.sheaf, args.map) == ("basechange", "s", "k", "m")


def test_help_prints_the_usage_line(capsys):
    assert run(["sper-push", "-h"]) == ("", 0)
    assert capsys.readouterr().out == (
        "usage: sheafkit sper-push [-h] [--phi STRING] [--formula STRING] --poly STRING "
        "[--json]\n")
    assert run(["--help"]) == ("", 0)
    assert capsys.readouterr().out.startswith("usage: sheafkit [-h] {cohomology,pushforward,")
