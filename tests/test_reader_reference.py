"""The one-list polynomial and formula reader against the three-list reader
it replaced.

``three_list_reader`` keeps the earlier reader verbatim.  Each text goes to
both readers: either both return the same value, or both fail, and then
``cli.run`` gives the same report text and exit code with either reader in
place.  No mismatch is allowed.  The texts are every ``--poly`` and
``--formula`` of the ``reals`` operations of ``bench/gen.py`` for seeds
0-5, the texts of ``test_cli.TestReaderFastPathEdges``, and the drawn and
fixed texts of the polynomial and formula strategies of
``test_grammar_fuzz``, derandomized, 600 examples each.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import test_cli
import three_list_reader as ref
from sheafkit import cli
from test_grammar_fuzz import HUGE, formula_text, poly_text, texts

COMMAND = {"poly": "sper-roots", "formula": "sper-set"}
EXAMPLES = 600
DRAWN = settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))


def outcome(flag, text, reader, monkeypatch):
    """("value", the value) when reader reads text, else ("report", the
    report and exit code of cli.run with reader in place)."""
    parse = getattr(reader, f"parse_{flag}")
    try:
        return "value", parse(text)
    except (cli.ParseError, ValueError):
        with monkeypatch.context() as m:
            m.setattr(cli, f"parse_{flag}", parse)
            return "report", cli.run([COMMAND[flag], f"--{flag}={text}"])


def mismatches(flag, batch, monkeypatch):
    return [(text, old, new) for text in batch
            if (old := outcome(flag, text, ref, monkeypatch))
            != (new := outcome(flag, text, cli, monkeypatch))]


@pytest.mark.parametrize("seed", range(6))
def test_bench_texts(bench_gen, seed, monkeypatch):
    found = {"poly": [], "formula": []}
    for op in bench_gen.generate("reals", seed):
        for flag, text in zip(op.argv, op.argv[1:]):
            if flag in ("--poly", "--formula"):
                found[flag[2:]].append(text)
    assert len(found["poly"]) >= 20 and len(found["formula"]) >= 100
    for flag, batch in found.items():
        assert mismatches(flag, batch, monkeypatch) == []


def test_fast_path_edge_texts(monkeypatch):
    edges = test_cli.TestReaderFastPathEdges
    polys = [text for text, _ in edges.POLY_REPORTS + edges.VALUES]
    formulas = [text for text, _ in edges.FORMULA_REPORTS] + [edges.BACKTRACK]
    assert mismatches("poly", polys, monkeypatch) == []
    assert mismatches("formula", formulas, monkeypatch) == []


@DRAWN
@given(st.one_of(poly_text(), texts(40)))
@example(HUGE)
@example("(t^2 - 2)^50 * (t - 1)")
@example("(t^2 + 1)^500 * t^2")
@example("(((t)))^3 - 2*t")
@example("t\n+ 1 $")
@example("((0*t^1000)^1000)^1000 + 1")
@example("(2^1000)^10 * t * (2^1000)^10")
@example("(t - t)^0 - -(t)^2 + 0^0")
@example(" ")
def test_drawn_polys(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert mismatches("poly", [text], monkeypatch) == []


@DRAWN
@given(st.one_of(formula_text(), texts(40)))
@example(f"{HUGE} < 0")
@example("!(t - 1 = 0) | (t^2 < 0")
@example("(" * 101 + "t > 0" + ")" * 101)
@example("(!" * 30 + "(" * 41 + "t" + ")" * 41 + " > 0" + ")" * 30)
@example("((t) > 0 & (t < 1)) | !(t+1)^2 != 0")
@example("t <= 0 0")
def test_drawn_formulas(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert mismatches("formula", [text], monkeypatch) == []
