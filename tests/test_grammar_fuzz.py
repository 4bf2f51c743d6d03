"""Fuzzing of the space and map file grammars, which `pushforward` and
`basechange` read.

Every input must give exit code 0, 1 or 2, a failure must be reported on
one line that names it, and no input may take longer than a fixed bound.
The examples are derandomized, so every run tries the same inputs.
"""

import os
import string
import tempfile
import time

from hypothesis import HealthCheck, example, given, settings, strategies as st

from sheafkit.cli import run

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None,
                suppress_health_check=list(HealthCheck))
PER_INPUT_S = 2.0
PREFIXES = {1: "error: ", 2: "internal invariant failure: "}

SPACE = "space sierp\npoints: s eta\ncovers: s<eta\n"
SHEAF = ("ring Z\nspace sierp\n"
         "stalk s: deg 0 rank 1\nstalk eta: deg 0 rank 1\n"
         "gen s<eta: deg 0 = [[1]]\n")
MAP = "map f\ntarget t\npoints: u v\ncovers: u<v\nsends: s->u eta->v\n"

# Text over a fixed alphabet: ASCII, line breaks that str.splitlines knows,
# and a few other code points.  Text over all of Unicode makes hypothesis
# build tables that hold about 200 MB for the rest of the test process.
CHARS = string.printable + "\x00\x1c\x85\u2028\ufeffé→𝕽"


def texts(size):
    return st.text(alphabet=CHARS, max_size=size)


# tokens near the grammar: valid names, separators and noise
noise = st.one_of(st.sampled_from(["", "<", "->", "#", ":", "s<eta", "u->v", "é"]), texts(4))
rarely = st.sampled_from([False] * 9 + [True])


def names(alphabet):
    """Mostly names from alphabet, sometimes noise."""
    return rarely.flatmap(lambda r: noise if r else st.sampled_from(alphabet))


@st.composite
def mutated(draw, lines):
    """The lines joined, after a few drops, swaps, duplicates and noise lines."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["drop", "swap", "dup", "noise"]))
        if kind == "noise" or not lines:
            lines.insert(i, draw(st.one_of(texts(20), noise)))
        elif kind == "drop":
            del lines[i % len(lines)]
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i % len(lines)], lines[j] = lines[j], lines[i % len(lines)]
        else:
            lines.insert(i, lines[i % len(lines)])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n# end\n"]))


def point_list(alphabet):
    """Distinct names from alphabet, sometimes with a noise name added."""
    return st.tuples(st.lists(st.sampled_from(alphabet), unique=True, min_size=1,
                              max_size=len(alphabet)),
                     st.sampled_from([[]] * 4 + [["é"], [""], ["s<"]])).map(lambda t: t[0] + t[1])


@st.composite
def poset_lines(draw, pts):
    """points: and covers: lines, the covers mostly going from earlier to
    later points (so without cycles), sometimes noise."""
    pairs = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1:]]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    if draw(rarely):
        covers.append(draw(st.tuples(names(pts), names(pts))))
    return ["points: " + " ".join(pts),
            "covers: " + " ".join(f"{x}<{y}" for x, y in covers)]


@st.composite
def space_case(draw):
    """A space file over points from s, eta, a, b, with a zero sheaf on it
    and a map of those points to one point."""
    pts = draw(point_list(["s", "eta", "a", "b"]))
    name = draw(names(["sierp"]))
    space = draw(mutated([f"space {name}"] + draw(poset_lines(pts))))
    sheaf = f"ring Z\nspace {name}\n"
    map_ = "map f\ntarget t\npoints: u\ncovers:\nsends: " + " ".join(f"{x}->u" for x in pts)
    return space, sheaf, map_


@st.composite
def map_case(draw):
    """A map file from the Sierpinski space to points from u, v, w."""
    pts = draw(point_list(["u", "v", "w"]))
    sends = [(x, draw(names(pts))) for x in ("s", "eta") if not draw(rarely)]
    if draw(rarely):
        sends.append(draw(st.tuples(noise, names(pts))))
    lines = ([f"map {draw(names(['f']))}", f"target {draw(names(['t']))}"]
             + draw(poset_lines(pts))
             + ["sends: " + " ".join(f"{x}->{y}" for x, y in sends)])
    return SPACE, SHEAF, draw(mutated(lines))


def run_commands(space, sheaf, map_):
    """(report, exit code, seconds) of pushforward and of basechange on
    the three files."""
    with tempfile.TemporaryDirectory() as d:
        argv = []
        for flag, text in (("--space", space), ("--sheaf", sheaf), ("--map", map_)):
            argv += [flag, os.path.join(d, flag[2:])]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        out = []
        for cmd in ("pushforward", "basechange"):
            t0 = time.perf_counter()
            report, code = run([cmd] + argv)
            out.append((report, code, time.perf_counter() - t0))
        return out


def check_commands(*files):
    for report, code, seconds in run_commands(*files):
        assert seconds < PER_INPUT_S
        assert code in (0, 1, 2)
        if code:
            assert "\n" not in report and report.startswith(PREFIXES[code])


def test_the_fixed_files_are_valid():
    assert [code for _, code, _ in run_commands(SPACE, SHEAF, MAP)] == [0, 0]


@FUZZ
@given(st.one_of(space_case(), texts(60).map(lambda t: (t, SHEAF, MAP))))
@example((SPACE.replace("s eta", ""), SHEAF, MAP))
@example((SPACE.replace("points: s eta\n", ""), SHEAF, MAP))
@example((SPACE.replace("s eta", "s s eta"), SHEAF, MAP))
@example((SPACE + "covers: eta<s\n", SHEAF, MAP))
@example((SPACE.replace("sierp", "other"), SHEAF, MAP))
def test_space_grammar(case):
    check_commands(*case)


@FUZZ
@given(st.one_of(map_case(), texts(60).map(lambda t: (SPACE, SHEAF, t))))
@example((SPACE, SHEAF, MAP.replace("sends: s->u eta->v\n", "")))
@example((SPACE, SHEAF, MAP.replace(" eta->v", "")))
@example((SPACE, SHEAF, MAP.replace("sends: ", "sends: x->u ")))
@example((SPACE, SHEAF, MAP.replace("s->u", "s->v").replace("eta->v", "eta->u")))
@example((SPACE, SHEAF, MAP.replace("u<v", "u<v v<u")))
def test_map_grammar(case):
    check_commands(*case)
