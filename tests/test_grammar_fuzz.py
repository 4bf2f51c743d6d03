"""Fuzzing of the input grammars: the space and map files through
`pushforward` and `basechange`, the sheaf file through `cohomology` and
`chi`, the constructible function through `realize`, polynomials through
`sper-roots` and formulas through `sper-set` and `sper-cells`.

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
seldom = st.sampled_from([False] * 39 + [True])


def names(alphabet, odds=rarely):
    """Mostly names from alphabet, sometimes (at the odds) noise."""
    return odds.flatmap(lambda r: noise if r else st.sampled_from(alphabet))


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


def run_commands(space, sheaf, map_, commands=("pushforward", "basechange"), extra=()):
    """(report, exit code, seconds) of each command on the three files
    (None leaves a file out) and the extra arguments."""
    with tempfile.TemporaryDirectory() as d:
        argv = list(extra)
        for flag, text in (("--space", space), ("--sheaf", sheaf), ("--map", map_)):
            if text is None:
                continue
            argv += [flag, os.path.join(d, flag[2:])]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        out = []
        for cmd in commands:
            t0 = time.perf_counter()
            report, code = run([cmd] + argv)
            out.append((report, code, time.perf_counter() - t0))
        return out


def check_commands(*files, **how):
    for report, code, seconds in run_commands(*files, **how):
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


# The sheaf and phi grammars are fuzzed on a square, where two cover paths
# lead from bot to top, so a drawn sheaf can break path independence.
SQUARE = "space sq\npoints: bot l r top\ncovers: bot<l bot<r l<top r<top\n"
SQUARE_POINTS = ["bot", "l", "r", "top"]
SQUARE_COVERS = [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")]
SHEAF_COMMANDS = ("cohomology", "chi")


def scalars():
    return names(["0", "1", "-1", "2", "3"] * 2 + ["1/2"], seldom)


@st.composite
def matrix_literal(draw, rows, cols, diagonal=None):
    """A rows x cols matrix literal, with diagonal on the diagonal and 0
    elsewhere if given, random entries if not; sometimes of another shape
    or ragged."""
    if draw(seldom):
        rows, cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    grid = [[(diagonal if i == j else "0") if diagonal else draw(scalars())
             for j in range(cols)] for i in range(rows)]
    if grid and draw(seldom):
        grid[-1].append(draw(scalars()))
    return "[" + ",".join("[" + ",".join(row) + "]" for row in grid) + "]"


@st.composite
def sheaf_case(draw):
    """A sheaf file on the square: stalks of rank 1 or 2 in degree 0, some
    with a differential into a rank-1 degree 1, and a generization matrix
    in degree 0 on most covers.  The matrices are mostly one scalar on the
    diagonal, so that the two paths from bot to top often agree."""
    ranks = {p: draw(st.sampled_from([1, 1, 1, 2])) for p in SQUARE_POINTS}
    diagonal = None if draw(rarely) else draw(scalars())
    lines = [f"ring {draw(names(['Z', 'Q', 'F 2', 'F 3'], seldom))}",
             f"space {draw(names(['sq'], seldom))}"]
    for p in SQUARE_POINTS:
        items = [f"deg {draw(names(['0'], seldom))} rank {draw(names([str(ranks[p])], seldom))}"]
        if draw(seldom):
            items += ["deg 1 rank 1", f"d_0 = {draw(matrix_literal(1, ranks[p]))}"]
        lines.append(f"stalk {draw(names([p], seldom))}: " + "; ".join(items))
    for x, y in SQUARE_COVERS:
        if not draw(rarely):
            mat = draw(matrix_literal(ranks[y], ranks[x], diagonal))
            lines.append(f"gen {x}<{draw(names([y], seldom))}: "
                         f"deg {draw(names(['0'], seldom))} = {mat}")
    return SQUARE, draw(mutated(lines)), None


SQUARE_SHEAF = ("ring Z\nspace sq\n"
                + "".join(f"stalk {p}: deg 0 rank 1\n" for p in SQUARE_POINTS)
                + "".join(f"gen {x}<{y}: deg 0 = [[1]]\n" for x, y in SQUARE_COVERS))


def test_the_fixed_square_sheaf_is_valid():
    assert [code for _, code, _ in run_commands(SQUARE, SQUARE_SHEAF, None,
                                                commands=SHEAF_COMMANDS)] == [0, 0]


@FUZZ
@given(st.one_of(sheaf_case(), texts(60).map(lambda t: (SQUARE, t, None))))
@example((SQUARE, SQUARE_SHEAF.replace("stalk l: deg 0 rank 1",
                                       "stalk l: deg 0 rank 1; deg 1 rank 1; d_0 = [[1]]"),
          None))
@example((SQUARE, SQUARE_SHEAF.replace("bot<l: deg 0 = [[1]]", "bot<l: deg 0 = [[2]]"), None))
@example((SQUARE, SQUARE_SHEAF.replace("stalk bot: deg 0 rank 1",
                                       "stalk bot: deg 0 rank 100001"), None))
@example((SQUARE, SQUARE_SHEAF.replace("gen bot<l", "gen l<bot"), None))
@example((SQUARE, SQUARE_SHEAF.replace("[[1]]", "[[1,0]]", 1), None))
@example((SQUARE, SQUARE_SHEAF.replace("ring Z", "ring F 4"), None))
@example((SQUARE, SQUARE_SHEAF.replace("stalk l: deg 0 rank 1",
                                       "stalk l: deg 1 rank 2; d_0 = [[[1]]]"), None))
@example((SQUARE, SQUARE_SHEAF.replace("stalk l: deg 0 rank 1",
                                       "stalk l: deg 0 rank 1; deg 1 rank 2; d_0 = [[1]][]"),
          None))
def test_sheaf_grammar(case):
    check_commands(*case, commands=SHEAF_COMMANDS)


@st.composite
def phi_text(draw):
    """point=value entries on the square, mostly one integer per point."""
    entries = [f"{draw(names([p], seldom))}="
               f"{draw(names([str(v) for v in range(-3, 4)], seldom))}"
               for p in SQUARE_POINTS if not draw(rarely)]
    if draw(rarely):
        entries.append(draw(noise))
    entries = draw(st.permutations(entries))
    return draw(st.sampled_from(["phi: ", "phi:", ""])) + " ".join(entries)


def check_realize(phi):
    # --phi=TEXT, so that a text starting with a dash stays the value
    check_commands(SQUARE, None, None, commands=("realize",), extra=[f"--phi={phi}"])


def test_the_fixed_phi_is_valid():
    assert [code for _, code, _ in run_commands(SQUARE, None, None, commands=("realize",),
                                                extra=["--phi=bot=1 l=-2 r=0 top=3"])] == [0]


@FUZZ
@given(st.one_of(phi_text(), texts(40)))
@example("bot=1 l=1.5 r=0 top=0")
@example("bot=1 l=-2 r=0")
@example("bot=1 l=-2 r=0 top=3 x=1")
@example("bot=1 l=2 r=0 top=" + "9" * 4000)
@example("phi: bot=1 l=2 r=0 top=-")
def test_phi_grammar(phi):
    check_realize(phi)


# Polynomials and formulas are drawn near the grammar: literals, t, the
# operators, powers and parentheses, with noise characters and tokens
# sometimes put in.  Drawn polynomials reach degree about 20; the degree
# budget, a degree in the hundreds and a huge Cauchy bound are explicit
# examples.  No example puts a huge-bound root next to another root of a
# second polynomial: separating the two takes about a thousand halvings of
# an interval as wide as the bound, each on integers of about a million
# bits, and minutes.


def literals():
    """Mostly 0-99; seldom a long literal, one past the coefficient budget,
    or one with leading zeros."""
    return seldom.flatmap(lambda r: st.sampled_from(["10" * 20, "9" * 3400, "007"]) if r
                          else st.integers(0, 99).map(str))


def exponents():
    """Mostly 0-4; seldom 10, an exponent past the degree budget, or
    no literal at all."""
    return seldom.flatmap(lambda r: st.sampled_from(["10", "1001", "t", "-1", ""]) if r
                          else st.integers(0, 4).map(str))


@st.composite
def poly_text(draw, depth=2):
    """A sum of up to three products of up to two factors; a factor is a
    literal, t, a parenthesized sum (depth permitting) or a negated factor,
    sometimes raised to a power."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(["num", "t", "t", "paren", "neg"] if depth else ["num", "t"]))
            if kind == "num":
                f = draw(literals())
            elif kind == "t":
                f = "t"
            elif kind == "paren":
                f = f"({draw(poly_text(depth - 1))})"
            else:
                f = "-" + draw(st.sampled_from(["t", "2", "(t - 1)"]))
            if draw(rarely):
                f += "^" + draw(exponents())
            factors.append(f)
        terms.append(draw(st.sampled_from(["*", " * ", "*"])).join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + term
    return draw(noisy(text))


@st.composite
def noisy(draw, text):
    """text, sometimes with a character put in, dropped or replaced."""
    if draw(rarely):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["put", "drop", "replace"]))
        c = draw(st.one_of(st.sampled_from(list("()^*+-t0 \n<=&|!")), texts(1)))
        text = text[:i] + (c if kind != "drop" else "") + text[i + (kind != "put"):]
    return text


@st.composite
def formula_text(draw, depth=2):
    """Atoms "poly relop 0" joined by & and |, sometimes negated or
    parenthesized."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if depth and draw(rarely):
            part = f"({draw(formula_text(depth - 1))})"
        else:
            rhs = draw(names(["0"], seldom))
            part = f"{draw(poly_text(1))} {draw(names(['<', '<=', '=', '!=', '>=', '>'], seldom))} {rhs}"
        if draw(rarely):
            part = "!" + (part if part.startswith("(") else f"({part})")
        parts.append(part)
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from([" & ", " | ", "&", "|"])) + part
    return draw(noisy(text))


HUGE = "(t+1)^1000 - 2^1000"


def check_text(commands, flag, text):
    """Each command on the text, given as one argument --flag=TEXT or, for a
    text that does not start with a dash, as two."""
    argv = [f"--{flag}={text}"] if text.startswith("-") else [f"--{flag}", text]
    for cmd in commands:
        t0 = time.perf_counter()
        report, code = run([cmd] + argv)
        assert time.perf_counter() - t0 < PER_INPUT_S
        assert code in (0, 1, 2)
        if code:
            assert "\n" not in report and report.startswith(PREFIXES[code])


def test_the_fixed_poly_and_formula_are_valid():
    assert run(["sper-roots", "--poly", "t^3 - 2*t"])[1] == 0
    assert [run([cmd, "--formula", "t^2 - 2 < 0 & !(t = 0)"])[1]
            for cmd in ("sper-set", "sper-cells")] == [0, 0]


@FUZZ
@given(st.one_of(poly_text(), texts(40)))
@example(HUGE)
@example("(t^2 - 2)^50 * (t - 1)")
@example("t^1001")
@example("(t^2 + 1)^500 * t^2")
@example("-t^2 + 2")
@example("(((t)))^3 - 2*t")
@example("t\n+ 1 $")
@example("t²")
def test_poly_grammar(text):
    check_text(("sper-roots",), "poly", text)


@FUZZ
@given(st.one_of(formula_text(), texts(40)))
@example(f"{HUGE} < 0")
@example("(t^3 - 2*t)^40 - 1 < 0 & t^2 - 2 > 0")
@example("t^2 - 2 < 0 & t^2 - 3 > 1")
@example("!(t - 1 = 0) | (t^2 < 0")
@example("-t^3 + t > 0")
@example("(" * 101 + "t > 0" + ")" * 101)
def test_formula_grammar(text):
    check_text(("sper-set", "sper-cells"), "formula", text)
