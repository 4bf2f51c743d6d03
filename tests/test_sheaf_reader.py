"""The sheaf-file reader: matrix literals read in one pass into row dicts,
against the character walk that read them before, and a load that compares
no two distinct ring objects by value."""

import argparse
from fractions import Fraction
from random import Random

import pytest

from sheafkit import cli
from sheafkit.cli import MAX_COEFF_BITS, ParseError
from sheafkit.linalg import GF, QQ, ZZ, ScalarRing


# ---------------------------------------------------------------------------
# the reference: the character walk and integer reader the one-pass reader
# replaced, kept as they were


def walk_budget_int(s, what):
    body = s.strip()
    sign = -1 if body[:1] == "-" else 1
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits.isdecimal():
        value = int(s)
    elif len(digits := digits.lstrip("0")) > MAX_COEFF_BITS // 3:
        value = None
    else:
        value = sign * int(digits or "0")
    if value is None or value.bit_length() > MAX_COEFF_BITS:
        raise ParseError(f"{what} above the coefficient budget of {MAX_COEFF_BITS} bits")
    return value


def walk_scalar(tok, ring, idx):
    what = f"line {idx}: scalar"
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return ring.normalize(Fraction(walk_budget_int(num, what), walk_budget_int(den, what)))
        return ring.normalize(walk_budget_int(tok, what))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"line {idx}: bad scalar {tok!r}: {e}")


def walk_matrix(text, ring, idx):
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"line {idx}: matrix literal must be bracketed, got {text!r}")
    body = s[1:-1].strip()
    rows = []
    in_row = False
    cur = ""
    for ch in body:
        if in_row and ch not in "[]":
            cur += ch
        elif ch == "[" and not in_row:
            in_row, cur = True, ""
        elif ch == "]" and in_row:
            in_row = False
            rows.append([walk_scalar(t, ring, idx) for t in cur.split(",") if t.strip()])
        elif in_row or ch not in ", \t":
            raise ParseError(f"line {idx}: unexpected {ch!r} in matrix literal")
    if in_row:
        raise ParseError(f"line {idx}: unbalanced brackets in matrix literal {text!r}")
    if not rows:
        return None
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ParseError(f"line {idx}: ragged matrix literal {text!r}")
    return rows


def outcome(read, *args):
    """("ok", value) or ("error", message) of read(*args)."""
    try:
        return "ok", read(*args)
    except ParseError as e:
        return "error", str(e)


def walked(text, ring, idx):
    """The walk's result in the one-pass reader's form: (row dicts, ncols)."""
    kind, got = outcome(walk_matrix, text, ring, idx)
    if kind == "ok" and got is not None:
        got = [{j: x for j, x in enumerate(r) if x} for r in got], len(got[0])
    return kind, got


def one_pass(text, ring, idx):
    """The one-pass reader's result, its errors named by line idx as the
    sheaf reader names them."""
    kind, got = outcome(cli._parse_matrix, text, ring)
    return (kind, f"line {idx}: {got}") if kind == "error" else (kind, got)


# ---------------------------------------------------------------------------
# seeded literals

SCALARS = ["0", "1", "-1", "7", "-12", "+3", "007", "-0", "3/4", "-5/6", "6/-4", "0/9",
           "2/10", "1/0", "x", "1.5", "1_0", "٣", " 1 ", " 2 ", "--1",
           "-", "", " ", "1/", "/2", "7" * 18, "-" + "9" * 18, "9" * 19, "1" * 40,
           "0" * 5000 + "3", "7" * 4000, "2" * 3400, str(2 ** 10000), str(2 ** 10000 - 1),
           "1/-" + "3" * 3500, "5/1" + "0" * 3340]
BLANKS = ["", " ", "\t", "  ", " ", "　"]
PIECES = ["[", "]", ",", " ", "\t", " ", ";", "x", "1", "-2", "3/4", "[]", "[[]]"]


def structured(rng):
    """A literal of 0-3 rows, mostly of equal length, with mixed separators."""
    nrows, ncols = rng.randint(0, 3), rng.randint(0, 3)
    rows = []
    for _ in range(nrows):
        n = ncols if rng.random() < 0.8 else rng.randint(0, 4)
        entries = [rng.choice(SCALARS[:20]) if rng.random() < 0.9 else rng.choice(SCALARS)
                   for _ in range(n)]
        if entries and rng.random() < 0.15:
            entries.insert(rng.randrange(len(entries) + 1), rng.choice(BLANKS))
        sep = rng.choice([",", ", ", " ,", ",\t"])
        rows.append(rng.choice(BLANKS) + "[" + sep.join(entries) + "]")
    between = rng.choice([",", ", ", ",,", " ", "\t,"])
    return rng.choice(BLANKS) + "[" + between.join(rows) + "]" + rng.choice(BLANKS)


def perturbed(rng, text):
    """text with one piece inserted, or one character deleted."""
    i = rng.randrange(len(text) + 1)
    if text and rng.random() < 0.5:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(PIECES + BLANKS) + text[i:]


def scrambled(rng):
    """A few pieces in a row, bracketed or not."""
    body = "".join(rng.choice(PIECES + BLANKS + SCALARS[:12]) for _ in range(rng.randint(0, 8)))
    return rng.choice(["[" + body + "]", body, "[" + body, body + "]"])


def literals(seed, n):
    rng = Random(seed)
    for _ in range(n):
        draw = rng.random()
        if draw < 0.45:
            yield structured(rng)
        elif draw < 0.8:
            yield perturbed(rng, structured(rng))
        else:
            yield scrambled(rng)


FIXED = ["[]", "[ ]", "[[]]", "[[],[]]", "[[ ]]", "[[1,,2]]", "[[1,,2],[3,4]]",
         "[[1],[1,2]]", "[[1]", "[[1]]]", "[[[1]]]", "[[1]][]", "[[1]],[2]", "[1]",
         "[[1], [2]]", "[[1], [2]]", " [[1],[2]]　", "[[1],x,[2]]",
         "[[x],y]", "[[1/0]]", "[[3/4, -5/6]]", "[[1,x[2]]", "[[1;2]]", "[,,]", "[[1]", "[",
         "]", "", " 1", "[[1],[2]", "[[1] [2]]", "[[1]\t,\t[2]]"]


class TestOnePassReader:
    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
    def test_same_rows_or_error_as_the_walk(self, ring):
        kinds = {"ok": 0, "error": 0}
        for text in FIXED + list(literals(101, 3000)):
            want = walked(text, ring, 7)
            assert one_pass(text, ring, 7) == want, text
            kinds[want[0]] += 1
        assert min(kinds.values()) >= 600

    def test_every_kind_of_fault_is_drawn(self):
        messages = set()
        for text in FIXED + list(literals(101, 3000)):
            kind, got = walked(text, ZZ, 1)
            if kind == "error":
                messages.add(got.split(":")[1].split("'")[0].strip().split(" {")[0])
        assert {"matrix literal must be bracketed, got", "unexpected",
                "unbalanced brackets in matrix literal", "ragged matrix literal",
                "bad scalar", "scalar above the coefficient budget of 10000 bits"} <= messages

    def test_entries_are_stored_sparse_and_normalized(self):
        assert cli._parse_matrix("[[0,2,0],[1/2,0,-1]]", GF(5)) == ([{1: 2}, {0: 3, 2: 4}], 3)
        assert cli._parse_matrix("[[1,,2]]", ZZ) == ([{0: 1, 1: 2}], 2)
        assert cli._parse_matrix("[[]]", QQ) == ([{}], 0)
        assert cli._parse_matrix("[]", QQ) is None
        got = cli._parse_matrix("[[2/4]]", QQ)[0][0][0]
        assert got == Fraction(1, 2) and type(got) is Fraction


class TestRingsByIdentity:
    def test_one_object_per_ring(self):
        assert GF(5) is GF(5) is cli.parse_ring(["F", "5"])
        assert cli.parse_ring(["Z"]) is ZZ and cli.parse_ring(["Q"]) is QQ
        assert ScalarRing("Fp", 5) == GF(5) and ScalarRing("Fp", 5) is not GF(5)
        assert ScalarRing("Fp", 5) != GF(7) and ZZ != QQ and ZZ != "Z"
        assert hash(ScalarRing("Fp", 5)) == hash(GF(5))

    def test_loading_compares_no_two_ring_objects(self, tmp_path, bench_gen, monkeypatch):
        """Every functors sheaf of bench seed 0 loads with no value
        comparison of two distinct ring objects: the file's ring object is
        handed to every matrix, complex and map built from it."""
        compares = []
        eq = ScalarRing.__eq__

        def counted(self, other):
            if self is not other:
                compares.append((self, other))
            return eq(self, other)

        ops = bench_gen.generate("functors", 0)
        bench_gen.write_inputs(ops, str(tmp_path))
        monkeypatch.setattr(ScalarRing, "__eq__", counted)
        loads = 0
        for op in ops:
            argv = op.resolved_argv(str(tmp_path))
            if "--sheaf" in argv:
                args = argparse.Namespace(space=argv[argv.index("--space") + 1],
                                          sheaf=argv[argv.index("--sheaf") + 1])
                assert cli._load_sheaf(args).ring is ZZ
                loads += 1
        assert loads >= 200 and compares == []
        assert ScalarRing("Fp", 5) == GF(5) and len(compares) == 1


class TestOneRingLine:
    """A second ``ring`` line is an error naming its line: a matrix read
    before it holds entries normalized under the first ring, which the
    second would have taken for its own."""

    SPACE = "space sierp\npoints: s eta\ncovers: s<eta\n"
    TEXT = ("ring Z\nspace sierp\n"
            "stalk s: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]\nring F 2\n")

    def test_parse_sheaf(self):
        name, m = cli.parse_space(self.SPACE)
        with pytest.raises(ParseError, match=r"^line 4: a second 'ring' line"):
            cli.parse_sheaf(self.TEXT, name, m)
        # the same ring twice, and before any matrix, is refused too
        with pytest.raises(ParseError, match=r"^line 2: a second 'ring' line"):
            cli.parse_sheaf("ring Z\nring Z\nspace sierp\n", name, m)

    def test_run_reports_one_line(self, tmp_path):
        (tmp_path / "s.space").write_text(self.SPACE)
        (tmp_path / "k.sheaf").write_text(self.TEXT)
        text, code = cli.run(["cohomology", "--space", str(tmp_path / "s.space"),
                              "--sheaf", str(tmp_path / "k.sheaf")])
        assert (text, code) == (
            "error: line 4: a second 'ring' line; a sheaf file has one ring", 1)
