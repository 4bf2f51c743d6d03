import hashlib
import json
import re
import time
from fractions import Fraction
from math import isqrt
from random import Random

import pytest

import sheafkit.intpoly as ip
from sheafkit.cli import (
    MAX_REPORT_ENTRIES, MAX_STALK_RANK, ParseError, parse_formula, parse_map, parse_phi,
    parse_poly, parse_sheaf, parse_space, ring_to_tokens, run, sheaf_to_text, space_to_text,
    _matrix_str, _module_json,
)
from sheafkit.randgen import (
    random_cons_function, random_monotone_map, random_poset, random_sheaf,
)
from sheafkit.linalg import QQ, GF, ZZ, ChainMap, LinalgError, Matrix, homology
from sheafkit import sheaf
from sheafkit.sheaf import MAX_CHAINS, SheafComplex, pushforward
from sheafkit.space import MonotoneMap, SpaceError
from sheafkit.sper import cell_poset, from_formula


SIERP = "space sierp\npoints: s eta\ncovers: s<eta\n"
CONST = ("ring Z\nspace sierp\n"
         "stalk s: deg 0 rank 1\nstalk eta: deg 0 rank 1\n"
         "gen s<eta: deg 0 = [[1]]\n")


class TestParsePoly:
    def test_examples(self):
        assert parse_poly("t^3 - 2*t") == (0, -2, 0, 1)
        assert parse_poly("0") == ()
        with pytest.raises(ParseError):
            parse_poly("t^(1+1)")
        with pytest.raises(ParseError):
            parse_poly("t^-2")

    def test_parens_and_unary_minus(self):
        assert parse_poly("-(t - 1)*(t + 1)") == (1, 0, -1)
        assert parse_poly("-t^2") == (0, 0, -1)
        assert parse_poly("(t+1)^3") == (1, 3, 3, 1)

    def test_round_trip_random(self):
        rng = Random(60)
        for _ in range(500):
            p = ip.normalize([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
            assert parse_poly(ip.to_str(p)) == p

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse_poly("t + $")
        assert "column 5" in str(e.value)


class TestParseFormula:
    def test_atoms_and_connectives(self):
        f = parse_formula("t^2 - 2 < 0 & !(t = 0) | t >= 0")
        # shape: Or(And(atom, Not(atom)), atom)
        from sheafkit.sper import Or
        assert isinstance(f, Or)

    def test_right_side_must_be_zero(self):
        with pytest.raises(ParseError):
            parse_formula("t < 1")

    def test_parenthesized_polynomials_vs_formulas(self):
        parse_formula("(t + 1)*(t - 1) > 0")
        parse_formula("(t > 0) & (t < 0)")
        parse_formula("((t > 0))")


class TestNestingBudget:
    DEEP = "syntax error at line 1, column 101: nesting deeper than 100 levels"

    def test_polynomial(self):
        text, code = run(["sper-roots", "--poly", "(" * 5000 + "t" + ")" * 5000])
        assert (text, code) == ("error: " + self.DEEP, 1)
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_poly("-" * 101 + "t")
        assert parse_poly("(" * 100 + "t" + ")" * 100) == (0, 1)
        assert parse_poly("-" * 100 + "t") == (0, 1)

    def test_formula(self):
        text, code = run(["sper-set", "--formula", "(" * 3000 + "t > 0" + ")" * 3000])
        assert (text, code) == ("error: " + self.DEEP, 1)
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_formula("!" * 101 + "t > 0")
        # formula and polynomial levels share the budget
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_formula("(!" * 30 + "(" * 41 + "t" + ")" * 41 + " > 0" + ")" * 30)
        parse_formula("(!" * 30 + "(" * 40 + "t" + ")" * 40 + " > 0" + ")" * 30)


class TestDegreeBudget:
    def answer(self, argv):
        start = time.perf_counter()
        out = run(argv)
        assert time.perf_counter() - start < 1
        return out

    def test_polynomial(self):
        assert self.answer(["sper-roots", "--poly", "t^100000000 - 2"]) == (
            "error: syntax error at line 1, column 3: exponent 100000000 above "
            "the degree budget of 1000", 1)
        assert self.answer(["sper-roots", "--poly", "2^100000000*t - 1"]) == (
            "error: syntax error at line 1, column 3: exponent 100000000 above "
            "the degree budget of 1000", 1)
        with pytest.raises(ParseError, match="column 8: power degree above"):
            parse_poly("(t^2+1)^501")
        with pytest.raises(ParseError, match="line 2, column 2: product degree above"):
            parse_poly("t^600\n * t^401")
        assert ip.degree(parse_poly("t^600 * t^400 + (t^2 + 1)^500")) == 1000
        assert parse_poly("2^1000") == (2 ** 1000,)

    def test_formula(self):
        assert self.answer(["sper-set", "--formula", "t > 0 & t^100000000 - 2 < 0"]) == (
            "error: syntax error at line 1, column 11: exponent 100000000 above "
            "the degree budget of 1000", 1)
        with pytest.raises(ParseError, match="column 14: power degree above"):
            parse_formula("t > 0 | (t^3)^334 > 0")
        parse_formula("t > 0 | (t^3)^333 > 0")


class TestCoeffBudget:
    answer = TestDegreeBudget.answer

    def test_polynomial(self):
        assert self.answer(["sper-roots", "--poly", "(2^1000)^1000"]) == (
            "error: syntax error at line 1, column 9: power coefficients above "
            "the coefficient budget of 10000 bits", 1)
        assert self.answer(["sper-roots", "--poly", "(2^1000)^20*t - 1"]) == (
            "error: syntax error at line 1, column 9: power coefficients above "
            "the coefficient budget of 10000 bits", 1)
        assert self.answer(["sper-roots", "--poly", "t - " + "7" * 5000]) == (
            "error: syntax error at line 1, column 5: integer literal above "
            "the coefficient budget of 10000 bits", 1)
        with pytest.raises(ParseError, match="line 2, column 1: product coefficients above"):
            parse_poly("((2^1000)^5 + 1)\n*((2^1000)^5 + 1)")
        with pytest.raises(ParseError, match="column 1: integer literal above"):
            parse_poly(str(2 ** 10000))
        assert parse_poly(str(2 ** 10000 - 1)) == (2 ** 10000 - 1,)
        assert parse_poly("0" * 5000 + "3*t") == (0, 3)
        assert parse_poly("(t + 1)^1000 - 2^1000")[0] == 1 - 2 ** 1000

    def test_formula(self):
        assert self.answer(["sper-set", "--formula", "t > 0 & (3^600)^20*t - 1 < 0"]) == (
            "error: syntax error at line 1, column 16: power coefficients above "
            "the coefficient budget of 10000 bits", 1)
        with pytest.raises(ParseError, match="column 5: integer literal above"):
            parse_formula("t - " + "9" * 4000 + " > 0")


class TestReaderFastPathEdges:
    """Exponents of t become monomials, and the line and column of a token
    are counted only for an error; the reports at the edges of the literal
    budget and of exponents stay as they were."""

    @pytest.mark.parametrize("poly, report", [
        ("t^1001", "error: syntax error at line 1, column 3: exponent 1001 above "
                   "the degree budget of 1000"),
        ("t^\n1001", "error: syntax error at line 2, column 1: exponent 1001 above "
                     "the degree budget of 1000"),
        ("t^2^2", "error: syntax error at line 1, column 4: expected 'end', found '^'"),
        ("1" + "0" * 3011, "error: syntax error at line 1, column 1: integer literal "
                           "above the coefficient budget of 10000 bits"),
        ("\u00b2", "error: invalid literal for int() with base 10: '\u00b2'"),
        ("t^1\u00b2", "error: invalid literal for int() with base 10: '1\u00b2'"),
        ("t +\n  2*x", "error: syntax error at line 2, column 5: unexpected character 'x'"),
    ])
    def test_error_reports(self, poly, report):
        assert run(["sper-roots", "--poly", poly]) == (report, 1)

    def test_formula_error_reports(self):
        assert run(["sper-set", "--formula", "t^2^2 > 0"]) == (
            "error: syntax error at line 1, column 4: expected a relation, found '^'", 1)
        assert run(["sper-set", "--formula", "t > 0 |\n t^1001 < 0"]) == (
            "error: syntax error at line 2, column 4: exponent 1001 above "
            "the degree budget of 1000", 1)

    def test_values(self):
        assert parse_poly("9" * 2999) == (10 ** 2999 - 1,)
        assert parse_poly("9" * 3001 + "*t") == (0, 10 ** 3001 - 1)
        assert parse_poly("1" + "0" * 3010) == (10 ** 3010,)
        assert parse_poly("0" * 2999 + "7") == (7,)
        assert parse_poly("\u0661") == (1,)
        assert parse_poly("\u0663*t^\u0662 - t^0") == (-1, 0, 3)
        assert parse_poly("t^1000") == (0,) * 1000 + (1,)
        assert parse_poly("2*t^3 +\r\n t ^ 2") == (0, 0, 1, 2)


class TestParseSpace:
    def test_round_trip_random(self):
        rng = Random(61)
        for _ in range(500):
            m = random_poset(rng, 6, min_points=0 if rng.random() < 0.1 else 1)
            name, parsed = parse_space(space_to_text("sp", m))
            assert name == "sp" and parsed == m

    def test_empty_space(self):
        name, m = parse_space("space nothing\npoints:\n")
        assert m.points == ()

    def test_cycle_reported(self, tmp_path):
        (tmp_path / "bad.space").write_text("space bad\npoints: d c b a\n"
                                            "covers: a<b b<c c<a c<d\n")
        (tmp_path / "bad.sheaf").write_text("ring Z\nspace bad\n")
        assert run(["cohomology", "--space", str(tmp_path / "bad.space"),
                    "--sheaf", str(tmp_path / "bad.sheaf")]) == (
            "error: cycle through 'a'", 1)


class TestParseSheaf:
    def test_round_trip_random(self):
        rng = Random(62)
        for _ in range(500):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m)
            text = sheaf_to_text(k, "sp")
            assert parse_sheaf(text, "sp", m) == k

    def test_round_trip_other_rings(self):
        rng = Random(63)
        for ring in (QQ, GF(7)):
            for _ in range(30):
                m = random_poset(rng, 3)
                k = random_sheaf(rng, m, ring=ring)
                assert parse_sheaf(sheaf_to_text(k, "sp"), "sp", m) == k

    def test_validation_failure_names_the_square(self):
        space_text = ("space d\npoints: bot l r top\n"
                      "covers: bot<l bot<r l<top r<top\n")
        _, m = parse_space(space_text)
        sheaf_text = ("ring Z\nspace d\n"
                      "stalk bot: deg 0 rank 1\nstalk l: deg 0 rank 1\n"
                      "stalk r: deg 0 rank 1\nstalk top: deg 0 rank 1\n"
                      "gen bot<l: deg 0 = [[2]]\ngen bot<r: deg 0 = [[1]]\n"
                      "gen l<top: deg 0 = [[1]]\ngen r<top: deg 0 = [[1]]\n")
        from sheafkit.sheaf import PathIndependenceViolation
        with pytest.raises(PathIndependenceViolation) as e:
            parse_sheaf(sheaf_text, "d", m)
        assert "bot" in str(e.value) and "top" in str(e.value)

    def test_validation_failure_names_the_first_gen_line_out_of_the_start(self):
        _, m = parse_space("space d\npoints: bot l r top\n"
                           "covers: bot<l bot<r l<top r<top\n")
        sheaf_text = ("ring Z\nspace d\n"
                      "stalk top: deg 0 rank 1\nstalk l: deg 0 rank 1\n"
                      "stalk r: deg 0 rank 1\nstalk bot: deg 0 rank 1\n"
                      "gen l<top: deg 0 = [[1]]\ngen r<top: deg 0 = [[1]]\n"
                      "gen bot<r: deg 0 = [[1]]\ngen bot<l: deg 0 = [[2]]\n")
        from sheafkit.sheaf import PathIndependenceViolation
        with pytest.raises(PathIndependenceViolation) as e:
            parse_sheaf(sheaf_text, "d", m)
        assert str(e.value) == "line 9: two paths 'bot' -> 'top' compose differently in degree 0"

    def test_each_generization_map_is_checked_once(self, monkeypatch):
        from sheafkit.linalg import ChainMap
        calls = []
        check = ChainMap._validate
        monkeypatch.setattr(ChainMap, "_validate", lambda g: calls.append(1) or check(g))
        rng = Random(64)
        gens = missing = 0
        for _ in range(30):
            m = random_poset(rng, 6, min_points=4)
            text = sheaf_to_text(random_sheaf(rng, m, max_pieces=3), "sp")
            calls.clear()
            parse_sheaf(text, "sp", m)
            assert len(calls) == text.count("\ngen ")
            gens += len(calls)
            missing += len(m.covers) - len(calls)
        assert gens >= 20 and missing >= 20

    def test_non_commuting_gen_report(self, tmp_path):
        (tmp_path / "d.space").write_text("space d\npoints: bot l\ncovers: bot<l\n")
        (tmp_path / "d.sheaf").write_text(
            "ring Z\nspace d\nstalk bot: deg 0 rank 1\n"
            "stalk l: deg 0 rank 1; deg 1 rank 1; d_0 = [[1]]\n"
            "gen bot<l: deg 0 = [[1]]\n")
        for cmd in ("cohomology", "chi"):
            assert run([cmd, "--space", str(tmp_path / "d.space"),
                        "--sheaf", str(tmp_path / "d.sheaf")]) == (
                "error: line 5: gen bot<l: does not commute with d in degree 0", 1)

    def test_wrong_space_name(self):
        _, m = parse_space(SIERP)
        with pytest.raises(ParseError):
            parse_sheaf(CONST.replace("space sierp", "space other"), "sierp", m)

    def test_shape_errors(self):
        _, m = parse_space(SIERP)
        bad = CONST.replace("deg 0 = [[1]]", "deg 0 = [[1],[2]]")
        with pytest.raises(ParseError):
            parse_sheaf(bad, "sierp", m)


class TestSheafAndPhiCoeffBudget:
    answer = TestDegreeBudget.answer

    def test_sheaf_scalar(self, tmp_path):
        (tmp_path / "two.space").write_text("space two\npoints: a b\ncovers: a<b\n")

        def cohomology(entry):
            (tmp_path / "k.sheaf").write_text(
                f"ring Q\nspace two\nstalk a: deg 0 rank 1; deg 1 rank 1; d_0 = [[{entry}]]\n")
            return self.answer(["cohomology", "--space", str(tmp_path / "two.space"),
                                "--sheaf", str(tmp_path / "k.sheaf")])

        over = ("error: line 3: scalar above the coefficient budget of 10000 bits", 1)
        assert cohomology("7" * 5000) == over
        assert cohomology("7" * 4000) == over
        assert cohomology("1/-" + "3" * 3500) == over
        assert cohomology(str(2 ** 10000)) == over
        assert cohomology(str(2 ** 10000 - 1))[1] == 0
        assert cohomology("0" * 5000 + "3/" + "0" * 5000 + "2")[1] == 0
        assert cohomology("1/0") == ("error: line 3: bad scalar '1/0': Fraction(1, 0)", 1)
        _, m = parse_space(SIERP)
        with pytest.raises(ParseError, match="^line 5: scalar above"):
            parse_sheaf(CONST.replace("[[1]]", f"[[-{2 ** 10000}]]"), "sierp", m)

    def test_fp_fraction(self, tmp_path):
        """In an F p file a/b is a * b^-1 mod p; p must not divide b."""
        (tmp_path / "two.space").write_text("space two\npoints: a b\ncovers: a<b\n")

        def cohomology(entry):
            (tmp_path / "k.sheaf").write_text(
                f"ring F 5\nspace two\nstalk a: deg 0 rank 1; deg 1 rank 1; d_0 = [[{entry}]]\n")
            return self.answer(["cohomology", "--space", str(tmp_path / "two.space"),
                                "--sheaf", str(tmp_path / "k.sheaf")])

        assert cohomology("1/2") == cohomology("3") == ("", 0)
        assert cohomology("0/2") == ("H^0: F_5\nH^1: F_5", 0)
        assert cohomology("1/5") == (
            "error: line 3: bad scalar '1/5': denominator 5 is not invertible mod 5", 1)

    def test_phi_value(self, tmp_path):
        (tmp_path / "sierp.space").write_text(SIERP)
        assert self.answer(["realize", "--space", str(tmp_path / "sierp.space"),
                            "--phi", "s=1 eta=" + "9" * 5000]) == (
            "error: value for 'eta' above the coefficient budget of 10000 bits", 1)
        _, m = parse_space(SIERP)
        with pytest.raises(ParseError, match="^value for 's' above"):
            parse_phi(f"s={-2 ** 10000} eta=0", m)
        assert parse_phi(f"s={1 - 2 ** 10000} eta=0", m)("s") == 1 - 2 ** 10000
        with pytest.raises(ParseError, match="^value 'x' for 's' is not an integer"):
            parse_phi("s=x eta=0", m)


class TestParsePhi:
    def test_round_trip_random(self):
        rng = Random(64)
        for _ in range(500):
            m = random_poset(rng, 6)
            phi = random_cons_function(rng, m)
            assert parse_phi(str(phi), m) == phi

    def test_missing_point(self):
        _, m = parse_space(SIERP)
        with pytest.raises(ParseError):
            parse_phi("s=1", m)


class TestParseMap:
    def test_embedded_target(self):
        _, m = parse_space("space u\npoints: eta\n")
        name, tgt_name, f = parse_map(
            "map j\ntarget sierp\npoints: s eta\ncovers: s<eta\nsends: eta->eta\n", m)
        assert name == "j" and tgt_name == "sierp"
        assert f("eta") == "eta"

    def test_non_monotone_rejected(self):
        _, m = parse_space(SIERP)
        with pytest.raises(Exception):
            parse_map("map f\ntarget c\npoints: x y\ncovers: x<y\n"
                      "sends: s->y eta->x\n", m)


# sha256 of the report of `sper-roots --poly "(t+1)^1000 - 2^1000"` and of
# the concatenated `sper-push` reports of push_golden_argvs(), both recorded
# before image polynomials became resultants and before the Sturm counts at
# the Cauchy bound were read off the leading coefficients
ROOTS_1000_DIGEST = "17cb4c5cd4cbf9d6d95bd2d1b2ff5afd04cf1887cf12871b299e0870f8bf4d85"
PUSH_DIGEST = "f6952e07f9b7c2c019fef34611e9dd318591c1854a3f333a1f698cc69b3a36b2"
HUGE_BOUND_DIGESTS = {
    "sper-set": "70a9646360cc29334d00908e94dacf349dd328e2c6ef849c72966c8a32c28b09",
    "sper-cells": "2f9475955db063a23469de9653b13a0388212ff11ca50d666c9163cf5663b4da",
}


def push_golden_argvs():
    """Seeded `sper-push` command lines: maps of degree 2-6, from degree 3 on
    with at least one irrational real critical point, over formulas whose
    quadratic atoms have irrational roots, with a random phi."""
    rng = Random(83)
    out = []
    for i in range(40):
        deg = 2 + i % 5
        while True:
            p = tuple(rng.randint(-3, 3) for _ in range(deg)) + (rng.choice((-2, -1, 1, 2)),)
            crit = ip.isolate_real_roots(ip.deriv(p))
            if deg == 2 or any(e[0] == "interval" for e in crit):
                break
        atoms = []
        for _ in range(rng.randint(1, 2)):
            while True:
                q = (rng.randint(-6, 6), rng.randint(-4, 4), rng.choice((-3, -1, 1, 2)))
                disc = q[1] ** 2 - 4 * q[0] * q[2]
                if disc > 0 and isqrt(disc) ** 2 != disc:
                    break
            atoms.append(f"{ip.to_str(q)} {rng.choice(('<', '<=', '=', '!=', '>'))} 0")
        formula = rng.choice((" & ", " | ")).join(atoms)
        cp = cell_poset(from_formula(parse_formula(formula)))
        phi = " ".join(f"{x}={rng.randint(-2, 2)}" for x in cp.space.points)
        out.append(["sper-push", "--poly", ip.to_str(p), "--formula", formula, "--phi", phi])
    return out


class TestCommands:
    def test_cohomology_golden(self, tmp_path):
        (tmp_path / "s.space").write_text(SIERP)
        (tmp_path / "k.sheaf").write_text(CONST)
        text, code = run(["cohomology", "--space", str(tmp_path / "s.space"),
                          "--sheaf", str(tmp_path / "k.sheaf")])
        assert (text, code) == ("H^0: Z", 0)

    def test_cohomology_json(self, tmp_path):
        (tmp_path / "s.space").write_text(SIERP)
        (tmp_path / "k.sheaf").write_text(CONST)
        text, code = run(["cohomology", "--space", str(tmp_path / "s.space"),
                          "--sheaf", str(tmp_path / "k.sheaf"), "--json"])
        assert code == 0
        assert json.loads(text) == {
            "cohomology": {"0": {"free_rank": 1, "invariant_factors": []}}}

    def test_chi_of_zero_sheaf(self, tmp_path):
        (tmp_path / "s.space").write_text(SIERP)
        (tmp_path / "z.sheaf").write_text("ring Z\nspace sierp\n")
        text, code = run(["chi", "--space", str(tmp_path / "s.space"),
                          "--sheaf", str(tmp_path / "z.sheaf")])
        assert (text, code) == ("phi: eta=0 s=0", 0)

    def test_realize_round_trip(self, tmp_path):
        (tmp_path / "s.space").write_text(SIERP)
        text, code = run(["realize", "--space", str(tmp_path / "s.space"),
                          "--phi", "s=-2 eta=3"])
        assert (text, code) == ("phi: eta=3 s=-2", 0)

    def test_sper_set_golden(self):
        text, code = run(["sper-set", "--formula", "t^2 - 2 < 0"])
        assert code == 0
        assert text == (
            "cells: 5\n"
            "(-inf,root(t^2 - 2, -3, 0)) out\n"
            "{root(t^2 - 2, -3, 0)} out\n"
            "(root(t^2 - 2, -3, 0),root(t^2 - 2, 0, 3)) in\n"
            "{root(t^2 - 2, 0, 3)} out\n"
            "(root(t^2 - 2, 0, 3),inf) out")

    def test_sper_push_golden(self):
        text, code = run(["sper-push", "--poly", "t^2"])
        assert code == 0
        assert text == (
            "(-inf,root(t, -1, 1)) = 0\n"
            "{root(t, -1, 1)} = 1\n"
            "(root(t, -1, 1),inf) = 2")

    def test_sper_cells_report(self):
        text, code = run(["sper-cells", "--formula", "t = 0"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "space cells"
        assert lines[1] == "points: c00 c01 c02"
        assert lines[2] == "covers: c01<c00 c01<c02"
        assert lines[-1] == "dim: 1"

    def test_sper_roots_golden(self):
        text, code = run(["sper-roots", "--poly", "t^3 - 2*t"])
        assert code == 0
        assert text == ("roots: 3\n"
                        "root(t^3 - 2*t, -3, -3/4)\n"
                        "root(t, -1, 1)\n"
                        "root(t^3 - 2*t, 3/4, 3)")

    def test_sper_roots_with_a_huge_cauchy_bound(self):
        # the Cauchy bound of the squarefree part is about 2^995, so any sign
        # evaluation at it works on million-bit integers
        start = time.perf_counter()
        text, code = run(["sper-roots", "--poly", "(t+1)^1000 - 2^1000"])
        assert time.perf_counter() - start < 2
        assert code == 0 and text.startswith("roots: 2\n")
        assert hashlib.sha256(text.encode()).hexdigest() == ROOTS_1000_DIGEST

    @pytest.mark.parametrize("command", sorted(HUGE_BOUND_DIGESTS))
    def test_sper_set_and_cells_with_a_huge_cauchy_bound(self, command):
        # signs on the unbounded cells come from leading terms, so nothing is
        # evaluated near the Cauchy bound of about 2^995
        start = time.perf_counter()
        text, code = run([command, "--formula", "(t+1)^1000 - 2^1000 < 0"])
        assert time.perf_counter() - start < 3
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == HUGE_BOUND_DIGESTS[command]

    def test_huge_bound_cells_within_a_memory_ceiling(self, run_child):
        # kept refinements live as long as their roots; the peak resident set
        # (VmHWM) of a fresh interpreter running the huge-bound cell
        # decomposition stays under 40 MB (about 24 MB when this bound was
        # set)
        got = run_child("""
            from sheafkit.cli import run
            text, code = run(['sper-cells', '--formula', '(t+1)^1000 - 2^1000 < 0'])
            result["code"] = code
        """, timeout=60)
        assert got["code"] == 0
        assert got["rss_mb"] < 40

    @pytest.mark.parametrize("formula, marks", [
        ("(t+1)^1000 - 2^1000 < 0 & t^2 - 2 > 0", ["out", "out", "in", "out", "out"]),
        ("(t+1)^1000 - 2^1000 >= 0 | t = 0", ["in", "in", "out", "in", "out", "in", "in"]),
    ])
    def test_sper_set_separating_roots_behind_a_huge_cauchy_bound(self, run_child, formula,
                                                                  marks):
        # the roots -3 and 1 of (t+1)^1000 - 2^1000 start on intervals out to
        # about 2^999; halvings beyond the root bound read the leading term
        # and shed common powers of two, so both formulas take about 2.5 s
        # (2892 s and over 300 s before), each in a fresh interpreter
        got = run_child("""
            import sys, time
            from sheafkit.cli import run
            start = time.perf_counter()
            text, code = run(['sper-set', '--formula', sys.argv[1]])
            result.update(code=code, seconds=time.perf_counter() - start,
                          marks=[line.rsplit(' ', 1)[1] for line in text.split('\\n')[1:]])
        """, formula)
        assert got["code"] == 0 and got["marks"] == marks
        assert got["seconds"] < 20

    @pytest.mark.parametrize("poly, formula, seconds", [
        # a degree-9 map over a degree-7 atom: 1.4 s while every fiber sum
        # built a fiber polynomial of degree up to 72, 0.02 s as one sweep
        ("3*t^9 - 2*t^7 + t^4 - 5*t + 1", "t^7 - 3*t^5 + 2*t^2 - 1 > 0 & 2*t^3 - t - 1 != 0",
         0.5),
        # 5.5 s with fiber polynomials, 0.64 s as one sweep, nearly all of it
        # the image polynomial of the degree-40 atom
        ("t^3 - t", "(t+1)^40 - 2^40 < 0", 3),
    ])
    def test_sper_push_as_one_sweep(self, run_child, poly, formula, seconds):
        # each in a fresh interpreter; the sweep over the monotone pieces
        # builds no fiber polynomial
        got = run_child("""
            import sys, time
            from sheafkit.cli import run
            start = time.perf_counter()
            text, code = run(['sper-push', '--poly', sys.argv[1], '--formula', sys.argv[2]])
            result.update(code=code, seconds=time.perf_counter() - start,
                          values=[line.rsplit(' ', 1)[1] for line in text.split('\\n')])
        """, poly, formula)
        assert got["code"] == 0
        assert got["values"][:9] == ["1", "1", "1", "2", "3", "3", "3", "2", "1"]
        assert got["seconds"] < seconds

    def test_sper_push_identity_over_a_degree_1000_atom(self, run_child):
        # the image polynomials of the identity map come in closed form: about
        # 2 s on a 2-vCPU VM, where the Bareiss determinant of the 1001 x 1001
        # Sylvester matrix gave no result within 100 s; in a fresh interpreter
        got = run_child("""
            import time
            from sheafkit.cli import run
            start = time.perf_counter()
            text, code = run(['sper-push', '--poly', 't',
                              '--formula', '(t+1)^1000 - 2^1000 >= 0 | t = 0'])
            result.update(code=code, seconds=time.perf_counter() - start,
                          values=[line.rsplit(' ', 1)[1] for line in text.split('\\n')])
        """)
        assert got["code"] == 0
        # the identity pushes the constant 1 forward onto the same 7 cells
        assert got["values"] == ["1"] * 7
        assert got["seconds"] < 20

    def test_sper_push_golden_digest(self, monkeypatch):
        calls = []
        image = ip.image_defining_poly
        monkeypatch.setattr(ip, "image_defining_poly",
                            lambda a, p: calls.append((a, p)) or image(a, p))
        h = hashlib.sha256()
        pairs = set()
        for argv in push_golden_argvs():
            del calls[:]
            text, code = run(argv)
            assert code == 0
            h.update(f"{argv}\n{text}\n".encode())
            # the roots of one polynomial share its image polynomial
            assert len(calls) == len(set(calls))
            pairs.update(calls)
        # irrational upstream roots and irrational critical points both ask
        # for image polynomials
        assert len(pairs) >= 85 and max(ip.degree(a) for a, _ in pairs) >= 4
        assert h.hexdigest() == PUSH_DIGEST

    def test_parse_error_exit_code(self, tmp_path):
        (tmp_path / "s.space").write_text(SIERP)
        (tmp_path / "bad.sheaf").write_text("ring Z\nspace sierp\nstalk zz: deg 0 rank 1\n")
        text, code = run(["cohomology", "--space", str(tmp_path / "s.space"),
                          "--sheaf", str(tmp_path / "bad.sheaf")])
        assert code == 1 and "zz" in text

    def _cohomology(self, tmp_path, sheaf_text):
        (tmp_path / "s.space").write_text(SIERP)
        (tmp_path / "k.sheaf").write_text(sheaf_text)
        return run(["cohomology", "--space", str(tmp_path / "s.space"),
                    "--sheaf", str(tmp_path / "k.sheaf")])

    def test_negative_rank_is_an_error(self, tmp_path):
        text, code = self._cohomology(
            tmp_path, "ring Z\nspace sierp\nstalk s: deg 0 rank -1\n")
        assert code == 1
        assert text.startswith("error: ") and "negative rank" in text
        assert "\n" not in text

    def test_non_integer_degree_is_an_error(self, tmp_path):
        text, code = self._cohomology(
            tmp_path, "ring Z\nspace sierp\nstalk s: deg x rank 1\n")
        assert (text, code) == ("error: line 3: 'x' is not an integer", 1)

    def test_degree_outside_window_is_an_error(self, tmp_path):
        text, code = self._cohomology(
            tmp_path, "ring Z\nspace sierp\nstalk s: deg 20 rank 1\n")
        assert code == 1
        assert text.startswith("error: ") and "degree 20" in text

    @pytest.mark.parametrize("stalk, bracket", [
        # a bracket inside a row
        ("stalk s: deg 1 rank 2; d_0 = [[[1]]]", "["),
        # a bracket outside a row
        ("stalk s: deg 0 rank 1; deg 1 rank 2; d_0 = [[1]][]", "]"),
    ])
    def test_stray_bracket_in_matrix_is_an_error(self, tmp_path, stalk, bracket):
        text, code = self._cohomology(tmp_path, f"ring Z\nspace sierp\n{stalk}\n")
        assert (text, code) == (f"error: line 3: unexpected {bracket!r} in matrix literal", 1)

    def test_truncated_gen_item_is_an_error(self, tmp_path):
        text, code = self._cohomology(tmp_path, CONST + "gen s<eta: deg 0 = [[1]]; deg\n")
        assert code == 1 and text.startswith("error: ")

    def test_linalg_failure_is_an_internal_error(self, tmp_path, monkeypatch):
        def broken(c):
            raise LinalgError("image does not lie in the kernel; d^2 != 0?")

        monkeypatch.setattr("sheafkit.cli.homology", broken)
        text, code = self._cohomology(tmp_path, CONST)
        assert (text, code) == (
            "internal invariant failure: image does not lie in the kernel; d^2 != 0?", 2)

    def test_rank_100000_stalk(self, tmp_path):
        # each of the 100000 labels reads a column of a zero differential, so
        # indexing every column on each read would be quadratic
        (tmp_path / "two.space").write_text("space two\npoints: a b\ncovers: a<b\n")
        (tmp_path / "k.sheaf").write_text("ring Z\nspace two\nstalk a: deg 0 rank 100000\n")
        start = time.perf_counter()
        text, code = run(["cohomology", "--space", str(tmp_path / "two.space"),
                          "--sheaf", str(tmp_path / "k.sheaf")])
        assert time.perf_counter() - start < 10
        assert (text, code) == ("H^0: Z^100000", 0)

    @pytest.mark.parametrize("stalks, line", [
        ("stalk a: deg 0 rank 1000000000000\n", 3),
        ("stalk a: deg 0 rank 60000\nstalk b: deg 0 rank 30000; deg 1 rank 10001\n", 4),
    ])
    def test_stalk_ranks_above_the_budget(self, tmp_path, stalks, line):
        (tmp_path / "two.space").write_text("space two\npoints: a b\ncovers: a<b\n")
        (tmp_path / "k.sheaf").write_text("ring Z\nspace two\n" + stalks)
        start = time.perf_counter()
        text, code = run(["cohomology", "--space", str(tmp_path / "two.space"),
                          "--sheaf", str(tmp_path / "k.sheaf")])
        assert time.perf_counter() - start < 1
        assert (text, code) == (
            f"error: line {line}: stalk ranks above the rank budget of {MAX_STALK_RANK}", 1)

    def test_a_repeated_rank_item_counts_once(self):
        _, m = parse_space("space two\npoints: a b\ncovers: a<b\n")
        k = parse_sheaf("ring Z\nspace two\nstalk a: deg 0 rank 60000\n"
                        "stalk a: deg 0 rank 60000\n", "two", m)
        assert k.stalks["a"].rank(0) == 60000

    def test_large_prime_field_is_fast(self, tmp_path):
        start = time.perf_counter()
        text, code = self._cohomology(
            tmp_path, CONST.replace("ring Z", "ring F 1000000000000000000000007"))
        assert time.perf_counter() - start < 1.0
        assert (text, code) == ("H^0: F_1000000000000000000000007", 0)

    def test_prime_beyond_budget_is_an_error(self, tmp_path):
        text, code = self._cohomology(
            tmp_path, CONST.replace("ring Z", "ring F 10000000000000000000000013"))
        assert code == 1 and text.startswith("error: bad prime for F")

    def test_missing_file_exit_code(self):
        text, code = run(["cohomology", "--space", "/nonexistent.space",
                          "--sheaf", "/nonexistent.sheaf"])
        assert code == 1

    def test_usage_error_is_a_validation_error(self, capsys):
        _, code = run(["bogus-command"])
        capsys.readouterr()
        assert code == 1

    def test_determinism(self, tmp_path):
        (tmp_path / "s.space").write_text(SIERP)
        (tmp_path / "k.sheaf").write_text(CONST)
        args = ["decompose", "--space", str(tmp_path / "s.space"),
                "--sheaf", str(tmp_path / "k.sheaf")]
        assert run(args) == run(args)
        assert run(["sper-roots", "--poly", "t^3 - 2*t"]) == \
            run(["sper-roots", "--poly", "t^3 - 2*t"])

    def test_basechange_report(self, tmp_path):
        (tmp_path / "u.space").write_text("space u\npoints: eta\n")
        (tmp_path / "k.sheaf").write_text("ring Z\nspace u\nstalk eta: deg 0 rank 1\n")
        (tmp_path / "j.map").write_text(
            "map j\ntarget sierp\npoints: s eta\ncovers: s<eta\nsends: eta->eta\n")
        text, code = run(["basechange", "--space", str(tmp_path / "u.space"),
                          "--sheaf", str(tmp_path / "k.sheaf"),
                          "--map", str(tmp_path / "j.map")])
        assert code == 0
        assert "point eta: iso" in text
        assert "point s: not iso" in text
        assert "locus: eta" in text
        assert "locus open: yes" in text
        assert "locus closed: no" in text

    def test_basechange_builds_only_the_kernels(self, tmp_path):
        # constant Z in degree 10 on a chain of 8 points: its whole section
        # complex reaches degree 17.  Along the constant map to a point the
        # kernel is zero, so no complex the command builds leaves the degree
        # window; along the identity the kernel at x0 does.
        pts = [f"x{i}" for i in range(8)]
        covers = " ".join(f"x{i}<x{i + 1}" for i in range(7))
        (tmp_path / "c.space").write_text(f"space c\npoints: {' '.join(pts)}\ncovers: {covers}\n")
        (tmp_path / "k.sheaf").write_text(
            "ring Z\nspace c\n" + "".join(f"stalk {p}: deg 10 rank 1\n" for p in pts)
            + "".join(f"gen x{i}<x{i + 1}: deg 10 = [[1]]\n" for i in range(7)))
        (tmp_path / "pt.map").write_text(
            "map f\ntarget pt\npoints: *\nsends: " + " ".join(f"{p}->*" for p in pts) + "\n")
        (tmp_path / "id.map").write_text(
            f"map f\ntarget c\npoints: {' '.join(pts)}\ncovers: {covers}\nsends: "
            + " ".join(f"{p}->{p}" for p in pts) + "\n")
        args = ["basechange", "--space", str(tmp_path / "c.space"),
                "--sheaf", str(tmp_path / "k.sheaf"), "--map"]
        assert run(args + [str(tmp_path / "pt.map")]) == (
            "point *: iso\nlocus: *\nlocus open: yes\nlocus closed: yes", 0)
        assert run(args + [str(tmp_path / "id.map")]) == (
            "error: degree 17 outside [-16, 16]", 1)

    def test_pushforward_output_parses_back(self, tmp_path):
        (tmp_path / "u.space").write_text("space u\npoints: eta\n")
        (tmp_path / "k.sheaf").write_text("ring Z\nspace u\nstalk eta: deg 0 rank 1\n")
        (tmp_path / "j.map").write_text(
            "map j\ntarget sierp\npoints: s eta\ncovers: s<eta\nsends: eta->eta\n")
        text, code = run(["pushforward", "--space", str(tmp_path / "u.space"),
                          "--sheaf", str(tmp_path / "k.sheaf"),
                          "--map", str(tmp_path / "j.map")])
        assert code == 0
        _, m = parse_space(SIERP)
        k = parse_sheaf(text + "\n", "sierp", m)
        assert not k.stalks["s"].is_zero()

    def test_selftest_smoke(self):
        text, code = run(["selftest", "--seed", "1"])
        assert code == 0
        assert text.splitlines()[-1].endswith("0 fail")

    def test_selftest_seed_0_report(self):
        assert run(["selftest", "--seed", "0"]) == ("\n".join([
            "snf: 500 pass, 0 fail",
            "cohomological-dimension: 60 pass, 0 fail",
            "localization: 40 pass, 0 fail",
            "chi-realize: 60 pass, 0 fail",
            "euler-factorization: 30 pass, 0 fail",
            "open-base-change: 30 pass, 0 fail",
            "conservativity: 30 pass, 0 fail",
            "sper-boolean: 25 pass, 0 fail",
            "sign-multiplicativity: 40 pass, 0 fail",
            "hom-tensor-adjunction: 40 pass, 0 fail",
            "formula-round-trip: 40 pass, 0 fail",
            "projection-formula: 40 pass, 0 fail",
            "total: 935 pass, 0 fail",
        ]), 0)


class TestUsageErrors:
    """Usage errors get the one-line report and exit 1, with nothing on
    stderr; --help still prints the help and exits 0."""

    def test_one_line_report(self, tmp_path, capsys):
        space = tmp_path / "s.space"
        space.write_text(SIERP)
        assert run(["realize", "--space", str(space), "--phi", "-x"]) == (
            "error: argument --phi: expected one argument", 1)
        assert run(["sper-roots", "--poly", "t", "--bogus"]) == (
            "error: unrecognized arguments: --bogus", 1)
        assert run(["sper-roots"]) == (
            "error: the following arguments are required: --poly", 1)
        text, code = run(["no-such-command"])
        assert code == 1 and text.startswith("error: argument command: invalid choice")
        assert "\n" not in text
        assert capsys.readouterr().err == ""

    def test_help_exits_zero(self, capsys):
        assert run(["sper-roots", "--help"]) == ("", 0)
        assert "--poly" in capsys.readouterr().out


class TestErrorsNameTheirLine:
    """Matrix-literal and construction errors of a sheaf file name the line
    of their item, or the first line of their point or cover."""

    HEAD = "ring Z\nspace sierp\n"

    @pytest.mark.parametrize("body, message", [
        # matrix literals and scalars: the line of the literal
        ("stalk s: deg 0 rank 1\nstalk eta: d_0 = 1\n",
         "line 4: matrix literal must be bracketed, got ' 1'"),
        ("stalk s: deg 0 rank 1\nstalk eta: d_0 = [[1]\n",
         "line 4: unbalanced brackets in matrix literal ' [[1]'"),
        ("\nstalk s: d_0 = [[1],[1,2]]\n",
         "line 4: ragged matrix literal ' [[1],[1,2]]'"),
        ("stalk s: d_0 = [[x]]\n",
         "line 3: bad scalar 'x': invalid literal for int() with base 10: 'x'"),
        # a matrix of the wrong shape: the line of its item
        ("stalk s: deg 0 rank 1\nstalk s: d_0 = [[1]]\n",
         "line 4: stalk 's': d_0 must be 0x1"),
        ("stalk s: deg 0 rank 1\nstalk eta: deg 0 rank 1\n"
         "gen s<eta: deg 1 = []\ngen s<eta: deg 0 = [[1,2]]\n",
         "line 6: gen s<eta: deg 0 matrix must be 1x1"),
        # a stalk or a generization map that fails its own check: the
        # first line of its point or cover
        ("stalk s: deg 0 rank 1; deg 1 rank 1; deg 2 rank 1\n"
         "stalk eta: deg 0 rank 1\nstalk s: d_0 = [[1]]; d_1 = [[1]]\n",
         "line 3: stalk 's': d_1 . d_0 != 0"),
        ("stalk eta: deg 0 rank 1\n# the bottom point\nstalk s: deg 0 rank -1\n",
         "line 5: stalk 's': negative rank -1 in degree 0"),
        ("stalk s: deg 20 rank 1\n",
         "line 3: stalk 's': degree 20 outside [-16, 16]"),
        ("stalk s: deg 0 rank 1\nstalk eta: deg 0 rank 1; deg 1 rank 1\n"
         "gen s<eta: deg 1 = []\nstalk eta: d_0 = [[1]]\ngen s<eta: deg 0 = [[1]]\n",
         "line 5: gen s<eta: does not commute with d in degree 0"),
    ])
    def test_message(self, body, message):
        _, m = parse_space(SIERP)
        with pytest.raises(ParseError) as e:
            parse_sheaf(self.HEAD + body, "sierp", m)
        assert str(e.value) == message


class TestSpaceAndMapErrorsNameTheirLine:
    """Errors that the space or map is built to find after parsing name the
    'points:', 'covers:' or 'sends:' line they come from.  A cycle through
    several covers names no line."""

    @pytest.mark.parametrize("text, message", [
        ("space a\npoints: a b a\ncovers: a<b\n",
         "line 2: duplicate point identifiers"),
        ("space a\npoints: a b\n\ncovers: a<b\ncovers: b<c a<d\n",
         "line 5: relation 'b'<'c' mentions an unknown point"),
        ("space a\n# loops\npoints: a b\ncovers: a<b b<b\n",
         "line 4: 'b' < 'b'"),
        ("space a\npoints: a b c\ncovers: a<b\ncovers: b<c c<a\n",
         "cycle through 'a'"),
    ])
    def test_space(self, tmp_path, text, message):
        with pytest.raises(SpaceError) as e:
            parse_space(text)
        assert str(e.value) == message
        (tmp_path / "a.space").write_text(text)
        (tmp_path / "a.sheaf").write_text("ring Z\nspace a\n")
        assert run(["chi", "--space", str(tmp_path / "a.space"),
                    "--sheaf", str(tmp_path / "a.sheaf")]) == (f"error: {message}", 1)

    TARGET = "map f\ntarget t\npoints: x y\ncovers: x<y\n"

    @pytest.mark.parametrize("body, message", [
        ("sends: s->x\n", "line 5: map not total: missing ['eta']"),
        ("sends: s->x\nsends: eta->y\nsends:\n", None),
        ("sends: s->x\n\nsends: eta->z\n", "line 7: unknown target point 'z'"),
        ("sends: s->x zz->y eta->y\n", "line 5: unknown source point 'zz'"),
        ("sends: eta->y s->x\nsends: s->q\n", "line 6: unknown target point 'q'"),
        ("", "map not total: missing ['eta', 's']"),
        ("sends: s->y eta->x\n", "not monotone on 's' < 'eta'"),
    ])
    def test_map(self, body, message):
        _, m = parse_space(SIERP)
        if message is None:
            assert parse_map(self.TARGET + body, m)[2]("eta") == "y"
            return
        with pytest.raises(SpaceError) as e:
            parse_map(self.TARGET + body, m)
        assert str(e.value) == message

    def test_embedded_target(self):
        _, m = parse_space(SIERP)
        with pytest.raises(SpaceError) as e:
            parse_map("map f\ntarget t\npoints: x y x\nsends: s->x eta->x\n", m)
        assert str(e.value) == "line 3: duplicate point identifiers"
        with pytest.raises(SpaceError) as e:
            parse_map("map f\ntarget t\npoints: x y\ncovers: x<y y<x\n", m)
        assert str(e.value) == "cycle through 'x'"


def dense_matrix_str(m):
    """The report text of m from its dense grid, zeros included."""
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in m.entries) + "]"


class TestMatrixStr:
    def test_sparse_rows_against_the_dense_grid(self):
        rng = Random(4417)
        draws = {ZZ: lambda: rng.randint(-9, 9),
                 QQ: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                 GF(7): lambda: rng.randint(-9, 9)}
        shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 5), (5, 1)]
        texts = []
        zero_lines = 0  # nonzero matrices with a zero row and a zero column
        for ring, draw in draws.items():
            for _ in range(60):
                rows, cols = rng.choice(shapes) if rng.random() < 0.3 else (
                    rng.randint(1, 7), rng.randint(1, 7))
                density = rng.choice((0.15, 0.5, 1.0))
                # about a third keep one row and one column empty
                blank_i, blank_j = ((rng.randrange(rows or 1), rng.randrange(cols or 1))
                                    if rng.random() < 1 / 3 else (-1, -1))
                entries = [(i, j, draw()) for i in range(rows) for j in range(cols)
                           if rng.random() < density and blank_i != i and blank_j != j]
                m = Matrix.from_entries(ring, rows, cols, entries)
                assert _matrix_str(m) == dense_matrix_str(m)
                texts.append(_matrix_str(m))
                zero_lines += (not m.is_zero() and not all(m.row(i) for i in range(rows))
                               and not all(m.col(j) for j in range(cols)))
        joined = "".join(texts)
        assert "-" in joined and "/" in joined and zero_lines >= 20
        assert "[]" in texts and "[[],[],[],[]]" in texts and "[[0,0,0,0,0]]" in texts

    def test_small_examples(self):
        assert _matrix_str(Matrix.zeros(ZZ, 0, 3)) == "[]"
        assert _matrix_str(Matrix.zeros(ZZ, 2, 0)) == "[[],[]]"
        assert _matrix_str(Matrix(QQ, [[0, Fraction(-1, 2)], [0, 0]])) == "[[0,-1/2],[0,0]]"
        assert _matrix_str(Matrix(GF(7), [[-1, 0, 8]])) == "[[6,0,1]]"


# sha256 of the text and JSON reports of pushforward_golden_argvs(),
# recorded while composite generization maps were still built from the
# identity and every report matrix was printed from its dense grid
PUSHFORWARD_DIGEST = "ee33438cb99aca80fcda5eee5bedb8ef76454741cf3e5856975ebf6a7a5ff82e"


def _gauged(rng, k):
    """k with its generization map along x<y scaled by s_y / s_x for random
    units s_p: again a sheaf, with negative entries over Z and fractions
    over Q."""
    ring = k.ring
    units = {ZZ: (-1, 1), QQ: tuple(Fraction(a, b) for a in (-3, -1, 2, 5) for b in (1, 2, 7)),
             GF(7): tuple(range(1, 7))}[ring]
    s = {p: ring.normalize(rng.choice(units)) for p in k.space.points}
    gens = {(x, y): ChainMap(g.source, g.target,
                             {n: m.scale(s[y] * ring.inv(s[x]))
                              for n, m in g.mats.items()}, check=False)
            for (x, y), g in k.gens.items()}
    return SheafComplex(k.space, ring, k.stalks, gens)


def _pushforward_argv(tmp_path, f, k, name="pf"):
    """A pushforward command line of k along f, its files in tmp_path."""
    t = f.target
    files = {"space": space_to_text("src", f.source), "sheaf": sheaf_to_text(k, "src"),
             "map": "\n".join([
                 "map f", "target tgt", "points: " + " ".join(t.points),
                 "covers: " + " ".join(f"{x}<{y}" for x, y in t.covers),
                 "sends: " + " ".join(f"{x}->{y}" for x, y in f.mapping)]) + "\n"}
    argv = ["pushforward"]
    for opt, text in files.items():
        path = tmp_path / f"{name}.{opt}"
        path.write_text(text)
        argv += [f"--{opt}", str(path)]
    return argv


def pushforward_golden_argvs(tmp_path):
    """Seeded pushforward command lines, text and JSON, over Z, Q and F_7,
    on sheaves with generization maps scaled pointwise by units."""
    rng = Random("pushforward-golden")
    for i in range(36):
        ring = (ZZ, QQ, GF(7))[i % 3]
        m = random_poset(rng, 6, min_points=2, edge_prob=0.5)
        k = _gauged(rng, random_sheaf(rng, m, ring, max_pieces=3))
        f = random_monotone_map(rng, m, random_poset(rng, 4))
        args = _pushforward_argv(tmp_path, f, k, str(i))
        yield args
        yield args + ["--json"]


def test_pushforward_golden_digest(tmp_path):
    h = hashlib.sha256()
    fractions = 0
    for argv in pushforward_golden_argvs(tmp_path):
        text, code = run(argv)
        assert code == 0
        fractions += "/" in text
        h.update(f"{argv[-1] == '--json'}\n{text}\n".encode())
    assert fractions >= 5
    assert h.hexdigest() == PUSHFORWARD_DIGEST


LADDER_8_SPACE = "\n".join([
    "space ladder",
    "points: " + " ".join(f"{c}{i}" for i in range(8) for c in "pq"),
    "covers: " + " ".join(f"{c}{i}<{d}{i + 1}" for i in range(7) for c in "pq" for d in "pq"),
]) + "\n"
# random_sheaf(Random(0), ladder of height 8, ZZ, max_pieces=3)
LADDER_8_SHEAF = """ring Z
space ladder
stalk p0: deg 0 rank 2; deg 1 rank 2; d_0 = [[2,-2],[5,-4]]
stalk p1: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
stalk p2: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
stalk p3: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
stalk p4: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
stalk q0: deg 0 rank 2; deg 1 rank 2; d_0 = [[11,-19],[3,-5]]
stalk q1: deg 0 rank 2; deg 1 rank 2; d_0 = [[18,26],[-16,-23]]
stalk q2: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
stalk q3: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
stalk q4: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
stalk q5: deg 0 rank 1; deg 1 rank 1; d_0 = [[2]]
gen p0<p1: deg 0 = [[2,-1]]; deg 1 = [[-3,2]]
gen p0<q1: deg 0 = [[-4,-3],[3,2]]; deg 1 = [[-7,4],[5,-3]]
gen p1<p2: deg 0 = [[1]]; deg 1 = [[1]]
gen p1<q2: deg 0 = [[1]]; deg 1 = [[1]]
gen p2<p3: deg 0 = [[1]]; deg 1 = [[1]]
gen p2<q3: deg 0 = [[1]]; deg 1 = [[1]]
gen p3<p4: deg 0 = [[1]]; deg 1 = [[1]]
gen p3<q4: deg 0 = [[1]]; deg 1 = [[1]]
gen p4<q5: deg 0 = [[1]]; deg 1 = [[1]]
gen q0<p1: deg 0 = [[1,-2]]; deg 1 = [[1,-3]]
gen q0<q1: deg 0 = [[13,-36],[-9,25]]; deg 1 = [[-3,11],[1,-4]]
gen q1<p2: deg 0 = [[7,10]]; deg 1 = [[-1,-2]]
gen q1<q2: deg 0 = [[7,10]]; deg 1 = [[-1,-2]]
gen q2<p3: deg 0 = [[1]]; deg 1 = [[1]]
gen q2<q3: deg 0 = [[1]]; deg 1 = [[1]]
gen q3<p4: deg 0 = [[1]]; deg 1 = [[1]]
gen q3<q4: deg 0 = [[1]]; deg 1 = [[1]]
gen q4<q5: deg 0 = [[1]]; deg 1 = [[1]]
"""
# the map that sends both points of level i to c_i on the chain c0 < ... < c7
LEVEL_MAP = "\n".join([
    "map level", "target chain",
    "points: " + " ".join(f"c{i}" for i in range(8)),
    "covers: " + " ".join(f"c{i}<c{i + 1}" for i in range(7)),
    "sends: " + " ".join(f"{c}{i}->c{i}" for i in range(8) for c in "pq"),
]) + "\n"


def _ladder_pushforward(tmp_path, sheaf_text, *extra):
    """run() of pushforward of a sheaf on the 8-level ladder by levels."""
    argv = ["pushforward"]
    for opt, text in {"space": LADDER_8_SPACE, "sheaf": sheaf_text, "map": LEVEL_MAP}.items():
        (tmp_path / opt).write_text(text)
        argv += [f"--{opt}", str(tmp_path / opt)]
    return run(argv + list(extra))


def test_pushforward_work_counts(tmp_path, monkeypatch):
    """Parsing, validating and pushing forward the ladder sheaf builds no
    identity matrix, and composes and multiplies only nonzero components.
    Building each composite from the identity and multiplying zero
    placeholders made 196 compositions, 316 products and 22 identities;
    path-independence compares at zero stalks made 168 compositions."""
    calls = {"compose": 0, "__matmul__": 0, "identity": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ChainMap, "compose", counted("compose", ChainMap.compose))
    monkeypatch.setattr(Matrix, "__matmul__", counted("__matmul__", Matrix.__matmul__))
    monkeypatch.setattr(Matrix, "identity", staticmethod(counted("identity", Matrix.identity)))
    text, code = _ladder_pushforward(tmp_path, LADDER_8_SHEAF)
    assert code == 0 and text.startswith("ring Z\nspace chain\nstalk c0: deg 0 rank 14")
    assert calls == {"compose": 64, "__matmul__": 164, "identity": 0}


class TestReportBudget:
    BEYOND = ("error: pushforward report of {} matrix entries above the output "
              "budget of {} (--json gives the stalk cohomology)")

    def test_boundary(self, tmp_path, monkeypatch):
        """The ladder pushforward prints 279836 matrix entries: a budget of
        that many passes and one less refuses the text report only."""
        text, code = _ladder_pushforward(tmp_path, LADDER_8_SHEAF)
        assert code == 0
        literals = re.findall(r"\[\[.*?\]\]", text)
        assert sum(len(re.findall(r"-?\d+", m)) for m in literals) == 279836
        monkeypatch.setattr("sheafkit.cli.MAX_REPORT_ENTRIES", 279836)
        assert _ladder_pushforward(tmp_path, LADDER_8_SHEAF) == (text, 0)
        monkeypatch.setattr("sheafkit.cli.MAX_REPORT_ENTRIES", 279835)
        assert _ladder_pushforward(tmp_path, LADDER_8_SHEAF) == (
            self.BEYOND.format(279836, 279835), 1)
        assert _ladder_pushforward(tmp_path, LADDER_8_SHEAF, "--json")[1] == 0

    def test_real_budget(self, tmp_path):
        """A 156-million-character report is refused before it is printed."""
        name, m = parse_space(LADDER_8_SPACE)
        k = random_sheaf(Random(5), m, ZZ, max_pieces=3)
        assert _ladder_pushforward(tmp_path, sheaf_to_text(k, name)) == (
            self.BEYOND.format(78039373, MAX_REPORT_ENTRIES), 1)


def _unshared_sheaf_text(k):
    """``sheaf_to_text`` of k on the space named tgt, with no memo: every
    stalk and generization map formatted where it occurs."""
    lines = [f"ring {ring_to_tokens(k.ring)}", "space tgt"]
    for pt in k.space.points:
        c = k.stalks[pt]
        if not c.is_zero():
            items = [f"deg {n} rank {r}" for n, r in sorted(c.ranks.items())]
            items += [f"d_{n} = {_matrix_str(d)}" for n, d in sorted(c.diffs.items())]
            lines.append(f"stalk {pt}: " + "; ".join(items))
    for (x, y), g in k.gens.items():
        if not g.is_zero():
            items = [f"deg {n} = {_matrix_str(mm)}" for n, mm in sorted(g.mats.items())]
            lines.append(f"gen {x}<{y}: " + "; ".join(items))
    return "\n".join(lines)


class TestSharedStalkReports:
    def test_same_reports_as_per_point(self, tmp_path, per_point_pushforward,
                                       pushforward_cases):
        """Text and --json reports of the shared stalks against the
        per-point pushforward printed and taken homology of point by
        point."""
        for i, (f, k) in enumerate(pushforward_cases(42)):
            want, _, _ = per_point_pushforward(f, k)
            argv = _pushforward_argv(tmp_path, f, k, str(i))
            assert run(argv) == (_unshared_sheaf_text(want), 0)
            cohomology = {str(p): {str(n): _module_json(mod)
                                   for n, mod in sorted(homology(c).items())}
                          for p, c in want.stalks.items()}
            assert run(argv + ["--json"]) == (json.dumps(
                {"pushforward_stalk_cohomology": cohomology}, sort_keys=True), 0)

    def test_each_distinct_stalk_formatted_once(self, tmp_path, monkeypatch):
        """Along a constant map onto a 3-chain the three stalks are one
        complex and the two generization maps one identity: the text report
        prints each matrix three or two times and formats it once, and
        --json takes homology once."""
        import sheafkit.cli as cli
        name, m = parse_space(LADDER_8_SPACE)
        k = parse_sheaf(LADDER_8_SHEAF, name, m)
        chain = parse_space("space c\npoints: a b c\ncovers: a<b b<c\n")[1]
        f = MonotoneMap(m, chain, [(x, "c") for x in m.points])
        out = pushforward(f, k)
        stalk, gen = out.stalks["a"], out.gens[("a", "b")]
        argv = _pushforward_argv(tmp_path, f, k)
        calls = {"_matrix_str": 0, "homology": 0}
        for fn_name in calls:
            def wrapper(*args, _fn=getattr(cli, fn_name), _name=fn_name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cli, fn_name, wrapper)
        text, code = run(argv)
        assert code == 0 and text.count("\nstalk ") == 3 and text.count("\ngen ") == 2
        assert text.count("[[") == 3 * len(stalk.diffs) + 2 * len(gen.mats)
        assert calls["_matrix_str"] == len(stalk.diffs) + len(gen.mats) == 13
        assert run(argv + ["--json"])[1] == 0 and calls["homology"] == 1


# Child-process code for the pushforward ceiling: constant Z on the
# width-2 ladder of height sys.argv[1], pushed along the constant map onto
# the top of a < b < c, its files written to the directory sys.argv[2]; the
# command is sys.argv[3] when given, with no map for cohomology.
PUSHFORWARD_CEILING = """
    import sys, time
    from sheafkit import cli
    height, where = int(sys.argv[1]), sys.argv[2]
    pts = [f"{c}{i}" for i in range(height) for c in "pq"]
    covers = [f"{c}{i}<{d}{i + 1}" for i in range(height - 1) for c in "pq" for d in "pq"]
    files = {
        "space": f"space ladder\\npoints: {' '.join(pts)}\\ncovers: {' '.join(covers)}\\n",
        "sheaf": "ring Z\\nspace ladder\\n" + "".join(f"stalk {p}: deg 0 rank 1\\n" for p in pts)
                 + "".join(f"gen {e}: deg 0 = [[1]]\\n" for e in covers),
        "map": "map const\\ntarget t\\npoints: a b c\\ncovers: a<b b<c\\nsends: "
               + " ".join(f"{p}->c" for p in pts) + "\\n"}
    argv = [sys.argv[3] if len(sys.argv) > 3 else "pushforward"]
    for opt, text in files.items():
        with open(f"{where}/{opt}", "w") as fh:
            fh.write(text)
        if opt != "map" or argv[0] != "cohomology":
            argv += [f"--{opt}", f"{where}/{opt}"]
    start = time.perf_counter()
    text, code = cli.run(argv)
    result.update(seconds=time.perf_counter() - start, code=code, chars=len(text),
                  head=text[:60], error=text if code else None)
"""


class TestPushforwardCeiling:
    def test_height_7(self, run_child, tmp_path):
        """A 9.8-million-character report, each of its three stalks the
        whole section complex of rank 2186: 0.08-0.12 s and 55 MB when the
        bounds were set, 0.13-0.16 s and 57 MB when each stalk was a copy
        of it."""
        got = run_child(PUSHFORWARD_CEILING, 7, tmp_path)
        assert (got["code"], got["chars"]) == (0, 9805136)
        assert got["head"].startswith("ring Z\nspace t\nstalk a: deg 0 rank 14; deg 1 rank 84")
        assert got["seconds"] < 1.5
        assert got["rss_mb"] < 90

    def test_height_8_is_over_the_budget(self, run_child, tmp_path):
        got = run_child(PUSHFORWARD_CEILING, 8, tmp_path)
        assert got["code"] == 1
        assert got["error"] == TestReportBudget.BEYOND.format(41616640, MAX_REPORT_ENTRIES)


class TestChainBudget:
    """A space with more than MAX_CHAINS strict chains is refused before any
    chain is listed."""

    @pytest.mark.parametrize("command", ["cohomology", "pushforward", "basechange"])
    def test_height_16_ladder(self, run_child, tmp_path, command):
        """3^16 - 1 strict chains: cohomology took 21 s and 3.26 GB before
        the budget; the command now reads, validates and refuses in about
        0.02 s, in a child whose peak is about 20 MB."""
        got = run_child(PUSHFORWARD_CEILING, 16, tmp_path, command)
        assert got["code"] == 1
        assert got["error"] == (f"error: {3 ** 16 - 1} strict chains above the chain "
                                f"budget of {MAX_CHAINS}")
        assert got["seconds"] < 1
        assert got["rss_mb"] < 40

    def test_boundary(self, tmp_path, monkeypatch):
        """The height-3 ladder has 3^3 - 1 = 26 strict chains."""
        (tmp_path / "l.space").write_text("space l\npoints: p0 q0 p1 q1 p2 q2\n"
                                          "covers: p0<p1 p0<q1 q0<p1 q0<q1 "
                                          "p1<p2 p1<q2 q1<p2 q1<q2\n")
        (tmp_path / "l.sheaf").write_text("ring Z\nspace l\nstalk p2: deg 0 rank 1\n")
        argv = ["cohomology", "--space", str(tmp_path / "l.space"),
                "--sheaf", str(tmp_path / "l.sheaf")]
        monkeypatch.setattr(sheaf, "MAX_CHAINS", 26)
        assert run(argv) == ("H^2: Z", 0)
        monkeypatch.setattr(sheaf, "MAX_CHAINS", 25)
        assert run(argv) == ("error: 26 strict chains above the chain budget of 25", 1)
