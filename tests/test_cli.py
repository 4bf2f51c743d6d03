import hashlib
import json
import time
from math import isqrt
from random import Random

import pytest

import sheafkit.intpoly as ip
from sheafkit.cli import (
    ParseError, parse_formula, parse_map, parse_phi, parse_poly, parse_sheaf,
    parse_space, run, sheaf_to_text, space_to_text,
)
from sheafkit.randgen import random_cons_function, random_poset, random_sheaf
from sheafkit.linalg import QQ, GF, LinalgError
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

    def test_cycle_reported(self):
        with pytest.raises(Exception):
            parse_space("space bad\npoints: a b\ncovers: a<b b<a\n")


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
        assert cohomology("1/0") == ("error: bad scalar '1/0': Fraction(1, 0)", 1)
        _, m = parse_space(SIERP)
        with pytest.raises(ParseError, match="^line 5: scalar above"):
            parse_sheaf(CONST.replace("[[1]]", f"[[-{2 ** 10000}]]"), "sierp", m)

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

    def test_sper_push_golden_digest(self, monkeypatch):
        calls = []
        image = ip.image_defining_poly
        monkeypatch.setattr(ip, "image_defining_poly",
                            lambda a, p: calls.append(ip.degree(a)) or image(a, p))
        h = hashlib.sha256()
        for argv in push_golden_argvs():
            text, code = run(argv)
            assert code == 0
            h.update(f"{argv}\n{text}\n".encode())
        # irrational upstream roots and irrational critical points both ask
        # for image polynomials
        assert len(calls) >= 100 and max(calls) >= 4
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
