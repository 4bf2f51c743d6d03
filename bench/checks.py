"""Correctness checks on benchmark reports, run outside the timed region.

Every check returns a list of problems; an empty list means the report
passed.  A check that raises is reported as a problem, never propagated,
so a wrong answer is counted and the run goes on.
"""

from __future__ import annotations

import hashlib
import os
import re
from fractions import Fraction

from sheafkit import cli
from sheafkit.k0 import global_euler


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def free_ranks(report: str) -> dict:
    """Degree -> free rank from a ``cohomology`` report over Z."""
    out = {}
    for line in report.splitlines():
        head, _, module = line.partition(": ")
        n = int(head[len("H^"):])
        rank = 0
        for term in module.split(" + "):
            if term == "Z":
                rank += 1
            elif term.startswith("Z^"):
                rank += int(term[2:])
            elif term != "0" and not term.startswith("Z/"):
                raise ValueError(f"unexpected module term {term!r}")
        out[n] = rank
    return out


def _euler(op, report, indir):
    name, m = cli.parse_space(_read(os.path.join(indir, op.argv[2])))
    k = cli.parse_sheaf(_read(os.path.join(indir, op.argv[4])), name, m)
    alt = sum((-1) ** (n % 2) * r for n, r in free_ranks(report).items())
    want = global_euler(k).value
    if alt != want:
        return [f"alternating free rank {alt} != global_euler {want}"]
    return []


def _chi(op, report, indir):
    if report != op.oracle["chi"]:
        return [f"chi report {report!r} != alternating stalk ranks {op.oracle['chi']!r}"]
    return []


def _realize(op, report, indir):
    if report != op.oracle["phi"]:
        return [f"chi(realize(phi)) reported {report!r}, expected {op.oracle['phi']!r}"]
    return []


def _decompose(op, report, indir):
    lines = report.splitlines()
    problems = []
    if lines[-1] != "chi check: ok":
        problems.append(f"decompose chi check line is {lines[-1]!r}")
    want = {p: v for p, v in op.oracle["stalk_chi"].items() if v}
    got = {}
    for line in lines[:-1]:
        m = re.fullmatch(r"piece (\S+): chi=(-?\d+)", line)
        if m and m.group(2) != "0":
            got[m.group(1)] = int(m.group(2))
    if got != want:
        problems.append(f"piece Euler indices {got} != stalk Euler indices {want}")
    return problems


def _sympy_poly(coeffs):
    import sympy
    t = sympy.Symbol("t")
    return sympy.Poly(list(reversed(coeffs)), t, domain="ZZ")


_ROOT = re.compile(r"root\((.*), (-?\d+(?:/\d+)?), (-?\d+(?:/\d+)?)\)")


def _roots(op, report, indir):
    """Root count and interval containment against sympy's isolation."""
    import sympy
    lines = report.splitlines()
    count = int(lines[0][len("roots: "):])
    intervals = []
    for line in lines[1:]:
        m = _ROOT.fullmatch(line)
        if m is None:
            return [f"unparsable root line {line!r}"]
        intervals.append((sympy.Rational(m.group(2)), sympy.Rational(m.group(3))))
    f = _sympy_poly(op.oracle["coeffs"]).sqf_part()
    want = f.count_roots()
    if count != want or len(intervals) != want:
        return [f"{count} roots reported, sympy counts {want}"]
    problems = []
    for i, ((lo, hi), ((a, b), _)) in enumerate(zip(intervals, f.intervals())):
        # refine sympy's isolating interval until it lies inside or outside
        for _ in range(64):
            if lo <= a and b <= hi or b < lo or hi < a:
                break
            a, b = f.refine_root(a, b, eps=(b - a) / 16)
        if not (lo <= a and b <= hi):
            problems.append(f"root {i}: sympy puts it in [{a}, {b}], "
                            f"outside the reported ({lo}, {hi})")
    return problems


def _atoms(tree):
    if tree[0] == "atom":
        return [tree[1]]
    return [c for child in tree[1:] for c in _atoms(child)]


_SIGN_TEST = {"<": lambda s: s < 0, "<=": lambda s: s <= 0, "=": lambda s: s == 0,
              "!=": lambda s: s != 0, ">=": lambda s: s >= 0, ">": lambda s: s > 0}


def _holds(tree, sign_of) -> bool:
    """The formula's truth value, given the sign of each atom polynomial."""
    kind = tree[0]
    if kind == "atom":
        return _SIGN_TEST[tree[2]](sign_of(tree[1]))
    if kind == "!":
        return not _holds(tree[1], sign_of)
    left, right = _holds(tree[1], sign_of), _holds(tree[2], sign_of)
    return left and right if kind == "&" else left or right


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_at(coeffs, x: Fraction) -> int:
    return _sign(sum(c * x ** k for k, c in enumerate(coeffs)))


def _sign_at_inf(coeffs, end: int) -> int:
    """Sign as t goes to +inf (end=1) or -inf (end=-1)."""
    deg = max(k for k, c in enumerate(coeffs) if c)
    return _sign(coeffs[deg]) * (end ** deg)


def _reported_root(text, sympy):
    """(lo, hi) of a printed root; lo == hi for a rational root."""
    m = _ROOT.fullmatch(text)
    t = sympy.Symbol("t")
    poly = sympy.Poly(sympy.sympify(m.group(1).replace("^", "**")), t)
    if poly.degree() == 1:
        r = -Fraction(int(poly.nth(0)), int(poly.nth(1)))
        return r, r
    return Fraction(m.group(2)), Fraction(m.group(3))


def _set_cells(op, report, indir):
    """Cells of ``sper-set`` and ``sper-cells`` reports against the formula.

    Every reported root must be a real root of some atom; with k roots there
    are 2k + 1 cells; the dimension is 1 exactly when k > 0; for
    ``sper-set``, the membership of each interval cell with a rational
    sample between its isolating intervals, and of the two unbounded cells,
    must match the formula evaluated exactly there.
    """
    import sympy
    tree = op.oracle["formula"]
    atoms = [_sympy_poly(coeffs) for coeffs in _atoms(tree)]
    lines = report.splitlines()
    problems = []
    if op.command == "sper-set":
        cells = [line.rsplit(" ", 1) for line in lines[1:]]
        if int(lines[0][len("cells: "):]) != len(cells):
            problems.append(f"{lines[0]!r} but {len(cells)} cell lines")
    else:
        cells = [line.split(" = ", 1)[::-1] for line in lines[3:-1]]
        if len(lines[1].split()) - 1 != len(cells):
            problems.append("cell points and cell lines differ in number")
        dim = f"dim: {1 if len(cells) > 1 else 0}"
        if lines[-1] != dim:
            problems.append(f"{lines[-1]!r} with {len(cells)} cells, expected {dim!r}")
    roots = [_reported_root(mk[1:-1], sympy) for mk, _ in cells[1::2]]
    if len(cells) != 2 * len(roots) + 1:
        problems.append(f"{len(cells)} cells for {len(roots)} roots")
    for lo, hi in roots:
        a, b = sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
        if lo == hi and all(f.eval(a) != 0 for f in atoms):
            problems.append(f"reported root {lo} is not a root of any atom")
        elif lo != hi and all(f.count_roots(a, b) == 0 for f in atoms):
            problems.append(f"no atom root in the reported interval ({lo}, {hi})")
    if op.command != "sper-set":
        return problems
    samples = {0: None, len(cells) - 1: None}
    for j in range(len(roots) - 1):
        if roots[j][1] < roots[j + 1][0]:
            samples[2 * j + 2] = (roots[j][1] + roots[j + 1][0]) / 2
    for pos, x in samples.items():
        if x is None:
            end = -1 if pos == 0 else 1
            want = _holds(tree, lambda c: _sign_at_inf(c, end))
        else:
            want = _holds(tree, lambda c: _sign_at(c, x))
        if (cells[pos][1] == "in") != want:
            problems.append(f"cell {cells[pos][0]} reported {cells[pos][1]}, "
                            f"the formula is {want} there")
    return problems


ORACLES = {"euler": _euler, "chi": _chi, "phi": _realize, "stalk_chi": _decompose,
           "coeffs": _roots, "formula": _set_cells}


def check(op, report: str, code: int, indir: str, expected=None) -> list:
    """Problems with one operation's result.

    ``expected`` is the recorded report digest for this operation, when the
    run uses the seed the digests were recorded with.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {report[:200]!r}")
        return problems
    if expected is not None and digest(report) != expected:
        problems.append("report differs from the recorded report")
    for key, oracle in ORACLES.items():
        if key in op.oracle:
            try:
                problems.extend(oracle(op, report, indir))
            except Exception as e:  # a crashing oracle is a failed check
                problems.append(f"{key} check raised {type(e).__name__}: {e}")
    return problems


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
