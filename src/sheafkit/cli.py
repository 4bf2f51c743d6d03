"""Input languages, command dispatch and deterministic reports.

Text formats:

* polynomials: integer coefficients, variable t, operators + - * ^ with ^
  applied only to literal nonnegative integer exponents, parentheses;
* formulas: atoms "<poly> (<|<=|=|!=|>=|>) 0" combined with & | ! and
  parentheses;
* both nest at most MAX_NESTING = 100 levels, each "(", unary "-" and "!"
  opening one; deeper input is a syntax error;
* both keep every polynomial within degree MAX_POLY_DEGREE = 1000: an
  exponent literal above it, a power whose degree would exceed it, or a
  product whose degree would exceed it is a syntax error, found before the
  power or product is computed;
* both keep coefficients within MAX_COEFF_BITS = 10000 bits: an integer
  literal longer than that, or a power or product whose coefficients could
  exceed it (bounded by the 1-norms of its factors), is a syntax error,
  found before the power or product is computed;
* spaces: "space NAME" / "points: a b c" / "covers: a<b b<c";
* sheaves: "ring Z|Q|F p" / "space NAME" / per point
  "stalk x: deg d rank r; d_d = [[..],[..]]" / per cover
  "gen x<y: deg d = [[..]]" with row-major matrices (one outer bracket
  holding one bracket per row, entries separated by commas; "[]" is the
  empty matrix, and no other bracket may appear), rationals as p/q,
  each numerator and denominator within MAX_COEFF_BITS (in an F p file,
  a/b means a * b^-1 mod p, and a denominator divisible by p is an
  error), and the stalk ranks of the whole file summing to at most
  MAX_STALK_RANK = 100000,
  checked as the stalk lines are read, before any matrix is built;
  degrees lie in [-16, 16] and F p takes primes p below
  3317044064679887385961981 (about 3.3e24), where the deterministic
  primality test is exact;
* maps: "map NAME" / "target NAME" / "points: ..." / "covers: ..." (the
  embedded target space) / "sends: a->x b->y";
* constructible functions: "phi: s=1 eta=0", values within MAX_COEFF_BITS.

Every command parses all of its inputs before computing anything, writes a
byte-deterministic report, and exits 0 on success, 1 on a validation
error, 2 on an internal invariant failure.  A pushforward text report holds
at most MAX_REPORT_ENTRIES = 10**7 matrix entries, or is an error; --json
gives the stalk cohomology at any size.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from . import intpoly as ip
from .k0 import ConsFunction, ConsFunctionError, chi, piece_indices, realize
from .linalg import (
    ChainMap, DegreeOverflow, FGModule, FreeChainComplex, LinalgError, Matrix,
    ScalarRing, ZZ, QQ, GF, homology,
)
from .sheaf import (
    SheafComplex, base_change_locus, cell_decompose, pushforward, rgamma_reduced,
    SheafError,
)
from .space import FinSpec, MonotoneMap, SpaceError, build_space, krull_dim
from .sper import (
    And, Atom, Not, Or, PolyMap, SperError, InconsistentSamples,
    cell_markers, cell_poset, from_formula, push_cons, real_roots,
)


class ParseError(Exception):
    pass


class _TooDeep(ParseError):
    """Nesting past MAX_NESTING; the formula parser does not backtrack on it."""


# ---------------------------------------------------------------------------
# tokenizers


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.value!r})"


def _token_pattern(relops, ops):
    """One match per token, blanks before it included; the groups, tried in
    order: 1 a line break, 2 a digit run, 3 t, 4 a relation, 5 an operator,
    6 the end of the text, 7 any other character.  \\s and \\d match exactly
    the characters of str.isspace and str.isdecimal."""
    return re.compile(rf"[^\S\n]*(?:(\n)|(\d+)|(t)|({relops})|([{ops}])|(\Z)|(.))", re.S)


_POLY_TOKEN = _token_pattern("(?!)", r"-+*^()")
_FORMULA_TOKEN = _token_pattern("<=|>=|!=|[<>=]", r"-+*^()&|!")


def _tokenize(text, formula=False):
    toks = []
    line, line_start, n = 1, 0, len(text)
    for m in (_FORMULA_TOKEN if formula else _POLY_TOKEN).finditer(text):
        k = m.lastindex
        i = m.start(k)
        col = i - line_start + 1
        if k == 5:
            toks.append(_Token(m.group(5), m.group(5), line, col))
        elif k == 2 or k == 7 and text[i].isdigit():
            # a digit run also takes the str.isdigit characters \d misses,
            # which int() then rejects
            j = m.end()
            while j < n and text[j].isdigit():
                j += 1
            value = _budget_int(text[i:j], f"syntax error at line {line}, "
                                f"column {col}: integer literal")
            toks.append(_Token("num", value, line, col))
        elif k == 3:
            toks.append(_Token("t", "t", line, col))
        elif k == 4:
            toks.append(_Token("relop", m.group(4), line, col))
        elif k == 1:
            line, line_start = line + 1, i + 1
        elif k == 7:
            raise ParseError(f"syntax error at line {line}, column {col}: "
                             f"unexpected character {text[i]!r}")
    toks.append(_Token("end", None, line, n - line_start + 1))
    return toks


# Nesting budget of the recursive-descent parsers, far inside Python's
# recursion limit: deeper input is a ParseError, not a RecursionError.
MAX_NESTING = 100

# Degree budget of parsed polynomials, checked before a power or product is
# computed, so that a large exponent is a ParseError rather than a hang.
MAX_POLY_DEGREE = 1000

# Coefficient budget in bits, checked on integer literals of polynomials, on
# numerators and denominators of sheaf matrix entries, on phi values and,
# before a power or product is computed, on a bound of its coefficients, so
# that a huge constant is a ParseError rather than a long computation.  It must stay below 3 * 4300, Python's default digit limit of
# int(str).
MAX_COEFF_BITS = 10000

# Budget on the sum of the stalk ranks of a sheaf file, so that a huge rank
# is a ParseError rather than an allocation that exhausts memory.
MAX_STALK_RANK = 100000

# Budget on the dense matrix entries of a pushforward text report.
MAX_REPORT_ENTRIES = 10**7


def _budget_int(s: str, what: str) -> int:
    """int(s) for a literal within MAX_COEFF_BITS; ParseError "<what> above
    the coefficient budget" otherwise.  Past MAX_COEFF_BITS // 3 significant
    digits a decimal literal is over the budget, so int() is never asked for
    more digits than that."""
    body = s.strip()
    sign = -1 if body[:1] == "-" else 1
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits.isdecimal():
        value = int(s)  # a malformed literal raises int()'s ValueError
    elif len(digits := digits.lstrip("0")) > MAX_COEFF_BITS // 3:
        value = None
    else:
        value = sign * int(digits or "0")
    if value is None or value.bit_length() > MAX_COEFF_BITS:
        raise ParseError(f"{what} above the coefficient budget of {MAX_COEFF_BITS} bits")
    return value


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def enter(self):
        """Take the token that opens one nesting level; the caller closes
        the level with depth -= 1 once the nested part is parsed."""
        if self.depth == MAX_NESTING:
            t = self.peek()
            raise _TooDeep(f"syntax error at line {t.line}, column {t.col}: "
                           f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        self.pos += 1

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"syntax error at line {t.line}, column {t.col}: "
                             f"expected {kind!r}, found {t.value!r}")
        return t

    def fail(self, msg):
        t = self.peek()
        raise ParseError(f"syntax error at line {t.line}, column {t.col}: {msg}")


def _parse_poly_expr(p: _Parser):
    out = _parse_poly_term(p)
    while p.peek().kind in ("+", "-"):
        op = p.next().kind
        rhs = _parse_poly_term(p)
        out = ip.add(out, rhs) if op == "+" else ip.sub(out, rhs)
    return out


def _over_degree(t: _Token, what: str):
    return ParseError(f"syntax error at line {t.line}, column {t.col}: "
                      f"{what} above the degree budget of {MAX_POLY_DEGREE}")


def _norm_bits(p) -> int:
    """Bit length of the 1-norm of p, which bounds every coefficient of p and
    is submultiplicative."""
    return sum(map(abs, p)).bit_length()


def _over_coeffs(t: _Token, what: str):
    return ParseError(f"syntax error at line {t.line}, column {t.col}: {what} "
                      f"coefficients above the coefficient budget of {MAX_COEFF_BITS} bits")


def _parse_poly_term(p: _Parser):
    out = _parse_poly_factor(p)
    while p.peek().kind == "*":
        star = p.next()
        rhs = _parse_poly_factor(p)
        if ip.degree(out) + ip.degree(rhs) > MAX_POLY_DEGREE:
            raise _over_degree(star, "product degree")
        if _norm_bits(out) + _norm_bits(rhs) > MAX_COEFF_BITS:
            raise _over_coeffs(star, "product")
        out = ip.mul(out, rhs)
    return out


def _parse_poly_factor(p: _Parser):
    base = _parse_poly_atom(p)
    if p.peek().kind == "^":
        caret = p.next()
        t = p.peek()
        if t.kind != "num":
            raise ParseError(f"syntax error at line {caret.line}, column "
                             f"{caret.col}: exponent must be a nonnegative "
                             f"integer literal")
        p.next()
        if t.value > MAX_POLY_DEGREE:
            raise _over_degree(t, f"exponent {t.value}")
        if ip.degree(base) * t.value > MAX_POLY_DEGREE:
            raise _over_degree(caret, "power degree")
        if _norm_bits(base) * t.value > MAX_COEFF_BITS:
            raise _over_coeffs(caret, "power")
        return ip.power(base, t.value)
    return base


def _parse_poly_atom(p: _Parser):
    t = p.peek()
    if t.kind == "num":
        p.next()
        return ip.constant(t.value)
    if t.kind == "t":
        p.next()
        return ip.X
    if t.kind == "-":
        p.enter()
        out = ip.neg(_parse_poly_factor(p))
        p.depth -= 1
        return out
    if t.kind == "(":
        p.enter()
        inner = _parse_poly_expr(p)
        p.expect(")")
        p.depth -= 1
        return inner
    p.fail("expected a polynomial")


def parse_poly(text: str):
    """Parse the polynomial grammar into dense integer coefficients."""
    p = _Parser(_tokenize(text))
    out = _parse_poly_expr(p)
    p.expect("end")
    return out


def _parse_formula_disj(p: _Parser):
    out = [_parse_formula_conj(p)]
    while p.peek().kind == "|":
        p.next()
        out.append(_parse_formula_conj(p))
    return out[0] if len(out) == 1 else Or(tuple(out))


def _parse_formula_conj(p: _Parser):
    out = [_parse_formula_unary(p)]
    while p.peek().kind == "&":
        p.next()
        out.append(_parse_formula_unary(p))
    return out[0] if len(out) == 1 else And(tuple(out))


def _parse_formula_unary(p: _Parser):
    if p.peek().kind == "!":
        p.enter()
        out = Not(_parse_formula_unary(p))
        p.depth -= 1
        return out
    return _parse_formula_primary(p)


def _parse_formula_primary(p: _Parser):
    if p.peek().kind == "(":
        saved = p.pos, p.depth
        try:
            p.enter()
            inner = _parse_formula_disj(p)
            p.expect(")")
            p.depth -= 1
            return inner
        except _TooDeep:
            raise
        except ParseError:
            p.pos, p.depth = saved
    return _parse_formula_atom(p)


def _parse_formula_atom(p: _Parser):
    poly = _parse_poly_expr(p)
    t = p.next()
    if t.kind != "relop":
        raise ParseError(f"syntax error at line {t.line}, column {t.col}: "
                         f"expected a relation, found {t.value!r}")
    z = p.next()
    if z.kind != "num" or z.value != 0:
        raise ParseError(f"syntax error at line {z.line}, column {z.col}: "
                         f"the right side of a relation must be the literal 0")
    return Atom(poly, t.value)


def parse_formula(text: str):
    """Parse a Boolean combination of sign conditions."""
    p = _Parser(_tokenize(text, formula=True))
    out = _parse_formula_disj(p)
    p.expect("end")
    return out


# ---------------------------------------------------------------------------
# file formats


def _content_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield idx, line


class _SpaceLines:
    """The 'points:' and 'covers:' lines of a space or map file."""

    def __init__(self):
        self.points = None
        self.covers = []

    def read(self, idx: int, line: str) -> bool:
        """Take in a 'points:' or 'covers:' line; False for any other line."""
        if line.startswith("points:"):
            self.points = line[len("points:"):].split()
        elif line.startswith("covers:"):
            for tok in line[len("covers:"):].split():
                if "<" not in tok:
                    raise ParseError(f"line {idx}: cover {tok!r} must look like a<b")
                x, y = tok.split("<", 1)
                self.covers.append((x, y))
        else:
            return False
        return True


def parse_space(text: str):
    """Parse a space file; returns (name, FinSpec)."""
    name = None
    spec = _SpaceLines()
    for idx, line in _content_lines(text):
        if line.startswith("space "):
            name = line.split(None, 1)[1].strip()
        elif not spec.read(idx, line):
            raise ParseError(f"line {idx}: unrecognized directive {line!r}")
    if name is None:
        raise ParseError("missing 'space NAME' line")
    if spec.points is None:
        raise ParseError("missing 'points:' line")
    return name, build_space(spec.points, spec.covers)


def space_to_text(name: str, m: FinSpec) -> str:
    lines = [f"space {name}", "points: " + " ".join(m.points)]
    lines.append("covers: " + " ".join(f"{x}<{y}" for x, y in m.covers))
    return "\n".join(lines) + "\n"


def _parse_scalar(tok: str, ring: ScalarRing, idx: int):
    what = f"line {idx}: scalar"
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return ring.normalize(Fraction(_budget_int(num, what), _budget_int(den, what)))
        return ring.normalize(_budget_int(tok, what))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"line {idx}: bad scalar {tok!r}: {e}")


def _parse_matrix(text: str, ring: ScalarRing, idx: int):
    """Parse row-major [[a,b],[c,d]] on line idx; [] is the empty matrix.

    One outer bracket holds the rows, one bracket each: a "[" inside a row
    or a "]" outside one is an error."""
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
            rows.append([_parse_scalar(t, ring, idx) for t in cur.split(",") if t.strip()])
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


def _shaped(ring: ScalarRing, rows, nrows: int, ncols: int, what: str) -> Matrix:
    """The parsed rows, whose scalars ``_parse_scalar`` normalized, as an
    nrows x ncols matrix; what names it in the error."""
    if len(rows) != nrows or (rows and len(rows[0]) != ncols):
        raise ParseError(f"{what} must be {nrows}x{ncols}")
    return Matrix._of(ring, nrows, ncols,
                      [{j: x for j, x in enumerate(r) if x} for r in rows])


def _matrix_str(m: Matrix) -> str:
    rows = []
    for i in range(m.rows):
        row = ["0"] * m.cols
        for j, x in m.row(i):
            row[j] = str(x)
        rows.append("[" + ",".join(row) + "]")
    return "[" + ",".join(rows) + "]"


def parse_ring(tokens) -> ScalarRing:
    if tokens == ["Z"]:
        return ZZ
    if tokens == ["Q"]:
        return QQ
    if len(tokens) == 2 and tokens[0] == "F":
        try:
            return GF(int(tokens[1]))
        except ValueError as e:
            raise ParseError(f"bad prime for F: {e}")
    raise ParseError(f"unknown ring {' '.join(tokens)!r} (expected Z, Q or F p)")


def _integer(tok: str, idx: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"line {idx}: {tok!r} is not an integer")


def parse_sheaf(text: str, space_name: str, m: FinSpec) -> SheafComplex:
    """Parse a sheaf file against an already-parsed space."""
    ring = None
    declared_space = None
    ranks = {}   # point -> {deg: rank}
    total_rank = 0  # sum of the positive ranks in `ranks`
    diffs = {}   # point -> {deg: (line, rows)}
    gen_mats = {}  # (x, y) -> {deg: (line, rows)}
    first_line = {}  # point or cover -> the line of its first item
    points, covers = set(m.points), set(m.covers)
    for idx, line in _content_lines(text):
        if line.startswith("ring "):
            ring = parse_ring(line.split()[1:])
        elif line.startswith("space "):
            declared_space = line.split(None, 1)[1].strip()
        elif line.startswith("stalk "):
            if ring is None:
                raise ParseError(f"line {idx}: 'ring' must come before stalk data")
            head, _, rest = line[len("stalk "):].partition(":")
            pt = head.strip()
            if pt not in points:
                raise ParseError(f"line {idx}: unknown point {pt!r}")
            ranks.setdefault(pt, {})
            diffs.setdefault(pt, {})
            first_line.setdefault(pt, idx)
            for item in rest.split(";"):
                item = item.strip()
                if not item:
                    continue
                toks = item.split()
                if toks[0] == "deg":
                    if len(toks) != 4 or toks[2] != "rank":
                        raise ParseError(f"line {idx}: malformed rank item {item!r}")
                    deg, rank = _integer(toks[1], idx), _integer(toks[3], idx)
                    total_rank += max(rank, 0) - max(ranks[pt].get(deg, 0), 0)
                    if total_rank > MAX_STALK_RANK:
                        raise ParseError(f"line {idx}: stalk ranks above the rank "
                                         f"budget of {MAX_STALK_RANK}")
                    ranks[pt][deg] = rank
                elif toks[0].startswith("d_"):
                    deg = _integer(toks[0][2:], idx)
                    _, _, mat = item.partition("=")
                    rows = _parse_matrix(mat, ring, idx)
                    if rows is not None:
                        diffs[pt][deg] = idx, rows
                else:
                    raise ParseError(f"line {idx}: malformed stalk item {item!r}")
        elif line.startswith("gen "):
            if ring is None:
                raise ParseError(f"line {idx}: 'ring' must come before gen data")
            head, _, rest = line[len("gen "):].partition(":")
            head = head.strip()
            if "<" not in head:
                raise ParseError(f"line {idx}: gen needs a cover like x<y")
            x, y = head.split("<", 1)
            if (x, y) not in covers:
                raise ParseError(f"line {idx}: {x!r}<{y!r} is not a cover relation "
                                 f"of space {space_name!r}")
            gen_mats.setdefault((x, y), {})
            first_line.setdefault((x, y), idx)
            for item in rest.split(";"):
                item = item.strip()
                if not item:
                    continue
                toks = item.split()
                if toks[0] != "deg" or len(toks) < 2:
                    raise ParseError(f"line {idx}: malformed gen item {item!r}")
                deg = _integer(toks[1], idx)
                _, _, mat = item.partition("=")
                rows = _parse_matrix(mat, ring, idx)
                if rows is not None:
                    gen_mats[(x, y)][deg] = idx, rows
        else:
            raise ParseError(f"line {idx}: unrecognized directive {line!r}")
    if ring is None:
        raise ParseError("missing 'ring' line")
    if declared_space != space_name:
        raise ParseError(f"sheaf is declared on space {declared_space!r}, "
                         f"but the space file defines {space_name!r}")
    stalks = {}
    for pt in m.points:
        rk = ranks.get(pt, {})
        dd = {}
        for deg, (idx, rows) in diffs.get(pt, {}).items():
            dd[deg] = _shaped(ring, rows, rk.get(deg + 1, 0), rk.get(deg, 0),
                              f"line {idx}: stalk {pt!r}: d_{deg}")
        try:
            stalks[pt] = FreeChainComplex(ring, rk, dd)
        except (ValueError, DegreeOverflow) as e:
            raise ParseError(f"line {first_line[pt]}: stalk {pt!r}: {e}")
    gens = {}
    for (x, y), per_deg in gen_mats.items():
        mats = {}
        for deg, (idx, rows) in per_deg.items():
            mats[deg] = _shaped(ring, rows, stalks[y].rank(deg), stalks[x].rank(deg),
                                f"line {idx}: gen {x}<{y}: deg {deg} matrix")
        try:
            gens[(x, y)] = ChainMap(stalks[x], stalks[y], mats)
        except ValueError as e:
            raise ParseError(f"line {first_line[(x, y)]}: gen {x}<{y}: {e}")
    return SheafComplex(m, ring, stalks, gens)


def ring_to_tokens(ring: ScalarRing) -> str:
    if ring.kind == "Fp":
        return f"F {ring.p}"
    return ring.kind


def sheaf_to_text(k: SheafComplex, space_name: str) -> str:
    lines = [f"ring {ring_to_tokens(k.ring)}", f"space {space_name}"]
    for pt in k.space.points:
        c = k.stalks[pt]
        if c.is_zero():
            continue
        items = [f"deg {n} rank {r}" for n, r in sorted(c.ranks.items())]
        items += [f"d_{n} = {_matrix_str(d)}" for n, d in sorted(c.diffs.items())]
        lines.append(f"stalk {pt}: " + "; ".join(items))
    for (x, y) in k.space.covers:
        g = k.gens[(x, y)]
        if g.is_zero():
            continue
        items = [f"deg {n} = {_matrix_str(mm)}" for n, mm in sorted(g.mats.items())]
        lines.append(f"gen {x}<{y}: " + "; ".join(items))
    return "\n".join(lines) + "\n"


def parse_phi(text: str, m: FinSpec) -> ConsFunction:
    body = text.strip()
    if body.startswith("phi:"):
        body = body[len("phi:"):]
    values = {}
    points = set(m.points)
    for tok in body.split():
        if "=" not in tok:
            raise ParseError(f"constructible function entry {tok!r} must be point=value")
        pt, val = tok.split("=", 1)
        if pt not in points:
            raise ParseError(f"unknown point {pt!r}")
        try:
            values[pt] = _budget_int(val, f"value for {pt!r}")
        except ValueError:
            raise ParseError(f"value {val!r} for {pt!r} is not an integer")
    missing = points - set(values)
    if missing:
        raise ParseError(f"missing values for {sorted(missing, key=str)}")
    return ConsFunction(m, values)


def parse_map(text: str, source: FinSpec):
    """Parse a map file (with its embedded target space) against a source."""
    name = None
    tgt_name = None
    spec = _SpaceLines()
    sends = {}
    for idx, line in _content_lines(text):
        if line.startswith("map "):
            name = line.split(None, 1)[1].strip()
        elif line.startswith("target "):
            tgt_name = line.split(None, 1)[1].strip()
        elif line.startswith("sends:"):
            for tok in line[len("sends:"):].split():
                if "->" not in tok:
                    raise ParseError(f"line {idx}: assignment {tok!r} must look like a->x")
                x, y = tok.split("->", 1)
                sends[x] = y
        elif not spec.read(idx, line):
            raise ParseError(f"line {idx}: unrecognized directive {line!r}")
    if name is None:
        raise ParseError("missing 'map NAME' line")
    if tgt_name is None or spec.points is None:
        raise ParseError("map file must declare its target space "
                         "(target/points/covers lines)")
    target = build_space(spec.points, spec.covers)
    return name, tgt_name, MonotoneMap(source, target, list(sends.items()))


# ---------------------------------------------------------------------------
# reports


def _module_json(mod: FGModule):
    return {"free_rank": mod.free_rank,
            "invariant_factors": [str(d) for d in mod.invariant_factors]}


def _report_cohomology(k: SheafComplex, as_json: bool):
    h = homology(rgamma_reduced(k))
    if as_json:
        return json.dumps({"cohomology": {str(n): _module_json(mod)
                                          for n, mod in sorted(h.items())}},
                          sort_keys=True)
    return "\n".join(f"H^{n}: {mod}" for n, mod in sorted(h.items()))


def _phi_json(phi: ConsFunction):
    return {str(p): v for p, v in phi.values}


def _load_sheaf(args) -> SheafComplex:
    """The sheaf file of args, parsed against its space file."""
    name, m = parse_space(_read(args.space))
    return parse_sheaf(_read(args.sheaf), name, m)


def cmd_cohomology(args):
    """H^n of the derived global sections, text or --json, read off
    ``sheaf.rgamma_reduced``: the complex on the critical labels of an
    acyclic Morse matching of the chains under each top (the rule and why
    it is acyclic are there), equivalent to ``rgamma`` and about a tenth of
    its rank on the benchmark's sheaves; a height-12 ladder takes about
    0.5 s.  ``rgamma`` itself stays for the functors that slice it."""
    return _report_cohomology(_load_sheaf(args), args.json), 0


def cmd_pushforward(args):
    k = _load_sheaf(args)
    _, tgt_name, f = parse_map(_read(args.map), k.space)
    out = pushforward(f, k)
    if args.json:
        stalk = {str(p): {str(n): _module_json(mod)
                          for n, mod in sorted(homology(c).items())}
                 for p, c in out.stalks.items()}
        return json.dumps({"pushforward_stalk_cohomology": stalk}, sort_keys=True), 0
    entries = (sum(d.rows * d.cols for c in out.stalks.values() for d in c.diffs.values())
               + sum(g.rows * g.cols for m in out.gens.values() for g in m.mats.values()))
    if entries > MAX_REPORT_ENTRIES:
        raise ParseError(f"pushforward report of {entries} matrix entries above the output "
                         f"budget of {MAX_REPORT_ENTRIES} (--json gives the stalk cohomology)")
    return sheaf_to_text(out, tgt_name).rstrip("\n"), 0


def cmd_chi(args):
    phi = chi(_load_sheaf(args))
    if args.json:
        return json.dumps({"chi": _phi_json(phi)}, sort_keys=True), 0
    return str(phi), 0


def cmd_realize(args):
    name, m = parse_space(_read(args.space))
    phi = parse_phi(args.phi, m)
    back = chi(realize(phi))
    if back != phi:
        return "internal invariant failure: chi(realize(phi)) != phi", 2
    if args.json:
        return json.dumps({"chi_of_realization": _phi_json(back)}, sort_keys=True), 0
    return str(back), 0


def cmd_decompose(args):
    k = _load_sheaf(args)
    pieces, _ = cell_decompose(k)
    chis, ok = piece_indices(k, pieces)
    if args.json:
        return json.dumps({"pieces": [{"point": str(pt), "chi": piece_chi}
                                      for pt, piece_chi in chis],
                           "chi_check": ok}, sort_keys=True), 0 if ok else 2
    lines = [f"piece {pt}: chi={piece_chi}" for pt, piece_chi in chis]
    lines.append(f"chi check: {'ok' if ok else 'FAILED'}")
    return "\n".join(lines), 0 if ok else 2


def cmd_basechange(args):
    k = _load_sheaf(args)
    _, _, f = parse_map(_read(args.map), k.space)
    # here the sheaf lives on the source of f: the space file is the source
    locus, flags = base_change_locus(f, k)
    verdicts = {q: (q in locus) for q in f.target.points}
    if args.json:
        return json.dumps({"points": {str(q): v for q, v in verdicts.items()},
                           "locus": sorted(str(q) for q in locus),
                           "open": flags["open"], "closed": flags["closed"]},
                          sort_keys=True), 0
    lines = [f"point {q}: {'iso' if v else 'not iso'}" for q, v in verdicts.items()]
    lines.append("locus: " + " ".join(str(q) for q in sorted(locus, key=str)))
    lines.append(f"locus open: {'yes' if flags['open'] else 'no'}")
    lines.append(f"locus closed: {'yes' if flags['closed'] else 'no'}")
    return "\n".join(lines), 0


def cmd_sper_roots(args):
    roots = real_roots(parse_poly(args.poly))
    if args.json:
        return json.dumps({"roots": [str(r) for r in roots]}), 0
    lines = [f"roots: {len(roots)}"]
    lines.extend(str(r) for r in roots)
    return "\n".join(lines), 0


def cmd_sper_set(args):
    s = from_formula(parse_formula(args.formula))
    markers = cell_markers(s.roots)
    if args.json:
        return json.dumps({"cells": [{"cell": mk, "in": bool(b)}
                                     for mk, b in zip(markers, s.mask)]}), 0
    lines = [f"cells: {len(s.mask)}"]
    lines.extend(f"{mk} {'in' if b else 'out'}" for mk, b in zip(markers, s.mask))
    return "\n".join(lines), 0


def cmd_sper_cells(args):
    s = from_formula(parse_formula(args.formula))
    cp = cell_poset(s)
    dim = krull_dim(cp.space)
    if args.json:
        return json.dumps({"points": list(cp.space.points),
                           "covers": [[x, y] for x, y in cp.space.covers],
                           "cells": {cp.point_at(i): cp.marker(i)
                                     for i in range(len(cp.cells))},
                           "dim": dim if cp.space.points else None}), 0
    lines = [space_to_text("cells", cp.space).rstrip("\n")]
    for i in range(len(cp.cells)):
        lines.append(f"{cp.point_at(i)} = {cp.marker(i)}")
    lines.append(f"dim: {dim}")
    return "\n".join(lines), 0


def cmd_sper_push(args):
    p = PolyMap(parse_poly(args.poly))
    if args.formula:
        cp = cell_poset(from_formula(parse_formula(args.formula)))
    else:
        cp = cell_poset([])
    if args.phi:
        phi = parse_phi(args.phi, cp.space)
    else:
        phi = ConsFunction(cp.space, {q: 1 for q in cp.space.points})
    out, out_cells = push_cons(p, phi, cp)
    if args.json:
        return json.dumps({"cells": [{"cell": out_cells.marker(i),
                                      "point": out_cells.point_at(i),
                                      "value": out(out_cells.point_at(i))}
                                     for i in range(len(out_cells.cells))]}), 0
    lines = [f"{out_cells.marker(i)} = {out(out_cells.point_at(i))}"
             for i in range(len(out_cells.cells))]
    return "\n".join(lines), 0


def cmd_selftest(args):
    from .selftest import run_suites
    results = run_suites(seed=args.seed)
    lines = []
    total_pass = total_fail = 0
    for name, npass, nfail in results:
        lines.append(f"{name}: {npass} pass, {nfail} fail")
        total_pass += npass
        total_fail += nfail
    lines.append(f"total: {total_pass} pass, {total_fail} fail")
    code = 0 if total_fail == 0 else 2
    if args.json:
        return json.dumps({"suites": [{"name": n, "pass": p, "fail": f}
                                      for n, p, f in results],
                           "total_pass": total_pass,
                           "total_fail": total_fail}, sort_keys=True), code
    return "\n".join(lines), code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")


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


# Exception class -> exit code, first match first: a subclass precedes its
# base.  Exit 1 is bad input, including results outside the degree window
# and argument values the library rejects with ValueError; exit 2 is a
# broken invariant inside the library.
_EXIT_CODES = (
    (ParseError, 1),
    (SpaceError, 1),
    (ConsFunctionError, 1),
    (ip.ZeroPolynomial, 1),
    (SheafError, 1),
    (InconsistentSamples, 2),
    (SperError, 1),
    (DegreeOverflow, 1),
    (LinalgError, 2),
    (ValueError, 1),
)
_HANDLED = tuple(cls for cls, _ in _EXIT_CODES)
_REPORT_PREFIX = {1: "error", 2: "internal invariant failure"}


def run(argv):
    """Dispatch a command line; returns (report text, exit code)."""
    try:
        try:
            args = build_arg_parser().parse_args(argv)
        except SystemExit as e:
            # only --help exits here: usage errors raise ParseError
            return "", int(e.code or 0)
        return args.fn(args)
    except _HANDLED as e:
        code = next(code for cls, code in _EXIT_CODES if isinstance(e, cls))
        return f"{_REPORT_PREFIX[code]}: {e}", code


def main():
    text, code = run(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
