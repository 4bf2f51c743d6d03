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
* sheaves: "ring Z|Q|F p" (one ring line, before any stalk or gen line) /
  "space NAME" / per point
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
  primality test is exact; the file is read in one pass, each stalk and
  gen line once and each matrix literal straight into the row dicts of its
  Matrix, all on the file's one ring object;
* section and homotopy-end complexes (cohomology, pushforward, basechange)
  are built on spaces of at most sheaf.MAX_CHAINS = 10**6 strict chains,
  counted before any chain is listed; a larger space is an error;
* maps: "map NAME" / "target NAME" / "points: ..." / "covers: ..." (the
  embedded target space) / "sends: a->x b->y";
* a duplicate point, an unknown point or x<x in a cover, and an unknown or
  missing point of a map name their "points:", "covers:" or "sends:" line;
  a cycle through several covers names none;
* constructible functions: "phi: s=1 eta=0", values within MAX_COEFF_BITS.

Command line: "sheafkit COMMAND FLAG..." with the flags of the COMMAND in
_COMMANDS, each as "--flag VALUE" or "--flag=VALUE", plus --json and
-h/--help.  A flag may be shortened to any prefix that names it alone
("--sp" for --space), and a repeated flag keeps its last value.  A VALUE
that starts with "-" is taken only if it is a negative number or holds a
space ("--formula '-t^2 + 1 > 0'"); "--phi -x" leaves --phi without one.
"--" ends the flags.  --help prints the command's usage line to stdout and
exits 0.  Every usage error (an unknown command or flag, an ambiguous
prefix, a flag without its value, a required flag left out, a --seed that
is not an int) is a one-line "error: ..." report with exit 1, in the
words argparse uses.

Every command parses all of its inputs before computing anything, writes a
byte-deterministic report, and exits 0 on success, 1 on a validation
error, 2 on an internal invariant failure.  A pushforward text report holds
at most MAX_REPORT_ENTRIES = 10**7 matrix entries, or is an error; --json
gives the stalk cohomology at any size.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import intpoly as ip
from .k0 import ConsFunction, ConsFunctionError, chi, piece_indices, realize
from .linalg import (
    ChainMap, DegreeOverflow, FGModule, FreeChainComplex, LinalgError, Matrix,
    ScalarRing, ZZ, QQ, GF, homology,
)
from .sheaf import (
    PathIndependenceViolation, SheafComplex, SheafError, base_change_locus,
    cell_decompose, pushforward, rgamma_reduced,
)
from .space import (
    CycleDetected, DuplicatePoint, FinSpec, MonotoneMap, NotTotal, SpaceError, UnknownPoint,
    build_space, krull_dim,
)
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


def _line_col(text, i):
    """The line and column, from 1, of index i of text."""
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


def _token_pattern(relops, ops):
    """One match per token, blanks before it included; the groups, tried in
    order: 1 a digit run, 2 a relation, 3 an operator or t, 4 the end of the
    text, 5 any other character.  \\s and \\d match exactly the characters of
    str.isspace and str.isdecimal."""
    return re.compile(rf"\s*(?:(\d+)|({relops})|([{ops}t])|(\Z)|(.))", re.S)


_POLY_TOKEN = _token_pattern("(?!)", r"-+*^()")
_FORMULA_TOKEN = _token_pattern("<=|>=|!=|[<>=]", r"-+*^()&|!")


def _tokenize(text, formula=False):
    """The tokens of text as three lists: kinds ("num", "relop", "end" or
    the operator or t itself), values (an int, the relation, the operator
    or t, None for the closing "end") and start indices in text."""
    kinds, values, starts = [], [], []
    n = len(text)
    for m in (_FORMULA_TOKEN if formula else _POLY_TOKEN).finditer(text):
        k = m.lastindex
        if k == 3:
            op = m.group(3)
            kinds.append(op)
            values.append(op)
        elif k == 1 or k == 5 and text[m.start(5)].isdigit():
            # a digit run also takes the str.isdigit characters \d misses,
            # which int() then rejects
            i, j = m.start(k), m.end()
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = _budget_int(text[i:j], "integer literal")
            except ParseError as e:
                line, col = _line_col(text, i)
                raise ParseError(f"syntax error at line {line}, column {col}: {e}") from None
            kinds.append("num")
            values.append(value)
        elif k == 2:
            kinds.append("relop")
            values.append(m.group(2))
        elif k == 5:
            line, col = _line_col(text, m.start(5))
            raise ParseError(f"syntax error at line {line}, column {col}: "
                             f"unexpected character {m.group(5)!r}")
        else:  # the end of the text
            continue
        starts.append(m.start(k))
    kinds.append("end")
    values.append(None)
    starts.append(n)
    return kinds, values, starts


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
    more digits than that.  A literal of at most 18 characters is int(s)
    straight away: that is the value (or the ValueError) the long path gives
    it, and 18 digits are far inside the budget."""
    if len(s) <= 18:
        return int(s)
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
    """Recursive descent over the tokens of one text (_tokenize): pos is the
    index of the next token and depth the nesting level."""

    def __init__(self, text, formula=False):
        self.text = text
        self.kinds, self.values, self.starts = _tokenize(text, formula)
        self.pos = 0
        self.depth = 0

    def error(self, i, msg, cls=ParseError):
        """A cls error at the line and column of token i; they are counted
        only here."""
        line, col = _line_col(self.text, self.starts[i])
        return cls(f"syntax error at line {line}, column {col}: {msg}")

    def enter(self):
        """Take the token that opens one nesting level; the caller closes
        the level with depth -= 1 once the nested part is parsed."""
        if self.depth == MAX_NESTING:
            raise self.error(self.pos, f"nesting deeper than {MAX_NESTING} levels", _TooDeep)
        self.depth += 1
        self.pos += 1

    def peek(self) -> str:
        """The kind of the next token."""
        return self.kinds[self.pos]

    def take(self) -> int:
        """The index of the next token, which is taken."""
        self.pos += 1
        return self.pos - 1

    def expect(self, kind):
        i = self.take()
        if self.kinds[i] != kind:
            raise self.error(i, f"expected {kind!r}, found {self.values[i]!r}")


def _parse_poly_expr(p: _Parser):
    out = _parse_poly_term(p)
    while (op := p.peek()) in ("+", "-"):
        p.pos += 1
        rhs = _parse_poly_term(p)
        out = ip.add(out, rhs) if op == "+" else ip.sub(out, rhs)
    return out


def _over_degree(p: _Parser, i: int, what: str):
    return p.error(i, f"{what} above the degree budget of {MAX_POLY_DEGREE}")


def _norm_bits(p) -> int:
    """Bit length of the 1-norm of p, which bounds every coefficient of p and
    is submultiplicative."""
    return sum(map(abs, p)).bit_length()


def _over_coeffs(p: _Parser, i: int, what: str):
    return p.error(i, f"{what} coefficients above the coefficient budget of "
                      f"{MAX_COEFF_BITS} bits")


def _parse_poly_term(p: _Parser):
    out = _parse_poly_factor(p)
    while p.peek() == "*":
        star = p.take()
        rhs = _parse_poly_factor(p)
        if ip.degree(out) + ip.degree(rhs) > MAX_POLY_DEGREE:
            raise _over_degree(p, star, "product degree")
        if _norm_bits(out) + _norm_bits(rhs) > MAX_COEFF_BITS:
            raise _over_coeffs(p, star, "product")
        out = ip.mul(out, rhs)
    return out


def _parse_poly_factor(p: _Parser):
    base = _parse_poly_atom(p)
    if p.peek() != "^":
        return base
    caret = p.take()
    if p.peek() != "num":
        raise p.error(caret, "exponent must be a nonnegative integer literal")
    k = p.values[p.take()]
    if k > MAX_POLY_DEGREE:
        raise _over_degree(p, caret + 1, f"exponent {k}")
    if ip.degree(base) * k > MAX_POLY_DEGREE:
        raise _over_degree(p, caret, "power degree")
    if _norm_bits(base) * k > MAX_COEFF_BITS:
        raise _over_coeffs(p, caret, "power")
    return (0,) * k + (1,) if base == ip.X else ip.power(base, k)


def _parse_poly_atom(p: _Parser):
    kind = p.peek()
    if kind == "num":
        return ip.constant(p.values[p.take()])
    if kind == "t":
        p.pos += 1
        return ip.X
    if kind == "-":
        p.enter()
        out = ip.neg(_parse_poly_factor(p))
        p.depth -= 1
        return out
    if kind == "(":
        p.enter()
        inner = _parse_poly_expr(p)
        p.expect(")")
        p.depth -= 1
        return inner
    raise p.error(p.pos, "expected a polynomial")


def parse_poly(text: str):
    """Parse the polynomial grammar into dense integer coefficients."""
    p = _Parser(text)
    out = _parse_poly_expr(p)
    p.expect("end")
    return out


def _parse_formula_disj(p: _Parser):
    out = [_parse_formula_conj(p)]
    while p.peek() == "|":
        p.pos += 1
        out.append(_parse_formula_conj(p))
    return out[0] if len(out) == 1 else Or(tuple(out))


def _parse_formula_conj(p: _Parser):
    out = [_parse_formula_unary(p)]
    while p.peek() == "&":
        p.pos += 1
        out.append(_parse_formula_unary(p))
    return out[0] if len(out) == 1 else And(tuple(out))


def _parse_formula_unary(p: _Parser):
    if p.peek() == "!":
        p.enter()
        out = Not(_parse_formula_unary(p))
        p.depth -= 1
        return out
    return _parse_formula_primary(p)


def _parse_formula_primary(p: _Parser):
    if p.peek() == "(":
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
    rel = p.take()
    if p.kinds[rel] != "relop":
        raise p.error(rel, f"expected a relation, found {p.values[rel]!r}")
    z = p.take()
    if p.kinds[z] != "num" or p.values[z] != 0:
        raise p.error(z, "the right side of a relation must be the literal 0")
    return Atom(poly, p.values[rel])


def parse_formula(text: str):
    """Parse a Boolean combination of sign conditions."""
    p = _Parser(text, formula=True)
    out = _parse_formula_disj(p)
    p.expect("end")
    return out


# ---------------------------------------------------------------------------
# file formats


def _content_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield idx, line


class _SpaceLines:
    """The 'points:' and 'covers:' lines of a space or map file, with the
    line of the points and of each cover."""

    def __init__(self):
        self.points = None
        self.points_line = None
        self.covers = []
        self.cover_lines = []

    def read(self, idx: int, line: str) -> bool:
        """Take in a 'points:' or 'covers:' line; False for any other line."""
        if line.startswith("points:"):
            self.points = line[len("points:"):].split()
            self.points_line = idx
        elif line.startswith("covers:"):
            for tok in line[len("covers:"):].split():
                if "<" not in tok:
                    raise ParseError(f"line {idx}: cover {tok!r} must look like a<b")
                x, y = tok.split("<", 1)
                self.covers.append((x, y))
                self.cover_lines.append(idx)
        else:
            return False
        return True

    def build(self) -> FinSpec:
        """The space of these lines.  A duplicate point names the points
        line, and an unknown point or x<x in a cover the line of the first
        such cover, where FinSpec stops.  A cycle through several covers
        names no line."""
        try:
            return build_space(self.points, self.covers)
        except DuplicatePoint as e:
            raise DuplicatePoint(f"line {self.points_line}: {e}") from None
        except (UnknownPoint, CycleDetected) as e:
            known = set(self.points)
            idx = next((i for (x, y), i in zip(self.covers, self.cover_lines)
                        if x not in known or y not in known or x == y), None)
            if idx is None:
                raise
            raise type(e)(f"line {idx}: {e}") from None


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
    return name, spec.build()


def space_to_text(name: str, m: FinSpec) -> str:
    lines = [f"space {name}", "points: " + " ".join(m.points)]
    lines.append("covers: " + " ".join(f"{x}<{y}" for x, y in m.covers))
    return "\n".join(lines) + "\n"


def _parse_scalar(tok: str, ring: ScalarRing):
    """The entry tok of a matrix literal as an element of ring: an integer
    or p/q, each part within the coefficient budget."""
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return ring.normalize(Fraction(_budget_int(num, "scalar"),
                                           _budget_int(den, "scalar")))
        return ring.normalize(_budget_int(tok, "scalar"))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad scalar {tok!r}: {e}")


# One row of a matrix literal, with the commas and blanks before it.
_MATRIX_ROW = re.compile(r"[, \t]*\[([^\[\]]*)\]")
_BETWEEN_ROWS = re.compile(r"[, \t]*")


def _parse_matrix(text: str, ring: ScalarRing):
    """The row-major literal [[a,b],[c,d]] in one pass, as (rows, ncols):
    each row the dict column -> nonzero entry that ``Matrix._of`` stores;
    None for a literal without rows, such as [].

    One outer bracket holds the rows, one bracket each, and only commas,
    spaces and tabs lie between rows.  Entries are separated by commas, and
    a blank entry is skipped, so [1,,2] has two.  A row's entries are read
    when its "]" is, so the first fault in reading order is the one
    reported: a "[" inside a row or any other character outside one, an
    entry of a closed row, a row left open, and last ragged rows."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError(f"matrix literal must be bracketed, got {text!r}")
    body = s[1:-1].strip()
    rows, widths, pos = [], set(), 0
    while m := _MATRIX_ROW.match(body, pos):
        row, j = {}, 0
        for tok in m.group(1).split(","):
            if tok.strip():
                x = _parse_scalar(tok, ring)
                if x:
                    row[j] = x
                j += 1
        rows.append(row)
        widths.add(j)
        pos = m.end()
    pos = _BETWEEN_ROWS.match(body, pos).end()
    if pos < len(body):
        ch = body[pos]
        # a row that no "]" closes meets a "[" or the end first
        if ch == "[" and body.find("[", pos + 1) < 0:
            raise ParseError(f"unbalanced brackets in matrix literal {text!r}")
        raise ParseError(f"unexpected {ch!r} in matrix literal")
    if not rows:
        return None
    if len(widths) > 1:
        raise ParseError(f"ragged matrix literal {text!r}")
    return rows, j


def _shaped(ring: ScalarRing, literal, nrows: int, ncols: int, what: str) -> Matrix:
    """The (rows, ncols) of ``_parse_matrix`` as an nrows x ncols matrix;
    what names it in the error."""
    rows, width = literal
    if len(rows) != nrows or width != ncols:
        raise ParseError(f"{what} must be {nrows}x{ncols}")
    return Matrix._of(ring, nrows, ncols, rows)


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


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{tok!r} is not an integer")


def parse_sheaf(text: str, space_name: str, m: FinSpec) -> SheafComplex:
    """Parse a sheaf file against an already-parsed space.

    Each stalk and gen line is read in one pass, its matrix literals
    straight into row dicts (``_parse_matrix``); an error on such a line
    names it.  Once every line is read, each matrix gets its shape checked
    against the ranks, and the stalks, the generization maps and the sheaf
    their own checks, on the one ring object of the file."""
    ring = None
    declared_space = None
    ranks = {}   # point -> {deg: rank}
    total_rank = 0  # sum of the positive ranks in `ranks`
    diffs = {}   # point -> {deg: (line, literal)}
    gen_mats = {}  # (x, y) -> {deg: (line, literal)}
    first_line = {}  # point or cover -> the line of its first item
    points, covers = set(m.points), set(m.covers)
    for idx, line in _content_lines(text):
        if line.startswith("ring "):
            if ring is not None:
                # matrix entries already read are normalized under the first ring
                raise ParseError(f"line {idx}: a second 'ring' line; a sheaf file has one ring")
            ring = parse_ring(line.split()[1:])
            continue
        if line.startswith("space "):
            declared_space = line.split(None, 1)[1].strip()
            continue
        try:
            if line.startswith("stalk "):
                if ring is None:
                    raise ParseError("'ring' must come before stalk data")
                head, _, rest = line[len("stalk "):].partition(":")
                pt = head.strip()
                if pt not in points:
                    raise ParseError(f"unknown point {pt!r}")
                rk = ranks.setdefault(pt, {})
                dd = diffs.setdefault(pt, {})
                first_line.setdefault(pt, idx)
                for item in rest.split(";"):
                    item = item.strip()
                    if not item:
                        continue
                    head = item.split(None, 1)[0]
                    if head == "deg":
                        toks = item.split()
                        if len(toks) != 4 or toks[2] != "rank":
                            raise ParseError(f"malformed rank item {item!r}")
                        deg, rank = _integer(toks[1]), _integer(toks[3])
                        total_rank += max(rank, 0) - max(rk.get(deg, 0), 0)
                        if total_rank > MAX_STALK_RANK:
                            raise ParseError(f"stalk ranks above the rank budget of "
                                             f"{MAX_STALK_RANK}")
                        rk[deg] = rank
                    elif head.startswith("d_"):
                        deg = _integer(head[2:])
                        literal = _parse_matrix(item.partition("=")[2], ring)
                        if literal is not None:
                            dd[deg] = idx, literal
                    else:
                        raise ParseError(f"malformed stalk item {item!r}")
            elif line.startswith("gen "):
                if ring is None:
                    raise ParseError("'ring' must come before gen data")
                head, _, rest = line[len("gen "):].partition(":")
                head = head.strip()
                if "<" not in head:
                    raise ParseError("gen needs a cover like x<y")
                x, y = head.split("<", 1)
                if (x, y) not in covers:
                    raise ParseError(f"{x!r}<{y!r} is not a cover relation "
                                     f"of space {space_name!r}")
                mats = gen_mats.setdefault((x, y), {})
                first_line.setdefault((x, y), idx)
                for item in rest.split(";"):
                    item = item.strip()
                    if not item:
                        continue
                    toks = item.split(None, 2)
                    if toks[0] != "deg" or len(toks) < 2:
                        raise ParseError(f"malformed gen item {item!r}")
                    deg = _integer(toks[1])
                    literal = _parse_matrix(item.partition("=")[2], ring)
                    if literal is not None:
                        mats[deg] = idx, literal
            else:
                raise ParseError(f"unrecognized directive {line!r}")
        except ParseError as e:
            raise ParseError(f"line {idx}: {e}") from None
    if ring is None:
        raise ParseError("missing 'ring' line")
    if declared_space != space_name:
        raise ParseError(f"sheaf is declared on space {declared_space!r}, "
                         f"but the space file defines {space_name!r}")
    stalks = {}
    for pt in m.points:
        rk = ranks.get(pt, {})
        dd = {}
        for deg, (idx, literal) in diffs.get(pt, {}).items():
            dd[deg] = _shaped(ring, literal, rk.get(deg + 1, 0), rk.get(deg, 0),
                              f"line {idx}: stalk {pt!r}: d_{deg}")
        try:
            stalks[pt] = FreeChainComplex(ring, rk, dd)
        except (ValueError, DegreeOverflow) as e:
            raise ParseError(f"line {first_line[pt]}: stalk {pt!r}: {e}")
    gens = {}
    for (x, y), per_deg in gen_mats.items():
        mats = {}
        for deg, (idx, literal) in per_deg.items():
            mats[deg] = _shaped(ring, literal, stalks[y].rank(deg), stalks[x].rank(deg),
                                f"line {idx}: gen {x}<{y}: deg {deg} matrix")
        try:
            gens[(x, y)] = ChainMap(stalks[x], stalks[y], mats)
        except ValueError as e:
            raise ParseError(f"line {first_line[(x, y)]}: gen {x}<{y}: {e}")
    try:
        return SheafComplex(m, ring, stalks, gens)
    except PathIndependenceViolation as e:
        # the first gen line out of the start of the two paths, else its stalk line
        x = e.start
        line = min((first_line[c] for c in gen_mats if c[0] == x), default=first_line.get(x))
        raise PathIndependenceViolation(f"line {line}: {e}", x) from None


def ring_to_tokens(ring: ScalarRing) -> str:
    if ring.kind == "Fp":
        return f"F {ring.p}"
    return ring.kind


def _once_per_object(fn):
    """fn memoized by the id of its argument, for arguments that all stay
    alive while the memo is in use."""
    memo = {}

    def once(x):
        got = memo.get(id(x))
        if got is None:
            got = memo[id(x)] = fn(x)
        return got
    return once


def sheaf_to_text(k: SheafComplex, space_name: str) -> str:
    """The sheaf file of k.  A pushforward shares one stalk complex among the
    points with one preimage, and one identity among the covers between
    them, so each distinct complex and map is formatted once, keyed by id
    (``FreeChainComplex.__hash__`` walks every matrix)."""
    @_once_per_object
    def stalk_text(c):
        items = [f"deg {n} rank {r}" for n, r in sorted(c.ranks.items())]
        items += [f"d_{n} = {_matrix_str(d)}" for n, d in sorted(c.diffs.items())]
        return "; ".join(items)

    @_once_per_object
    def gen_text(g):
        return "; ".join(f"deg {n} = {_matrix_str(mm)}" for n, mm in sorted(g.mats.items()))

    lines = [f"ring {ring_to_tokens(k.ring)}", f"space {space_name}"]
    for pt in k.space.points:
        c = k.stalks[pt]
        if not c.is_zero():
            lines.append(f"stalk {pt}: " + stalk_text(c))
    for (x, y) in k.space.covers:
        g = k.gens[(x, y)]
        if not g.is_zero():
            lines.append(f"gen {x}<{y}: " + gen_text(g))
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
    sends_lines = {}  # source point -> the line of its assignment
    last_sends = None  # the last 'sends:' line
    for idx, line in _content_lines(text):
        if line.startswith("map "):
            name = line.split(None, 1)[1].strip()
        elif line.startswith("target "):
            tgt_name = line.split(None, 1)[1].strip()
        elif line.startswith("sends:"):
            last_sends = idx
            for tok in line[len("sends:"):].split():
                if "->" not in tok:
                    raise ParseError(f"line {idx}: assignment {tok!r} must look like a->x")
                x, y = tok.split("->", 1)
                sends[x] = y
                sends_lines[x] = idx
        elif not spec.read(idx, line):
            raise ParseError(f"line {idx}: unrecognized directive {line!r}")
    if name is None:
        raise ParseError("missing 'map NAME' line")
    if tgt_name is None or spec.points is None:
        raise ParseError("map file must declare its target space "
                         "(target/points/covers lines)")
    target = spec.build()
    try:
        return name, tgt_name, MonotoneMap(source, target, list(sends.items()))
    except UnknownPoint as e:
        # MonotoneMap stops at the first assignment with an unknown point
        src, tgt = set(source.points), set(target.points)
        x = next(x for x, y in sends.items() if x not in src or y not in tgt)
        raise UnknownPoint(f"line {sends_lines[x]}: {e}") from None
    except NotTotal as e:
        if last_sends is None:
            raise
        raise NotTotal(f"line {last_sends}: {e}") from None


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
    0.5 s.  ``basechange`` reads it too; ``pushforward`` builds
    ``rgamma_labeled`` once and slices it once per distinct preimage."""
    return _report_cohomology(_load_sheaf(args), args.json), 0


def cmd_pushforward(args):
    k = _load_sheaf(args)
    _, tgt_name, f = parse_map(_read(args.map), k.space)
    out = pushforward(f, k)
    if args.json:
        @_once_per_object
        def cohomology(c):
            return {str(n): _module_json(mod) for n, mod in sorted(homology(c).items())}

        stalk = {str(p): cohomology(c) for p, c in out.stalks.items()}
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


# Each command's function and flags, in the order of its usage line: a
# bracketed flag may be left out, every other is required.  Every command
# also takes -h/--help and --json, and --seed is an int.  Read once into
# the function, the usage line, every flag and the required flags.
_COMMANDS = {c: (fn, f"usage: sheafkit {c} [-h] {spec} [--json]",
                 ["--help", *re.findall(r"--\w+", spec), "--json"],
                 re.findall(r"(?<!\[)(--\w+)", spec)) for c, (fn, spec) in {
    "cohomology": (cmd_cohomology, "--space FILE --sheaf FILE"),
    "pushforward": (cmd_pushforward, "--space FILE --sheaf FILE --map FILE"),
    "chi": (cmd_chi, "--space FILE --sheaf FILE"),
    "realize": (cmd_realize, "--space FILE --phi STRING"),
    "decompose": (cmd_decompose, "--space FILE --sheaf FILE"),
    "basechange": (cmd_basechange, "--space FILE --sheaf FILE --map FILE"),
    "sper-roots": (cmd_sper_roots, "--poly STRING"),
    "sper-set": (cmd_sper_set, "--formula STRING"),
    "sper-cells": (cmd_sper_cells, "--formula STRING"),
    "sper-push": (cmd_sper_push, "[--phi STRING] [--formula STRING] --poly STRING"),
    "selftest": (cmd_selftest, "[--seed N]"),
}.items()}
# a token that may name a flag: "-" and more, not "--", not a negative
# number, no space
_FLAG_LIKE = re.compile(r"-(?!-$|\d+$|\d*\.\d+$)[^ ]+")


def _flag(tok, names):
    """(flag, the text after "=" or None) for the flag tok names among
    names, the flag None for an unknown one and "" for a value.  A "--"
    token names the one flag it is a prefix of, up to any "="."""
    if tok[:2] == "--" and tok != "--":
        head, eq, value = tok.partition("=")
        hits = [n for n in names if n.startswith(head)]
        if len(hits) > 1:
            raise ParseError(f"ambiguous option: {tok} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif tok == "-h":
        return "--help", None
    return None if tok[:1] == "-" and _FLAG_LIKE.fullmatch(tok) else "", None


def parse_args(argv):
    """The command line as a namespace: the command, its function fn, and
    each of its flags, None where not given (--seed 0, --json False).  The
    first value is the command; before it only --help is known.  --help
    prints the usage line, and its namespace's fn reports ("", 0)."""
    command, usage, args, extras = None, "", {}, []
    kinds, j = [None] * len(argv), 0
    while j < len(kinds):
        tok, (flag, value) = argv[j], kinds[j] or _flag(argv[j], ("--help",))
        j += 1
        if flag == "" and command is None and argv[j - 1:] != ["--"]:
            if tok not in _COMMANDS:
                raise ParseError(f"argument command: invalid choice: {tok!r} (choose from "
                                 + ", ".join(map(repr, _COMMANDS)) + ")")
            command, (fn, usage, names, required) = tok, _COMMANDS[tok]
            args = {n[2:]: False if n == "--json" else 0 if n == "--seed" else None
                    for n in names[1:]}
            # every flag is named before any is read; "--" and all after it are left over
            end = argv.index("--", j) if "--" in argv[j:] else len(argv)
            kinds[j:] = [_flag(t, names) for t in argv[j:end]]
        elif not flag:
            extras.append(tok)
        elif flag in ("--help", "--json") and value is not None:
            raise ParseError(f"argument {'-h/' * (flag == '--help')}{flag}: "
                             f"ignored explicit argument {value!r}")
        elif flag == "--help":
            print(usage or "usage: sheafkit [-h] {%s} ..." % ",".join(_COMMANDS))
            return SimpleNamespace(command=command, fn=lambda args: ("", 0))
        elif flag == "--json":
            args["json"] = True
        else:
            if value is None:
                if j == len(kinds) or kinds[j][0] != "":
                    raise ParseError(f"argument {flag}: expected one argument")
                value, j = argv[j], j + 1
            try:
                args[flag[2:]] = int(value) if flag == "--seed" else value
            except ValueError:
                raise ParseError(f"argument --seed: invalid int value: {value!r}") from None
    extras += argv[len(kinds):]
    missing = [n for n in required if args[n[2:]] is None] if command else ["command"]
    if missing:
        raise ParseError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise ParseError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, fn=fn, **args)


def build_arg_parser():
    """The reader as an object with parse_args(argv), the call the
    benchmark's replay makes, as on an argparse parser."""
    return SimpleNamespace(parse_args=parse_args)


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
        args = parse_args(argv)
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
