"""The three-list polynomial and formula reader, kept as the reference for
the one-list reader of ``sheafkit.cli``.

``_tokenize``, ``_Parser``, the ``_parse_poly_*`` and ``_parse_formula_*``
descent, ``parse_poly`` and ``parse_formula`` below are the code of
``sheafkit.cli`` as it was before each text became one flat token list with
monomial terms and sums added in place, verbatim.  The budgets, the
literal reader ``_budget_int`` and ``ParseError`` are taken from
``sheafkit.cli``, so the two readers share them and raise the same class.
``tests/test_reader_reference.py`` compares the two.
"""

import re

from sheafkit import intpoly as ip
from sheafkit.cli import MAX_COEFF_BITS, MAX_NESTING, MAX_POLY_DEGREE, ParseError, _budget_int
from sheafkit.sper import And, Atom, Not, Or


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
