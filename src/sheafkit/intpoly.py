"""Dense univariate integer polynomials and exact real-root machinery.

A polynomial is a tuple of int coefficients from the constant term up, with
no trailing zeros; the zero polynomial is the empty tuple.  The root
machinery is integer-only: Sturm sequences, gcds and exact division run on
primitive pseudo-remainders over Z, and the sign of a polynomial at a
rational a/b is the sign of the integer b^deg * p(a/b).  One remainder
sequence per polynomial gives both its squarefree part and the Sturm
sequence of that part, since the last term of the Sturm sequence of p is
gcd(p, p') up to a constant; a second sequence is built only for a p with a
repeated factor.  Sturm counts in half-open intervals with rational
endpoints, and bisection against those counts, isolate the real roots; the bisection keeps its endpoints as integer
numerators over one denominator and evaluates the Sturm sequence once per
split.  The same sequences with p' q in place of
p' answer Tarski queries: the sum of the signs of q over the roots of p in
an interval, which gives the sign of q at an isolated root.  Defining
polynomials of polynomial images of algebraic numbers are resultants over
Z[t], Sylvester determinants by fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd


class ZeroPolynomial(Exception):
    pass


def normalize(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def lead(p):
    if not p:
        raise ZeroPolynomial("leading coefficient of 0")
    return p[-1]


def constant(c) -> tuple:
    return normalize([c])


X = (0, 1)


def add(p, q) -> tuple:
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def neg(p) -> tuple:
    return tuple(-c for c in p)


def sub(p, q) -> tuple:
    return add(p, neg(q))


def mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def scale(p, c) -> tuple:
    return normalize([c * a for a in p])


def power(p, k: int) -> tuple:
    """p^k by repeated squaring."""
    out = (1,)
    while k:
        if k & 1:
            out = mul(out, p)
        k >>= 1
        if k:
            p = mul(p, p)
    return out


def compose(p, q) -> tuple:
    """p(q(t)) by Horner."""
    out = ()
    for c in reversed(p):
        out = add(mul(out, q), constant(c))
    return out


def deriv(p) -> tuple:
    return normalize([i * p[i] for i in range(1, len(p))])


def evaluate(p, x):
    """Exact evaluation; x may be int or Fraction."""
    acc = Fraction(0) if isinstance(x, Fraction) else 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def content(p) -> int:
    g = 0
    for c in p:
        g = int_gcd(g, abs(c))
    return g


def _shrink(p, sign=1) -> tuple:
    """p divided by its positive content, times sign (+1 or -1)."""
    g = content(p) * sign
    return tuple(c // g for c in p) if p else ()


def primitive(p) -> tuple:
    """Primitive part with positive leading coefficient."""
    return _shrink(p, -1 if p and p[-1] < 0 else 1)


def _prem(a, b) -> tuple:
    """A positive integer multiple of the remainder of a by b over Q.

    Each step scales the running remainder by |lc(b)| / g and subtracts
    sign(lc(b)) * (leading coefficient / g) times a shift of b, where g is
    the gcd of the two leading coefficients; no scale factor is negative.
    """
    r = list(a)
    lb, nb = b[-1], len(b) - 1
    while len(r) > nb:
        c = r[-1]
        g = int_gcd(c, lb)
        s = abs(lb) // g
        f = c // g if lb > 0 else -c // g
        if s != 1:
            r = [s * x for x in r]
        k = len(r) - 1 - nb
        for i in range(nb):
            r[k + i] -= f * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def gcd(p, q) -> tuple:
    """Primitive gcd with positive leading coefficient, by a primitive
    pseudo-remainder sequence."""
    a, b = primitive(p), primitive(q)
    while b:
        a, b = b, primitive(_prem(a, b))
    return a


def divexact(p, q) -> tuple:
    """p / q by integer long division, for q dividing p with an integral
    quotient (by Gauss's lemma, any primitive q dividing p over Q)."""
    r = list(p)
    lq, nq = q[-1], len(q) - 1
    quo = [0] * max(len(r) - nq, 0)
    while len(r) > nq:
        f, m = divmod(r[-1], lq)
        if m:
            raise ValueError("quotient is not integral")
        k = len(r) - 1 - nq
        quo[k] = f
        for i in range(nq):
            r[k + i] -= f * q[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    if r:
        raise ValueError("division is not exact")
    return normalize(quo)


# ---------------------------------------------------------------------------
# Sturm sequences and root counting


def sturm_sequence(p, q=(1,)):
    """The Sturm-Tarski sequence of p and q over Z.

    The terms are p and p' q divided by their contents, then the negated
    pseudo-remainders made primitive.  Each term is a positive rational
    multiple of the corresponding term of the signed-remainder sequence
    over Q, so every sign and every variation count is the same.  With
    q = 1 this is the Sturm sequence of p, and count_roots_halfopen(seq, a,
    b) counts the distinct roots of p in (a, b].  For any q it is the Tarski
    query TaQ(q, p; a, b], the number of roots x of p in (a, b] with
    q(x) > 0 minus the number with q(x) < 0, provided neither a nor b is a
    root of p.

    Only the signs of q at the roots of p count, so a q of degree at least
    that of p is first replaced by its pseudo-remainder by p, a positive
    multiple of its remainder over Q, which has those signs.
    """
    seq = [_shrink(p)]
    if len(q) >= len(p) > 1:
        q = _prem(q, p)
    d = mul(deriv(p), q)
    if d:
        seq.append(_shrink(d))
        while True:
            r = _prem(seq[-2], seq[-1])
            if not r:
                break
            seq.append(_shrink(r, -1))
    return seq


def squarefree_sturm(p):
    """(sf, seq): the squarefree primitive part sf of p (same real roots, all
    simple) and a Sturm sequence seq of sf, from one remainder sequence.

    The last term of the Sturm sequence of p is gcd(p, p') up to a constant
    factor.  If it is constant, p is squarefree, sf is primitive(p) and the
    sequence of p serves for sf: each of its terms is the same positive
    multiple of the corresponding term for sf, or minus it, so every
    variation count agrees.  Otherwise sf is primitive(p) over that gcd,
    and its own sequence is built; the sequence of p is never used for
    counting then, since all its terms vanish at a multiple root.
    """
    if not p:
        raise ZeroPolynomial("squarefree part of 0")
    seq = sturm_sequence(p)
    if degree(seq[-1]) == 0:
        return primitive(p), seq
    sf = divexact(primitive(p), primitive(seq[-1]))
    return sf, sturm_sequence(sf)


def sign_at_rational(p, x, d=1) -> int:
    """The sign of p at the rational x / d, for x an int or Fraction and d a
    positive int: with x / d = a/b, the sign of b^deg * p(a/b), computed by
    homogeneous integer Horner.  Integer endpoints a/d pass x = a.

    A numerator above 64 bits is first tested against the root bound
    2^_root_bits(p): beyond it the leading term gives the sign, with no
    evaluation on numbers that may have a million bits."""
    a, b = x.numerator, x.denominator * d
    if a.bit_length() > 64 and p and abs(a) >= b << _root_bits(p):
        s = _sign(p[-1])
        return s if a > 0 or len(p) % 2 else -s
    acc = 0
    bk = 1
    for c in reversed(p):
        acc = acc * a + c * bk
        bk *= b
    return _sign(acc)


@lru_cache(maxsize=64)
def _root_bits(p) -> int:
    """k >= 0 such that every complex root of the nonzero p has modulus
    below 2^k, from bit lengths: Fujiwara's bound 2 max |a_i / a_n|^(1/(n-i))
    (Fujiwara, Tohoku Math. J. 10, 1916), with |a_i / a_n| below
    2^(bitlen a_i - bitlen a_n + 1).  Computed once per polynomial while it
    stays among the last 64 asked for."""
    n = len(p) - 1
    top = abs(p[-1]).bit_length()
    return max(0, 1 + max((-((top - 1 - abs(c).bit_length()) // (n - i))
                           for i, c in enumerate(p[:-1]) if c), default=-1))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def variations_at(seq, x, d=1) -> int:
    """Sign variations of seq at the rational x / d, as in sign_at_rational."""
    return _variations([sign_at_rational(q, x, d) for q in seq])


def nonroot_variations(seq, x, d=1):
    """Sign variations of seq at x / d, or None if x / d is a root of its
    first term: one evaluation of seq answers both."""
    signs = [sign_at_rational(q, x, d) for q in seq]
    return _variations(signs) if signs[0] else None


def variations_at_neg_inf(seq) -> int:
    return _variations([_sign(q[-1]) * (-1) ** (len(q) - 1 & 1) if q else 0 for q in seq])


def variations_at_pos_inf(seq) -> int:
    return _variations([_sign(q[-1]) if q else 0 for q in seq])


def count_roots_halfopen(seq, a, b, d=1) -> int:
    """Number of roots in (a / d, b / d]; a, b rational or None for the
    infinities, d a positive int as in sign_at_rational."""
    va = variations_at_neg_inf(seq) if a is None else variations_at(seq, a, d)
    vb = variations_at_pos_inf(seq) if b is None else variations_at(seq, b, d)
    return va - vb


def root_bound(p) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    if degree(p) < 1:
        raise ZeroPolynomial("root bound needs degree >= 1")
    lc = abs(p[-1])
    return Fraction(1) + max(Fraction(abs(c), lc) for c in p[:-1]) if len(p) > 1 else Fraction(1)


def isolate_real_roots(p):
    """Disjoint isolating data for the real roots of p (any nonzero p).

    Returns a sorted list of ('rational', r) and ('interval', lo, hi)
    entries; each interval has rational non-root endpoints and contains
    exactly one root of the squarefree part of p.
    """
    if not p:
        raise ZeroPolynomial("cannot isolate roots of 0")
    return [("rational", Fraction(e[1], e[2])) if e[0] == "rational"
            else ("interval", Fraction(e[1], e[3]), Fraction(e[2], e[3]))
            for e in isolate_squarefree_roots(*squarefree_sturm(p))]


def isolate_squarefree_roots(sf, seq):
    """The real roots of a squarefree sf with Sturm sequence seq (as from
    squarefree_sturm), sorted, with integer endpoints:
    ('rational', m, d) for a root m/d and ('interval', a, b, d) for an
    interval (a/d, b/d) with non-root ends holding exactly one root; d > 0.

    Bisection of the root bound (-B, B) against Sturm counts.  Each
    interval carries the sign variations V of the Sturm sequence at its
    ends, so a split evaluates the sequence once, at the midpoint m: the
    left half (lo, m] holds V(lo) - V(m) roots and the right half the rest.
    All ends at one depth share one denominator, that of B times 2^depth.
    """
    if degree(sf) < 1:
        return []
    bound = root_bound(sf)
    out = []

    def refine(a, b, d, va, vb):
        # neither a/d nor b/d is a root; (a/d, b/d) holds va - vb roots
        if va == vb:
            return
        if va - vb == 1:
            out.append(("interval", a, b, d))
            return
        m = a + b
        vm = nonroot_variations(seq, m, 2 * d)
        if vm is not None:
            refine(2 * a, m, 2 * d, va, vm)
            refine(m, 2 * b, 2 * d, vm, vb)
            return
        # the midpoint m/2d is a root: over the denominator 4d it is 2m/4d,
        # and the radius e/4d starts at a quarter of the width and halves
        # until it isolates the midpoint with non-root ends
        a, b, m, e, d = 4 * a, 4 * b, 2 * m, b - a, 4 * d
        while True:
            vl, vr = nonroot_variations(seq, m - e, d), nonroot_variations(seq, m + e, d)
            if vl is not None and vr is not None and vl - vr == 1:
                break
            a, b, m, d = 2 * a, 2 * b, 2 * m, 2 * d
        refine(a, m - e, d, va, vl)
        out.append(("rational", m, d))
        refine(m + e, b, d, vr, vb)

    refine(-bound.numerator, bound.numerator, bound.denominator,
           variations_at_neg_inf(seq), variations_at_pos_inf(seq))
    return out


def image_defining_poly(a_poly, p):
    """(q, seq): a squarefree integer polynomial q vanishing on p(alpha) for
    every root alpha of a_poly, and its Sturm sequence, as from
    squarefree_sturm.  q is the squarefree part of the resultant
    Res_s(a_poly(s), t - p(s)), which is +-lc(a_poly)^deg(p) times the
    product of t - p(alpha) over the roots.

    It is the determinant of the Sylvester matrix of the two polynomials in
    s, whose entries lie in Z[t], by fraction-free (Bareiss) elimination:
    each division by the previous pivot is exact in Z[t].  The determinant
    has t-degree deg(a_poly) and is never zero, so a zero pivot always has a
    nonzero entry below it; the sign of a row swap is dropped, since
    squarefree_sturm() returns a positive leading coefficient anyway.
    """
    n, d = degree(a_poly), degree(p)
    size = n + d
    a = [constant(c) for c in a_poly]
    b = [add(constant(-p[0]), X)] + [constant(-c) for c in p[1:]]
    m = ([[()] * i + a + [()] * (d - 1 - i) for i in range(d)]
         + [[()] * i + b + [()] * (n - 1 - i) for i in range(n)])
    prev = (1,)
    for k in range(size - 1):
        if not m[k][k]:
            i = next(i for i in range(k + 1, size) if m[i][k])
            m[k], m[i] = m[i], m[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = divexact(sub(mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j])), prev)
        prev = m[k][k]
    return squarefree_sturm(m[-1][-1])


def eval_interval(p, a, b, d):
    """Integer bounds (m, M, D) with [m/D, M/D] enclosing p([a/d, b/d]) by
    interval Horner, for a <= b and d > 0; D = d^deg p.

    The bounds after k coefficients are kept multiplied by d^(k-1), so every
    step is integer.
    """
    m = M = 0
    dk = 1
    for c in reversed(p):
        cands = (m * a, m * b, M * a, M * b)
        m, M = min(cands) + c * dk, max(cands) + c * dk
        dk *= d
    return m, M, d ** max(len(p) - 1, 0)


# ---------------------------------------------------------------------------
# printing


def to_str(p) -> str:
    """Canonical human form: descending powers of t, '^' only for exponents
    >= 2, unit coefficients omitted; parses back to the same polynomial."""
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            t = "t" if i == 1 else f"t^{i}"
            term = t if mag == 1 else f"{mag}*{t}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
