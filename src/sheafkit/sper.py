"""An exact model of the real spectrum of the rational affine line.

Points are real algebraic numbers, cuts infinitesimally left or right of
them, and the two infinite ends; the cuts specialize to their centers.
Constructible subsets are kept in canonical cell form over a finite sorted
set of algebraic numbers: an alternating list of intervals and points with
a membership flag per cell, normalized so that no boundary point is
removable.  Transcendental cuts are never represented individually; they
live inside their interval cell, which is as fine as constructible data
can distinguish.

Everything is exact: algebraic numbers are squarefree integer polynomials
with isolating rational intervals, whose endpoints are integer numerators
over one denominator, compared by cross-multiplying.  Halving an interval
is deterministic, so every number keeps its halving once made, and the
comparisons of root merges, refine_disjoint, fiber sums and images of
points reuse each other's refinements.  Images under polynomial maps come
from image polynomials, resultants over Z[t] computed by Bareiss
elimination.  The one question asked at an algebraic number a is the sign
of a polynomial f there, and it is one Tarski query: the Sturm-Tarski count
of a.poly and f over the isolating interval, which holds exactly one root
of a.poly.  Signs on cuts follow from the first derivative of f that does
not vanish at the center.

Root lists are combined by one merge that tags each root with the lists
holding it.  Formulas decide signs by provenance: with disjoint isolating
intervals every sign is read at a rational between two intervals, off a
leading term or off the tags.  Unions, intersections and transfers along a
refinement read each fine cell's coarse cell off the tags, and a preimage
is the pullback of an indicator.  The pushforward builds one image
polynomial and its Sturm sequence per distinct upstream polynomial.  Fiber
sums at a value b count the roots of b.poly(p(t)) between the upstream
roots, isolating none: at a rational b all of them lie in the fiber, and at
an irrational b a Tarski query of the sign of (p - b.lo)(b.hi - p) keeps
those that p maps into b's isolating interval.  Their hits, the upstream
roots where b.poly(p(t)) vanishes, are read off the images of those roots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import intpoly as ip
from .k0 import ConsFunction
from .space import FinSpec
from .intpoly import ZeroPolynomial


class SperError(Exception):
    pass


class ConstantMap(SperError):
    pass


class InconsistentSamples(SperError):
    """Cell values disagreeing between samples; an implementation bug."""


class AlgNumber:
    """A real algebraic number: squarefree defining polynomial plus an
    isolating open rational interval (lo, hi) with non-root endpoints.

    The endpoints are integer numerators over one positive denominator,
    lo = _a/_d and hi = _b/_d.  Halving doubles the denominator, so it is
    the starting one times a power of two (times four more after a midpoint
    turns out to be the root), and the interval tests cross-multiply.  Once
    the denominator passes 64 bits, a halving shifts the common power of two
    out of all three, so an interval that shrinks from near a huge root
    bound keeps short numbers.  The Fractions lo and hi are built only when
    read.

    refined() is deterministic, so a number keeps its one-step refinement
    once made (_next): a halving made by one comparison is a lookup for
    every later comparison or refinement of the same number, and a number
    holds the chain of its refinements for as long as it lives.  The sign
    of poly at lo is the same along the chain and is read once (_slo, 0
    until read).
    """

    __slots__ = ("poly", "_a", "_b", "_d", "_slo", "_next")

    def __init__(self, poly, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        d = lcm(lo.denominator, hi.denominator)
        self.poly = tuple(poly)
        self._a = lo.numerator * (d // lo.denominator)
        self._b = hi.numerator * (d // hi.denominator)
        self._d = d
        self._slo = 0
        self._next = None
        if ip.degree(self.poly) < 1:
            raise SperError("defining polynomial must be nonconstant")
        # the last term of the Sturm sequence is gcd(poly, poly') up to a
        # constant factor
        seq = ip.sturm_sequence(self.poly)
        if ip.degree(seq[-1]) != 0:
            raise SperError("defining polynomial is not squarefree")
        if not lo < hi:
            raise SperError("empty isolating interval")
        if (ip.sign_at_rational(self.poly, lo) == 0
                or ip.sign_at_rational(self.poly, hi) == 0):
            raise SperError("interval endpoints must not be roots")
        if self.count(seq) != 1:
            raise SperError("interval does not isolate exactly one root")

    @classmethod
    def _of(cls, poly, a, b, d, slo=0) -> "AlgNumber":
        """The number isolated by (a/d, b/d), unchecked; slo is the sign of
        poly at a/d, or 0 if not yet read."""
        x = object.__new__(cls)
        x.poly, x._a, x._b, x._d, x._slo, x._next = poly, a, b, d, slo, None
        return x

    @classmethod
    def from_rational(cls, r) -> "AlgNumber":
        # a linear polynomial with positive leading coefficient is
        # negative left of its root
        n, d = r.numerator, r.denominator
        return cls._of(ip.primitive((-n, d)), n - d, n + d, d, -1)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._d)

    def is_rational(self) -> bool:
        return ip.degree(self.poly) == 1

    def _ratio(self):
        """(n, d) with d > 0 and n/d the root of a linear poly."""
        c0, c1 = self.poly
        return (-c0, c1) if c1 > 0 else (c0, -c1)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise SperError("not represented by a linear polynomial")
        return Fraction(*self._ratio())

    def count(self, seq) -> int:
        """The Sturm count of seq over the isolating interval (lo, hi]."""
        return ip.count_roots_halfopen(seq, self._a, self._b, self._d)

    def refined(self) -> "AlgNumber":
        """Halve the isolating interval (exact rational detection included).

        The root is simple and the only one in the interval, so the
        polynomial changes sign across it and nowhere else in the interval:
        the half whose endpoints differ in sign keeps it.  A midpoint that
        is the root gives its linear polynomial, over the middle half.
        """
        nxt = self._next
        if nxt is None:
            poly, a, b, d = self.poly, self._a, self._b, self._d
            m = a + b
            s = ip.sign_at_rational(poly, m, 2 * d)
            if s == 0:
                nxt = AlgNumber._of(ip.primitive((-m, 2 * d)), 2 * a + m, m + 2 * b, 4 * d, -1)
            else:
                slo = self._slo or ip.sign_at_rational(poly, a, d)
                self._slo = slo
                a, b, d = (2 * a, m, 2 * d) if s != slo else (m, 2 * b, 2 * d)
                if d.bit_length() > 64:  # shift out the common power of two
                    z = ((a | b | d) & -(a | b | d)).bit_length() - 1
                    a, b, d = a >> z, b >> z, d >> z
                nxt = AlgNumber._of(poly, a, b, d, slo)
            self._next = nxt
        return nxt

    def _compare_rational(self, n, d) -> int:
        """compare against n/d, d > 0."""
        if self.is_rational():
            rn, rd = self._ratio()
            return _sign_of_fraction(rn * d - n * rd)
        me = self
        if me._a * d < n * me._d < me._b * d:
            if ip.sign_at_rational(self.poly, n, d) == 0:
                return 0
            while me._a * d < n * me._d < me._b * d:
                me = me.refined()
        return -1 if me._b * d <= n * me._d else 1

    def compare(self, other) -> int:
        """-1, 0 or 1 against another AlgNumber or a rational."""
        if isinstance(other, (int, Fraction)):
            return self._compare_rational(other.numerator, other.denominator)
        if not isinstance(other, AlgNumber):
            raise TypeError(f"cannot compare with {type(other).__name__}")
        if other.is_rational():
            return self._compare_rational(*other._ratio())
        if self.is_rational():
            return -other._compare_rational(*self._ratio())
        a, b = self, other
        # the intervals overlap: a.lo < b.hi and b.lo < a.hi
        if a._a * b._d < b._b * a._d and b._a * a._d < a._b * b._d:
            g = a.poly if a.poly == b.poly else ip.gcd(a.poly, b.poly)
            if ip.degree(g) >= 1:
                lo = a if a._a * b._d >= b._a * a._d else b
                hi = a if a._b * b._d <= b._b * a._d else b
                seq = ip.sturm_sequence(g)
                if ip.count_roots_halfopen(seq, lo._a * hi._d, hi._b * lo._d, lo._d * hi._d) == 1:
                    return 0
        while a._b * b._d > b._a * a._d and b._b * a._d > a._a * b._d:
            a, b = a.refined(), b.refined()
        return -1 if a._b * b._d <= b._a * a._d else 1

    def __eq__(self, other):
        if isinstance(other, (AlgNumber, int, Fraction)):
            return self.compare(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __str__(self):
        return f"root({ip.to_str(self.poly)}, {ip.frac_str(self.lo)}, {ip.frac_str(self.hi)})"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class SperPoint:
    """A point of the real spectrum of the affine line.

    kind is one of "alg" (a closed algebraic point), "cut-" / "cut+" (the
    orderings placing t infinitesimally left / right of the center, which
    specialize to it), "-inf" and "+inf" (closed ends).  A rational center
    is stored as an AlgNumber.
    """

    kind: str
    center: AlgNumber | None = None

    def __post_init__(self):
        if self.kind not in ("alg", "cut-", "cut+", "-inf", "+inf"):
            raise SperError(f"unknown point kind {self.kind!r}")
        if self.kind in ("alg", "cut-", "cut+") and self.center is None:
            raise SperError("this kind of point needs a center")
        if isinstance(self.center, (int, Fraction)):
            object.__setattr__(self, "center", AlgNumber.from_rational(self.center))

    @classmethod
    def alg(cls, a):
        return cls("alg", a)

    @classmethod
    def cut_minus(cls, a):
        return cls("cut-", a)

    @classmethod
    def cut_plus(cls, a):
        return cls("cut+", a)

    @classmethod
    def neg_inf(cls):
        return cls("-inf")

    @classmethod
    def pos_inf(cls):
        return cls("+inf")

    def specializes_to(self, other: "SperPoint") -> bool:
        """Whether this point lies in every neighbourhood closure: cuts
        specialize to their centers, everything to itself."""
        if same_point(self, other):
            return True
        return (other.kind == "alg" and self.kind in ("cut-", "cut+")
                and self.center.compare(other.center) == 0)

    def __str__(self):
        if self.kind == "alg":
            return str(self.center)
        if self.kind == "cut-":
            return f"{self.center}^-"
        if self.kind == "cut+":
            return f"{self.center}^+"
        return self.kind


def same_point(x: SperPoint, y: SperPoint) -> bool:
    if x.kind != y.kind:
        return False
    if x.kind in ("-inf", "+inf"):
        return True
    return x.center.compare(y.center) == 0


def real_roots(f) -> list:
    """All real roots of a nonzero integer polynomial, sorted, exact."""
    f = ip.normalize(f)
    if not f:
        raise ZeroPolynomial("real_roots of the zero polynomial")
    sf, seq = ip.squarefree_sturm(f)
    return [AlgNumber.from_rational(Fraction(e[1], e[2])) if e[0] == "rational"
            else AlgNumber._of(sf, *e[1:]) for e in ip.isolate_squarefree_roots(sf, seq)]


def _sign_of_fraction(x) -> int:
    return (x > 0) - (x < 0)


def _sign_at_root(f, a: AlgNumber) -> int:
    """The sign of f at a: the Tarski query of f at the roots of a.poly in
    (a.lo, a.hi], exact since exactly one root lies there and neither end is
    a root; a linear a.poly is evaluated directly."""
    if a.is_rational():
        return ip.sign_at_rational(f, *a._ratio())
    return a.count(ip.sturm_sequence(a.poly, f))


def sign_at(f, x: SperPoint) -> int:
    """The sign of the polynomial f at a point of the real spectrum.

    On a cut it is the sign of f just beside the center: that of the first
    derivative f^(k) not vanishing at the center, times (-1)^k on the left.
    """
    f = ip.normalize(f)
    if not f:
        return 0
    if x.kind == "+inf":
        return _sign_of_fraction(ip.lead(f))
    if x.kind == "-inf":
        return _sign_of_fraction(ip.lead(f)) * (-1 if ip.degree(f) % 2 else 1)
    s, k = _sign_at_root(f, x.center), 0
    while not s and x.kind != "alg":
        f, k = ip.deriv(f), k + 1
        s = _sign_at_root(f, x.center)
    return -s if x.kind == "cut-" and k % 2 else s


# ---------------------------------------------------------------------------
# constructible sets in cell form


def locate_cell(roots, x) -> int:
    """Cell position of a value among sorted roots: 2j for the j-th open
    interval (0 = leftmost), 2j+1 for the (j+1)-st root."""
    for j, r in enumerate(roots):
        c = r.compare(x)
        if c == 0:
            return 2 * j + 1
        if c > 0:
            return 2 * j
    return 2 * len(roots)


def _cell_of_sper_point(roots, pt: SperPoint) -> int:
    if pt.kind == "-inf":
        return 0
    if pt.kind == "+inf":
        return 2 * len(roots)
    pos = locate_cell(roots, pt.center)
    if pt.kind == "alg" or pos % 2 == 0:
        return pos
    return pos + 1 if pt.kind == "cut+" else pos - 1


def merge_roots(a, b) -> list:
    """Sorted union of two sorted AlgNumber lists, without duplicates."""
    return [r for r, _ in _merge_tagged([(r, 0) for r in a], [(r, 0) for r in b])]


def _merge_tagged(a, b) -> list:
    """Sorted union of two sorted lists of (AlgNumber, int bit set) pairs;
    of two equal roots (decided exactly) the first is kept, with the union
    of both bit sets."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        c = a[i][0].compare(b[j][0])
        if c < 0:
            out.append(a[i])
            i += 1
        elif c > 0:
            out.append(b[j])
            j += 1
        else:
            out.append((a[i][0], a[i][1] | b[j][1]))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _tagged_roots(polys) -> list:
    """The merged real roots of polys, each paired with the bit set of the
    polynomials vanishing there (bit i for polys[i]); constants add none."""
    tagged = []
    for bit, f in enumerate(polys):
        if ip.degree(f) >= 1:
            tagged = _merge_tagged(tagged, [(r, 1 << bit) for r in real_roots(f)])
    return tagged


def _spread(values, tagged, bit) -> list:
    """Values on the cells of the merged roots from one value per cell of the
    roots tagged with bit: such a root keeps its point cell's value, and each
    other fine cell takes that of the coarse interval cell holding it."""
    out, c = [values[0]], 0
    for _, tag in tagged:
        if tag & bit:
            out.append(values[c + 1])
            c += 2
        else:
            out.append(values[c])
        out.append(values[c])
    return out


def dedupe_roots(roots) -> list:
    """Sorted distinct copy of AlgNumbers, one comparison per root of sorted input."""
    out = []
    for r in roots:
        k, c = len(out), -1
        while k > 0 and (c := out[k - 1].compare(r)) > 0:
            k -= 1
        if c != 0:
            out.insert(k, r)
    return out


class SperConstructible:
    """A constructible subset of the real spectrum of the line, in canonical
    cell form: sorted distinct roots a_1 < ... < a_k and one membership flag
    for each of the 2k+1 cells I_0, {a_1}, I_1, ..., {a_k}, I_k."""

    __slots__ = ("roots", "mask")

    def __init__(self, roots, mask):
        roots = list(roots)
        mask = list(mask)
        if len(mask) != 2 * len(roots) + 1:
            raise SperError("mask length must be 2k+1")
        j = 0
        while j < len(roots):
            if mask[2 * j] == mask[2 * j + 1] == mask[2 * j + 2]:
                del roots[j]
                del mask[2 * j + 1:2 * j + 3]
            else:
                j += 1
        self.roots = tuple(roots)
        self.mask = tuple(bool(b) for b in mask)

    @classmethod
    def whole(cls) -> "SperConstructible":
        return cls((), (True,))

    def is_empty(self) -> bool:
        return not any(self.mask)

    def is_whole(self) -> bool:
        return all(self.mask)

    def contains(self, pt: SperPoint) -> bool:
        return self.mask[_cell_of_sper_point(self.roots, pt)]

    def complement(self) -> "SperConstructible":
        return SperConstructible(self.roots, tuple(not b for b in self.mask))

    def union(self, other: "SperConstructible") -> "SperConstructible":
        return self._combine(other, operator.or_)

    def intersect(self, other: "SperConstructible") -> "SperConstructible":
        return self._combine(other, operator.and_)

    def _combine(self, other, op) -> "SperConstructible":
        """Cellwise op of the memberships over the common refinement."""
        tagged = _merge_tagged([(r, 1) for r in self.roots], [(r, 2) for r in other.roots])
        return SperConstructible([r for r, _ in tagged], map(
            op, _spread(self.mask, tagged, 1), _spread(other.mask, tagged, 2)))

    def __eq__(self, other):
        if not isinstance(other, SperConstructible):
            return NotImplemented
        if self.mask != other.mask or len(self.roots) != len(other.roots):
            return False
        return all(a.compare(b) == 0 for a, b in zip(self.roots, other.roots))

    def __str__(self):
        return " ".join(f"{m}:{'in' if b else 'out'}"
                        for m, b in zip(cell_markers(self.roots), self.mask))

    def __repr__(self):
        return f"SperConstructible({self})"


def cell_markers(roots) -> list:
    """Printable cell markers left to right: (-inf,a1) {a1} (a1,a2) ... ."""
    k = len(roots)
    if k == 0:
        return ["(-inf,inf)"]
    out = [f"(-inf,{roots[0]})"]
    for j, r in enumerate(roots):
        out.append(f"{{{r}}}")
        right = str(roots[j + 1]) if j + 1 < k else "inf"
        out.append(f"({r},{right})")
    return out


def closure(s: SperConstructible) -> SperConstructible:
    """Add to every included interval cell its finite endpoints (the cuts in
    the interval specialize to them); idempotent."""
    mask = list(s.mask)
    k = len(s.roots)
    for j in range(0, 2 * k + 1, 2):
        if mask[j]:
            if j > 0:
                mask[j - 1] = True
            if j < 2 * k:
                mask[j + 1] = True
    return SperConstructible(s.roots, mask)


def interior(s: SperConstructible) -> SperConstructible:
    return closure(s.complement()).complement()


def is_closed_set(s: SperConstructible) -> bool:
    return closure(s) == s


# ---------------------------------------------------------------------------
# sign-condition formulas


@dataclass(frozen=True)
class Atom:
    """A sign condition 'poly op 0'."""

    poly: tuple
    op: str

    def __post_init__(self):
        if self.op not in ("<", "<=", "=", "!=", ">=", ">"):
            raise SperError(f"unknown relation {self.op!r}")

    def holds(self, sign: int) -> bool:
        return {
            "<": sign < 0, "<=": sign <= 0, "=": sign == 0,
            "!=": sign != 0, ">=": sign >= 0, ">": sign > 0,
        }[self.op]


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class Not:
    child: object


FORMULA_TRUE = Atom((), "=")
FORMULA_FALSE = Atom((), "!=")


def formula_atoms(phi) -> list:
    if isinstance(phi, Atom):
        return [phi]
    if isinstance(phi, Not):
        return formula_atoms(phi.child)
    out = []
    for c in phi.children:
        out.extend(formula_atoms(c))
    return out


def _eval_formula(phi, sign_of) -> bool:
    if isinstance(phi, Atom):
        return phi.holds(sign_of(phi.poly))
    if isinstance(phi, Not):
        return not _eval_formula(phi.child, sign_of)
    if isinstance(phi, And):
        return all(_eval_formula(c, sign_of) for c in phi.children)
    if isinstance(phi, Or):
        return any(_eval_formula(c, sign_of) for c in phi.children)
    raise SperError(f"not a formula: {phi!r}")


def refine_disjoint(roots) -> list:
    """Refined copies of sorted roots with pairwise disjoint intervals."""
    roots = list(roots)
    for i in range(len(roots) - 1):
        a, b = roots[i], roots[i + 1]
        while a._b * b._d > b._a * a._d:
            a, b = a.refined(), b.refined()
        roots[i], roots[i + 1] = a, b
    return roots


def _gap_midpoints(roots) -> list:
    """(n, d), d > 0, with n/d midway between each two neighbouring roots'
    disjoint isolating intervals."""
    return [(a._b * b._d + b._a * a._d, 2 * a._d * b._d) for a, b in zip(roots, roots[1:])]


def cell_samples(roots):
    """(refined roots, one evaluation point per cell): rational samples in
    the interval cells, the algebraic points themselves in the point cells."""
    if not roots:
        return [], [Fraction(0)]
    roots = refine_disjoint(roots)
    samples = [roots[0].lo]
    for r, mid in zip(roots, _gap_midpoints(roots)):
        samples += [r, Fraction(*mid)]
    samples += [roots[-1], roots[-1].hi]
    return roots, samples


def _sign_vector(f, bit: int, gaps, tags) -> list:
    """Signs of f on the 2k+1 cells of k sorted roots with disjoint
    isolating intervals, given every root of f among them and k - 1
    rationals (n, d), d > 0, one between each two neighbouring intervals
    (an end counts); bit marks f in the bit set tags[j] of the polynomials
    vanishing at the j-th root."""
    k = len(tags)
    if not f:
        return [0] * (2 * k + 1)
    lead = _sign_of_fraction(ip.lead(f))
    out = [lead * (-1 if ip.degree(f) % 2 else 1)]
    for j in range(k):
        if j + 1 < k:
            right = ip.sign_at_rational(f, *gaps[j])
        else:
            right = lead
        # f(r_j) != 0 and no root of f lies in (r_j, r_{j+1}), so f has
        # one sign on [r_j, r_{j+1})
        out.append(0 if tags[j] >> bit & 1 else right)
        out.append(right)
    return out


def from_formula(phi) -> SperConstructible:
    """The solution set of a Boolean combination of sign conditions.

    Signs by provenance: the roots of the distinct atom polynomials are
    merged, each merged root tagged with the polynomials vanishing there
    (the merge decides equality exactly).  Once the isolating intervals are
    disjoint, every atom is sign-constant on each cell: on an interval cell
    its sign is read at the end of a neighbouring interval that faces it,
    the one with the shorter denominator (half the bits of the midpoint
    between them), or off the leading term on the two unbounded cells; at
    a root it is 0 for the tagged polynomials and otherwise the sign on the
    interval cell to the right.  The formula is evaluated per cell on this
    table, with no sign evaluation at an algebraic point.
    """
    atoms = formula_atoms(phi)
    polys = list(dict.fromkeys(ip.normalize(a.poly) for a in atoms))
    tagged = _tagged_roots(polys)
    roots = refine_disjoint([r for r, _ in tagged])
    tags = [t for _, t in tagged]
    ends = [min((a._b, a._d), (b._a, b._d), key=lambda e: e[1].bit_length())
            for a, b in zip(roots, roots[1:])]
    vectors = {f: _sign_vector(f, bit, ends, tags) for bit, f in enumerate(polys)}
    signs = {a.poly: vectors[ip.normalize(a.poly)] for a in atoms}
    mask = [_eval_formula(phi, lambda f: signs[f][pos])
            for pos in range(2 * len(roots) + 1)]
    return SperConstructible(roots, mask)


def _rational_atom(r: Fraction, op: str) -> Atom:
    # t op r  <=>  den*t - num op 0
    r = Fraction(r)
    return Atom((-r.numerator, r.denominator), op)


def _atom_beyond_root(r: AlgNumber, side: int):
    """A formula for t > r (side 1) or t < r (side -1): past the far end of
    r's interval, or past the near end with r.poly signed as just past r."""
    op = ">" if side > 0 else "<"
    if r.is_rational():
        return _rational_atom(r.as_rational(), op)
    near, far = (r.lo, r.hi) if side > 0 else (r.hi, r.lo)
    sigma = sign_at(r.poly, SperPoint("cut+" if side > 0 else "cut-", r))
    return Or((
        _rational_atom(far, op + "="),
        And((_rational_atom(near, op), Atom(ip.scale(r.poly, sigma), ">"))),
    ))


def _atom_eq_root(r: AlgNumber):
    if r.is_rational():
        return _rational_atom(r.as_rational(), "=")
    return And((
        Atom(r.poly, "="),
        _rational_atom(r.lo, ">"),
        _rational_atom(r.hi, "<"),
    ))


def defining_formula(s: SperConstructible):
    """A sign-condition formula whose solution set is s, synthesized cell by
    cell from the canonical form."""
    if s.is_empty():
        return FORMULA_FALSE
    if s.is_whole():
        return FORMULA_TRUE
    roots = refine_disjoint(list(s.roots))
    k = len(roots)
    pieces = []
    for pos, included in enumerate(s.mask):
        if not included:
            continue
        if pos % 2 == 1:
            pieces.append(_atom_eq_root(roots[(pos - 1) // 2]))
            continue
        conds = []
        if pos > 0:
            conds.append(_atom_beyond_root(roots[pos // 2 - 1], 1))
        if pos < 2 * k:
            conds.append(_atom_beyond_root(roots[pos // 2], -1))
        pieces.append(And(tuple(conds)) if len(conds) > 1 else conds[0])
    return Or(tuple(pieces)) if len(pieces) > 1 else pieces[0]


# ---------------------------------------------------------------------------
# the finite cell poset


@dataclass(frozen=True)
class CellPoset:
    """The finite spectral space of cells over a root set, with labels.

    Interval cells are the generic points and each algebraic point cell
    sits under (specializes from) its two neighbouring interval cells, so
    the dimension is 1 as soon as there is at least one root.
    """

    roots: tuple
    space: FinSpec
    cells: tuple  # position -> point identifier

    def point_at(self, pos: int):
        return self.cells[pos]

    @cached_property
    def markers(self) -> list:
        return cell_markers(self.roots)

    def marker(self, pos: int) -> str:
        return self.markers[pos]


def cell_poset(arg) -> CellPoset:
    """The cell poset of a constructible set or of a root list."""
    if isinstance(arg, SperConstructible):
        roots = list(arg.roots)
    else:
        roots = dedupe_roots(list(arg))
    k = len(roots)
    n = 2 * k + 1
    width = max(2, len(str(n - 1)))
    names = [f"c{pos:0{width}d}" for pos in range(n)]
    covers = []
    for j in range(k):
        pt = names[2 * j + 1]
        covers.append((pt, names[2 * j]))
        covers.append((pt, names[2 * j + 2]))
    return CellPoset(tuple(roots), FinSpec(names, covers), tuple(names))


# ---------------------------------------------------------------------------
# polynomial maps


@dataclass(frozen=True)
class PolyMap:
    """A nonconstant integer polynomial as a map of the affine line."""

    poly: tuple

    def __init__(self, poly):
        poly = ip.normalize(poly)
        if ip.degree(poly) < 1:
            raise ConstantMap("the map must be a nonconstant polynomial")
        object.__setattr__(self, "poly", poly)

    def __call__(self, x):
        return ip.evaluate(self.poly, x)

    def __str__(self):
        return ip.to_str(self.poly)


def _push_alg(p: PolyMap, a: AlgNumber, image_polys: dict) -> AlgNumber:
    """The image p(a).  image_polys maps defining polynomials to their image
    polynomials under p with Sturm sequences; a missing one is computed and
    added, so the roots of one polynomial share it for as long as the
    caller keeps the dict."""
    while not a.is_rational():
        pair = image_polys.get(a.poly)
        if pair is None:
            pair = image_polys[a.poly] = ip.image_defining_poly(a.poly, p.poly)
        q, seq = pair
        lo, hi, d = ip.eval_interval(p.poly, a._a, a._b, a._d)
        signs = ip.sign_at_rational(q, lo, d), ip.sign_at_rational(q, hi, d)
        for end, sign in zip((lo, hi), signs):
            # is the image exactly this rational?
            if sign == 0 and _sign_at_root(ip.sub(ip.scale(p.poly, d), ip.constant(end)), a) == 0:
                return AlgNumber.from_rational(Fraction(end, d))
        if all(signs) and ip.count_roots_halfopen(seq, lo, hi, d) == 1:
            return AlgNumber._of(q, lo, hi, d)
        a = a.refined()
    return AlgNumber.from_rational(ip.evaluate(p.poly, a.as_rational()))


def push_point(p: PolyMap, x: SperPoint) -> SperPoint:
    """The image of a point of the real spectrum under a polynomial map."""
    d = ip.degree(p.poly)
    lead_sign = _sign_of_fraction(ip.lead(p.poly))
    if x.kind == "+inf":
        return SperPoint.pos_inf() if lead_sign > 0 else SperPoint.neg_inf()
    if x.kind == "-inf":
        s = lead_sign * (-1 if d % 2 else 1)
        return SperPoint.pos_inf() if s > 0 else SperPoint.neg_inf()
    center = _push_alg(p, x.center, {})
    if x.kind == "alg":
        return SperPoint.alg(center)
    # p(t) - p(alpha) has the sign of p' just right of the center and the
    # opposite sign just left of it
    s = sign_at(ip.deriv(p.poly), x)
    if x.kind == "cut-":
        s = -s
    return SperPoint.cut_plus(center) if s > 0 else SperPoint.cut_minus(center)


def _fiber_poly_vanishes(y: AlgNumber, b) -> bool:
    """Whether the polynomial whose roots hold the fiber at b, b.poly(p(t))
    or den(b) p - num(b), vanishes at an upstream root a with image
    y = p(a).  At a rational b that is y = b.  At an irrational b it is
    b.poly(y) = 0, which holds for y = b and for every other root of
    b.poly: true when y.poly is b.poly, and otherwise one Tarski query of
    y.poly."""
    if not isinstance(b, AlgNumber) or b.is_rational():
        return y.compare(b) == 0
    return y.poly == b.poly or _sign_at_root(b.poly, y) == 0


def _fiber_sum(p: PolyMap, phi: ConsFunction, cells: CellPoset, ups: list,
               images: list, b) -> int:
    """The sum of phi over the fiber of p at a value b, a rational or an
    AlgNumber, by Sturm counts and Tarski queries.

    The fiber lies among the roots of h = b.poly(p(t)) made squarefree.  At
    a rational b it is all of them.  Otherwise b is the only root of b.poly
    in (b.lo, b.hi), whose ends are not roots, so the fiber is the set of
    roots where w = (p - b.lo)(b.hi - p), cleared of denominators, is
    positive, and w vanishes at no root of h.  So an interval holding N
    roots of h, where the Tarski query of w is T, holds (N + T) / 2 points
    of the fiber.

    ups holds the roots of cells with pairwise disjoint isolating intervals
    (lo, hi), and images holds the images of those roots under p, which
    tell whether h vanishes there (_fiber_poly_vanishes).  Each root a is
    refined in place until (lo, hi] holds no root of h other than a and lo
    is no root of h, since a Tarski query needs ends that are not roots.  A
    root cell then adds its value times the count in (lo, hi], and an
    interval cell its value times the count between the neighbouring
    intervals.  The Sturm (and Tarski) sequence of h is evaluated once at
    each end, and no root of h is isolated.
    """
    if isinstance(b, AlgNumber):
        h, seq = ip.squarefree_sturm(ip.compose(b.poly, p.poly))
    else:  # the roots of den p - num
        h, seq = ip.squarefree_sturm(ip.sub(ip.scale(p.poly, b.denominator),
                                            ip.constant(b.numerator)))
    tarski = None
    if isinstance(b, AlgNumber) and not b.is_rational():
        w = ip.mul(ip.sub(ip.scale(p.poly, b._d), ip.constant(b._a)),
                   ip.sub(ip.constant(b._b), ip.scale(p.poly, b._d)))
        tarski = ip.sturm_sequence(h, w)
    # the Sturm variations at -inf, lo_1, hi_1, ..., lo_k, hi_k, +inf: cell i
    # of cells lies between the i-th and the next
    ends, vs = [], [ip.variations_at_neg_inf(seq)]
    for j, (a, y) in enumerate(zip(ups, images)):
        hit = _fiber_poly_vanishes(y, b)
        while True:
            vlo = ip.nonroot_variations(seq, a._a, a._d)
            vhi = ip.variations_at(seq, a._b, a._d)
            if vlo is not None and vlo - vhi == hit:
                break
            a = a.refined()
        ups[j] = a
        ends += [(a._a, a._d), (a._b, a._d)]
        vs += [vlo, vhi]
    vs.append(ip.variations_at_pos_inf(seq))
    counts = [u - v for u, v in zip(vs, vs[1:])]
    if tarski is not None:
        # Tarski queries only at the ends of cells that hold a root of h
        ts = ([ip.variations_at_neg_inf(tarski)]
              + [ip.variations_at(tarski, *e) if counts[k] or counts[k + 1] else 0
                 for k, e in enumerate(ends)]
              + [ip.variations_at_pos_inf(tarski)])
        counts = [(n + ts[k] - ts[k + 1]) // 2 if n else 0 for k, n in enumerate(counts)]
    return sum(phi(cells.point_at(k)) * n for k, n in enumerate(counts) if n)


def refine_cells(cells: CellPoset, extra_roots) -> CellPoset:
    """The cell poset over the union of the given roots with extra ones."""
    return cell_poset(merge_roots(list(cells.roots), dedupe_roots(list(extra_roots))))


def transfer_cons(phi: ConsFunction, src: CellPoset, dst: CellPoset) -> ConsFunction:
    """Reindex a function along a refinement (dst roots contain src roots)."""
    tagged = _merge_tagged([(r, 1) for r in src.roots], [(r, 2) for r in dst.roots])
    if any(tag == 1 for _, tag in tagged):
        raise SperError("the target cells do not refine the source cells")
    return ConsFunction(dst.space, zip(dst.cells, _spread([phi(q) for q in src.cells], tagged, 1)))


def pull_cons(p: PolyMap, psi: ConsFunction, cells: CellPoset):
    """The composite psi . p as a constructible function.

    The carrier is cut at the preimages of the downstream roots, which makes
    the composite cell-constant; returns (function, its cell poset).
    """
    if psi.space != cells.space:
        raise SperError("function does not live on the given cell poset")
    comps = dict.fromkeys(ip.compose(b.poly, p.poly) for b in cells.roots)
    up_cells = cell_poset([r for r, _ in _tagged_roots(comps)])

    def psi_at(y) -> int:
        return psi(cells.point_at(locate_cell(cells.roots, y)))

    refined, samples = cell_samples(list(up_cells.roots))
    values = {}
    image_polys = {}
    for pos, sample in enumerate(samples):
        if isinstance(sample, AlgNumber):
            img = _push_alg(p, sample, image_polys)
        else:
            img = ip.evaluate(p.poly, sample)
        values[up_cells.point_at(pos)] = psi_at(img)
    return ConsFunction(up_cells.space, values), up_cells


def preimage_set(p: PolyMap, s: SperConstructible) -> SperConstructible:
    """The preimage of s under p: the pullback of its indicator."""
    cells = cell_poset(s)
    pulled, up = pull_cons(p, ConsFunction(cells.space, zip(cells.cells, s.mask)), cells)
    return SperConstructible(up.roots, map(pulled, up.cells))


def push_cons(p: PolyMap, phi: ConsFunction, cells: CellPoset):
    """Fiberwise-sum pushforward of a constructible function on cells.

    The downstream root set contains the images of the upstream roots and
    of the critical points of the map, which makes the fiber sums constant
    on the downstream cells: the roots of their image polynomials, one per
    distinct defining polynomial and isolated once each, with the images of
    the upstream roots kept for the fiber sums.  Each interval cell is
    evaluated at three rational samples and disagreements raise
    InconsistentSamples.  Every fiber sum, at a rational sample or at a
    rational or irrational downstream root, comes from Sturm counts and
    Tarski queries between the upstream roots (_fiber_sum), with no fiber
    isolated.
    """
    if phi.space != cells.space:
        raise SperError("function does not live on the given cell poset")
    image_polys = {}
    images = [_push_alg(p, a, image_polys) for a in cells.roots]
    dp = ip.deriv(p.poly)
    crit = real_roots(dp) if ip.degree(dp) >= 1 else []
    crit_images = [_push_alg(p, c, image_polys) for c in crit]
    polys = dict.fromkeys(y.poly for y in images + crit_images)
    out_cells = cell_poset([r for r, _ in _tagged_roots(polys)])
    ups = refine_disjoint(cells.roots)
    refined, samples = cell_samples(list(out_cells.roots))
    values = {}
    for pos, sample in enumerate(samples):
        if isinstance(sample, AlgNumber):
            values[out_cells.point_at(pos)] = _fiber_sum(p, phi, cells, ups, images, sample)
            continue
        # interval cell: three rational samples must agree
        if not refined:
            extras = [Fraction(0), Fraction(1), Fraction(-1)]
        elif pos == 0:
            extras = [sample, sample - 1, sample - 2]
        elif pos == len(samples) - 1:
            extras = [sample, sample + 1, sample + 2]
        else:
            left = refined[pos // 2 - 1].hi
            right = refined[pos // 2].lo
            extras = [sample, (left + sample) / 2, (sample + right) / 2]
        vals = [_fiber_sum(p, phi, cells, ups, images, e) for e in extras]
        if len(set(vals)) != 1:
            raise InconsistentSamples(
                f"cell {out_cells.marker(pos)} sampled values {vals}")
        values[out_cells.point_at(pos)] = vals[0]
    return ConsFunction(out_cells.space, values), out_cells
