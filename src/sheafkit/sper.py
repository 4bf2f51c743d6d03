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
comparisons of root merges, refine_disjoint and images of points reuse
each other's refinements.  Two roots of distinct polynomials are halved
first, since they nearly always differ; only a pair that still overlaps
after a few halvings takes the gcd of the two polynomials.  The
test stays exact: a root of the gcd in the intersection of the intervals,
found by a Sturm count, is the one root of each polynomial there.  Images
under polynomial maps come from image polynomials, resultants over Z[t]
computed by Bareiss elimination.  The one question asked at an algebraic
number a is the sign of a polynomial f there, and it is one Tarski query:
the Sturm-Tarski count of a.poly and f over the isolating interval, which
holds exactly one root of a.poly.  Signs on cuts follow from the first
derivative of f that does not vanish at the center.

Root lists are combined by one merge that tags each root with the lists
holding it.  Formulas decide signs by provenance: with disjoint isolating
intervals every sign is read at a rational between two intervals, off a
leading term or off the tags, and the formula is evaluated once over all
cells.  Unions, intersections and transfers along a refinement read each
fine cell's coarse cell off the tags.  The pushforward builds one image
polynomial and its Sturm sequence per distinct upstream polynomial, which
also isolates the downstream roots.  Its fiber sums are an Euler integral
over the monotone pieces of the map, between neighbouring special points
(the upstream roots and the real critical points): each image is placed
among the downstream roots off the tags and one Sturm count, and one sweep
adds each piece's value to the downstream cells strictly between the
positions of its end images, with no fiber polynomial built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
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
    """A broken invariant of the pushforward sweep: a monotone piece whose
    two ends map to one downstream position, or an Euler integral that
    differs between the two sides; an implementation bug."""


# Halvings that AlgNumber.compare makes on two overlapping roots of distinct
# polynomials before it computes their gcd.  Such roots are nearly always
# distinct and part after a few halvings: over seeds 0-2 of the reals
# benchmark, 42 of 4186 overlapping pairs were equal, and 4074 of the other
# 4144 parted within 8 halvings (median 2).  So the gcd and its Sturm
# sequence are left to the pairs that still overlap.
_HALVINGS_BEFORE_GCD = 8


def _overlap(a, b) -> bool:
    """Whether the isolating intervals of a and b meet: a.lo < b.hi and
    b.lo < a.hi."""
    return a._a * b._d < b._b * a._d and b._a * a._d < a._b * b._d


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
        """-1, 0 or 1 against another AlgNumber or a rational.

        Two irrational numbers are halved together until their intervals
        are disjoint.  Roots of distinct polynomials first take up to
        _HALVINGS_BEFORE_GCD halvings, which nearly always part them.  Two
        that still overlap, and two overlapping roots of one polynomial,
        are tested for equality exactly: a root of g = gcd(a.poly, b.poly)
        in the intersection of the intervals is a root of both polynomials
        there, hence the one root of each, so a Sturm count of g there of 1
        means a = b, and of 0 that further halving parts them."""
        if isinstance(other, (int, Fraction)):
            return self._compare_rational(other.numerator, other.denominator)
        if not isinstance(other, AlgNumber):
            raise TypeError(f"cannot compare with {type(other).__name__}")
        if other.is_rational():
            return self._compare_rational(*other._ratio())
        if self.is_rational():
            return -other._compare_rational(*self._ratio())
        a, b = self, other
        if a.poly != b.poly:
            for _ in range(_HALVINGS_BEFORE_GCD):
                if not _overlap(a, b):
                    break
                a, b = a.refined(), b.refined()
        if _overlap(a, b):
            g = a.poly if a.poly == b.poly else ip.gcd(a.poly, b.poly)
            if ip.degree(g) >= 1:
                lo = a if a._a * b._d >= b._a * a._d else b
                hi = a if a._b * b._d <= b._b * a._d else b
                seq = ip.sturm_sequence(g)
                if ip.count_roots_halfopen(seq, lo._a * hi._d, hi._b * lo._d, lo._d * hi._d) == 1:
                    return 0
            while _overlap(a, b):
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

    def __str__(self):
        if self.kind == "alg":
            return str(self.center)
        if self.kind == "cut-":
            return f"{self.center}^-"
        if self.kind == "cut+":
            return f"{self.center}^+"
        return self.kind


def real_roots(f) -> list:
    """All real roots of a nonzero integer polynomial, sorted, exact."""
    f = ip.normalize(f)
    if not f:
        raise ZeroPolynomial("real_roots of the zero polynomial")
    return _isolated(*ip.squarefree_sturm(f))


def _isolated(sf, seq) -> list:
    """The sorted real roots of a squarefree sf with Sturm sequence seq."""
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


def _tagged_roots(polys, sturm=None) -> list:
    """The merged real roots of polys, each paired with the bit set of the
    polynomials vanishing there (bit i for polys[i]); constants add none.
    sturm maps squarefree polynomials to Sturm sequences already built."""
    tagged = []
    for bit, f in enumerate(polys):
        if ip.degree(f) >= 1:
            roots = _isolated(f, sturm[f]) if sturm and f in sturm else real_roots(f)
            tagged = _merge_tagged(tagged, [(r, 1 << bit) for r in roots])
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


# ---------------------------------------------------------------------------
# sign-condition formulas


@dataclass(frozen=True)
class Atom:
    """A sign condition 'poly op 0'."""

    poly: tuple
    op: str

    def __post_init__(self):
        if self.op not in _HOLDS:
            raise SperError(f"unknown relation {self.op!r}")


# relation -> sign -> whether 'f relation 0' holds where f has that sign
_HOLDS = {op: {s: test(s, 0) for s in (-1, 0, 1)} for op, test in (
    ("<", operator.lt), ("<=", operator.le), ("=", operator.eq),
    ("!=", operator.ne), (">=", operator.ge), (">", operator.gt))}


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
    if isinstance(phi, (And, Or)):
        return [a for c in phi.children for a in formula_atoms(c)]
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
    interval cell to the right.  The formula is evaluated once over all
    cells on this table, one list per node, with no sign evaluation at an
    algebraic point.
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
    return SperConstructible(roots, _truth_cells(phi, signs, 2 * len(roots) + 1))


def _truth_cells(phi, signs, n) -> list:
    """The truth values of phi on all n cells at once, one list per node,
    from the sign vectors of its atom polynomials."""
    if isinstance(phi, Atom):
        return list(map(_HOLDS[phi.op].__getitem__, signs[phi.poly]))
    if isinstance(phi, Not):
        return list(map(operator.not_, _truth_cells(phi.child, signs, n)))
    both = isinstance(phi, And)
    op = operator.and_ if both else operator.or_
    out = [both] * n
    for c in phi.children:
        out = list(map(op, out, _truth_cells(c, signs, n)))
    return out


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


def push_cons(p: PolyMap, phi: ConsFunction, cells: CellPoset):
    """Fiberwise-sum pushforward of a constructible function on cells, as an
    Euler integral over the monotone pieces of p.

    The special points are the upstream roots and the real critical points
    of p.  The downstream roots are the roots of the image polynomials of
    the special points, one per distinct defining polynomial and isolated
    once each, so each image is one of them.  Its position is read off the
    merge's tags: a rational image is the one root of its linear
    polynomial, and an irrational image y is the k-th root of y.poly, k the
    Sturm count of y.poly below y.lo.

    Between two neighbouring special points, and beyond the outermost ones,
    p is strictly monotone, so such a piece meets the fiber over every
    downstream cell strictly between the positions of its end images (+-inf
    for the unbounded pieces, by the leading term) in one point, and no
    other fiber.  A piece adds the value of its upstream interval cell to
    those cells, and a special point the value of its own cell to the root
    cell of its image; no fiber is isolated or counted.  A piece with both
    ends at one position raises InconsistentSamples, and so does a
    compactly supported Euler integral (point values less interval values)
    that differs between the two sides, which a proper map such as p keeps.
    """
    if phi.space != cells.space:
        raise SperError("function does not live on the given cell poset")
    image_polys = {}
    images = [_push_alg(p, a, image_polys) for a in cells.roots]
    dp = ip.deriv(p.poly)
    crit = real_roots(dp) if ip.degree(dp) >= 1 else []
    crit_images = [_push_alg(p, c, image_polys) for c in crit]
    polys = list(dict.fromkeys(y.poly for y in images + crit_images))
    # an irrational image's polynomial comes with its Sturm sequence
    sturm = dict(image_polys.values())
    tagged = _tagged_roots(polys, sturm)
    out_cells = cell_poset([r for r, _ in tagged])
    # the cell positions of the roots of each image polynomial, in order
    where = {f: [2 * j + 1 for j, (_, tag) in enumerate(tagged) if tag >> bit & 1]
             for bit, f in enumerate(polys)}

    def position(y):
        if y.is_rational():
            return where[y.poly][0]
        return where[y.poly][ip.count_roots_halfopen(sturm[y.poly], None, y._a, y._d)]

    n = len(out_cells.cells)
    up = [phi(q) for q in cells.cells]
    # point values, and the differences of the piece sums between cells
    values, steps = [0] * n, [0] * (n + 1)
    lead, odd = ip.lead(p.poly) > 0, ip.degree(p.poly) % 2 == 1
    # +-inf sit at positions n and -1, one past either end
    prev, i, c = n if lead != odd else -1, 0, 0
    # the special points left to right, each tagged 1 if an upstream root and
    # 2 if critical, then +inf
    ends = _merge_tagged([(a, 1) for a in cells.roots], [(x, 2) for x in crit]) + [(None, 0)]
    for _, tag in ends:
        if tag & 1:
            at, cell = position(images[i]), 2 * i + 1
        elif tag:
            at, cell = position(crit_images[c]), 2 * i
        else:
            at = n if lead else -1
        if at == prev:
            raise InconsistentSamples(
                f"a monotone piece in cell {cells.marker(2 * i)} has both ends at one position")
        lo, hi = min(prev, at), max(prev, at)
        steps[lo + 1] += up[2 * i]
        steps[hi] -= up[2 * i]
        if tag:
            values[at] += up[cell]
        prev, i, c = at, i + (tag & 1), c + (tag >> 1)
    values = [v + s for v, s in zip(values, accumulate(steps))]
    if _euler(up) != _euler(values):
        raise InconsistentSamples(
            f"Euler integral {_euler(up)} upstream but {_euler(values)} downstream")
    return ConsFunction(out_cells.space, zip(out_cells.cells, values)), out_cells


def _euler(values) -> int:
    """The compactly supported Euler integral of cell values: points count
    +1 and open intervals -1."""
    return sum(values[1::2]) - sum(values[::2])
