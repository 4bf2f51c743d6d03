"""Exact linear algebra over Z, Q and F_p.

Scalars are plain ints (Z, residues mod p) or fractions.Fraction (Q); every
matrix entry is kept as a reduced canonical representative.  A Matrix stores
only its nonzero entries, one dict column -> entry per row: the coboundaries
of derived sections are almost all zeros.  ``m.row(i)`` and ``m.col(j)``
yield the nonzero (index, entry) pairs, and ``m.entries`` is a dense view
for printing and for the transforms below.  Building a Matrix is the one
point where entries are normalized: Matrix.from_entries ((i, j, x) triples
with repeats summed), Matrix(ring, rows) on dense data, ``scale`` and ``@``
pass each stored value through ScalarRing.normalize once.  So builders pass
raw integer coefficients - signs +-1 and unreduced products - and never
form ring elements first.

Questions about invariants only - rank, invariant factors and the homology
of complexes - are answered by one sparse elimination without transforms
(``_rank_and_factors``) on a copy of the stored rows: H^n over a PID follows
from the ranks of d_n and d_{n-1} and the invariant factors of d_{n-1}.
Smith normal form with transformation matrices (``snf``) works on a dense
copy and is kept for the callers that need a certificate: kernel lattices
(``kernel_basis``) and integer linear solving (``solve_right``).  Both
eliminations share their rules, each in one loop for every ring: the pivot
is the first entry of least absolute value, the search stopping at a unit
(over Q and F_p, the first nonzero entry); rows and columns are cleared by
quotients; and a non-unit pivot is kept only once it divides every
remaining entry, so the invariant factors come out as d_1 | d_2 | ... with
no pass over the diagonal.  Over a field this is rank normal form.

Complexes are cohomological: the differential d_n raises degree n -> n+1 and
shifts follow C[k]^n = C^{n+k} with differential (-1)^k d.  The total
tensor complex is built here; the Hom complex of two complexes is the
homotopy end of ``sheafkit.sheaf`` on a one-point space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

# Degree window for all chain complexes; operations that would leave it raise
# DegreeOverflow instead of truncating.
DEGREE_MIN = -16
DEGREE_MAX = 16


class LinalgError(Exception):
    pass


class RingMismatch(LinalgError):
    pass


class DegreeOverflow(LinalgError):
    pass


@dataclass(frozen=True)
class ScalarRing:
    """The coefficient ring: Z, Q or F_p (p prime).

    ZZ, QQ and GF(p) give one object per ring, so the checks that two
    matrices or complexes share a ring compare by ``is`` first; equal rings
    built apart still compare equal by value."""

    kind: str  # "Z" | "Q" | "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is not None and self.p >= PRIME_LIMIT:
                raise ValueError(f"F_p needs a prime p below {PRIME_LIMIT}, "
                                 f"got {self.p}")
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise ValueError(f"F_p needs a prime p, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("p only makes sense for F_p")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not ScalarRing:
            return NotImplemented
        return self.kind == other.kind and self.p == other.p

    def normalize(self, x):
        if self.kind == "Z":
            if type(x) is int:
                return x
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return int(x)
            return int(x)
        if self.kind == "Q":
            return x if type(x) is Fraction else Fraction(x)
        if isinstance(x, Fraction):  # a/b is a * b^-1 mod p
            den = x.denominator % self.p
            if not den:
                raise ValueError(f"denominator {x.denominator} is not invertible mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def is_unit(self, a) -> bool:
        return a in (1, -1) if self.kind == "Z" else a != 0

    def inv(self, a):
        if self.kind == "Z":
            if a in (1, -1):
                return a
            raise ValueError(f"{a} is not a unit in Z")
        if self.kind == "Q":
            return Fraction(1) / Fraction(a)
        return pow(a, -1, self.p)

    def divides(self, a, b) -> bool:
        """Whether a | b.  Zero divides only zero."""
        if not a:
            return not b
        if self.kind == "Z":
            return b % a == 0
        return True

    def exact_div(self, b, a):
        """b / a when a | b."""
        if self.kind == "Z":
            q, r = divmod(b, a)
            if r != 0:
                raise ValueError(f"{a} does not divide {b}")
            return q
        return self.normalize(b * self.inv(a))

    def __str__(self):
        if self.kind == "Fp":
            return f"F_{self.p}"
        return self.kind


# Deterministic Miller-Rabin with the first 13 prime bases is exact for every
# n below PRIME_LIMIT (Sorenson and Webster, Math. Comp. 2017); F_p accepts
# only primes below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality of n; exact for n < PRIME_LIMIT, so callers reject larger n."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


ZZ = ScalarRing("Z")
QQ = ScalarRing("Q")


@lru_cache(maxsize=64)
def GF(p: int) -> ScalarRing:
    """F_p, one object per prime p among the 64 asked for last: a file has
    one ring, and an evicted prime's new object still equals the old one."""
    return ScalarRing("Fp", p)


class Matrix:
    """Immutable exact matrix over a ScalarRing, stored sparse.

    Represents a linear map on column vectors: an r x c matrix maps R^c -> R^r.
    Row i is a dict column -> nonzero entry; row(i) and col(j) yield the
    nonzero (index, entry) pairs and ``entries`` is the dense grid.
    """

    __slots__ = ("ring", "rows", "cols", "_data", "_by_col")

    def __init__(self, ring: ScalarRing, entries, rows=None, cols=None):
        ent = [[ring.normalize(x) for x in row] for row in entries]
        if rows is None:
            rows = len(ent)
        if cols is None:
            cols = len(ent[0]) if ent else 0
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError("ragged or mis-sized entry data")
        self.ring, self.rows, self.cols = ring, rows, cols
        self._data = tuple({j: x for j, x in enumerate(r) if x} for r in ent)
        self._by_col = None

    @classmethod
    def _of(cls, ring, rows, cols, data, by_col=None):
        """The matrix whose row dicts are data, taken as they are."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.cols = ring, rows, cols
        m._data = tuple(data)
        m._by_col = by_col
        return m

    @classmethod
    def from_entries(cls, ring, rows, cols, entries):
        """The rows x cols matrix with the values of the (i, j, x) triples in
        entries, summed where positions repeat, and zero elsewhere.

        The one construction path for matrices built inside the package: only
        the given values go through ring.normalize.
        """
        data = [{} for _ in range(rows)]
        norm = ring.normalize
        cancelled = False
        for i, j, x in entries:
            if not 0 <= j < cols:
                raise IndexError(f"column {j} outside a {rows}x{cols} matrix")
            row = data[i]
            y = row[j] = norm(row.get(j, 0) + x)
            if not y:
                cancelled = True
        if cancelled:
            data = [{j: x for j, x in row.items() if x} for row in data]
        return cls._of(ring, rows, cols, data)

    @classmethod
    def zeros(cls, ring, rows, cols):
        # one shared empty row: rows are never mutated once stored
        return cls._of(ring, rows, cols, ({},) * rows, {})

    @classmethod
    def identity(cls, ring, n):
        return cls.from_entries(ring, n, n, ((i, i, 1) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside a {self.rows}x{self.cols} matrix")
        x = self._data[i].get(j)
        return self.ring.zero() if x is None else x

    @property
    def entries(self) -> tuple:
        """The dense grid: a tuple of row tuples, zeros included."""
        z = self.ring.zero()
        out = []
        for r in self._data:
            row = [z] * self.cols
            for j, x in r.items():
                row[j] = x
            out.append(tuple(row))
        return tuple(out)

    def row(self, i):
        """The (column, entry) pairs of the nonzero entries of row i."""
        return self._data[i].items()

    def col(self, j):
        """The (row, entry) pairs of the nonzero entries of column j; the
        first call indexes the nonzero columns only, not all of them."""
        by_col = self._by_col
        if by_col is None:
            by_col = {}
            for i, r in enumerate(self._data):
                for jj, x in r.items():
                    by_col.setdefault(jj, []).append((i, x))
            self._by_col = by_col
        return by_col.get(j, ())

    def nonzeros(self, di=0, dj=0):
        """The (i + di, j + dj, x) triples of the nonzero entries x."""
        for i, r in enumerate(self._data, di):
            for j, x in r.items():
                yield i, j + dj, x

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and (self.ring is other.ring or self.ring == other.ring)
                and self.rows == other.rows and self.cols == other.cols
                and self._data == other._data)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self._data)))

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {list(map(list, self.entries))})"

    def is_zero(self) -> bool:
        return not any(self._data)

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix.from_entries(self.ring, self.rows, self.cols,
                                   chain(self.nonzeros(), other.nonzeros()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self.ring.normalize(c)
        return Matrix.from_entries(self.ring, self.rows, self.cols,
                                   ((i, j, c * x) for i, j, x in self.nonzeros()))

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        norm = self.ring.normalize
        b = other._data
        out = []
        for row in self._data:
            acc = {}
            for k, x in row.items():
                for j, y in b[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: w for j, v in acc.items() if (w := norm(v))})
        return Matrix._of(self.ring, self.rows, other.cols, out)

    def hstack(self, other):
        self._check(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix.from_entries(self.ring, self.rows, self.cols + other.cols,
                                   chain(self.nonzeros(), other.nonzeros(0, self.cols)))

    def submatrix(self, row_idx, col_idx):
        at = {}
        for b, j in enumerate(col_idx):
            at.setdefault(j, []).append(b)
        return Matrix.from_entries(self.ring, len(row_idx), len(col_idx),
                                   ((a, b, x) for a, i in enumerate(row_idx)
                                    for j, x in self.row(i) for b in at.get(j, ())))

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")


def det(m: Matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.  Every
    division by the previous pivot is exact, so one loop serves Z and the
    fields."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    R, n = m.ring, m.rows
    if n == 0:
        return R.one()
    a = [list(r) for r in m.entries]
    negate = False
    prev = R.one()
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return R.zero()
            a[k], a[i] = a[i], a[k]
            negate = not negate
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = R.exact_div(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    return R.normalize(-a[-1][-1]) if negate else a[-1][-1]


def snf(m: Matrix):
    """Smith normal form: returns (s, u, v) with u @ m @ v = s.

    u, v are invertible over the ring and s is diagonal with d_1 | d_2 | ...
    (nonnegative over Z).  Over Q and F_p this is rank normal form with unit
    diagonal entries.

    One dense loop serves every ring.  The pivot p is the first entry of
    least absolute value in row-major order, and the search stops at a unit:
    over Z the least |x|, over a field the first nonzero entry.  The unit c
    normalizes p: its sign over Z, 1/p over a field.  Rows and columns are
    cleared by the quotient x // p over Z and x * c over a field; over a
    field the clearing is exact, so the retry and the divisibility fix never
    fire.  A finished pivot row is scaled by c.
    """
    R, rows, cols = m.ring, m.rows, m.cols
    norm, field, zero, one = R.normalize, R.kind != "Z", R.zero(), R.one()
    # Row i of a is row i of m followed by row i of u, so one update does a
    # row operation on both; vt holds the columns of v.  Rows from t on are
    # zero before column t and rows above t are zero from column t on, so
    # row operations start at column t and column operations at row t.
    a = [[*r] + [one if i == j else zero for j in range(rows)]
         for i, r in enumerate(m.entries)]
    vt = [[one if i == j else zero for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        piv = best = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x and (piv is None or abs(x) < best):
                    piv, best = (i, j), abs(x)
                    if R.is_unit(x):
                        break
            else:
                continue
            break
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        vt[t], vt[pj] = vt[pj], vt[t]
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        c = R.inv(p) if field else (-1 if p < 0 else 1)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = norm(a[i][t] * c) if field else a[i][t] // p
                if q:
                    a[i][t:] = [norm(x - q * y) if y else x
                                for x, y in zip(a[i][t:], a[t][t:])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j]:
                q = norm(a[t][j] * c) if field else a[t][j] // p
                if q:
                    for row in a[t:]:
                        if row[t]:
                            row[j] = norm(row[j] - q * row[t])
                    vt[j] = [norm(x - q * y) if y else x for x, y in zip(vt[j], vt[t])]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        bad = None if R.is_unit(p) else next(
            (i for i in range(t + 1, rows)
             if any(x and not R.divides(p, x) for x in a[i][t + 1:cols])), None)
        if bad is not None:
            a[t][t:] = [norm(x + y) for x, y in zip(a[t][t:], a[bad][t:])]
            continue
        if c != 1:
            a[t][t:] = [norm(c * x) for x in a[t][t:]]
        t += 1

    def done(grid, n, k):  # every entry is normalized already
        return Matrix._of(R, n, k, ({j: x for j, x in enumerate(r) if x} for r in grid))

    return (done((r[:cols] for r in a), rows, cols),
            done((r[cols:] for r in a), rows, rows),
            done(zip(*vt), cols, cols))


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of ker(m); over Z, a basis of the full kernel lattice."""
    s, u, v = snf(m)
    return v.submatrix(range(m.cols), [j for j in range(m.cols) if not s.col(j)])


def solve_right(a: Matrix, b: Matrix):
    """X with a @ X = b, or None when no solution exists over the ring."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    R = a.ring
    s, u, v = snf(a)
    ub = u @ b
    rank = sum(1 for _ in s.nonzeros())
    y = []
    for i in range(rank):
        d = s[i, i]
        for j, x in ub.row(i):
            if not R.divides(d, x):
                return None
            y.append((i, j, R.exact_div(x, d)))
    if any(ub.row(i) for i in range(rank, a.rows)):
        return None
    return v @ Matrix.from_entries(R, a.cols, b.cols, y)


def _rank_and_factors(m: Matrix) -> tuple:
    """(rank, invariant factors) of m by one elimination without transforms,
    on a copy of its rows.

    The factors are the non-unit invariant factors d_1 | d_2 | ... of m,
    positive; over a field the tuple is empty.  The rules are those of
    ``snf``: the pivot p is the first entry of least absolute value in row
    order, the search stopping at a unit; its column is cleared with the
    quotients x // p over Z and x * p^-1 over a field.  A non-unit pivot
    whose row and column are clear is kept only if it divides every
    remaining entry; otherwise the row of an entry it does not divide is
    added into the pivot row and the step repeats.
    """
    R = m.ring
    field = R.kind != "Z"
    mod = R.p if R.kind == "Fp" else None
    rows = {i: dict(r) for i, r in enumerate(m._data) if r}
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    def add_multiple(i, c, src):
        """rows[i] += c * src, keeping the column index in step."""
        r = rows[i]
        for j, x in src.items():
            v = r.get(j, 0) + c * x
            if mod:
                v %= mod
            if v:
                if j not in r:
                    cols[j].add(i)
                r[j] = v
            elif j in r:
                del r[j]
                cols[j].discard(i)
        if not r:
            del rows[i]

    rank, factors = 0, []
    while rows:
        best = None
        for i, r in rows.items():
            for j, x in r.items():
                if best is None or abs(x) < best:
                    best, pi, pj = abs(x), i, j
                    if field or best == 1:
                        break
            else:
                continue
            break
        prow = rows[pi]
        p = prow[pj]
        c = R.inv(p) if field else None
        # clear the pivot column by row operations; remainders are smaller
        # than the pivot, so a dirty pass ends with a smaller pivot next time
        for i in list(cols[pj]):
            if i != pi:
                x = rows[i][pj]
                add_multiple(i, -(x * c if field else x // p), prow)
        if len(cols[pj]) > 1:
            continue
        # the column is clear, so column operations touch the pivot row
        # only: they clear it for a unit pivot and leave x % p otherwise
        if not (field or best == 1):
            dirty = False
            for j in list(prow):
                if j != pj:
                    v = prow[j] % p
                    if v:
                        prow[j] = v
                        dirty = True
                    else:
                        del prow[j]
                        cols[j].discard(pi)
            if dirty:
                continue
            # divisibility: once p divides what is left, every later pivot
            # is a multiple of it
            bad = next((r for i, r in rows.items()
                        if i != pi and any(x % p for x in r.values())), None)
            if bad is not None:
                add_multiple(pi, 1, bad)
                continue
            factors.append(best)
        for j in rows.pop(pi):
            cols[j].discard(pi)
        rank += 1
    return rank, tuple(factors)


@dataclass(frozen=True)
class FGModule:
    """A finitely generated module in invariant-factor form.

    Isomorphic to R^free_rank + R/d_1 + ... + R/d_k with d_1 | d_2 | ... and
    no d_i zero or a unit.  Over a field the factor list is always empty.
    """

    ring: ScalarRing
    invariant_factors: tuple
    free_rank: int

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.invariant_factors:
            if not d or self.ring.is_unit(d):
                raise ValueError(f"invariant factor {d} is zero or a unit")
            if prev is not None and not self.ring.divides(prev, d):
                raise ValueError(f"invariant factors must divide in order: {prev}, {d}")
            prev = d

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append(str(self.ring))
        elif self.free_rank > 1:
            parts.append(f"{self.ring}^{self.free_rank}")
        parts.extend(f"{self.ring}/{d}" for d in self.invariant_factors)
        return " + ".join(parts)


@dataclass(frozen=True)
class K0Class:
    """An element of K_0 of the coefficient ring, identified with its rank in Z."""

    value: int


class FreeChainComplex:
    """A bounded complex of finitely generated free modules.

    ranks maps degree -> rank (> 0 entries only); diffs maps degree n to the
    matrix of d_n : C^n -> C^{n+1} (so diffs[n] is rank(n+1) x rank(n)).
    """

    __slots__ = ("ring", "ranks", "diffs")

    def __init__(self, ring: ScalarRing, ranks: dict, diffs: dict, check: bool = True):
        self.ring = ring
        for n, r in ranks.items():
            if r < 0:
                raise ValueError(f"negative rank {r} in degree {n}")
        self.ranks = {n: r for n, r in ranks.items() if r > 0}
        self.diffs = {n: d for n, d in diffs.items() if not d.is_zero()}
        # the degree window is enforced unconditionally: shifted or totalized
        # complexes must report overflow rather than truncate
        for n in self.ranks:
            if not (DEGREE_MIN <= n <= DEGREE_MAX):
                raise DegreeOverflow(f"degree {n} outside [{DEGREE_MIN}, {DEGREE_MAX}]")
        if check:
            self._validate()

    def _validate(self):
        for n, d in self.diffs.items():
            if d.ring is not self.ring and d.ring != self.ring:
                raise RingMismatch("differential over the wrong ring")
            if d.cols != self.rank(n) or d.rows != self.rank(n + 1):
                raise ValueError(f"d_{n} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.rank(n + 1)}x{self.rank(n)}")
        for n, d in self.diffs.items():
            if n + 1 in self.diffs and not (self.diffs[n + 1] @ d).is_zero():
                raise ValueError(f"d_{n + 1} . d_{n} != 0")

    @classmethod
    def zero(cls, ring):
        return cls(ring, {}, {})

    @classmethod
    def free_module(cls, ring, rank_: int, degree: int = 0):
        return cls(ring, {degree: rank_}, {})

    @classmethod
    def from_diff(cls, ring, degree: int, matrix: Matrix):
        """Two-term complex [R^cols -> R^rows] in degrees degree, degree+1."""
        return cls(ring, {degree: matrix.cols, degree + 1: matrix.rows},
                   {degree: matrix})

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def diff(self, n: int) -> Matrix:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return Matrix.zeros(self.ring, self.rank(n + 1), self.rank(n))

    def is_zero(self) -> bool:
        return not self.ranks

    def max_degree(self):
        return max(self.ranks) if self.ranks else None

    def shift(self, k: int) -> "FreeChainComplex":
        """C[k]^n = C^{n+k}, differential scaled by (-1)^k."""
        return FreeChainComplex(
            self.ring,
            {n - k: r for n, r in self.ranks.items()},
            {n - k: -d if k % 2 else d for n, d in self.diffs.items()},
            check=False)

    def direct_sum(self, other: "FreeChainComplex") -> "FreeChainComplex":
        if self.ring != other.ring:
            raise RingMismatch("direct sum over different rings")
        ranks = {}
        for n in set(self.ranks) | set(other.ranks):
            ranks[n] = self.rank(n) + other.rank(n)
        diffs = {n: block_diagonal(self.diff(n), other.diff(n))
                 for n in set(self.diffs) | set(other.diffs)}
        return FreeChainComplex(self.ring, ranks, diffs, check=False)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FreeChainComplex)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.ranks == other.ranks and self.diffs == other.diffs)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.ranks.items())),
                     tuple(sorted(self.diffs.items()))))

    def __repr__(self):
        return f"FreeChainComplex({self.ring}, ranks={self.ranks})"


class ChainMap:
    """A degreewise map of complexes commuting with the differentials.

    mats holds the nonzero components only.  Composition multiplies the
    degrees both maps hold, and the commutation check skips a degree where
    each side of d_T f = f d_S has a missing factor: every other product
    is zero.
    """

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: FreeChainComplex, target: FreeChainComplex,
                 mats: dict, check: bool = True):
        if source.ring is not target.ring and source.ring != target.ring:
            raise RingMismatch("chain map between different rings")
        self.source = source
        self.target = target
        self.mats = {n: m for n, m in mats.items() if not m.is_zero()}
        if check:
            self._validate()

    def _validate(self):
        for n, m in self.mats.items():
            if m.cols != self.source.rank(n) or m.rows != self.target.rank(n):
                raise ValueError(f"component {n} has wrong shape")
        mats, d_s, d_t = self.mats, self.source.diffs, self.target.diffs
        for n in set(self.source.ranks) | set(self.target.ranks):
            if (n not in d_t or n not in mats) and (n + 1 not in mats or n not in d_s):
                continue
            if (self.target.diff(n) @ self.component(n)
                    != self.component(n + 1) @ self.source.diff(n)):
                raise ValueError(f"does not commute with d in degree {n}")

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {}, check=False)

    @classmethod
    def identity(cls, c: FreeChainComplex):
        return cls(c, c, {n: Matrix.identity(c.ring, r) for n, r in c.ranks.items()},
                   check=False)

    def component(self, n: int) -> Matrix:
        m = self.mats.get(n)
        if m is not None:
            return m
        return Matrix.zeros(self.source.ring, self.target.rank(n), self.source.rank(n))

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        mats = {n: m @ other.mats[n] for n, m in self.mats.items() if n in other.mats}
        return ChainMap(other.source, self.target, mats, check=False)

    def __add__(self, other):
        mats = {}
        for n in set(self.mats) | set(other.mats):
            mats[n] = self.component(n) + other.component(n)
        return ChainMap(self.source, self.target, mats, check=False)

    def __neg__(self):
        return ChainMap(self.source, self.target,
                        {n: -m for n, m in self.mats.items()}, check=False)

    def is_zero(self) -> bool:
        return not self.mats

    def __eq__(self, other):
        return (isinstance(other, ChainMap) and self.source == other.source
                and self.target == other.target and self.mats == other.mats)

    def __repr__(self):
        return f"ChainMap(degrees={sorted(self.mats)})"


def homology(c: FreeChainComplex) -> dict:
    """Degree -> FGModule with H^n = ker d_n / im d_{n-1}.

    Over a PID, H^n has free rank rank C^n - rk d_n - rk d_{n-1} and torsion
    the non-unit invariant factors of d_{n-1}, so each differential is
    eliminated once and no basis of a kernel or image is ever built.
    """
    for n, d in c.diffs.items():
        if n + 1 in c.diffs and not (c.diffs[n + 1] @ d).is_zero():
            raise LinalgError("image does not lie in the kernel; d^2 != 0?")
    invariants = {n: _rank_and_factors(d) for n, d in c.diffs.items()}
    out = {}
    for n in sorted(c.ranks):
        rk_out, _ = invariants.get(n, (0, ()))
        rk_in, torsion = invariants.get(n - 1, (0, ()))
        mod = FGModule(c.ring, torsion, c.rank(n) - rk_out - rk_in)
        if not mod.is_zero():
            out[n] = mod
    return out


def is_acyclic(c: FreeChainComplex) -> bool:
    return not homology(c)


def k0_rank(c: FreeChainComplex) -> K0Class:
    """Alternating sum of ranks; a quasi-isomorphism invariant."""
    return K0Class(sum((-1) ** (n % 2) * r for n, r in c.ranks.items()))


def block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """The matrix [[a, 0], [0, b]]."""
    return Matrix.from_entries(a.ring, a.rows + b.rows, a.cols + b.cols,
                               chain(a.nonzeros(), b.nonzeros(a.rows, a.cols)))


def cone(f: ChainMap) -> tuple:
    """Mapping cone of f : A -> B.

    cone^n = A^{n+1} (+) B^n with d(a, b) = (-d_A a, f a + d_B b).
    Returns (cone, include : B -> cone, project : cone -> A[1]).
    """
    a, b = f.source, f.target
    R = a.ring
    ranks = {n: a.rank(n + 1) + b.rank(n)
             for n in {x - 1 for x in a.ranks} | set(b.ranks)}
    diffs = {}
    for n, r in ranks.items():
        ra1, ra2 = a.rank(n + 1), a.rank(n + 2)
        entries = chain(((i, j, -x) for i, j, x in a.diff(n + 1).nonzeros()),
                        f.component(n + 1).nonzeros(ra2),
                        b.diff(n).nonzeros(ra2, ra1))
        diffs[n] = Matrix.from_entries(R, ra2 + b.rank(n + 1), r, entries)
    cn = FreeChainComplex(R, ranks, diffs, check=False)
    inc = {}
    for n, rb in b.ranks.items():
        ra1 = a.rank(n + 1)
        inc[n] = Matrix.from_entries(R, ra1 + rb, rb,
                                     ((ra1 + i, i, 1) for i in range(rb)))
    include = ChainMap(b, cn, inc, check=False)
    proj = {}
    for n, r in cn.ranks.items():
        ra1 = a.rank(n + 1)
        proj[n] = Matrix.from_entries(R, ra1, r, ((i, i, 1) for i in range(ra1)))
    project = ChainMap(cn, a.shift(1), proj, check=False)
    return cn, include, project


def _tensor_basis(c1: FreeChainComplex, c2: FreeChainComplex):
    """Ordered basis labels (p, q, i, j) of the total tensor complex per degree."""
    basis = {}
    for p, r1 in sorted(c1.ranks.items()):
        for q, r2 in sorted(c2.ranks.items()):
            lab = basis.setdefault(p + q, [])
            for i in range(r1):
                for j in range(r2):
                    lab.append((p, q, i, j))
    return basis


def complex_from_basis(ring, basis: dict, entry_fn) -> tuple:
    """Build a complex from labelled bases.

    basis: degree -> ordered label list.  entry_fn(degree, label) yields
    (target_label, coefficient) pairs in degree+1.  Returns (complex, index)
    where index maps (degree, label) -> position.
    """
    index = {}
    for n, labels in basis.items():
        for pos, lab in enumerate(labels):
            index[(n, lab)] = pos
    ranks = {n: len(labels) for n, labels in basis.items() if labels}
    diffs = {}
    for n, labels in basis.items():
        entries = ((index[(n + 1, tlab)], col, coeff)
                   for col, lab in enumerate(labels)
                   for tlab, coeff in entry_fn(n, lab))
        diffs[n] = Matrix.from_entries(ring, ranks.get(n + 1, 0), len(labels), entries)
    return FreeChainComplex(ring, ranks, diffs, check=False), index


def tensor_total(c1: FreeChainComplex, c2: FreeChainComplex) -> FreeChainComplex:
    cx, _ = tensor_with_basis(c1, c2)
    return cx


def tensor_with_basis(c1: FreeChainComplex, c2: FreeChainComplex):
    """Total complex of the double complex c1 (x) c2 with Koszul signs.

    d(x (x) y) = dx (x) y + (-1)^p x (x) dy for x in degree p.
    """
    if c1.ring != c2.ring:
        raise RingMismatch("tensor over different rings")
    R = c1.ring
    basis = _tensor_basis(c1, c2)

    def entries(n, lab):
        p, q, i, j = lab
        for i2, co in c1.diff(p).col(i):
            yield (p + 1, q, i2, j), co
        sign = -1 if p % 2 else 1
        for j2, co in c2.diff(q).col(j):
            yield (p, q + 1, i, j2), sign * co

    return complex_from_basis(R, basis, entries)


def tensor_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g on the total tensor complexes (no extra signs for degree-0 maps)."""
    src, _ = tensor_with_basis(f.source, g.source)
    tgt, tgt_idx = tensor_with_basis(f.target, g.target)
    R = src.ring

    def entries(n, labels):
        for col, (p, q, i, j) in enumerate(labels):
            gcol = g.component(q).col(j)
            for i2, a in f.component(p).col(i):
                for j2, b in gcol:
                    yield tgt_idx[(n, (p, q, i2, j2))], col, a * b

    mats = {n: Matrix.from_entries(R, tgt.rank(n), len(labels), entries(n, labels))
            for n, labels in _tensor_basis(f.source, g.source).items()}
    return ChainMap(src, tgt, mats, check=False)

