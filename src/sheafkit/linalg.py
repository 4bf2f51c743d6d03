"""Exact linear algebra over Z, Q and F_p.

Scalars are plain ints (Z, residues mod p) or fractions.Fraction (Q); every
matrix entry is kept as a reduced canonical representative.  A Matrix stores
only its nonzero entries, one dict column -> entry per row: the coboundaries
of derived sections are almost all zeros.  ``m.row(i)`` and ``m.col(j)``
yield the nonzero (index, entry) pairs, and ``m.entries`` is a dense view
for printing and for the transforms below.  Matrices built inside the
package come from Matrix.from_entries, (i, j, x) triples with repeats
summed; Matrix(ring, rows) normalizes every entry of dense data.

Questions about invariants only - rank, invariant factors, cokernels and the
homology of complexes - are answered by one sparse elimination without
transforms (``_rank_and_factors``) on a copy of the stored rows: H^n over a
PID follows from the ranks of d_n and d_{n-1} and the invariant factors of
d_{n-1}.  Smith normal form with transformation matrices (``snf``) works on
a dense copy and is kept for the callers that need a certificate: kernel
lattices (``kernel_basis``) and integer linear solving (``solve_right``).
Over Q and F_p it degenerates to rank normal form.

Complexes are cohomological: the differential d_n raises degree n -> n+1 and
shifts follow C[k]^n = C^{n+k} with differential (-1)^k d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

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
    """The coefficient ring: Z, Q or F_p (p prime)."""

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

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

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
        return int(x) % self.p

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        if self.is_zero(a):
            return False
        if self.kind == "Z":
            return a in (1, -1)
        return True

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
        if self.is_zero(a):
            return self.is_zero(b)
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
        return self.mul(b, self.inv(a))

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


def GF(p: int) -> ScalarRing:
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
        one = ring.one()
        return cls.from_entries(ring, n, n, ((i, i, one) for i in range(n)))

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
        return (isinstance(other, Matrix) and self.ring == other.ring
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

    def transpose(self):
        return Matrix.from_entries(self.ring, self.cols, self.rows,
                                   ((j, i, x) for i, j, x in self.nonzeros()))

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
        if self.ring != other.ring:
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
        if R.is_zero(a[k][k]):
            i = next((i for i in range(k + 1, n) if not R.is_zero(a[i][k])), None)
            if i is None:
                return R.zero()
            a[k], a[i] = a[i], a[k]
            negate = not negate
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = R.exact_div(R.sub(R.mul(a[i][j], a[k][k]),
                                            R.mul(a[i][k], a[k][j])), prev)
        prev = a[k][k]
    return R.neg(a[-1][-1]) if negate else a[-1][-1]


def snf(m: Matrix):
    """Smith normal form: returns (s, u, v) with u @ m @ v = s.

    u, v are invertible over the ring and s is diagonal with d_1 | d_2 | ...
    (nonnegative over Z).  Over Q and F_p this is rank normal form with unit
    diagonal entries.
    """
    if m.ring.kind == "Z":
        return _snf_int(m)
    return _rank_normal_form(m)


def _snf_int(m: Matrix):
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // pivot
                if q:
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
                    for j in range(rows):
                        u[i][j] -= q * u[t][j]
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // pivot
                if q:
                    for i in range(rows):
                        a[i][j] -= q * a[i][t]
                    for i in range(cols):
                        v[i][j] -= q * v[i][t]
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot row/col clear; enforce divisibility into the rest
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % pivot != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(cols):
                a[t][j] += a[bad][j]
            for j in range(rows):
                u[t][j] += u[bad][j]
            continue
        t += 1
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for j in range(cols):
                a[i][j] = -a[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]
    R = m.ring
    return (Matrix(R, a, rows, cols),
            Matrix(R, u, rows, rows),
            Matrix(R, v, cols, cols))


def _rank_normal_form(m: Matrix):
    R = m.ring
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[R.one() if i == j else R.zero() for j in range(rows)] for i in range(rows)]
    v = [[R.one() if i == j else R.zero() for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if not R.is_zero(a[i][j]):
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        inv = R.inv(a[t][t])
        for j in range(cols):
            a[t][j] = R.mul(a[t][j], inv)
        for j in range(rows):
            u[t][j] = R.mul(u[t][j], inv)
        for i in range(rows):
            if i != t and not R.is_zero(a[i][t]):
                f = a[i][t]
                for j in range(cols):
                    a[i][j] = R.sub(a[i][j], R.mul(f, a[t][j]))
                for j in range(rows):
                    u[i][j] = R.sub(u[i][j], R.mul(f, u[t][j]))
        for j in range(cols):
            if j != t and not R.is_zero(a[t][j]):
                f = a[t][j]
                for i in range(rows):
                    a[i][j] = R.sub(a[i][j], R.mul(f, a[i][t]))
                for i in range(cols):
                    v[i][j] = R.sub(v[i][j], R.mul(f, v[i][t]))
        t += 1
    return (Matrix(R, a, rows, cols),
            Matrix(R, u, rows, rows),
            Matrix(R, v, cols, cols))


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

    Over Z the factors are the non-unit invariant factors d_1 | d_2 | ... of
    the matrix, positive; over a field the tuple is empty.
    """
    R = m.ring
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

    def drop_row(i):
        for j in rows.pop(i):
            cols[j].discard(i)

    if R.kind != "Z":
        rank = 0
        while rows:
            pi, prow = next(iter(rows.items()))
            pj, p = next(iter(prow.items()))
            inv = R.inv(p)
            for i in list(cols[pj]):
                if i != pi:
                    add_multiple(i, -rows[i][pj] * inv, prow)
            drop_row(pi)
            rank += 1
        return rank, ()

    diag = []
    while rows:
        # pivot: an entry of least absolute value, taking the first unit seen
        best = None
        for i, r in rows.items():
            for j, x in r.items():
                if best is None or abs(x) < best:
                    best, pi, pj = abs(x), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        prow = rows[pi]
        p = prow[pj]
        # clear the pivot column by row operations; remainders are smaller
        # than the pivot, so a dirty pass ends with a smaller pivot next time
        for i in list(cols[pj]):
            if i != pi:
                add_multiple(i, -(rows[i][pj] // p), prow)
        if len(cols[pj]) > 1:
            continue
        # the column is clear, so column operations touch the pivot row only
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
        drop_row(pi)
        diag.append(abs(p))
    # diag(d_1, ..., d_r) is equivalent to m; pairwise gcd/lcm puts it in
    # invariant-factor form (units go first and are dropped)
    d = [x for x in diag if x != 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return len(diag), tuple(x for x in d if x != 1)


def rank(m: Matrix) -> int:
    return _rank_and_factors(m)[0]


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
            if self.ring.is_zero(d) or self.ring.is_unit(d):
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

    def __add__(self, other):
        return K0Class(self.value + other.value)

    def __sub__(self, other):
        return K0Class(self.value - other.value)

    def __neg__(self):
        return K0Class(-self.value)


def cokernel_module(ring: ScalarRing, ambient_rank: int, relations: Matrix) -> FGModule:
    """R^ambient_rank / column span of relations, in invariant-factor form."""
    rk, factors = _rank_and_factors(relations)
    return FGModule(ring, factors, ambient_rank - rk)


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
            if d.ring != self.ring:
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

    def degrees(self):
        return sorted(self.ranks)

    def is_zero(self) -> bool:
        return not self.ranks

    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def min_degree(self):
        return min(self.ranks) if self.ranks else None

    def max_degree(self):
        return max(self.ranks) if self.ranks else None

    def shift(self, k: int) -> "FreeChainComplex":
        """C[k]^n = C^{n+k}, differential scaled by (-1)^k."""
        sign = self.ring.one() if k % 2 == 0 else self.ring.neg(self.ring.one())
        return FreeChainComplex(
            self.ring,
            {n - k: r for n, r in self.ranks.items()},
            {n - k: d.scale(sign) for n, d in self.diffs.items()},
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
        return (isinstance(other, FreeChainComplex) and self.ring == other.ring
                and self.ranks == other.ranks
                and self.diffs == other.diffs)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.ranks.items())),
                     tuple(sorted(self.diffs.items()))))

    def __repr__(self):
        return f"FreeChainComplex({self.ring}, ranks={self.ranks})"


class ChainMap:
    """A degreewise map of complexes commuting with the differentials."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: FreeChainComplex, target: FreeChainComplex,
                 mats: dict, check: bool = True):
        if source.ring != target.ring:
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
        for n in set(self.source.ranks) | set(self.target.ranks):
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
        mats = {}
        for n in set(self.mats) | set(other.mats):
            mats[n] = self.component(n) @ other.component(n)
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
    one = R.one()
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
                                     ((ra1 + i, i, one) for i in range(rb)))
    include = ChainMap(b, cn, inc, check=False)
    proj = {}
    for n, r in cn.ranks.items():
        ra1 = a.rank(n + 1)
        proj[n] = Matrix.from_entries(R, ra1, r, ((i, i, one) for i in range(ra1)))
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
    one = R.one()
    neg = R.neg(one)

    def entries(n, lab):
        p, q, i, j = lab
        for i2, co in c1.diff(p).col(i):
            yield (p + 1, q, i2, j), co
        sign = one if p % 2 == 0 else neg
        for j2, co in c2.diff(q).col(j):
            yield (p, q + 1, i, j2), R.mul(sign, co)

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


def tor_amplitude(c: FreeChainComplex):
    """Smallest [a, b] with H^n(c (x)^L N) = 0 outside for every module N.

    Exact over a PID or a field: complexes of frees split into their homology,
    and torsion in the lowest nonzero homology widens the window one step
    down.  Returns None for an acyclic complex.
    """
    h = homology(c)
    if not h:
        return None
    degs = sorted(h)
    a, b = degs[0], degs[-1]
    if h[a].invariant_factors:
        a -= 1
    return (a, b)


def hom_basis(c1: FreeChainComplex, c2: FreeChainComplex):
    """Ordered basis labels (t, i, j) of the Hom complex per degree.

    Degree-n part is prod_t Hom(c1^t, c2^{t+n}); label (t, i, j) is the matrix
    unit sending basis vector i of c1^t to basis vector j of c2^{t+n}.
    """
    basis = {}
    for t, r1 in sorted(c1.ranks.items()):
        for s, r2 in sorted(c2.ranks.items()):
            lab = basis.setdefault(s - t, [])
            for i in range(r1):
                for j in range(r2):
                    lab.append((t, i, j))
    for lab in basis.values():
        lab.sort()
    return basis


def hom_complex(c1: FreeChainComplex, c2: FreeChainComplex):
    """Total Hom complex with d(f) = d_2 . f - (-1)^n f . d_1."""
    if c1.ring != c2.ring:
        raise RingMismatch("hom over different rings")
    R = c1.ring
    basis = hom_basis(c1, c2)
    one, neg = R.one(), R.neg(R.one())

    def entries(n, lab):
        t, i, j = lab
        for j2, co in c2.diff(t + n).col(j):
            yield (t, i, j2), co
        # -(-1)^n f . d_1 : component at source degree t-1 uses f at degree t
        sign = neg if n % 2 == 0 else one
        for i2, co in c1.diff(t - 1).row(i):
            yield (t - 1, i2, j), R.mul(sign, co)

    return complex_from_basis(R, basis, entries)
