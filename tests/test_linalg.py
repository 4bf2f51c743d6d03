from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from sheafkit.linalg import (
    ChainMap, DegreeOverflow, FGModule, FreeChainComplex, GF, LinalgError,
    Matrix, PRIME_LIMIT, QQ, RingMismatch, ScalarRing, ZZ, _is_prime,
    _rank_and_factors, block_diagonal, cone, det, homology,
    is_acyclic, k0_rank, kernel_basis, snf, solve_right, tensor_total,
)
from sheafkit.randgen import random_poset, random_sheaf
from sheafkit.selftest import _check_snf
from sheafkit.sheaf import SheafComplex, _hom_end_complex, rgamma
from sheafkit.space import build_space


def two_term(ring, k, degree=-1):
    return FreeChainComplex.from_diff(ring, degree, Matrix(ring, [[k]]))


def reference_homology(c):
    """H^n by transforms: a kernel basis of d_n, im d_{n-1} solved into it,
    and the Smith normal form of the resulting relations."""
    out = {}
    for n in sorted(c.ranks):
        k = kernel_basis(c.diff(n))
        if k.cols == 0:
            continue
        prev = c.diff(n - 1)
        if prev.cols == 0:
            rel = Matrix.zeros(c.ring, k.cols, 0)
        else:
            rel = solve_right(k, prev)
            assert rel is not None
        s, _, _ = snf(rel)
        diag = [s[i, i] for i in range(min(s.rows, s.cols)) if s[i, i]]
        mod = FGModule(c.ring, tuple(d for d in diag if not c.ring.is_unit(d)),
                       k.cols - len(diag))
        if not mod.is_zero():
            out[n] = mod
    return out


def ladder(height):
    """Width-2 ladder: two points per level, each below both points above."""
    pts = [f"{c}{i}" for i in range(height) for c in "pq"]
    covers = [(f"{c}{i}", f"{d}{i + 1}")
              for i in range(height - 1) for c in "pq" for d in "pq"]
    return build_space(pts, covers)


def change_ring(c, ring):
    """c (x) ring for a complex c over Z."""
    diffs = {}
    for n, d in c.diffs.items():
        image = {x: ring.normalize(x) for row in d.entries for x in set(row)}
        diffs[n] = Matrix(ring, [[image[x] for x in row] for row in d.entries])
    return FreeChainComplex(ring, c.ranks, diffs, check=False)


def invariants(m):
    return _rank_and_factors(m)


class TestFromEntries:
    def test_repeated_positions_are_summed(self):
        m = Matrix.from_entries(ZZ, 2, 3, [(0, 1, 2), (1, 2, 5), (0, 1, -7), (1, 2, 0)])
        assert m == Matrix(ZZ, [[0, -5, 0], [0, 0, 5]])

    def test_values_are_reduced_in_the_ring(self):
        m = Matrix.from_entries(GF(5), 1, 3, [(0, 0, 7), (0, 1, -1), (0, 1, 4)])
        assert m.entries == ((2, 3, 0),)
        q = Matrix.from_entries(QQ, 1, 2, [(0, 0, 3), (0, 0, Fraction(1, 2))])
        assert q.entries == ((Fraction(7, 2), 0),)
        assert all(type(x) is Fraction for x in q.entries[0])

    def test_rejects_a_fraction_over_z(self):
        with pytest.raises(ValueError):
            Matrix.from_entries(ZZ, 1, 1, [(0, 0, Fraction(1, 2))])

    def test_matches_the_dense_constructor(self):
        rng = Random(71)
        empty_shapes = 0
        for ring in (ZZ, QQ, GF(2), GF(3)):
            for _ in range(150):
                rows, cols = rng.randint(0, 5), rng.randint(0, 5)
                dense = [[0] * cols for _ in range(rows)]
                triples = []
                for _ in range(rng.randint(0, 2 * rows * cols)):
                    i, j = rng.randrange(rows), rng.randrange(cols)
                    x = rng.randint(-9, 9)
                    if ring is QQ:
                        x = Fraction(x, rng.randint(1, 4))
                    triples.append((i, j, x))
                    dense[i][j] += x
                m = Matrix.from_entries(ring, rows, cols, triples)
                ref = Matrix(ring, dense, rows, cols)
                assert m == ref and hash(m) == hash(ref)
                empty_shapes += rows == 0 or cols == 0
        assert empty_shapes >= 100

    def test_block_diagonal(self):
        a = Matrix(ZZ, [[1, 2], [3, 4], [5, 6]])
        b = Matrix(ZZ, [[7, 0, 8]])
        assert list(b.nonzeros(3, 2)) == [(3, 2, 7), (3, 4, 8)]
        assert block_diagonal(a, b) == Matrix(ZZ, [[1, 2, 0, 0, 0],
                                                   [3, 4, 0, 0, 0],
                                                   [5, 6, 0, 0, 0],
                                                   [0, 0, 7, 0, 8]])
        assert block_diagonal(Matrix.zeros(ZZ, 0, 2), b) == Matrix(ZZ, [[0, 0, 7, 0, 8]])
        assert block_diagonal(b, Matrix.zeros(ZZ, 2, 0)) == Matrix(ZZ, [[7, 0, 8], [0, 0, 0],
                                                                        [0, 0, 0]])


def random_grid(rng, ring, rows, cols):
    """A rows x cols list of lists over ring, about half zeros."""
    def value():
        x = rng.choice([0, 0, rng.randint(-9, 9)])
        return ring.normalize(Fraction(x, rng.randint(1, 4)) if ring is QQ else x)
    return [[value() for _ in range(cols)] for _ in range(rows)]


def shuffled_matrix(rng, ring, grid, cols):
    """grid as a Matrix built from its entries split in two summands and
    shuffled, so that the stored rows fill in a random order."""
    triples = []
    for i, row in enumerate(grid):
        for j, x in enumerate(row):
            y = ring.normalize(rng.randint(-3, 3))
            triples += [(i, j, x - y), (i, j, y)]
    rng.shuffle(triples)
    return Matrix.from_entries(ring, len(grid), cols, triples)


class TestSparseStorage:
    """Every operation of the sparse Matrix against list-of-lists arithmetic."""

    @staticmethod
    def check(ring, m, grid, cols):
        rows = len(grid)
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries == tuple(map(tuple, grid))
        zero_type = type(ring.zero())
        assert all(type(x) is zero_type for row in m.entries for x in row)
        for i in range(rows):
            assert sorted(m.row(i)) == [(j, x) for j, x in enumerate(grid[i]) if x]
            for j in range(cols):
                assert m[i, j] == grid[i][j] and type(m[i, j]) is zero_type
        for j in range(cols):
            assert list(m.col(j)) == [(i, grid[i][j]) for i in range(rows) if grid[i][j]]
        assert sorted(m.nonzeros(2, 3)) == [(i + 2, j + 3, x) for i, row in enumerate(grid)
                                            for j, x in enumerate(row) if x]
        assert m.is_zero() == (not any(x for row in grid for x in row))

    def test_matches_list_reference(self):
        rng = Random(72)
        empty_shapes = 0
        for R in (ZZ, QQ, GF(2), GF(3)):
            for _ in range(150):
                rows, cols, inner = (rng.randint(0, 4) for _ in range(3))
                ga = random_grid(rng, R, rows, inner)
                gb = random_grid(rng, R, inner, cols)
                gc = random_grid(rng, R, rows, inner)
                a, b = shuffled_matrix(rng, R, ga, inner), shuffled_matrix(rng, R, gb, cols)
                c = Matrix(R, gc, rows, inner)
                self.check(R, a, ga, inner)
                self.check(R, a @ b, [[R.normalize(sum(ga[i][k] * gb[k][j] for k in range(inner)))
                                       for j in range(cols)] for i in range(rows)], cols)
                self.check(R, a + c, [[R.normalize(x + y) for x, y in zip(r, s)]
                                      for r, s in zip(ga, gc)], inner)
                self.check(R, a - c, [[R.normalize(x - y) for x, y in zip(r, s)]
                                      for r, s in zip(ga, gc)], inner)
                k = rng.randint(-3, 3)
                self.check(R, a.scale(k), [[R.normalize(k * x) for x in r] for r in ga], inner)
                self.check(R, a.hstack(c), [r + s for r, s in zip(ga, gc)], 2 * inner)
                ridx = [rng.randrange(rows) for _ in range(rng.randint(0, 3))] if rows else []
                cidx = [rng.randrange(inner) for _ in range(rng.randint(0, 3))] if inner else []
                self.check(R, a.submatrix(ridx, cidx), [[ga[i][j] for j in cidx] for i in ridx],
                           len(cidx))
                same = Matrix(R, ga, rows, inner)
                assert a == same and hash(a) == hash(same)
                assert (a == c) == (ga == gc)
                empty_shapes += rows == 0 or cols == 0 or inner == 0
        assert empty_shapes >= 100

    def test_column_outside_the_shape_is_rejected(self):
        for j in (2, -1):
            with pytest.raises(IndexError):
                Matrix.from_entries(ZZ, 2, 2, [(0, j, 1)])
            with pytest.raises(IndexError):
                Matrix.identity(ZZ, 2)[0, j]


class TestSNF:
    def test_spec_example(self):
        m = Matrix(ZZ, [[4, 6], [2, 2]])
        s, u, v = snf(m)
        assert [s[0, 0], s[1, 1]] == [2, 2]
        assert (u @ m @ v) == s

    def test_identity(self):
        m = Matrix.identity(ZZ, 3)
        s, u, v = snf(m)
        assert s == Matrix.identity(ZZ, 3)

    def test_zero(self):
        m = Matrix.zeros(ZZ, 2, 3)
        s, _, _ = snf(m)
        assert s.is_zero()

    def test_minor_gcd_oracle(self):
        # d_1 = gcd of entries, d_1 d_2 = gcd of 2x2 minors
        m = Matrix(ZZ, [[4, 6], [2, 2]])
        s, _, _ = snf(m)
        from math import gcd
        d1 = gcd(gcd(4, 6), gcd(2, 2))
        minor = abs(4 * 2 - 6 * 2)
        assert s[0, 0] == d1
        assert s[0, 0] * s[1, 1] == minor

    def test_random_decomposition(self):
        rng = Random(2024)
        assert [i for i in range(500) if not _check_snf(rng)] == []

    def test_field_rank_normal_form(self):
        m = Matrix(QQ, [[Fraction(1, 2), 3], [2, 12]])
        s, u, v = snf(m)
        assert (u @ m @ v) == s
        assert [s[0, 0], s[1, 1]] == [1, 0]
        mf = Matrix(GF(5), [[2, 1], [4, 2]])
        s, u, v = snf(mf)
        assert (u @ mf @ v) == s
        assert [s[0, 0], s[1, 1]] == [1, 0]

    @pytest.mark.parametrize("ring", [QQ, GF(2), GF(3), GF(7)], ids=str)
    def test_random_field_rank_normal_form(self, ring):
        """Over a field s is diag(1, ..., 1, 0, ...), zero off the diagonal,
        and u, v are invertible."""
        rng = Random(31)
        if ring == QQ:
            draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        else:
            draw = lambda: rng.randrange(ring.p)
        for _ in range(300):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            m = Matrix(ring, [[draw() if rng.random() < 0.6 else 0
                               for _ in range(cols)] for _ in range(rows)],
                       rows, cols)
            s, u, v = snf(m)
            assert (u @ m @ v) == s
            r = _rank_and_factors(m)[0]
            assert s == Matrix.from_entries(ring, rows, cols,
                                            ((i, i, 1) for i in range(r)))
            assert det(u) != 0 and det(v) != 0


def permutation_det(m):
    """The Leibniz expansion: the sum over permutations of signed products."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return m.ring.normalize(total)


class TestDet:
    def test_matches_the_permutation_expansion(self):
        rng = Random(91)
        singular = 0
        for _ in range(600):
            ring = rng.choice((ZZ, QQ, GF(2), GF(3), GF(7)))
            n = rng.randint(0, 6)
            rows = [[0 if rng.random() < 0.4 else
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if ring is QQ
                     else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                rows[-1] = list(rows[0])
            m = Matrix(ring, rows, n, n)
            want, got = permutation_det(m), det(m)
            assert got == want and type(got) is type(want)
            singular += got == 0
        assert singular >= 100

    def test_non_square(self):
        with pytest.raises(ValueError, match="non-square"):
            det(Matrix.zeros(ZZ, 2, 3))


class TestSolve:
    def test_kernel_is_lattice(self):
        m = Matrix(ZZ, [[2, 4]])
        k = kernel_basis(m)
        assert k.cols == 1
        assert (m @ k).is_zero()
        # (2, -1) generates the full kernel lattice, not (4, -2)
        from math import gcd
        assert gcd(abs(k[0, 0]), abs(k[1, 0])) == 1

    def test_solve_right(self):
        a = Matrix(ZZ, [[2, 0], [0, 3]])
        b = Matrix(ZZ, [[4], [9]])
        x = solve_right(a, b)
        assert x is not None and (a @ x) == b
        assert solve_right(a, Matrix(ZZ, [[1], [0]])) is None


class TestHomology:
    def test_mult_two(self):
        h = homology(two_term(ZZ, 2))
        assert set(h) == {0}
        assert h[0].invariant_factors == (2,) and h[0].free_rank == 0

    def test_zero_differentials(self):
        c = FreeChainComplex(ZZ, {-1: 2, 3: 1}, {})
        h = homology(c)
        assert h[-1].free_rank == 2 and h[3].free_rank == 1

    def test_identity_acyclic(self):
        c = FreeChainComplex.from_diff(QQ, 0, Matrix(QQ, [[1]]))
        assert is_acyclic(c)

    def test_squares_to_zero_enforced(self):
        bad = Matrix(ZZ, [[1]])
        with pytest.raises(ValueError):
            FreeChainComplex(ZZ, {0: 1, 1: 1, 2: 1}, {0: bad, 1: bad})

    def test_degree_window(self):
        with pytest.raises(DegreeOverflow):
            FreeChainComplex(ZZ, {40: 1}, {})

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="negative rank"):
            FreeChainComplex(ZZ, {0: -1}, {})
        with pytest.raises(ValueError, match="negative rank"):
            FreeChainComplex(ZZ, {0: 1, 1: -2}, {}, check=False)

    def test_unchecked_square_nonzero_raises(self):
        one = Matrix(ZZ, [[1]])
        c = FreeChainComplex(ZZ, {0: 1, 1: 1, 2: 1}, {0: one, 1: one}, check=False)
        with pytest.raises(LinalgError, match="d\\^2 != 0"):
            homology(c)

    @pytest.mark.parametrize("ring, count", [(ZZ, 300), (QQ, 60), (GF(2), 60), (GF(3), 60)])
    def test_matches_transform_reference(self, ring, count):
        rng = Random(f"homology:{ring}")
        torsion = 0
        for _ in range(count):
            m = random_poset(rng, 6)
            k = random_sheaf(rng, m, ring, max_pieces=3, degree_range=(-2, 2))
            c = rgamma(k)
            h = homology(c)
            assert h == reference_homology(c)
            torsion += any(mod.invariant_factors for mod in h.values())
        if ring == ZZ:
            assert torsion >= 100

    def test_universal_coefficients_on_a_ladder(self):
        # rgamma of rank 2501 with Z/6 in degree 2
        k = random_sheaf(Random(5), ladder(7), ZZ, max_pieces=3)
        c = rgamma(k)
        assert sum(c.ranks.values()) > 2000
        h = homology(c)
        assert any(mod.invariant_factors for mod in h.values())

        def free(n):
            return h[n].free_rank if n in h else 0

        def divisible(n, p):
            return sum(1 for d in h[n].invariant_factors if d % p == 0) if n in h else 0

        degs = range(min(c.ranks) - 1, max(c.ranks) + 2)
        hq = homology(change_ring(c, QQ))
        assert {n: hq[n].free_rank if n in hq else 0 for n in degs} == {n: free(n) for n in degs}
        for p in (2, 3):
            hp = homology(change_ring(c, GF(p)))
            assert ({n: hp[n].free_rank if n in hp else 0 for n in degs}
                    == {n: free(n) + divisible(n, p) + divisible(n + 1, p) for n in degs})


class TestRankAndFactors:
    def test_examples(self):
        assert invariants(Matrix(ZZ, [[4, 6], [2, 2]])) == (2, (2, 2))
        assert invariants(Matrix(ZZ, [[2, 0], [0, 3]])) == (2, (6,))
        assert invariants(Matrix.zeros(ZZ, 2, 3)) == (0, ())
        assert invariants(Matrix(GF(5), [[2, 1], [4, 2]])) == (1, ())
        assert invariants(Matrix(QQ, [[Fraction(1, 2), 3], [2, 12]])) == (1, ())
        # each non-unit pivot must divide what is left: 4 and 6 give 2 and 12
        assert invariants(Matrix(ZZ, [[4, 0, 0], [0, 6, 0], [0, 0, 10]])) == (3, (2, 2, 60))
        assert invariants(Matrix(QQ, [[Fraction(2, 3), 0, 4], [1, 1, 6],
                                      [Fraction(5, 3), 1, 10]])) == (2, ())
        assert invariants(Matrix(GF(7), [[3, 5, 1], [6, 3, 2], [0, 1, 4]])) == (2, ())

    def test_matches_snf(self):
        rng = Random(12)
        for ring in (ZZ, QQ, GF(2), GF(3), GF(7)):
            for _ in range(200):
                rows, cols, inner = (rng.randint(1, 6) for _ in range(3))
                a = Matrix(ring, [[rng.randint(-5, 5) for _ in range(inner)]
                                  for _ in range(rows)])
                b = Matrix(ring, [[rng.randint(-5, 5) for _ in range(cols)]
                                  for _ in range(inner)])
                m = a @ b
                s, _, _ = snf(m)
                diag = [s[i, i] for i in range(min(rows, cols)) if s[i, i]]
                assert invariants(m) == (
                    len(diag), tuple(d for d in diag if not ring.is_unit(d)))

    def test_matches_sympy_smith_normal_form(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form
        from sympy.polys.domains import ZZ as SZZ
        rng = Random(11)
        with_torsion = 0
        for _ in range(300):
            rows, cols, inner = (rng.randint(1, 7) for _ in range(3))
            a = [[rng.randint(-6, 6) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(inner)]
            entries = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                       for i in range(rows)]
            s = smith_normal_form(sympy.Matrix(entries), domain=SZZ)
            diag = [abs(int(s[i, i])) for i in range(min(rows, cols)) if s[i, i] != 0]
            rk, factors = invariants(Matrix(ZZ, entries))
            assert rk == len(diag)
            assert factors == tuple(d for d in diag if d != 1)
            with_torsion += bool(factors)
        assert with_torsion >= 100


class TestPrimes:
    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
        assert all(_is_prime(n) == trial(n) for n in range(5000))

    def test_strong_pseudoprimes(self):
        # strong pseudoprimes to the first 8 and to the first 12 prime bases
        assert not _is_prime(3825123056546413051)
        assert not _is_prime(318665857834031151167461)

    def test_large_prime_field(self):
        assert GF(1000000000000000000000007).p == 10 ** 24 + 7
        with pytest.raises(ValueError, match="below"):
            ScalarRing("Fp", PRIME_LIMIT)


class TestNormalize:
    def test_fractions_over_fp_invert_the_denominator(self):
        f5 = GF(5)
        assert f5.normalize(Fraction(1, 2)) == 3
        assert f5.normalize(Fraction(-1, 2)) == 2
        assert all(f5.normalize(Fraction(a, b)) * b % 5 == a % 5
                   for a in range(-9, 10) for b in range(1, 12) if b % 5)
        assert Matrix(f5, [[Fraction(2, 3)]]) == Matrix(f5, [[4]])
        for x in (Fraction(1, 5), Fraction(3, 10)):
            with pytest.raises(ValueError, match="not invertible mod 5"):
                f5.normalize(x)


def _is_canonical(ring, x) -> bool:
    if ring.kind == "Z":
        return type(x) is int
    if ring.kind == "Q":
        return type(x) is Fraction
    return type(x) is int and 0 <= x < ring.p


class TestCanonicalEntries:
    """Builders pass raw integer signs and products; building the Matrix
    must store each entry as the ring's canonical representative."""

    def test_every_builder_stores_canonical_entries(self):
        rng = Random(131)
        for ring in (ZZ, QQ, GF(2), GF(3), GF(7)):
            checked = 0
            for _ in range(6):
                m = random_poset(rng, 4)
                k = random_sheaf(rng, m, ring, max_pieces=2)
                l = random_sheaf(rng, m, ring, max_pieces=2)
                sections = rgamma(k)
                end, _, _ = _hom_end_complex(k, l)
                x, y = m.covers[0] if m.covers else (m.points[0],) * 2
                cn, include, project = cone(k.rho(x, y))
                mats = [d for c in (sections, end, tensor_total(sections, end), cn,
                                    sections.shift(1), sections.shift(-2))
                        for d in c.diffs.values()]
                mats += [*include.mats.values(), *project.mats.values()]
                entries = [e for d in mats for _, _, e in d.nonzeros()]
                assert all(_is_canonical(ring, e) for e in entries)
                checked += len(entries)
            assert checked >= 100


class TestTensor:
    def test_unit(self):
        c = two_term(ZZ, 2)
        unit = FreeChainComplex.free_module(ZZ, 1, 0)
        assert homology(tensor_total(c, unit)) == homology(c)

    def test_tor_of_cyclic_modules(self):
        # Z/2 (x)^L Z/3 is exact: gcd(2, 3) = 1
        assert homology(tensor_total(two_term(ZZ, 2), two_term(ZZ, 3))) == {}
        # Z/2 (x)^L Z/2 has Tor_0 in degree 0 and Tor_1 one step below
        h = homology(tensor_total(two_term(ZZ, 2), two_term(ZZ, 2)))
        assert h[0].invariant_factors == (2,)
        assert h[-1].invariant_factors == (2,)
        assert -2 not in h

    def test_zero(self):
        c = two_term(ZZ, 2)
        assert tensor_total(c, FreeChainComplex.zero(ZZ)).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            tensor_total(two_term(ZZ, 2), two_term(QQ, 2))

    def test_brute_force_tor_oracle(self):
        # Z/4 and Z/6 both presented in degree 1: Tor_0 = gcd in degree 2,
        # Tor_1 = gcd in degree 1
        c4, c6 = two_term(ZZ, 4, 0), two_term(ZZ, 6, 0)
        h = homology(tensor_total(c4, c6))
        assert h[2].invariant_factors == (2,)
        assert h[1].invariant_factors == (2,)


class TestK0Rank:
    def test_examples(self):
        assert k0_rank(two_term(ZZ, 2)).value == 0
        assert k0_rank(FreeChainComplex.free_module(ZZ, 1, 0)).value == 1
        assert k0_rank(FreeChainComplex.free_module(ZZ, 2, 1)).value == -2

    def test_additive_on_sums_and_shifts(self):
        rng = Random(5)
        from sheafkit.randgen import random_complex
        for _ in range(50):
            c1 = random_complex(rng)
            c2 = random_complex(rng)
            assert (k0_rank(c1.direct_sum(c2)).value
                    == k0_rank(c1).value + k0_rank(c2).value)
            assert k0_rank(c1.shift(1)).value == -k0_rank(c1).value

    def test_cone_additivity(self):
        rng = Random(6)
        from sheafkit.randgen import random_complex
        for _ in range(30):
            c = random_complex(rng)
            f = ChainMap.identity(c)
            cn, _, _ = cone(f)
            assert k0_rank(cn).value == 0
            z = ChainMap.zero(c, c)
            cn2, _, _ = cone(z)
            assert k0_rank(cn2).value == 0

    def test_matches_rational_homology(self):
        rng = Random(7)
        from sheafkit.randgen import random_complex
        for _ in range(30):
            c = random_complex(rng)
            h = homology(c)
            assert k0_rank(c).value == sum(
                (-1) ** (n % 2) * mod.free_rank for n, mod in h.items())


class TestConeExactness:
    def test_long_exact_sequence_ranks(self):
        c = two_term(ZZ, 2)
        f = ChainMap.identity(c)
        cn, inc, proj = cone(f)
        assert is_acyclic(cn)
        assert inc.source == c and proj.target == c.shift(1)


class TestChainMapValidate:
    def test_non_commuting_map_is_rejected(self):
        c = two_term(ZZ, 2)  # degrees -1, 0
        with pytest.raises(ValueError, match=r"^does not commute with d in degree -1$"):
            ChainMap(c, c, {-1: Matrix(ZZ, [[1]]), 0: Matrix(ZZ, [[3]])})
        with pytest.raises(ValueError, match=r"^does not commute with d in degree -1$"):
            ChainMap(c, c, {0: Matrix(ZZ, [[1]])})
        ChainMap(c, c, {-1: Matrix(ZZ, [[3]]), 0: Matrix(ZZ, [[3]])})
        f3 = two_term(GF(3), 2)
        ChainMap(f3, f3, {-1: Matrix(GF(3), [[1]]), 0: Matrix(GF(3), [[4]])})
        with pytest.raises(ValueError, match="does not commute"):
            ChainMap(f3, f3, {-1: Matrix(GF(3), [[1]]), 0: Matrix(GF(3), [[2]])})

    def test_wrong_shape_is_rejected(self):
        c = two_term(ZZ, 2)
        with pytest.raises(ValueError, match=r"^component 0 has wrong shape$"):
            ChainMap(c, c, {0: Matrix(ZZ, [[1, 0]])})

    def test_agrees_with_dense_products(self):
        """Perturbed identities on derived sections of random sheaves are
        accepted exactly when the dense products commute."""
        rng = Random(23)
        rejected = 0
        for _ in range(150):
            ring = rng.choice([ZZ, QQ, GF(2), GF(3)])
            k = random_sheaf(rng, random_poset(rng, 5), ring, max_pieces=2)
            c = rgamma(k)
            if not c.ranks:
                continue
            mats = {n: Matrix.identity(ring, r) for n, r in c.ranks.items()}
            n = rng.choice(sorted(c.ranks))
            rows = [list(row) for row in mats[n].entries]
            rows[rng.randrange(len(rows))][rng.randrange(len(rows))] = rng.randint(-2, 2)
            mats[n] = Matrix(ring, rows)
            commutes = all(c.diff(d) @ mats.get(d, Matrix.zeros(ring, c.rank(d), c.rank(d)))
                           == mats.get(d + 1, Matrix.zeros(ring, c.rank(d + 1), c.rank(d + 1)))
                           @ c.diff(d)
                           for d in c.ranks)
            if commutes:
                ChainMap(c, c, mats)
            else:
                rejected += 1
                with pytest.raises(ValueError, match="does not commute"):
                    ChainMap(c, c, mats)
        assert rejected >= 20


class TestHomComplex:
    def test_dual_of_two_term(self):
        c = two_term(ZZ, 2, 0)  # degrees 0, 1
        unit = FreeChainComplex.free_module(ZZ, 1, 0)
        # the Hom complex of two complexes is the homotopy end on one point
        pt = build_space(["x"], [])
        d, _, _ = _hom_end_complex(SheafComplex(pt, ZZ, {"x": c}, {}),
                                   SheafComplex(pt, ZZ, {"x": unit}, {}))
        # dual lives in degrees -1, 0 with the transposed differential
        assert d.rank(-1) == 1 and d.rank(0) == 1
        h = homology(d)
        assert h[0].invariant_factors == (2,)
