from fractions import Fraction
from random import Random

import pytest

import sheafkit.intpoly as ip


def reference_sturm(p):
    """Signed-remainder Sturm sequence over Q: p, p', then the negated
    remainders of polynomial division with Fraction coefficients."""
    seq = [tuple(Fraction(c) for c in p)]
    d = ip.deriv(p)
    if d:
        seq.append(tuple(Fraction(c) for c in d))
        while True:
            a, b = list(seq[-2]), seq[-1]
            while len(a) >= len(b):
                f = a[-1] / b[-1]
                k = len(a) - len(b)
                for i, c in enumerate(b):
                    a[k + i] -= f * c
                a.pop()
                while a and a[-1] == 0:
                    a.pop()
            if not a:
                break
            seq.append(tuple(-c for c in a))
    return seq


def random_poly(rng: Random, degree: int, bound: int = 20) -> tuple:
    """A random integer polynomial of the given degree; about half of them
    are products of small factors, some squared, so rational roots and
    repeated factors occur."""
    if degree > 1 and rng.random() < 0.5:
        p = (1,)
        while ip.degree(p) < degree:
            room = degree - ip.degree(p)
            k = rng.randint(1, min(3, room))
            f = random_poly(rng, k, 6)
            if 2 * k <= room and rng.random() < 0.3:
                f = ip.mul(f, f)
            p = ip.mul(p, f)
        return p
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return tuple(coeffs) + (rng.choice([-1, 1]) * rng.randint(1, bound),)


def squarefree_by_gcd(p) -> tuple:
    """The squarefree part in two steps, an oracle for squarefree_sturm:
    gcd(p, p') by its own remainder sequence, then exact division."""
    g = ip.gcd(p, ip.deriv(p))
    return ip.primitive(p) if ip.degree(g) == 0 else ip.divexact(ip.primitive(p), g)


def squarefree_polys(seed: int, count: int) -> list:
    """Seeded squarefree polynomials of degree 1-12."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        sf = squarefree_by_gcd(random_poly(rng, rng.randint(1, 12)))
        if 1 <= ip.degree(sf) <= 12:
            out.append(sf if rng.random() < 0.5 else ip.scale(sf, rng.choice([-3, -1, 2])))
    return out


def random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, 4, 7, 8, 64, 1024]))


def sign(x) -> int:
    return (x > 0) - (x < 0)


def is_positive_multiple(p, q) -> bool:
    """Whether p = c * q for a rational c > 0."""
    return (len(p) == len(q) and sign(p[-1]) == sign(q[-1])
            and all(a * q[-1] == b * p[-1] for a, b in zip(p, q)))


def to_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    return sympy.Poly(list(reversed(p)), t, domain="ZZ")


def from_sympy(poly) -> tuple:
    return ip.normalize(int(c) for c in reversed(poly.all_coeffs()))


class TestSturmSequence:
    def test_terms_are_positive_multiples_of_the_reference(self):
        for p in squarefree_polys(1, 300):
            seq, ref = ip.sturm_sequence(p), reference_sturm(p)
            assert len(seq) == len(ref)
            for a, b in zip(seq, ref):
                assert all(isinstance(c, int) for c in a)
                assert is_positive_multiple(a, b)

    def test_counts_roots_between_rationals(self):
        rng = Random(2)
        for p in squarefree_polys(2, 60):
            seq = ip.sturm_sequence(p)
            lo, hi = sorted((random_rational(rng), random_rational(rng)))
            ref = reference_sturm(p)
            assert ip.count_roots_halfopen(seq, lo, hi) == ip.count_roots_halfopen(ref, lo, hi)
            assert (ip.count_roots_halfopen(seq, None, None)
                    == ip.count_roots_halfopen(ref, None, None))


def sign_at_isolated_root(q, sf, lo, hi) -> int:
    """The sign of q at the one root of the squarefree sf in (lo, hi), whose
    ends are not roots: 0 when gcd(sf, q) has a root there, otherwise the
    sign of q at lo once bisection leaves no root of q in [lo, hi]."""
    g = ip.gcd(sf, q)
    if ip.degree(g) >= 1 and ip.count_roots_halfopen(ip.sturm_sequence(g), lo, hi) == 1:
        return 0
    qs = ip.sturm_sequence(squarefree_by_gcd(q))
    while ip.count_roots_halfopen(qs, lo, hi) or ip.sign_at_rational(q, lo) == 0:
        mid = (lo + hi) / 2
        s = ip.sign_at_rational(sf, mid)
        if s == 0:
            return sign(ip.evaluate(q, mid))
        lo, hi = (mid, hi) if s == ip.sign_at_rational(sf, lo) else (lo, mid)
    return ip.sign_at_rational(q, lo)


class TestSquarefreeSturm:
    def test_matches_the_two_step_path(self):
        """One remainder sequence gives the squarefree part and a Sturm
        sequence with the same variation counts as the sequence built from
        the two-step squarefree part, for p with repeated factors, a content
        and either leading sign."""
        rng = Random(12)
        repeated = 0
        for _ in range(300):
            p = random_poly(rng, rng.randint(0, 8))
            if rng.random() < 0.5:
                f = random_poly(rng, rng.randint(1, 2), 6)
                p = ip.mul(p, ip.power(f, rng.randint(2, 3)))
            p = ip.scale(p, rng.choice((1, 1, -1, 2, -6)))
            sf, seq = ip.squarefree_sturm(p)
            ref = squarefree_by_gcd(p)
            ref_seq = ip.sturm_sequence(ref)
            assert sf == ref
            assert ip.variations_at_neg_inf(seq) == ip.variations_at_neg_inf(ref_seq)
            assert ip.variations_at_pos_inf(seq) == ip.variations_at_pos_inf(ref_seq)
            for x in [random_rational(rng) for _ in range(6)]:
                assert ip.variations_at(seq, x) == ip.variations_at(ref_seq, x)
            repeated += sf != ip.primitive(p)
        assert repeated >= 100


class TestTarskiQuery:
    def test_sums_signs_over_isolated_roots(self):
        """TaQ(q, p) on the whole line and on each isolating interval equals
        the sum of the signs of q over the roots of p there, for p of degree
        up to 8, squarefree or not, and q sharing roots with p or not."""
        rng = Random(9)
        signs = {-1: 0, 0: 0, 1: 0}
        for _ in range(300):
            p = random_poly(rng, rng.randint(1, 6))
            q = random_poly(rng, rng.randint(0, 6))
            if rng.random() < 0.3:
                f = random_poly(rng, rng.randint(1, 2), 6)
                p, q = ip.mul(p, f), ip.mul(q, f)
            sf = squarefree_by_gcd(p)
            seq = ip.sturm_sequence(p, q)
            total = 0
            for entry in ip.isolate_real_roots(p):
                if entry[0] == "rational":
                    s = sign(ip.evaluate(q, entry[1]))
                else:
                    s = sign_at_isolated_root(q, sf, entry[1], entry[2])
                    assert ip.count_roots_halfopen(seq, entry[1], entry[2]) == s
                total += s
                signs[s] += 1
            assert ip.count_roots_halfopen(seq, None, None) == total
        assert min(signs.values()) >= 100

    def test_q_above_the_degree_of_p_with_negative_leading_coefficients(self):
        """q of higher degree than p, either leading coefficient negative:
        the query still sums the signs of q over the roots of p, and q enters
        the sequence reduced modulo p, so the second term has degree below
        2 deg p.  A multiple of p reduces to zero and counts nothing."""
        rng = Random(10)
        signs = {-1: 0, 0: 0, 1: 0}
        for _ in range(200):
            p = random_poly(rng, rng.randint(1, 5))
            shared = random_poly(rng, rng.randint(1, 2), 6) if rng.random() < 0.4 else (1,)
            p = ip.mul(p, shared)
            if p[-1] > 0:
                p = ip.neg(p)
            q = ip.mul(random_poly(rng, ip.degree(p) + rng.randint(1, 4)), shared)
            if rng.random() < 0.5:
                q = ip.neg(q)
            seq = ip.sturm_sequence(p, q)
            assert len(seq) == 1 or ip.degree(seq[1]) < 2 * ip.degree(p)
            sf = squarefree_by_gcd(p)
            total = 0
            for entry in ip.isolate_real_roots(p):
                if entry[0] == "rational":
                    s = sign(ip.evaluate(q, entry[1]))
                else:
                    s = sign_at_isolated_root(q, sf, entry[1], entry[2])
                    assert ip.count_roots_halfopen(seq, entry[1], entry[2]) == s
                total += s
                signs[s] += 1
            assert ip.count_roots_halfopen(seq, None, None) == total
        assert min(signs.values()) >= 50
        p = (3, 0, -2)
        assert ip.sturm_sequence(p, ip.mul(p, (1, -1, 5))) == [p]

    def test_unit_q_is_the_sturm_sequence(self):
        for p in squarefree_polys(10, 100):
            assert ip.sturm_sequence(p, (1,)) == ip.sturm_sequence(p)


class TestSignAtRational:
    def test_matches_fraction_evaluation(self):
        rng = Random(3)
        for p in squarefree_polys(3, 300):
            for _ in range(20):
                x = random_rational(rng)
                assert ip.sign_at_rational(p, x) == sign(ip.evaluate(p, x))
                n = x.numerator
                assert ip.sign_at_rational(p, n) == sign(ip.evaluate(p, n))

    def test_beyond_the_root_bound(self):
        """Every real root lies below 2^_root_bits(p) in absolute value, and
        numerators above 64 bits on either side of that bound, where the
        leading term gives the sign, read the sign the evaluation reads."""
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        rng = Random(5)
        for i in range(200):
            p = ()
            while ip.degree(p) < 1:
                p = tuple(rng.randint(-2 ** b, 2 ** b)
                          for b in (rng.choice([1, 8, 90, 300]) for _ in range(rng.randint(2, 9))))
                p = ip.normalize(p)
            if i % 4 == 0:  # a root near 2^r
                p = ip.mul(p, (-(2 ** rng.randint(60, 200)) - rng.randint(0, 9), 1))
            k = ip._root_bits(p)
            poly = sympy.Poly(list(reversed(p)), t)
            assert poly.count_roots(-2 ** k, 2 ** k) == poly.count_roots()
            for _ in range(10):
                d = rng.randint(1, 2 ** 70)
                n = rng.randint((d << k) - 3 * d, (d << k) + 3 * d)
                x = Fraction(rng.choice([-1, 1]) * n, d)
                assert ip.sign_at_rational(p, x) == sign(ip.evaluate(p, x))

    def test_zero_polynomial_and_roots(self):
        assert ip.sign_at_rational((), Fraction(1, 3)) == 0
        assert ip.sign_at_rational((-1, 3), Fraction(1, 3)) == 0
        assert ip.sign_at_rational((1, 0, -4), Fraction(-1, 2)) == 0
        assert ip.sign_at_rational((-5,), Fraction(7, 2)) == -1


class TestExactDivision:
    def test_integral_quotients(self):
        rng = Random(4)
        for _ in range(300):
            a = random_poly(rng, rng.randint(0, 6))
            b = ip.primitive(random_poly(rng, rng.randint(0, 6)))
            assert ip.divexact(ip.mul(a, b), b) == a

    def test_inexact_and_non_integral_division_fail(self):
        with pytest.raises(ValueError, match="not exact"):
            ip.divexact((1, 0, 1), (1, 1))
        with pytest.raises(ValueError, match="not integral"):
            ip.divexact((1, 1), (1, 2))


class TestPower:
    def test_repeated_squaring_matches_repeated_products(self):
        rng = Random(13)
        for _ in range(60):
            p = random_poly(rng, rng.randint(0, 3), 5)
            want = (1,)
            for k in range(13):
                assert ip.power(p, k) == want
                want = ip.mul(want, p)
        assert ip.power((), 0) == (1,) and ip.power((), 3) == ()


class TestAgainstSympy:
    def test_gcd_and_squarefree_part(self):
        rng = Random(5)
        for _ in range(300):
            g = random_poly(rng, rng.randint(0, 4))
            p = ip.mul(g, random_poly(rng, rng.randint(0, 5)))
            q = ip.mul(g, random_poly(rng, rng.randint(0, 5)))
            sp, sq = to_sympy(p), to_sympy(q)
            assert ip.gcd(p, q) == ip.primitive(from_sympy(sp.gcd(sq)))
            if ip.degree(p) >= 1:
                assert ip.squarefree_sturm(p)[0] == ip.primitive(from_sympy(sp.sqf_part()))

    def test_isolation_matches_poly_intervals(self):
        rng = Random(6)
        for _ in range(300):
            p = random_poly(rng, rng.randint(1, 12))
            sp = to_sympy(p).sqf_part()
            entries = ip.isolate_real_roots(p)
            roots = sp.intervals()
            assert len(entries) == len(roots)
            for (a, b), _ in roots:
                a, b = Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))
                hits = sum(_contains(sp, e, a, b) for e in entries)
                assert hits == 1


def _contains(sp, entry, a, b) -> bool:
    """Whether the root of the squarefree sp isolated by sympy in [a, b] is
    the reported rational, or lies in the reported open interval (whose
    endpoints are not roots), refining sympy's interval until that is
    decided."""
    if entry[0] == "rational":
        # sympy reports a rational root it meets as [r, r]; a root on the
        # boundary of a wider interval is not the one that interval isolates
        r = entry[1]
        return (a == b == r or a < r < b) and ip.evaluate(from_sympy(sp), r) == 0
    lo, hi = entry[1], entry[2]
    while True:
        if lo < a and b < hi:
            return True
        if b <= lo or hi <= a:
            return False
        if a == b:
            return lo < a < hi
        s, t = sp.refine_root(a, b, steps=1)
        a, b = Fraction(int(s.p), int(s.q)), Fraction(int(t.p), int(t.q))


def sympy_image_poly(a, p):
    """The squarefree primitive part of sympy's Res_s(a(s), t - p(s))."""
    sympy = pytest.importorskip("sympy")
    s, t = sympy.symbols("s t")
    tp = t - sum(c * s ** i for i, c in enumerate(p))
    res = sympy.resultant(sympy.Poly(list(reversed(a)), s), sympy.Poly(tp, s))
    return ip.primitive(from_sympy(sympy.Poly(res, t).sqf_part()))


class TestImageDefiningPoly:
    def test_hand_worked(self):
        # sqrt(2) and -sqrt(2) both square to 2
        assert ip.image_defining_poly((-2, 0, 1), (0, 0, 1))[0] == (-2, 1)
        # the golden ratio and its conjugate, roots of t^2 - t - 1, square to
        # the roots of t^2 - 3t + 1 (their squares sum to 3 and multiply to 1)
        assert ip.image_defining_poly((-1, -1, 1), (0, 0, 1))[0] == (1, -3, 1)
        # a cube root of 2 under t^2 + 1: (t - 1)^3 = 4
        assert ip.image_defining_poly((-2, 0, 0, 1), (1, 0, 1))[0] == (-5, 3, -3, 1)

    def test_against_sympy_resultant(self):
        rng = Random(8)
        for _ in range(300):
            a = random_poly(rng, rng.randint(2, 6))
            p = random_poly(rng, rng.randint(1, 6))
            q, seq = ip.image_defining_poly(a, p)
            assert q == sympy_image_poly(a, p)
            assert (ip.count_roots_halfopen(seq, None, None)
                    == ip.count_roots_halfopen(ip.sturm_sequence(q), None, None))
