"""Integer-endpoint bisection against the Fraction halving it replaced.

The oracles below are the Fraction versions of AlgNumber.refined,
AlgNumber.compare, refine_disjoint and isolate_squarefree_roots, kept here
as written before the endpoints became integers over one denominator.  The
integer versions must give the same intervals, compared as Fractions, the
same comparisons, and evaluate a Sturm sequence once per bisection;
kept refinements must make a repeated comparison build nothing.
"""

from fractions import Fraction
from random import Random

from sheafkit import intpoly as ip
from sheafkit import sper
from sheafkit.sper import AlgNumber, real_roots, refine_disjoint

# ---------------------------------------------------------------------------
# the Fraction oracles: a number is (poly, lo, hi)


def frac_refined(x):
    poly, lo, hi = x
    mid = (lo + hi) / 2
    s = ip.sign_at_rational(poly, mid)
    if s == 0:
        return ip.primitive((-mid.numerator, mid.denominator)), (lo + mid) / 2, (mid + hi) / 2
    if s != ip.sign_at_rational(poly, lo):
        return poly, lo, mid
    return poly, mid, hi


def frac_compare(x, y) -> int:
    """compare of two numbers, or of a number and a rational y."""
    poly, lo, hi = x
    if not isinstance(y, tuple):
        r = Fraction(y)
        if ip.degree(poly) == 1:
            v = Fraction(-poly[0], poly[1])
            return (v > r) - (v < r)
        if lo < r < hi and ip.sign_at_rational(poly, r) == 0:
            return 0
        while x[1] < r < x[2]:
            x = frac_refined(x)
        return -1 if x[2] <= r else 1
    if ip.degree(y[0]) == 1:
        return frac_compare(x, Fraction(-y[0][0], y[0][1]))
    if ip.degree(poly) == 1:
        return -frac_compare(y, Fraction(-poly[0], poly[1]))
    lo, hi = max(x[1], y[1]), min(x[2], y[2])
    if lo < hi:
        g = ip.gcd(x[0], y[0])
        if ip.degree(g) >= 1 and ip.count_roots_halfopen(ip.sturm_sequence(g), lo, hi) == 1:
            return 0
    while not (x[2] <= y[1] or y[2] <= x[1]):
        x, y = frac_refined(x), frac_refined(y)
    return -1 if x[2] <= y[1] else 1


def frac_refine_disjoint(xs):
    xs = list(xs)
    for i in range(len(xs) - 1):
        while xs[i][2] > xs[i + 1][1]:
            xs[i], xs[i + 1] = frac_refined(xs[i]), frac_refined(xs[i + 1])
    return xs


def frac_isolate(sf):
    """(sorted entries, number of bisections) of the Fraction isolation."""
    seq = ip.sturm_sequence(sf)
    left = -ip.root_bound(sf)
    right = -left
    out = []
    splits = 0

    def count(a, b):
        return ip.count_roots_halfopen(seq, None if a == left else a, None if b == right else b)

    def refine(lo, hi, n):
        nonlocal splits
        if n == 0:
            return
        if n == 1:
            out.append(("interval", lo, hi))
            return
        splits += 1
        mid = (lo + hi) / 2
        if ip.sign_at_rational(sf, mid) == 0:
            out.append(("rational", mid))
            eps = (hi - lo) / 4
            while count(mid - eps, mid + eps) != 1 or ip.sign_at_rational(sf, mid - eps) == 0 \
                    or ip.sign_at_rational(sf, mid + eps) == 0:
                eps /= 2
            refine(lo, mid - eps, count(lo, mid - eps))
            refine(mid + eps, hi, count(mid + eps, hi))
        else:
            refine(lo, mid, count(lo, mid))
            refine(mid, hi, count(mid, hi))

    refine(left, right, count(left, right))
    out.sort(key=lambda e: e[1])
    return out, splits


# ---------------------------------------------------------------------------


def as_fractions(entries):
    return [("rational", Fraction(e[1], e[2])) if e[0] == "rational"
            else ("interval", Fraction(e[1], e[3]), Fraction(e[2], e[3])) for e in entries]


def frac(x: AlgNumber):
    return x.poly, x.lo, x.hi


def seeded_polys(seed, count):
    """Squarefree products of linear factors q t - p, whose roots bisection
    often meets as a midpoint (0, halves, and thirds when the root bound's
    denominator has a factor 3), and of random quadratics and cubics."""
    rng = Random(seed)
    for _ in range(count):
        p = (1,)
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                f = (rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
            else:
                f = tuple(rng.randint(-5, 5) for _ in range(rng.randint(2, 3))) + (rng.choice((1, 2, 3)),)
            p = ip.mul(p, f)
        yield ip.squarefree_sturm(p)[0]


def seeded_roots(seed, count):
    """At least count roots of seeded_polys: each as real_roots gives it, and
    each rational root r once more on its nonlinear polynomial, over an
    interval (r - w, r + 3w) whose second halving meets r as the midpoint."""
    out = []
    for sf in seeded_polys(seed, count):
        for r in real_roots(sf):
            out.append(r)
            if r.is_rational() and ip.degree(sf) > 1:
                v, w = r.as_rational(), Fraction(1)
                while True:
                    try:
                        out.append(AlgNumber(sf, v - w, v + 3 * w))
                        break
                    except sper.SperError:
                        w /= 2
        if len(out) >= count:
            break
    return out


class TestAgainstFractionHalving:
    def test_isolation_gives_the_same_intervals(self):
        hits = 0
        for sf in seeded_polys(1, 250):
            new = ip.isolate_squarefree_roots(sf, ip.sturm_sequence(sf))
            old, _ = frac_isolate(sf)
            assert as_fractions(new) == old
            assert ip.isolate_real_roots(sf) == old
            hits += sum(e[0] == "rational" for e in new)
        assert hits >= 40

    def test_refinement_chains_give_the_same_intervals(self):
        roots = seeded_roots(2, 200)
        assert len(roots) >= 200
        hits = 0
        for r in roots:
            x, y = r, frac(r)
            for _ in range(40):
                x, y = x.refined(), frac_refined(y)
                assert frac(x) == y
                hits += ip.degree(y[0]) == 1 and ip.degree(r.poly) > 1
        # chains that met their root as a midpoint went on as rationals
        assert hits >= 200

    def test_compare_and_refine_disjoint_agree(self):
        rng = Random(3)
        roots = seeded_roots(3, 200)
        probes = [0, 1, -2, Fraction(1, 2), Fraction(-1, 3), Fraction(7, 4)]
        equal = 0
        for _ in range(1000):
            # half of the pairs from one polynomial's neighbourhood in the list
            i = rng.randrange(len(roots))
            j = min(len(roots) - 1, i + rng.randint(0, 3)) if rng.random() < 0.5 else None
            a, b = roots[i], roots[j] if j is not None else rng.choice(roots + probes)
            want = frac_compare(frac(a), frac(b) if isinstance(b, AlgNumber) else b)
            assert a.compare(b) == want
            equal += want == 0
        assert equal >= 100
        for sf in seeded_polys(4, 100):
            roots = real_roots(sf)
            assert [frac(r) for r in refine_disjoint(roots)] == \
                frac_refine_disjoint([frac(r) for r in roots])

    def test_merged_roots_refine_disjointly_as_before(self):
        rng = Random(5)
        polys = list(seeded_polys(5, 60))
        for _ in range(60):
            merged = []
            for sf in rng.sample(polys, 3):
                merged = sper.merge_roots(merged, real_roots(sf))
            assert [frac(r) for r in refine_disjoint(merged)] == \
                frac_refine_disjoint([frac(r) for r in merged])


def counting_builds(monkeypatch):
    """A list that grows by one per AlgNumber built through _of."""
    built = []
    of = AlgNumber._of.__func__

    def counted(cls, *args):
        built.append(args)
        return of(cls, *args)

    monkeypatch.setattr(AlgNumber, "_of", classmethod(counted))
    return built


class TestKeptRefinements:
    def test_a_second_compare_builds_nothing(self, monkeypatch):
        # sqrt 2 against 1.41421357, about 7.6e-9 above it, and against
        # sqrt(2 + 10^-18), about 3.5e-19 above it
        a = real_roots((-2, 0, 1))[1]
        b = real_roots((-141421357, 10 ** 8))[0]
        c = real_roots((-2 * 10 ** 18 - 1, 0, 10 ** 18))[1]
        built = counting_builds(monkeypatch)
        for x, y in ((a, b), (a, c)):
            first = x.compare(y)
            n = len(built)
            assert n > 20
            assert x.compare(y) == first
            assert y.compare(x) == -first
            assert len(built) == n
            del built[:]

    def test_refine_disjoint_reuses_the_halvings_of_compare(self, monkeypatch):
        a = real_roots((-2, 0, 1))[1]
        b = real_roots((-2 * 10 ** 12 - 1, 0, 10 ** 12))[1]
        built = counting_builds(monkeypatch)
        assert a.compare(b) < 0
        n = len(built)
        assert n >= 40
        refine_disjoint([a, b])
        assert len(built) == n


class TestOneSturmEvaluationPerBisection:
    def test_fixed_polynomial(self, monkeypatch):
        # (t^2 - 2)(t^2 - 3)(100 t^2 - 201): six irrational roots, two of
        # them within 0.004 of +-sqrt 2, so no midpoint is a root and the
        # Fraction isolation bisects 21 times, with four Sturm sequence
        # evaluations at each split (two counts of two ends); the integer
        # isolation evaluates the sequence once per split, 21 times in all,
        # and reads whether the midpoint is a root off its first term, with
        # no other evaluation of a polynomial
        sf = ip.mul(ip.mul((-2, 0, 1), (-3, 0, 1)), (-201, 0, 100))
        old, splits = frac_isolate(sf)
        assert splits == 21
        seq = ip.sturm_sequence(sf)
        calls = []
        sign_at_rational = ip.sign_at_rational
        monkeypatch.setattr(ip, "sign_at_rational",
                            lambda p, x, d=1: calls.append(x) or sign_at_rational(p, x, d))
        new = ip.isolate_squarefree_roots(sf, seq)
        assert as_fractions(new) == old and len(new) == 6
        assert len(calls) == splits * len(seq)
