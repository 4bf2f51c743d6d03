import time
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import sheafkit.intpoly as ip
import sheafkit.sper as sper
from sheafkit.k0 import ConsFunction
from sheafkit.space import krull_dim
from sheafkit.selftest import _check_formula_round_trip, _check_projection_formula
from sheafkit.sper import (
    AlgNumber, And, Atom, CellPoset, ConstantMap, Not, Or, PolyMap,
    SperConstructible, SperError, SperPoint, cell_poset, closure, from_formula,
    locate_cell, push_cons, real_roots, refine_cells, sign_at, transfer_cons,
    cell_samples, _push_alg,
)
from sheafkit.cli import run
from sheafkit.intpoly import ZeroPolynomial
from sheafkit.sheaf import constant_sheaf, rgamma
from sheafkit.linalg import FreeChainComplex, ZZ, homology


T2M2 = (-2, 0, 1)       # t^2 - 2
T3M2T = (0, -2, 0, 1)   # t^3 - 2t


def quintic():
    q = (1,)
    for r in range(1, 6):
        q = ip.mul(q, (-r, 1))
    return q


class TestRealRoots:
    def test_cubic(self):
        roots = real_roots(T3M2T)
        assert len(roots) == 3
        assert roots[1].compare(0) == 0
        assert roots[1].is_rational()
        assert roots[0].compare(roots[1]) < 0 < roots[2].compare(roots[1])

    def test_positive_definite(self):
        assert real_roots((1, 0, 1)) == []

    def test_quintic_isolated(self):
        roots = real_roots(quintic())
        assert len(roots) == 5
        for r, v in zip(roots, range(1, 6)):
            assert r.compare(v) == 0
        for a, b in zip(roots, roots[1:]):
            assert a.compare(b) < 0

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            real_roots(())

    def test_repeated_roots_collapse(self):
        roots = real_roots(ip.mul((-1, 1), (-1, 1)))
        assert len(roots) == 1 and roots[0].compare(1) == 0

    def test_one_squarefree_part_per_call(self, monkeypatch):
        # the Sturm sequence of f gives its squarefree part, with no gcd: a
        # squarefree f needs no other sequence, t (t^2 - 2)^2 one more
        gcds, seqs = [], []
        gcd, sturm = ip.gcd, ip.sturm_sequence
        monkeypatch.setattr(ip, "gcd", lambda p, q: gcds.append(p) or gcd(p, q))
        monkeypatch.setattr(ip, "sturm_sequence",
                            lambda p, q=(1,): seqs.append(p) or sturm(p, q))
        assert len(real_roots(T3M2T)) == 3 and len(seqs) == 1
        del seqs[:]
        roots = real_roots(ip.mul(T3M2T, T2M2))
        assert len(roots) == 3 and seqs == [ip.mul(T3M2T, T2M2), T3M2T]
        assert gcds == []


class TestSignAt:
    def test_spec_examples(self):
        sqrt2 = real_roots(T2M2)[1]
        assert sign_at(T2M2, SperPoint.alg(1)) == -1
        assert sign_at(T2M2, SperPoint.pos_inf()) == 1
        assert sign_at(T2M2, SperPoint.cut_plus(sqrt2)) == 1
        assert sign_at(T2M2, SperPoint.cut_minus(sqrt2)) == -1
        assert sign_at(T2M2, SperPoint.alg(sqrt2)) == 0

    def test_neg_inf_parity(self):
        assert sign_at((0, 1), SperPoint.neg_inf()) == -1
        assert sign_at((0, 0, 1), SperPoint.neg_inf()) == 1

    def test_zero_polynomial_everywhere(self):
        for pt in (SperPoint.alg(2), SperPoint.neg_inf(), SperPoint.pos_inf()):
            assert sign_at((), pt) == 0

    def test_cuts_at_rational_centers(self):
        assert sign_at((0, 1), SperPoint.cut_minus(Fraction(0))) == -1
        assert sign_at((0, 1), SperPoint.cut_plus(Fraction(0))) == 1
        # f does not vanish at the center: cut sign equals the point sign
        assert sign_at((1, 1), SperPoint.cut_minus(Fraction(0))) == 1
        assert sign_at((0, 0, 1), SperPoint.cut_minus(Fraction(0))) == 1
        assert sign_at((0, 0, 1), SperPoint.cut_plus(Fraction(0))) == 1

    def test_multiplicative(self):
        rng = Random(50)
        for _ in range(60):
            f = ip.normalize([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            g = ip.normalize([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            pts = [SperPoint.neg_inf(), SperPoint.pos_inf(),
                   SperPoint.alg(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))]
            probe = ip.normalize([rng.randint(-3, 3) for _ in range(3)])
            if ip.degree(probe) >= 1:
                for r in real_roots(probe):
                    pts += [SperPoint.alg(r), SperPoint.cut_minus(r),
                            SperPoint.cut_plus(r)]
            for x in pts:
                assert sign_at(ip.mul(f, g), x) == sign_at(f, x) * sign_at(g, x)


class TestFromFormula:
    def test_open_disc(self):
        s = from_formula(Atom(T2M2, "<"))
        assert len(s.roots) == 2
        assert [i for i, b in enumerate(s.mask) if b] == [2]

    def test_trivial_true(self):
        s = from_formula(Atom((), "="))
        assert s.is_whole() and s.roots == ()

    def test_half_line(self):
        s = from_formula(Atom((0, 1), ">="))
        assert len(s.roots) == 1
        assert list(s.mask) == [False, True, True]

    def test_respects_boolean_structure(self):
        rng = Random(51)
        from sheafkit.selftest import _check_sper_boolean
        assert [i for i in range(200) if not _check_sper_boolean(rng)] == []


class TestSetAlgebra:
    def test_involution(self):
        s = from_formula(Atom(T2M2, "<"))
        assert s.complement().complement() == s

    def test_excluded_middle(self):
        s = from_formula(Atom(T3M2T, ">"))
        assert s.union(s.complement()).is_whole()
        assert s.intersect(s.complement()).is_empty()

    def test_intersection_example(self):
        s = from_formula(Atom(T2M2, "<"))
        t = from_formula(Atom((0, 1), ">"))
        inter = s.intersect(t)
        # (0, sqrt2): roots {0, sqrt2}, only the middle interval in
        assert len(inter.roots) == 2
        assert inter.roots[0].compare(0) == 0
        assert [i for i, b in enumerate(inter.mask) if b] == [2]

    def test_normalization_removes_redundant_roots(self):
        s = from_formula(Or((Atom(T2M2, "<"), Atom(T2M2, "="))))
        t = from_formula(Atom(T2M2, "<="))
        assert s == t


class TestClosureInterior:
    def test_closure_adds_endpoints(self):
        s = from_formula(Atom(T2M2, "<"))
        cl = closure(s)
        assert list(cl.mask) == [False, True, True, True, False]
        assert closure(cl) == cl

    def test_closure_of_point(self):
        s = from_formula(Atom((0, 1), "="))
        assert closure(s) == s

    def test_closure_contains_and_is_monotone(self):
        rng = Random(52)
        from sheafkit.selftest import _random_formula
        for _ in range(40):
            s = from_formula(_random_formula(rng))
            t = from_formula(_random_formula(rng))
            cl = closure(s)
            assert s.union(cl) == cl        # s is contained in its closure
            # monotone: s <= s u t gives cl(s) <= cl(s u t)
            big = closure(s.union(t))
            assert cl.union(big) == big

    def test_defining_formula_round_trip(self):
        rng = Random(55)
        assert [i for i in range(40) if not _check_formula_round_trip(rng)] == []


class TestCellPoset:
    def test_repeated_roots_collapse(self):
        r = real_roots(T2M2)
        want = cell_poset(r)
        for cp in (cell_poset(r + r[::-1] + r), refine_cells(cell_poset([]), r + r)):
            # checked before the push, which halved two equal roots forever
            assert len(cp.roots) == 2 and cp.markers == want.markers
            out, oc = push_cons(PolyMap((0, 0, 1)), const_phi(cp), cp)
            assert [out(q) for q in oc.cells] == [0, 1, 2, 2, 2]

    def test_markers_built_once(self, monkeypatch):
        calls = []
        markers = sper.cell_markers
        monkeypatch.setattr(sper, "cell_markers", lambda r: calls.append(1) or markers(r))
        cp = cell_poset(real_roots(quintic()) + real_roots(ip.mul(T2M2, (-3, 0, 1))))
        assert [cp.marker(i) for i in range(len(cp.cells))] == markers(cp.roots)
        assert len(cp.cells) == 19 and len(calls) == 1

    def test_single_root_fence(self):
        cp = cell_poset(real_roots((0, 1)))
        assert len(cp.cells) == 3
        assert krull_dim(cp.space) == 1
        assert cp.space.covers == (("c01", "c00"), ("c01", "c02"))

    def test_empty(self):
        cp = cell_poset([])
        assert len(cp.cells) == 1 and krull_dim(cp.space) == 0

    def test_five_cell_fence_cohomology(self):
        cp = cell_poset(real_roots(T2M2))
        assert len(cp.cells) == 5 and krull_dim(cp.space) == 1
        k = constant_sheaf(cp.space, FreeChainComplex.free_module(ZZ, 1, 0))
        h = homology(rgamma(k))
        assert {n: str(v) for n, v in h.items()} == {0: "Z"}

    def test_dimension_bound(self):
        rng = Random(53)
        from sheafkit.selftest import _random_formula
        for _ in range(25):
            s = from_formula(_random_formula(rng))
            cp = cell_poset(s)
            d = krull_dim(cp.space)
            assert d <= 1
            assert (d == 1) == (len(cp.roots) >= 1)


def const_phi(cp: CellPoset, value=1) -> ConsFunction:
    return ConsFunction(cp.space, {q: value for q in cp.space.points})


class TestPushCons:
    def test_square_counts_fibers(self):
        cp = cell_poset([])
        out, oc = push_cons(PolyMap((0, 0, 1)), const_phi(cp), cp)
        assert [out(oc.point_at(i)) for i in range(3)] == [0, 1, 2]
        assert oc.roots[0].compare(0) == 0

    def test_identity(self):
        cp = cell_poset(real_roots(T2M2))
        phi = ConsFunction(cp.space, {q: i for i, q in enumerate(cp.space.points)})
        out, oc = push_cons(PolyMap((0, 1)), phi, cp)
        assert [out(oc.point_at(i)) for i in range(len(oc.cells))] == \
            [phi(cp.point_at(i)) for i in range(len(cp.cells))]

    def test_cubic_pattern(self):
        cp = cell_poset([])
        out, oc = push_cons(PolyMap((0, -3, 0, 1)), const_phi(cp), cp)
        assert [out(oc.point_at(i)) for i in range(5)] == [1, 2, 3, 2, 1]
        assert oc.roots[0].compare(-2) == 0 and oc.roots[1].compare(2) == 0

    def test_constant_rejected(self):
        with pytest.raises(ConstantMap):
            PolyMap((5,))

    def test_projection_formula(self):
        rng = Random(57)
        assert [i for i in range(10) if not _check_projection_formula(rng)] == []


class TestMergeWalk:
    """Unions, intersections and transfers walk the two root lists once."""

    @staticmethod
    def _count_compares(monkeypatch):
        calls = []
        compare = AlgNumber.compare
        monkeypatch.setattr(AlgNumber, "compare",
                            lambda self, other: calls.append(1) or compare(self, other))
        return calls

    def test_union_and_intersection(self, monkeypatch):
        rng = Random(7)
        from sheafkit.selftest import _random_formula
        pairs = [(from_formula(_random_formula(rng, 3)), from_formula(_random_formula(rng, 3)))
                 for _ in range(60)]
        calls = self._count_compares(monkeypatch)
        for a, b in pairs:
            for op in (a.union, a.intersect):
                calls.clear()
                op(b)
                assert len(calls) <= len(a.roots) + len(b.roots)

    def test_transfer(self, monkeypatch):
        rng = Random(8)
        from sheafkit.selftest import _random_formula
        cases = []
        for _ in range(40):
            src = cell_poset(from_formula(_random_formula(rng, 3)))
            dst = refine_cells(src, from_formula(_random_formula(rng, 3)).roots)
            phi = ConsFunction(src.space, {q: rng.randint(-3, 3) for q in src.cells})
            cases.append((phi, src, dst))
        calls = self._count_compares(monkeypatch)
        for phi, src, dst in cases:
            calls.clear()
            moved = transfer_cons(phi, src, dst)
            assert len(calls) <= len(src.roots) + len(dst.roots)
            # each fine cell takes the value of the coarse cell of its sample
            for pos, x in enumerate(cell_samples(list(dst.roots))[1]):
                assert moved(dst.point_at(pos)) == phi(src.point_at(locate_cell(src.roots, x)))

    def test_transfer_needs_a_refinement(self):
        src = cell_poset(real_roots(T2M2))
        for dst in (cell_poset(real_roots(T2M2)[:1]), cell_poset(real_roots((-3, 0, 1)))):
            with pytest.raises(SperError):
                transfer_cons(const_phi(src), src, dst)


# ---------------------------------------------------------------------------
# the reference route of push_cons: each fiber sum by Sturm counts and Tarski
# queries at a sampled value, the fiber of each interval cell at three
# rationals


def _fiber_poly_vanishes(y: AlgNumber, b, queries: dict) -> bool:
    """Whether the polynomial whose roots hold the fiber at b, b.poly(p(t))
    or den(b) p - num(b), vanishes at an upstream root a with image
    y = p(a).  At a rational b that is y = b.  At an irrational b it is
    b.poly(y) = 0, which holds for y = b and for every other root of
    b.poly: true when y.poly is b.poly, and otherwise the sign of b.poly at
    y (_sign_at_root), whose Tarski sequence the dict queries keeps per
    (y.poly, b.poly)."""
    if not isinstance(b, AlgNumber) or b.is_rational():
        return y.compare(b) == 0
    if y.poly == b.poly:
        return True
    if y.is_rational():
        return ip.sign_at_rational(b.poly, *y._ratio()) == 0
    key = y.poly, b.poly
    if key not in queries:
        queries[key] = ip.sturm_sequence(y.poly, b.poly)
    return y.count(queries[key]) == 0


def _fiber_sum(p: PolyMap, phi: ConsFunction, cells: CellPoset, ups: list,
               images: list, b, fibers: dict, queries: dict) -> int:
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

    The dicts fibers and queries live for one push: fibers keeps h and its
    Sturm sequence per downstream polynomial b.poly, and queries the Tarski
    sequences of _fiber_poly_vanishes.
    """
    if isinstance(b, AlgNumber):
        if b.poly not in fibers:
            fibers[b.poly] = ip.squarefree_sturm(ip.compose(b.poly, p.poly))
        h, seq = fibers[b.poly]
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
        hit = _fiber_poly_vanishes(y, b, queries)
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


def _reference_push(p: PolyMap, phi: ConsFunction, cells: CellPoset):
    """push_cons by fiber sums at sampled values: the downstream cells of
    push_cons, each root cell's value summed over its fiber and each
    interval cell's at three distinct rational samples, which must agree."""
    image_polys = {}
    images = [_push_alg(p, a, image_polys) for a in cells.roots]
    dp = ip.deriv(p.poly)
    crit = real_roots(dp) if ip.degree(dp) >= 1 else []
    crit_images = [_push_alg(p, c, image_polys) for c in crit]
    polys = dict.fromkeys(y.poly for y in images + crit_images)
    # an irrational image's polynomial comes with its Sturm sequence
    out_cells = cell_poset([r for r, _ in sper._tagged_roots(polys, dict(image_polys.values()))])
    ups = sper.refine_disjoint(cells.roots)
    refined, samples = sper.cell_samples(list(out_cells.roots))
    values, fibers, queries = {}, {}, {}
    for pos, sample in enumerate(samples):
        if isinstance(sample, AlgNumber):
            values[out_cells.point_at(pos)] = _fiber_sum(
                p, phi, cells, ups, images, sample, fibers, queries)
            continue
        # interval cell: three rational samples must agree
        if not refined:
            extras = [Fraction(0), Fraction(1), Fraction(-1)]
        elif pos == 0:
            extras = [sample, sample - 1, sample - 2]
        elif pos == len(samples) - 1:
            extras = [sample, sample + 1, sample + 2]
        else:
            # the neighbours' intervals may share an end, the sample itself:
            # halve each until it lies off the sample
            a, b = refined[pos // 2 - 1], refined[pos // 2]
            while a.hi >= sample:
                a = a.refined()
            while b.lo <= sample:
                b = b.refined()
            extras = [sample, (a.hi + sample) / 2, (sample + b.lo) / 2]
        vals = [_fiber_sum(p, phi, cells, ups, images, e, fibers, queries) for e in extras]
        assert len(set(vals)) == 1, (out_cells.marker(pos), vals)
        values[out_cells.point_at(pos)] = vals[0]
    return ConsFunction(out_cells.space, values), out_cells


def _euler_c(values) -> int:
    """The compactly supported Euler integral of cell values left to right:
    a point counts +1, an open interval -1."""
    return sum(v if pos % 2 else -v for pos, v in enumerate(values))


def _sweep_cases(rng, n):
    """(map, cells) pairs: t^3, t^4 and t^3 + t (no real critical point),
    t^3 - 3t over (t + 2)(t - 2), whose roots share their images -2 and 2
    with the critical points 1 and -1, then maps of degree 1-9 over atoms
    through their critical points, atoms p - c, the preimages of the
    critical values (degree at most 4) and random formulas.  From degree 7
    on the maps are trinomials, which keep the reference route's fiber
    polynomials at irrational critical values cheap."""
    yield PolyMap((0, 0, 0, 1)), cell_poset(from_formula(Atom(T2M2, "<")))
    yield PolyMap((0, 0, 0, 0, 1)), cell_poset(from_formula(Atom((-1, 0, 0, 0, 1), "!=")))
    yield PolyMap((0, 1, 0, 1)), cell_poset(from_formula(Atom((0, 1, 0, 1), ">=")))
    yield PolyMap((0, -3, 0, 1)), cell_poset(from_formula(Atom((-4, 0, 1), "=")))
    for k in range(n):
        deg = 1 + k % 9
        coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-2, -1, 1, 2))]
        if deg >= 7:
            coeffs[1:deg] = [0] * (deg - 1)
            coeffs[rng.randint(1, deg - 1)] = rng.choice((-3, -2, -1, 1, 2, 3))
        p = PolyMap(coeffs)
        dp = ip.deriv(p.poly)
        kind = k % 4
        if kind == 0 and deg > 1:
            phi = Or((Atom(dp, rng.choice(RELOPS)), Atom(rng.choice(SHARED_FACTORS), "=")))
        elif kind == 1 and 1 < deg <= 4:
            values = ip.image_defining_poly(dp, p.poly)[0]
            phi = Atom(ip.compose(values, p.poly), rng.choice(RELOPS))
        elif kind == 2 and deg <= 5:
            phi = _shared_root_formula(rng)
        else:
            phi = Atom(ip.sub(p.poly, ip.constant(rng.randint(-4, 4))), rng.choice(RELOPS))
        yield p, cell_poset(from_formula(phi))


class TestSweepAgainstFiberSums:
    def test_values_markers_and_euler_integral(self):
        """push_cons, one sweep over the monotone pieces of the map, against
        the reference route of fiber sums at sampled values: the same
        downstream cells and values, and the same compactly supported Euler
        integral on both sides, as polynomial maps are proper."""
        rng = Random(109)
        shared = 0
        for p, cp in _sweep_cases(rng, 108):
            phi = ConsFunction(cp.space, {q: rng.randint(-3, 3) for q in cp.space.points})
            out, oc = push_cons(p, phi, cp)
            want, wc = _reference_push(p, phi, cp)
            values = [out(q) for q in oc.cells]
            assert oc.markers == wc.markers, str(p)
            assert values == [want(q) for q in wc.cells], str(p)
            assert _euler_c(values) == _euler_c([phi(q) for q in cp.cells]), str(p)
            crit = real_roots(ip.deriv(p.poly)) if ip.degree(p.poly) > 1 else []
            crit_images = [_push_alg(p, c, {}) for c in crit]
            shared += any(_push_alg(p, a, {}).compare(y) == 0 and a.compare(c) != 0
                          for a in cp.roots for c, y in zip(crit, crit_images))
        assert shared >= 6


class TestFiber:
    def test_matches_image_polynomial_filter(self):
        """Fiber sums over irrational b count exactly the roots of
        b.poly(p(t)) whose image, built from an image polynomial, compares
        equal to b: with phi = 2^i on the cell of the i-th root, the sum
        names the roots in the fiber."""
        rng = Random(71)
        kept = dropped = 0
        for _ in range(200):
            # b is a root of t^2 - k with k not a square, so irrational
            k = rng.choice((2, 3, 5, 6, 7))
            q = (-k, 0, 1)
            if rng.random() < 0.3:
                q = ip.mul(q, (rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])))
            b = rng.choice([b for b in real_roots(q)
                            if sign_at((-k, 0, 1), SperPoint.alg(b)) == 0])
            # composites of degree at most 6 keep the image polynomials cheap
            top = 3 if ip.degree(q) == 2 else 1
            p = PolyMap([rng.randint(-3, 3) for _ in range(rng.randint(1, top))]
                        + [rng.choice([-2, -1, 1, 2])])
            candidates = real_roots(ip.compose(b.poly, p.poly))
            images = [_push_alg(p, tau, {}) for tau in candidates]
            hit = [y.compare(b) == 0 for y in images]
            cp = cell_poset(candidates)
            phi = ConsFunction(cp.space, {cp.point_at(pos): 2 ** (pos // 2) if pos % 2 else 0
                                          for pos in range(len(cp.cells))})
            ups = sper.refine_disjoint(cp.roots)
            assert _fiber_sum(p, phi, cp, ups, images, b, {}, {}) == \
                sum(2 ** i for i, h in enumerate(hit) if h)
            line = cell_poset([])
            assert _fiber_sum(p, const_phi(line), line, [], [], b, {}, {}) == sum(hit)
            kept += sum(hit)
            dropped += len(hit) - sum(hit)
        assert kept >= 200 and dropped >= 200

    def test_upstream_interval_starting_at_a_root_of_h(self):
        # h = b.poly(4 - t) = (t - 1)(t - 2): its root 1, at the left end of
        # the upstream interval (1, 3), maps to 3, outside b = 2
        a = AlgNumber((-2, 1), 1, 3)
        cp = cell_poset([a])
        phi = ConsFunction(cp.space, {cp.point_at(pos): pos % 2 for pos in range(3)})
        b = AlgNumber((6, -5, 1), Fraction(7, 4), Fraction(21, 8))
        p = PolyMap((4, -1))
        assert _fiber_sum(p, phi, cp, [a], [_push_alg(p, a, {})], b, {}, {}) == 1

    def test_degree_five_map_with_four_critical_points(self):
        p = PolyMap((1, 4, 0, -5, 0, 1))  # p' = 5t^4 - 15t^2 + 4
        assert len(real_roots(ip.deriv(p.poly))) == 4
        cp = cell_poset(from_formula(Atom(T2M2, "<")))
        start = time.perf_counter()
        out, oc = push_cons(p, const_phi(cp), cp)
        assert time.perf_counter() - start < 2
        assert [out(oc.point_at(i)) for i in range(len(oc.cells))] == \
            [1, 2, 3, 3, 3, 4, 5, 4, 3, 3, 3, 2, 1]
        # independent oracle: the number of real roots of p(t) - c at the
        # rational sample c of every interval cell
        _, samples = cell_samples(list(oc.roots))
        for pos in range(0, len(samples), 2):
            c = samples[pos]
            h = ip.sub(ip.scale(p.poly, c.denominator), (c.numerator,))
            assert out(oc.point_at(pos)) == len(real_roots(h))


# t^5 - 5t^3 + 4t + 1 maps sqrt 2 to 1 - 2 sqrt 2 and -sqrt 2 to 1 + 2 sqrt 2,
# the two roots of t^2 - 2t - 7
CONJUGATES = PolyMap((1, 4, 0, -5, 0, 1))


def _alg_fiber_oracle(p, phi, cells, b):
    """phi summed over the roots of b.poly(p(t)) whose image is b."""
    return sum(phi(cells.point_at(locate_cell(cells.roots, tau)))
               for tau in real_roots(ip.compose(b.poly, p.poly))
               if _push_alg(p, tau, {}).compare(b) == 0)


class TestHitsReadOffImages:
    def test_upstream_root_mapped_to_a_conjugate(self):
        """h = b.poly(p(t)) vanishes at -sqrt 2 although p(-sqrt 2) is not
        b: it is the other root of b.poly, and the Tarski query of w drops
        it from the fiber.  Comparing the image with b alone would call it
        no root of h, and refining its interval until it holds no root of h
        would never end."""
        minus, plus = real_roots(T2M2)
        b = real_roots((-7, -2, 1))[0]
        assert b.compare(Fraction(-2)) > 0 > b.compare(Fraction(-1))
        y = _push_alg(CONJUGATES, minus, {})
        assert y.poly == b.poly and y.compare(b) > 0
        assert sign_at(ip.compose(b.poly, CONJUGATES.poly), SperPoint.alg(minus)) == 0
        assert _fiber_poly_vanishes(y, b, {})
        # the roots +-sqrt 2 of (t^2 - 2)(t^3 - 1) have another image
        # polynomial than b, and 1 maps to 1
        for roots in ([minus], [minus, plus], real_roots(ip.mul(T2M2, (-1, 0, 0, 1)))):
            cp = cell_poset(roots)
            phi = ConsFunction(cp.space, {cp.point_at(pos): 3 ** pos for pos in range(len(cp.cells))})
            images = [_push_alg(CONJUGATES, a, {}) for a in cp.roots]
            assert [_fiber_poly_vanishes(y, b, {}) for y in images] == \
                [a.compare(1) != 0 for a in cp.roots]
            got = _fiber_sum(CONJUGATES, phi, cp, sper.refine_disjoint(cp.roots), images, b,
                                  {}, {})
            assert got == _alg_fiber_oracle(CONJUGATES, phi, cp, b)

    def test_matches_the_tarski_query_of_h(self):
        """On TestFiber-style maps and values, rational or not, the decision
        read off the image agrees with the sign of h at the upstream root,
        for roots of h, of a factor of h and of unrelated polynomials."""
        rng = Random(73)
        seen = dict.fromkeys(("rational hit", "rational miss", "image b", "conjugate",
                              "shared factor", "irrational miss"), 0)
        for _ in range(150):
            k = rng.choice((2, 3, 5, 6, 7))
            base = (-k, 0, 1)
            top = 3
            if rng.random() < 0.3:
                b = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                if rng.random() < 0.5:
                    b = AlgNumber.from_rational(b)
            else:
                q = base
                if rng.random() < 0.4:
                    q, top = ip.mul(q, (rng.randint(-3, 3), rng.choice([-2, -1, 1, 2]))), 1
                b = rng.choice([r for r in real_roots(q) if sign_at(base, SperPoint.alg(r)) == 0])
            p = PolyMap([rng.randint(-3, 3) for _ in range(rng.randint(1, top))]
                        + [rng.choice([-2, -1, 1, 2])])
            if isinstance(b, Fraction):
                h = ip.sub(ip.scale(p.poly, b.denominator), ip.constant(b.numerator))
            else:
                h = ip.compose(b.poly, p.poly)
            ups = real_roots(h) + real_roots(_product(rng, 2))
            if not isinstance(b, Fraction) and not b.is_rational():
                ups += real_roots(ip.compose(base, p.poly))
            image_polys = {}
            for a in ups:
                y = _push_alg(p, a, image_polys)
                hit = _fiber_poly_vanishes(y, b, {})
                assert hit == (sper._sign_at_root(h, a) == 0)
                if isinstance(b, Fraction) or b.is_rational():
                    seen["rational hit" if hit else "rational miss"] += 1
                elif not hit:
                    seen["irrational miss"] += 1
                elif y.poly != b.poly:
                    seen["shared factor"] += 1
                else:
                    seen["image b" if y.compare(b) == 0 else "conjugate"] += 1
        assert min(seen.values()) >= 30, seen


class TestCellSemantics:
    def test_cut_membership_in_interval_cells(self):
        # interval cells contain the cuts at their finite endpoints
        s = from_formula(Atom(T2M2, "<"))  # (-sqrt2, sqrt2)
        lo, hi = s.roots
        assert s.contains(SperPoint.cut_plus(lo))
        assert s.contains(SperPoint.cut_minus(hi))
        assert not s.contains(SperPoint.alg(lo))
        assert not s.contains(SperPoint.cut_minus(lo))
        assert not s.contains(SperPoint.neg_inf())

    def test_infinities_live_in_unbounded_cells(self):
        s = from_formula(Atom((0, 1), ">"))  # (0, inf)
        assert s.contains(SperPoint.pos_inf())
        assert not s.contains(SperPoint.neg_inf())
        assert s.contains(SperPoint.cut_plus(Fraction(0)))
        assert not s.contains(SperPoint.cut_minus(Fraction(0)))

    def test_interior_cuts_belong_to_their_interval(self):
        s = from_formula(Atom(T2M2, "<"))
        assert s.contains(SperPoint.cut_minus(Fraction(1)))
        assert s.contains(SperPoint.cut_plus(Fraction(1)))
        assert s.contains(SperPoint.alg(Fraction(1)))


class TestAlgNumber:
    def test_equality_across_representations(self):
        # sqrt2 via t^2-2 and via t^4-4t^2+4's squarefree part agree
        a = real_roots(T2M2)[1]
        b = real_roots(ip.mul(T2M2, T2M2))[1]
        assert a.compare(b) == 0
        c = real_roots(ip.mul(T2M2, ((-3, 0, 1))))[2]  # sqrt2 among sqrt3's
        assert a.compare(c) == 0

    def test_ordering_with_rationals(self):
        sqrt2 = real_roots(T2M2)[1]
        assert sqrt2.compare(1) > 0
        assert sqrt2.compare(2) < 0
        assert sqrt2.compare(Fraction(141, 100)) > 0
        assert sqrt2.compare(Fraction(142, 100)) < 0

    def test_invariants_checked(self):
        with pytest.raises(Exception):
            AlgNumber((1, -2, 1), 0, 2)  # (t-1)^2 is not squarefree
        with pytest.raises(Exception):
            AlgNumber(T2M2, -3, 3)  # two roots inside
        with pytest.raises(Exception):
            AlgNumber((0, 1), 0, 1)  # endpoint is the root

    def test_str_format(self):
        sqrt2 = real_roots(T2M2)[1]
        assert str(sqrt2).startswith("root(t^2 - 2, ")


# factors with rational, irrational and no real roots; products of them give
# atoms that share roots
SHARED_FACTORS = ((-1, 1), (1, 1), (-1, 2), (0, 1), T2M2, (-3, 0, 1),
                  (-1, -1, 1), (1, 0, 1), (2, -3, 0, 1))
RELOPS = ("<", "<=", "=", "!=", ">=", ">")


def _product(rng, n):
    f = (rng.choice((-2, -1, 1, 3)),)
    for _ in range(n):
        f = ip.mul(f, rng.choice(SHARED_FACTORS))
    return f


def _shared_root_formula(rng):
    """A formula over f, g, f*g, 3f, -f, repeated atoms, a constant and 0."""
    f, g = _product(rng, rng.randint(1, 2)), _product(rng, rng.randint(1, 2))
    pool = (f, g, ip.mul(f, g), ip.scale(f, 3), ip.neg(f), f,
            ip.constant(rng.randint(-2, 2)), ())

    def tree(depth):
        if depth == 0 or rng.random() < 0.35:
            return Atom(rng.choice(pool), rng.choice(RELOPS))
        kind = rng.random()
        if kind < 0.2:
            return Not(tree(depth - 1))
        children = tuple(tree(depth - 1) for _ in range(rng.randint(2, 3)))
        return And(children) if kind < 0.6 else Or(children)

    return tree(3)


def _eval_formula(phi, sign_of) -> bool:
    """phi at one cell, given the sign of each atom polynomial there: the
    per-cell reference for from_formula's one pass over all cells."""
    if isinstance(phi, Atom):
        return sper._HOLDS[phi.op][sign_of(phi.poly)]
    if isinstance(phi, Not):
        return not _eval_formula(phi.child, sign_of)
    if isinstance(phi, And):
        return all(_eval_formula(c, sign_of) for c in phi.children)
    return any(_eval_formula(c, sign_of) for c in phi.children)


def _formula_oracle(phi):
    """from_formula by direct sign evaluation: sign_at at every root and
    sign_at_rational at the interval samples."""
    roots = []
    for a in sper.formula_atoms(phi):
        f = ip.normalize(a.poly)
        if ip.degree(f) >= 1:
            roots = sper.merge_roots(roots, real_roots(f))
    roots, samples = cell_samples(roots)

    def sign(f, x):
        if isinstance(x, sper.AlgNumber):
            return sign_at(f, SperPoint.alg(x))
        return ip.sign_at_rational(f, x)

    mask = [_eval_formula(phi, lambda f: sign(f, x)) for x in samples]
    return SperConstructible(roots, mask)


class TestSignsByProvenance:
    def test_matches_direct_sign_evaluation(self):
        rng = Random(101)
        shared = 0
        for _ in range(150):
            phi = _shared_root_formula(rng)
            got, want = from_formula(phi), _formula_oracle(phi)
            assert got == want and str(got) == str(want)
            shared += len(got.roots) < sum(
                len(real_roots(a.poly)) for a in sper.formula_atoms(phi)
                if ip.degree(a.poly) >= 1)
        assert shared >= 60

    def test_no_sign_evaluation_at_algebraic_points(self, monkeypatch):
        rng = Random(103)
        phis = [_shared_root_formula(rng) for _ in range(60)]
        want = [str(from_formula(phi)) for phi in phis]

        def forbidden(*args):
            raise AssertionError("from_formula evaluated a sign at a point")

        monkeypatch.setattr(sper, "sign_at", forbidden)
        monkeypatch.setattr(sper, "_sign_at_root", forbidden)
        assert [str(from_formula(phi)) for phi in phis] == want


def _fiber_oracle(p, phi, cells, y):
    h = ip.sub(ip.scale(p.poly, y.denominator), ip.constant(y.numerator))
    return sum(phi(cells.point_at(locate_cell(cells.roots, tau))) for tau in real_roots(h))


class TestFiberSumsBySturmCounts:
    def test_matches_isolated_fibers(self):
        rng = Random(107)
        checked = 0
        for _ in range(40):
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice((-2, -1, 1, 2))]
            p = PolyMap(coeffs)
            cp = cell_poset(from_formula(_shared_root_formula(rng)))
            phi = ConsFunction(cp.space, {q: rng.randint(-2, 2) for q in cp.space.points})
            ups = sper.refine_disjoint(cp.roots)
            images = [_push_alg(p, a, {}) for a in cp.roots]
            # images of rational upstream roots, where the fiber meets a
            # root cell, and random rationals
            ys = [ip.evaluate(p.poly, a.as_rational()) for a in cp.roots if a.is_rational()]
            ys += [Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(4)]
            for y in ys:
                assert _fiber_sum(p, phi, cp, ups, images, y, {}, {}) == _fiber_oracle(p, phi, cp, y)
                checked += 1
            out, oc = push_cons(p, phi, cp)
            _, samples = cell_samples(list(oc.roots))
            for pos, y in enumerate(samples):
                if isinstance(y, sper.AlgNumber):
                    if not y.is_rational():
                        continue
                    y = y.as_rational()
                assert out(oc.point_at(pos)) == _fiber_oracle(p, phi, cp, y)
                checked += 1
        assert checked >= 300

    def test_rational_downstream_roots_isolate_no_fiber(self, monkeypatch):
        # every image of +-sqrt 2, +-sqrt 3, 1/2 and the critical point 0 under
        # t^2 is rational
        cp = cell_poset(from_formula(Or((
            And((Atom(T2M2, ">"), Atom((-3, 0, 1), "<"))), Atom((-1, 2), "=")))))
        phi = ConsFunction(cp.space, {q: i - 3 for i, q in enumerate(cp.space.points)})
        _check_rational_roots(monkeypatch, PolyMap((0, 0, 1)), phi, cp,
                              (0, Fraction(1, 4), 2, 3))

    def test_rational_roots_of_a_nonlinear_image_polynomial(self, monkeypatch):
        # the roots +-sqrt 2, +-sqrt 3 of t^4 - 5t^2 + 6 map under t^2 to the
        # roots 2 and 3 of t^2 - 5t + 6, which real_roots keeps on intervals
        cp = cell_poset(from_formula(Atom((6, 0, -5, 0, 1), "<")))
        phi = ConsFunction(cp.space, {q: i - 2 for i, q in enumerate(cp.space.points)})
        oc = _check_rational_roots(monkeypatch, PolyMap((0, 0, 1)), phi, cp, (0, 2, 3))
        assert not all(r.is_rational() for r in oc.roots)


def _check_rational_roots(monkeypatch, p, phi, cells, ys):
    """Push phi with root isolation watched: only the roots of p' and of the
    image polynomials of the upstream roots and critical points are
    isolated, never a fiber; the downstream roots are the rationals ys and
    the values there are the fiber sums of the oracle."""
    isolated = sper._isolated
    seen = []

    def watched(sf, seq):
        seen.append(sf)
        return isolated(sf, seq)

    monkeypatch.setattr(sper, "_isolated", watched)
    out, oc = push_cons(p, phi, cells)
    monkeypatch.undo()
    dp = ip.deriv(p.poly)
    images = [_push_alg(p, a, {}).poly for a in list(cells.roots) + real_roots(dp)]
    assert seen == [ip.squarefree_sturm(dp)[0]] + list(dict.fromkeys(images))
    assert [r.compare(y) for r, y in zip(oc.roots, ys)] == [0] * len(ys) == [0] * len(oc.roots)
    assert [out(oc.point_at(2 * j + 1)) for j in range(len(ys))] == \
        [_fiber_oracle(p, phi, cells, Fraction(y)) for y in ys]
    return oc


def _sign_by_refinement(f, x: SperPoint) -> int:
    """The sign of f at an algebraic point or cut by a gcd test and interval
    refinement: an independent oracle for sign_at."""
    f = ip.normalize(f)
    if not f:
        return 0
    a = x.center
    if a.is_rational() and x.kind == "alg":
        return ip.sign_at_rational(f, a.as_rational())
    g = ip.gcd(f, a.poly)
    vanishes = (ip.degree(g) >= 1
                and ip.count_roots_halfopen(ip.sturm_sequence(g), a.lo, a.hi) == 1)
    if x.kind == "alg" and vanishes:
        return 0
    if ip.degree(f) == 0:
        return (f[0] > 0) - (f[0] < 0)
    g = ip.gcd(f, ip.deriv(f))
    seq = ip.sturm_sequence(ip.divexact(ip.primitive(f), g) if ip.degree(g) else f)
    while True:
        if ip.count_roots_halfopen(seq, a.lo, a.hi) == vanishes:
            if x.kind in ("alg", "cut+"):
                # no root of f in (alpha, hi], so the sign at hi rules
                return ip.sign_at_rational(f, a.hi)
            s = ip.sign_at_rational(f, a.lo)
            if s != 0:
                return s
        a = a.refined()
        if a.is_rational() and x.kind == "alg":
            return ip.sign_at_rational(f, a.as_rational())


class TestSignAtByTarskiQueries:
    def test_matches_refinement(self):
        """sign_at at algebraic points and both cuts, against gcd tests and
        interval refinement; f often vanishes at the center, to a higher
        order too."""
        rng = Random(109)
        irrational = zeros = high_order = 0
        for _ in range(150):
            centers = real_roots(_product(rng, 2))
            if not centers:
                continue
            center = rng.choice(centers)
            f = _product(rng, rng.randint(0, 2))
            if rng.random() < 0.5:
                f = ip.mul(f, ip.power(center.poly, rng.randint(1, 3)))
            for x in (SperPoint.alg(center), SperPoint.cut_minus(center),
                      SperPoint.cut_plus(center)):
                assert sign_at(f, x) == _sign_by_refinement(f, x)
            irrational += not center.is_rational()
            if sign_at(f, SperPoint.alg(center)) == 0:
                zeros += 1
                high_order += sign_at(ip.deriv(f), SperPoint.alg(center)) == 0
        assert irrational >= 50 and zeros >= 50 and high_order >= 20


def _gcd_first_compare(a, b) -> int:
    """AlgNumber.compare as it was before halving came first: for two
    irrational roots with overlapping intervals, the gcd of their
    polynomials and its Sturm count in the intersection settle equality
    before any halving."""
    if b.is_rational():
        return a._compare_rational(*b._ratio())
    if a.is_rational():
        return -b._compare_rational(*a._ratio())
    if sper._overlap(a, b):
        g = a.poly if a.poly == b.poly else ip.gcd(a.poly, b.poly)
        if ip.degree(g) >= 1:
            lo = a if a._a * b._d >= b._a * a._d else b
            hi = a if a._b * b._d <= b._b * a._d else b
            seq = ip.sturm_sequence(g)
            if ip.count_roots_halfopen(seq, lo._a * hi._d, hi._b * lo._d, lo._d * hi._d) == 1:
                return 0
    while sper._overlap(a, b):
        a, b = a.refined(), b.refined()
    return -1 if a._b * b._d <= b._a * a._d else 1


def _counting_gcds(monkeypatch) -> list:
    calls, gcd = [], ip.gcd
    monkeypatch.setattr(ip, "gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
    return calls


class TestCompareHalvesBeforeGcd:
    def test_matches_gcd_first_compare_on_seeded_pairs(self):
        rng = Random(113)
        kinds = {"equal": 0, "same poly": 0, "rational": 0, "distinct": 0}
        for _ in range(60):
            f, g = _product(rng, rng.randint(1, 3)), _product(rng, rng.randint(1, 3))
            if ip.degree(f) < 1 or ip.degree(g) < 1:
                continue
            for x in real_roots(f):
                for y in real_roots(g) + real_roots(f):
                    want = _gcd_first_compare(x, y)
                    assert x.compare(y) == want and y.compare(x) == -want
                    if x.is_rational() or y.is_rational():
                        kinds["rational"] += x.is_rational() != y.is_rational()
                    elif x.poly == y.poly:
                        kinds["same poly"] += 1
                    else:
                        kinds["equal" if want == 0 else "distinct"] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_equal_roots_of_distinct_polynomials(self, monkeypatch):
        # (t^2 - 2)(t^2 - 8) and t^3 - 2t share the roots +-sqrt 2, which
        # overlap through every halving: each needs one gcd
        a, b = real_roots(ip.mul(T2M2, (-8, 0, 1))), real_roots(T3M2T)
        gcds = _counting_gcds(monkeypatch)
        got = [[x.compare(y) for y in b] for x in a]
        assert got == [[-1, -1, -1], [0, -1, -1], [1, 1, 0], [1, 1, 1]]
        assert len(gcds) == 2
        assert got == [[_gcd_first_compare(x, y) for y in b] for x in a]

    def test_roots_closer_than_the_halvings_allow(self, monkeypatch):
        # sqrt 2 and sqrt 2.000001, about 3.5e-7 apart, still overlap after
        # the halvings: one gcd, a constant, then halving parts them
        x = real_roots(T2M2)[1]
        y = real_roots((-2000001, 0, 10 ** 6))[1]
        gcds = _counting_gcds(monkeypatch)
        assert x.compare(y) == -1 and y.compare(x) == 1
        assert gcds == [(x.poly, y.poly), (y.poly, x.poly)]
        assert _gcd_first_compare(x, y) == -1

    def test_roots_of_one_polynomial_need_no_gcd(self, monkeypatch):
        roots = real_roots(ip.mul(ip.mul(T2M2, (-3, 0, 1)), (-201, 0, 100)))
        gcds = _counting_gcds(monkeypatch)
        assert [[x.compare(y) for y in roots] for x in roots] == \
            [[(i > j) - (i < j) for j in range(6)] for i in range(6)]
        assert gcds == []

    def test_coprime_atoms_make_no_gcd(self, monkeypatch):
        gcds = _counting_gcds(monkeypatch)
        phi = Or((And((Atom(T2M2, ">"), Atom((1, -3, 0, 1), "<"))), Atom((-5, 0, 1), "!=")))
        assert str(from_formula(phi)).startswith("(-inf,root(t^2 - 5, ")
        assert gcds == []

    def test_a_shared_factor_tags_its_roots_with_both_bits(self, monkeypatch):
        # (t^2 - 2)(t - 3) and (t^2 - 2)(t^2 - 5): +-sqrt 2 carry both bits,
        # after one gcd each
        gcds = _counting_gcds(monkeypatch)
        tagged = sper._tagged_roots([ip.mul(T2M2, (-3, 1)), ip.mul(T2M2, (-5, 0, 1))])
        assert [tag for _, tag in tagged] == [2, 3, 3, 2, 1]
        assert [r.compare(v) for (r, _), v in zip(tagged, (-3, -1, 1, 2, 3))] == [1, -1, 1, 1, 0]
        assert len(gcds) == 2


def _formula_tree(rng, pool, depth):
    """A random formula over the atoms of pool, FORMULA_TRUE and
    FORMULA_FALSE, with Not chains and And and Or of up to three children."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((sper.FORMULA_TRUE, sper.FORMULA_FALSE,
                           Atom(rng.choice(pool), rng.choice(RELOPS)),
                           Atom(rng.choice(pool), rng.choice(RELOPS))))
    kind = rng.random()
    if kind < 0.25:
        return Not(_formula_tree(rng, pool, depth - 1))
    children = tuple(_formula_tree(rng, pool, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(children) if kind < 0.6 else Or(children)


class TestFormulaOverAllCells:
    def test_truth_lists_match_per_cell_evaluation(self):
        rng = Random(127)
        pool = [(-1, 1), T2M2, T3M2T, (1, 0, 1)]
        for _ in range(300):
            n = 2 * rng.randint(0, 5) + 1
            signs = {f: [rng.choice((-1, 0, 1)) for _ in range(n)] for f in pool}
            signs[()] = [0] * n
            phi = _formula_tree(rng, pool, 5)
            assert sper._truth_cells(phi, signs, n) == \
                [_eval_formula(phi, lambda f: signs[f][pos]) for pos in range(n)]

    def test_masks_match_the_per_cell_reference(self):
        rng = Random(131)
        for _ in range(80):
            pool = [_product(rng, rng.randint(1, 2)) for _ in range(3)]
            phi = _formula_tree(rng, pool, 4)
            got, want = from_formula(phi), _formula_oracle(phi)
            assert got == want and got.mask == want.mask

    def test_constants_and_empty_connectives(self):
        assert from_formula(sper.FORMULA_TRUE).is_whole()
        assert from_formula(sper.FORMULA_FALSE).is_empty()
        assert from_formula(And(())).is_whole() and from_formula(Or(())).is_empty()
        assert from_formula(Not(Not(Atom(T2M2, "<")))) == from_formula(Atom(T2M2, "<"))

    @pytest.mark.parametrize("phi", [42, "t > 0", Not(None), And((Atom(T2M2, "<"), "t > 0"))])
    def test_a_non_formula_is_an_error(self, phi):
        with pytest.raises(SperError, match="not a formula"):
            from_formula(phi)


class TestPushBuildsEachSequenceOnce:
    def test_one_sturm_sequence_per_polynomial(self, monkeypatch):
        # t^3 - t on the cells of (t^2 - 2)(t^2 - 3) < 0: the downstream
        # roots are the four images and the two critical values, roots of
        # two polynomials; the sweep builds one sequence for p' and one for
        # each image polynomial, used by every root, and no fiber polynomial
        cp = cell_poset(from_formula(Atom((6, 0, -5, 0, 1), "<")))
        phi = ConsFunction(cp.space, {q: i for i, q in enumerate(cp.space.points)})
        sqf, seqs, composed = Counter(), Counter(), []
        squarefree, sturm, compose = ip.squarefree_sturm, ip.sturm_sequence, ip.compose
        monkeypatch.setattr(ip, "squarefree_sturm",
                            lambda p: sqf.update([p]) or squarefree(p))
        monkeypatch.setattr(ip, "sturm_sequence",
                            lambda p, q=(1,): seqs.update([(p, q)]) or sturm(p, q))
        monkeypatch.setattr(ip, "compose", lambda p, q: composed.append(p) or compose(p, q))
        out, oc = push_cons(PolyMap(T3M2T[:1] + (-1, 0, 1)), phi, cp)
        assert len(oc.roots) == 6 and len({r.poly for r in oc.roots}) == 2
        # p' = 3t^2 - 1, and the image polynomials of t^4 - 5t^2 + 6 and 3t^2 - 1
        assert sqf == Counter({(-1, 0, 3): 1, (24, 0, -14, 0, 1): 1, (-4, 0, 27): 1})
        assert seqs == Counter({(f, (1,)): 1 for f in sqf})
        assert composed == []


class TestPushInvariant:
    def test_a_piece_with_both_ends_at_one_position_exits_2(self, monkeypatch):
        """Every image placed at one downstream root leaves the monotone
        piece of t^3 - 3t between its critical points with both ends there:
        the sweep reports an internal invariant failure, exit code 2."""
        monkeypatch.setattr(sper, "_push_alg", lambda p, a, image_polys: AlgNumber.from_rational(0))
        text, code = run(["sper-push", "--poly", "t^3 - 3*t"])
        assert code == 2
        assert text == ("internal invariant failure: a monotone piece in cell (-inf,inf) "
                        "has both ends at one position")
