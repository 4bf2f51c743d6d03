import json
import os
import subprocess
import sys
import time
from random import Random

import pytest

import sheafkit
from sheafkit.linalg import (
    GF, ChainMap, FreeChainComplex, Matrix, ZZ, QQ, homology, is_acyclic,
)
from sheafkit.randgen import (
    random_discrete_fiber_map, random_monotone_map, random_poset, random_sheaf,
)
from sheafkit.sheaf import (
    NotClosed, NotOpen, PathIndependenceViolation, SheafComplex, SheafMap,
    base_change_compare, base_change_locus, cell_decompose,
    compose_pushforward_compare, constant_sheaf, derived_hom, derived_tensor,
    evaluation_map, i_star, i_upper_shriek, is_dualizable, j_shriek,
    localization_triangle, open_unit, pullback, pushforward, restrict, rgamma,
    same_stalk_homology, sheaf_cone, sheaf_fiber,
    sheaf_is_acyclic, skyscraper, triangle_is_exact, triangle_of, unit_sheaf,
    zero_sheaf,
)
from sheafkit.space import (
    MonotoneMap, build_space, fibers_discrete, krull_dim, subspace,
)


def ladder(height):
    """Width-2 ladder: two points per level, each below both points above."""
    pts = [f"{c}{i}" for i in range(height) for c in "pq"]
    covers = [(f"{c}{i}", f"{d}{i + 1}")
              for i in range(height - 1) for c in "pq" for d in "pq"]
    return build_space(pts, covers)


def sierpinski():
    return build_space(["s", "eta"], [("s", "eta")])


def pseudo_circle():
    return build_space(["a", "b", "x", "y"],
                       [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])


def lam(ring=ZZ):
    return FreeChainComplex.free_module(ring, 1, 0)


def open_extension(m, u, c=None):
    sub, _ = subspace(m, u)
    return j_shriek(m, u, constant_sheaf(sub, c if c is not None else lam()))


def closed_extension(m, z, c=None):
    sub, _ = subspace(m, z)
    return i_star(m, z, constant_sheaf(sub, c if c is not None else lam()))


class TestValidation:
    def test_path_independence_violation(self):
        # two cover paths bottom -> top must compose equally
        m = build_space(["bot", "l", "r", "top"],
                        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])
        c = lam()
        stalks = {p: c for p in m.points}
        gens = {e: ChainMap.identity(c) for e in m.covers}
        gens[("bot", "l")] = ChainMap(c, c, {0: Matrix(ZZ, [[2]])})
        with pytest.raises(PathIndependenceViolation):
            SheafComplex(m, ZZ, stalks, gens)

    def test_violation_high_on_a_ladder(self):
        m = ladder(8)
        c = lam()
        gens = {e: ChainMap.identity(c) for e in m.covers}
        gens[("p6", "q7")] = ChainMap(c, c, {0: Matrix(ZZ, [[2]])})
        with pytest.raises(PathIndependenceViolation) as e:
            SheafComplex(m, ZZ, {p: c for p in m.points}, gens)
        assert str(e.value) == "two paths 'p0' -> 'q7' compose differently in degree 0"

    def test_tall_ladder_validates_quickly(self):
        # a height-h ladder has 2^(h-1) cover paths from each bottom point
        for height in (12, 20):
            m = ladder(height)
            c = FreeChainComplex.from_diff(ZZ, 0, Matrix(ZZ, [[2, 0], [0, 3]]))
            neg = ChainMap(c, c, {0: Matrix(ZZ, [[-1, 0], [0, -1]]),
                                  1: Matrix(ZZ, [[-1, 0], [0, -1]])})
            gens = {e: neg for e in m.covers}
            start = time.perf_counter()
            k = SheafComplex(m, ZZ, {p: c for p in m.points}, gens)
            assert time.perf_counter() - start < 0.5
            sign = (-1) ** (height - 1)
            assert k.rho("p0", f"q{height - 1}").component(0) == Matrix(ZZ, [[sign, 0],
                                                                              [0, sign]])

    def test_naturality_checked(self):
        m = sierpinski()
        k = constant_sheaf(m, lam())
        comps = {"s": ChainMap(lam(), lam(), {0: Matrix(ZZ, [[2]])}),
                 "eta": ChainMap.identity(lam())}
        with pytest.raises(Exception):
            SheafMap(k, k, comps)


class TestRGamma:
    def test_sierpinski_constant(self):
        h = homology(rgamma(constant_sheaf(sierpinski(), lam())))
        assert {n: str(v) for n, v in h.items()} == {0: "Z"}

    def test_extension_by_zero_is_acyclic(self):
        m = sierpinski()
        assert is_acyclic(rgamma(open_extension(m, {"eta"})))

    def test_pseudo_circle(self):
        h = homology(rgamma(constant_sheaf(pseudo_circle(), lam())))
        assert {n: str(v) for n, v in h.items()} == {0: "Z", 1: "Z"}

    def test_stalk_of_point_space(self):
        rng = Random(21)
        for _ in range(25):
            m = random_poset(rng, 5)
            k = random_sheaf(rng, m)
            for x in m.points:
                up = restrict(k, m.up_set(x))
                assert homology(rgamma(up)) == homology(k.stalks[x])

    def test_vanishing_above_dimension(self):
        rng = Random(22)
        for _ in range(40):
            m = random_poset(rng, 6)
            k = random_sheaf(rng, m)
            tops = [c.max_degree() for c in k.stalks.values() if not c.is_zero()]
            if not tops:
                continue
            bound = krull_dim(m) + max(tops)
            assert all(n <= bound for n in homology(rgamma(k)))

    def test_size_ceiling_on_a_height_9_ladder(self):
        """rgamma of rank 20635, whose largest coboundary is 5648 x 4312 with
        0.14% of its entries nonzero; run in a child process so that its peak
        RSS is measured alone."""
        code = """if True:
            import json, resource, time
            from random import Random
            from sheafkit.linalg import ZZ, homology
            from sheafkit.randgen import random_sheaf
            from sheafkit.sheaf import rgamma
            from sheafkit.space import build_space
            pts = [f"{c}{i}" for i in range(9) for c in "pq"]
            covers = [(f"{c}{i}", f"{d}{i + 1}") for i in range(8) for c in "pq" for d in "pq"]
            k = random_sheaf(Random(9), build_space(pts, covers), ZZ, max_pieces=3)
            start = time.perf_counter()
            c = rgamma(k)
            h = homology(c)
            print(json.dumps({"rank": c.total_rank(),
                              "homology": {n: str(v) for n, v in h.items()},
                              "seconds": time.perf_counter() - start,
                              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sheafkit.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        got = json.loads(out.stdout)
        assert got["rank"] == 20635
        assert got["homology"] == {"1": "Z/3", "7": "Z"}
        assert got["seconds"] < 6
        assert got["rss_mb"] < 150


class TestPullback:
    def test_identity(self):
        m = sierpinski()
        k = constant_sheaf(m, lam())
        assert pullback(MonotoneMap.identity(m), k) == k

    def test_to_empty(self):
        m = sierpinski()
        empty = build_space([], [])
        f = MonotoneMap(empty, m, [])
        assert pullback(f, constant_sheaf(m, lam())).is_zero()

    def test_constant_map_gives_constant_sheaf(self):
        m = sierpinski()
        pt = build_space(["*"], [])
        c = FreeChainComplex.from_diff(ZZ, 0, Matrix(ZZ, [[3]]))
        k = constant_sheaf(pt, c)
        pb = pullback(MonotoneMap.constant(m, pt, "*"), k)
        assert pb == constant_sheaf(m, c)


class TestPushforward:
    def test_identity_quasi_iso(self):
        rng = Random(23)
        for _ in range(10):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m)
            assert same_stalk_homology(pushforward(MonotoneMap.identity(m), k), k)

    def test_to_point(self):
        m = sierpinski()
        pt = build_space(["*"], [])
        out = pushforward(MonotoneMap.constant(m, pt, "*"), constant_sheaf(m, lam()))
        assert {n: str(v) for n, v in homology(out.stalks["*"]).items()} == {0: "Z"}

    def test_open_inclusion_of_sierpinski(self):
        m = sierpinski()
        sub, j = subspace(m, {"eta"})
        out = pushforward(j, constant_sheaf(sub, lam()))
        assert same_stalk_homology(out, constant_sheaf(m, lam()))
        # the generization map must be an isomorphism, not merely same ranks
        g = out.gens[("s", "eta")]
        assert not g.is_zero()

    def test_open_restriction_of_open_pushforward_is_identity(self):
        # pulling an open pushforward back to the open recovers the sheaf
        rng = Random(36)
        for _ in range(12):
            m = random_poset(rng, 5)
            u = m.up_set(rng.choice(m.points))
            sub, j = subspace(m, u)
            k = random_sheaf(rng, sub)
            back = restrict(pushforward(j, k), u)
            assert same_stalk_homology(back, k)

    def test_composition_comparison_map(self):
        rng = Random(24)
        for _ in range(15):
            x = random_poset(rng, 4)
            s = random_poset(rng, 3)
            u = random_poset(rng, 3)
            f = random_monotone_map(rng, x, s)
            g = random_monotone_map(rng, s, u)
            k = random_sheaf(rng, x, max_pieces=1)
            lhs, rhs, cmp_map = compose_pushforward_compare(f, g, k)
            defect, _, _ = sheaf_cone(cmp_map)
            assert sheaf_is_acyclic(defect)


class TestExtensions:
    def test_j_shriek_examples(self):
        m = sierpinski()
        k = constant_sheaf(m, lam())
        assert j_shriek(m, frozenset(m.points), restrict(k, m.points)) == k
        jl = open_extension(m, {"eta"})
        assert jl.stalks["s"].is_zero() and not jl.stalks["eta"].is_zero()
        sub, _ = subspace(m, set())
        assert j_shriek(m, set(), zero_sheaf(sub, ZZ)).is_zero()

    def test_j_shriek_rejects_non_open(self):
        m = sierpinski()
        sub, _ = subspace(m, {"s"})
        with pytest.raises(NotOpen):
            j_shriek(m, {"s"}, constant_sheaf(sub, lam()))

    def test_i_star_examples(self):
        m = sierpinski()
        ist = closed_extension(m, {"s"})
        assert not ist.stalks["s"].is_zero() and ist.stalks["eta"].is_zero()
        k = constant_sheaf(m, lam())
        assert i_star(m, frozenset(m.points), restrict(k, m.points)) == k

    def test_i_star_rejects_non_closed(self):
        m = sierpinski()
        sub, _ = subspace(m, {"eta"})
        with pytest.raises(NotClosed):
            i_star(m, {"eta"}, constant_sheaf(sub, lam()))


class TestUpperShriek:
    def test_whole_space(self):
        m = sierpinski()
        k = constant_sheaf(m, lam())
        out = i_upper_shriek(frozenset(m.points), k)
        assert same_stalk_homology(out, k)

    def test_constant_has_no_sections_on_closed_point(self):
        m = sierpinski()
        out = i_upper_shriek({"s"}, constant_sheaf(m, lam()))
        assert homology(out.stalks["s"]) == {}

    def test_unit_iso_on_supported_objects(self):
        m = sierpinski()
        out = i_upper_shriek({"s"}, closed_extension(m, {"s"}))
        assert {n: str(v) for n, v in homology(out.stalks["s"]).items()} == {0: "Z"}

    def test_triangle_is_distinguished(self):
        rng = Random(25)
        for _ in range(10):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m, max_pieces=1)
            z = frozenset(q for p in m.points if rng.random() < 0.5
                          for q in m.down_set(p))
            u = frozenset(m.points) - z
            l_sheaf, unit = open_unit(k, u)
            fib, to_k = sheaf_fiber(unit)
            tri = triangle_of(to_k)
            assert triangle_is_exact(tri)
            # the cone of fib -> K recovers the open pushforward stalkwise
            assert same_stalk_homology(tri.c, l_sheaf)
            # and the fiber is supported on z up to quasi-isomorphism
            for p in u:
                assert homology(fib.stalks[p]) == {}


class TestLocalization:
    def test_sierpinski_example(self):
        m = sierpinski()
        tri = localization_triangle(constant_sheaf(m, lam()), {"s"})
        assert triangle_is_exact(tri)
        hs = [homology(rgamma(x)) for x in (tri.a, tri.b, tri.c)]
        assert hs[0] == {}
        assert {n: str(v) for n, v in hs[1].items()} == {0: "Z"}
        assert {n: str(v) for n, v in hs[2].items()} == {0: "Z"}
        # third term matches sections on the closed part stalkwise
        assert same_stalk_homology(tri.c, closed_extension(m, {"s"}))

    def test_empty_closed(self):
        m = sierpinski()
        k = constant_sheaf(m, lam())
        tri = localization_triangle(k, set())
        assert same_stalk_homology(tri.a, k)
        assert sheaf_is_acyclic(tri.c)

    def test_whole_space_closed(self):
        m = sierpinski()
        k = constant_sheaf(m, lam())
        tri = localization_triangle(k, frozenset(m.points))
        assert tri.a.is_zero()
        assert same_stalk_homology(tri.c, k)

    def test_random_exactness(self):
        rng = Random(26)
        for _ in range(40):
            m = random_poset(rng, 6)
            k = random_sheaf(rng, m)
            z = frozenset(q for p in m.points if rng.random() < 0.5
                          for q in m.down_set(p))
            assert triangle_is_exact(localization_triangle(k, z))

    def test_exactness_checker_detects_failure(self):
        # 0 -> K -> 0 is not exact at K unless K is acyclic
        from sheafkit.sheaf import Triangle
        m = sierpinski()
        k = constant_sheaf(m, lam())
        z = zero_sheaf(m, ZZ)
        fake = Triangle(z, k, z, SheafMap.zero(z, k), SheafMap.zero(k, z),
                        SheafMap.zero(z, z.shift(1)))
        assert not triangle_is_exact(fake)


class TestDerivedTensor:
    def test_unit(self):
        rng = Random(27)
        for _ in range(10):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m)
            assert same_stalk_homology(derived_tensor(k, unit_sheaf(m, ZZ)), k)

    def test_disjoint_supports(self):
        m = sierpinski()
        jl = open_extension(m, {"eta"})
        ist = closed_extension(m, {"s"})
        assert same_stalk_homology(derived_tensor(jl, jl), jl)
        assert sheaf_is_acyclic(derived_tensor(jl, ist))

    def test_associativity(self):
        rng = Random(28)
        for _ in range(8):
            m = random_poset(rng, 3)
            k = random_sheaf(rng, m, max_pieces=1)
            l = random_sheaf(rng, m, max_pieces=1)
            n = random_sheaf(rng, m, max_pieces=1)
            lhs = derived_tensor(derived_tensor(k, l), n)
            rhs = derived_tensor(k, derived_tensor(l, n))
            assert same_stalk_homology(lhs, rhs)

    def test_chi_multiplicativity(self):
        rng = Random(29)
        from sheafkit.k0 import chi
        for _ in range(15):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m)
            l = random_sheaf(rng, m)
            assert chi(derived_tensor(k, l)) == chi(k) * chi(l)


class TestDerivedHom:
    def test_hom_from_unit(self):
        rng = Random(30)
        for _ in range(10):
            m = random_poset(rng, 4)
            l = random_sheaf(rng, m)
            assert same_stalk_homology(derived_hom(unit_sheaf(m, ZZ), l), l)

    def test_yoneda_on_cell_projectives(self):
        rng = Random(31)
        for _ in range(12):
            m = random_poset(rng, 4)
            l = random_sheaf(rng, m)
            for x in m.points:
                px = open_extension(m, m.up_set(x))
                h = derived_hom(px, l)
                assert homology(h.stalks[x]) == homology(l.stalks[x])

    def test_yoneda_shape_on_sierpinski(self):
        m = sierpinski()
        p_eta = open_extension(m, {"eta"})
        l = constant_sheaf(m, FreeChainComplex.free_module(ZZ, 2, 0))
        h = derived_hom(p_eta, l)
        assert {n: v.free_rank for n, v in homology(h.stalks["s"]).items()} == {0: 2}
        assert {n: v.free_rank for n, v in homology(h.stalks["eta"]).items()} == {0: 2}

    def test_hom_into_zero(self):
        m = sierpinski()
        k = constant_sheaf(m, lam())
        assert sheaf_is_acyclic(derived_hom(k, zero_sheaf(m, ZZ)))


class TestCrossRoutes:
    def test_hom_agrees_with_dual_tensor_for_perfect_constants(self):
        # for a dualizable object the inner Hom out of it is its dual
        # tensored in; computed along two independent code paths
        rng = Random(37)
        from sheafkit.randgen import random_complex
        for _ in range(8):
            m = random_poset(rng, 4)
            k = constant_sheaf(m, random_complex(rng, max_pieces=2))
            l = random_sheaf(rng, m, max_pieces=1)
            unit = unit_sheaf(m, ZZ)
            lhs = derived_hom(k, l)
            rhs = derived_tensor(derived_hom(k, unit), l)
            assert same_stalk_homology(lhs, rhs)

    def test_global_sections_agree_with_point_pushforward(self):
        rng = Random(38)
        for _ in range(10):
            m = random_poset(rng, 5)
            k = random_sheaf(rng, m)
            pt = build_space(["*"], [])
            pushed = pushforward(MonotoneMap.constant(m, pt, "*"), k)
            assert homology(rgamma(k)) == homology(pushed.stalks["*"])


class TestDualizable:
    def test_constant_unit(self):
        ok, _ = is_dualizable(constant_sheaf(sierpinski(), lam()))
        assert ok

    def test_constant_perfect_complex(self):
        c = FreeChainComplex.from_diff(ZZ, 0, Matrix(ZZ, [[2]]))
        for m in (sierpinski(), pseudo_circle()):
            ok, _ = is_dualizable(constant_sheaf(m, c))
            assert ok

    def test_open_extension_fails_with_defect_at_closed_point(self):
        m = sierpinski()
        ok, defect = is_dualizable(open_extension(m, {"eta"}))
        assert not ok
        assert homology(defect.stalks["s"]) != {}
        assert homology(defect.stalks["eta"]) == {}

    def test_evaluation_is_a_valid_sheaf_map(self):
        rng = Random(32)
        for _ in range(6):
            m = random_poset(rng, 3)
            k = random_sheaf(rng, m, max_pieces=1)
            evaluation_map(k)  # constructor validates chain map + naturality


class TestBaseChange:
    def test_open_immersion_pushforward_vs_closed_point(self):
        m = sierpinski()
        sub, j = subspace(m, {"eta"})
        _, p = subspace(m, {"s"})
        cmp_map, iso, defect = base_change_compare(j, p, constant_sheaf(sub, lam()))
        assert not iso
        h = homology(defect.stalks["s"])
        assert len(h) == 1 and next(iter(h.values())).free_rank == 1

    def test_identity_base_change(self):
        m = sierpinski()
        sub, j = subspace(m, {"eta"})
        _, iso, _ = base_change_compare(j, MonotoneMap.identity(m),
                                        constant_sheaf(sub, lam()))
        assert iso

    def test_open_immersion_base_change_always_iso(self):
        rng = Random(33)
        for _ in range(25):
            s = random_poset(rng, 4)
            x = random_poset(rng, 4)
            f = random_monotone_map(rng, x, s)
            k = random_sheaf(rng, x, max_pieces=1)
            u = s.up_set(rng.choice(s.points))
            _, incl = subspace(s, u)
            _, iso, _ = base_change_compare(f, incl, k)
            assert iso

    def test_locus_examples(self):
        m = sierpinski()
        sub, j = subspace(m, {"eta"})
        locus, flags = base_change_locus(j, constant_sheaf(sub, lam()))
        assert locus == frozenset({"eta"})
        assert flags["open"] and not flags["closed"]
        # f = id: everywhere; K = 0: everywhere
        locus, _ = base_change_locus(MonotoneMap.identity(m), constant_sheaf(m, lam()))
        assert locus == frozenset(m.points)
        locus, _ = base_change_locus(j, zero_sheaf(sub, ZZ))
        assert locus == frozenset(m.points)

    @staticmethod
    def typed(m):
        """The dense entries of m with their Python types."""
        return (m.rows, m.cols, tuple(tuple((type(x), x) for x in row) for row in m.entries))

    def assert_same_sheaf(self, a, b):
        assert a.space == b.space and a.ring == b.ring
        for p in a.space.points:
            x, y = a.stalks[p], b.stalks[p]
            assert x.ranks == y.ranks
            assert {n: self.typed(d) for n, d in x.diffs.items()} == \
                {n: self.typed(d) for n, d in y.diffs.items()}
        for e in a.space.covers:
            assert {n: self.typed(mm) for n, mm in a.gens[e].mats.items()} == \
                {n: self.typed(mm) for n, mm in b.gens[e].mats.items()}

    def test_left_side_is_the_pulled_back_pushforward(self):
        rng = Random(36)
        kinds = ("point", "open", "closed", "map")
        non_injective = 0
        for i in range(48):
            ring = (ZZ, QQ, GF(2), GF(3))[i % 4]
            x = random_poset(rng, 5)
            s = random_poset(rng, 4)
            f = random_monotone_map(rng, x, s)
            k = random_sheaf(rng, x, ring, max_pieces=2)
            kind = kinds[(i // 4) % 4]
            if kind == "point":
                _, p = subspace(s, {rng.choice(s.points)})
            elif kind == "open":
                _, p = subspace(s, s.up_set(rng.choice(s.points)))
            elif kind == "closed":
                _, p = subspace(s, s.down_set(rng.choice(s.points)))
            else:  # not injective as soon as two points share an image
                p = random_monotone_map(rng, random_poset(rng, 5, min_points=3), s)
                non_injective += len({t for _, t in p.mapping}) < len(p.mapping)
            cmp_map, _, _ = base_change_compare(f, p, k)
            self.assert_same_sheaf(cmp_map.source, pullback(p, pushforward(f, k)))
        assert non_injective >= 6

    def test_two_section_builds_per_target_point(self, monkeypatch):
        import sheafkit.sheaf as sh
        calls = []
        build = sh.rgamma_labeled
        monkeypatch.setattr(sh, "rgamma_labeled", lambda k: calls.append(1) or build(k))
        rng = Random(37)
        for _ in range(6):
            x = random_poset(rng, 5)
            s = random_poset(rng, 5, min_points=3)
            f = random_monotone_map(rng, x, s)
            calls.clear()
            base_change_locus(f, random_sheaf(rng, x))
            # one build for the stalk of the pushforward, one for the fiber
            assert len(calls) == 2 * len(s.points)


class TestConservativity:
    def test_contrapositive_on_random_instances(self):
        rng = Random(34)
        done = 0
        while done < 40:
            tgt = random_poset(rng, 4)
            f = random_discrete_fiber_map(rng, tgt)
            assert fibers_discrete(f)
            k = random_sheaf(rng, f.source)
            if sheaf_is_acyclic(k):
                continue
            done += 1
            assert not sheaf_is_acyclic(pushforward(f, k))


class TestCellDecompose:
    def test_constant_on_sierpinski(self):
        m = sierpinski()
        pieces, tris = cell_decompose(constant_sheaf(m, lam()))
        assert [(p, c.ranks) for p, c in pieces] == [("eta", {0: 1}), ("s", {0: 1})]
        assert all(triangle_is_exact(t) for t in tris)

    def test_single_piece(self):
        m = sierpinski()
        pieces, _ = cell_decompose(open_extension(m, {"eta"}))
        assert [p for p, _ in pieces] == ["eta"]

    def test_zero(self):
        pieces, _ = cell_decompose(zero_sheaf(sierpinski(), ZZ))
        assert pieces == []

    def test_cones_match_skyscrapers(self):
        rng = Random(35)
        for _ in range(12):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m)
            pieces, tris = cell_decompose(k)
            # each step's cone has the homology of the skyscraper added
            from sheafkit.space import admissible_order
            order = [next(iter(s)) for s in admissible_order(m).strata]
            for tri, pt in zip(tris, reversed(order)):
                assert same_stalk_homology(tri.c, skyscraper(m, pt, k.stalks[pt]))
                assert triangle_is_exact(tri)

    def test_decompose_builds_no_triangle(self, monkeypatch, tmp_path):
        from sheafkit.cli import run, sheaf_to_text, space_to_text
        rng = Random(38)
        argvs = []
        for i in range(8):
            m = random_poset(rng, 5)
            (tmp_path / f"{i}.space").write_text(space_to_text("sp", m))
            (tmp_path / f"{i}.sheaf").write_text(sheaf_to_text(random_sheaf(rng, m), "sp"))
            for extra in ([], ["--json"]):
                argvs.append(["decompose", "--space", str(tmp_path / f"{i}.space"),
                              "--sheaf", str(tmp_path / f"{i}.sheaf")] + extra)
        reports = [run(argv) for argv in argvs]
        assert all(code == 0 for _, code in reports)

        def no_triangle(phi):
            raise AssertionError("decompose built a triangle")

        monkeypatch.setattr("sheafkit.sheaf.triangle_of", no_triangle)
        assert [run(argv) for argv in argvs] == reports


class TestRings:
    def test_rational_and_modular_coefficients(self):
        for ring in (QQ, __import__("sheafkit.linalg", fromlist=["GF"]).GF(5)):
            m = pseudo_circle()
            k = constant_sheaf(m, FreeChainComplex.free_module(ring, 1, 0))
            h = homology(rgamma(k))
            assert {n: v.free_rank for n, v in h.items()} == {0: 1, 1: 1}


class TestCSheaf:
    def test_module_sheaf_on_sierpinski(self):
        from sheafkit.linalg import FGModule
        from sheafkit.sheaf import CSheaf
        m = sierpinski()
        # free stalks with generization multiplication by 2; the space has a
        # minimum, so derived sections are just the stalk there
        cs = CSheaf(m, ZZ, {"s": FGModule(ZZ, (), 1), "eta": FGModule(ZZ, (), 1)},
                    {("s", "eta"): Matrix(ZZ, [[2]])})
        k = cs.as_complex()
        assert {n: str(v) for n, v in homology(rgamma(k)).items()} == {0: "Z"}

    def test_module_sheaf_with_twisted_leg_on_pseudo_circle(self):
        from sheafkit.linalg import FGModule
        from sheafkit.sheaf import CSheaf
        m = pseudo_circle()
        gens = {e: Matrix(ZZ, [[1]]) for e in m.covers}
        gens[("a", "x")] = Matrix(ZZ, [[2]])
        cs = CSheaf(m, ZZ, {p: FGModule(ZZ, (), 1) for p in m.points}, gens)
        h = homology(rgamma(cs.as_complex()))
        # H^0: sections force phi(a) = 0, so none; H^1 = coker of the
        # twisted incidence matrix, determinant +-1... computed exactly:
        # rows (x-2a, y-a, x-b, y-b) have cokernel Z/1? verify by machine
        # oracle below instead of hand-waving
        mtx = Matrix(ZZ, [[-2, 0, 1, 0], [-1, 0, 0, 1],
                          [0, -1, 1, 0], [0, -1, 0, 1]])
        from sheafkit.linalg import cokernel_module, kernel_basis
        ker = kernel_basis(mtx)
        assert ker.cols == (1 if 0 in h and h[0].free_rank else 0)
        coker = cokernel_module(ZZ, 4, mtx)
        assert h.get(1, FGModule(ZZ, (), 0)) == coker

    def test_torsion_stalks_present_as_two_term_complexes(self):
        from sheafkit.linalg import FGModule
        from sheafkit.sheaf import CSheaf
        m = sierpinski()
        cs = CSheaf(m, ZZ, {"s": FGModule(ZZ, (4,), 0), "eta": FGModule(ZZ, (2,), 0)},
                    {("s", "eta"): Matrix(ZZ, [[1]])})
        k = cs.as_complex()
        assert homology(k.stalks["s"])[0].invariant_factors == (4,)
        assert homology(k.stalks["eta"])[0].invariant_factors == (2,)

    def test_invalid_module_map_rejected(self):
        from sheafkit.linalg import FGModule
        from sheafkit.sheaf import CSheaf
        m = sierpinski()
        # Z/2 -> Z by a nonzero matrix is not a module map
        with pytest.raises(Exception):
            CSheaf(m, ZZ, {"s": FGModule(ZZ, (2,), 0), "eta": FGModule(ZZ, (), 1)},
                   {("s", "eta"): Matrix(ZZ, [[1]])})
