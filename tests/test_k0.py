import time
from random import Random

import pytest

from sheafkit.k0 import (
    ConsFunction, ConsFunctionError, chi, closed_support_decomposition,
    global_euler, realize,
)
from sheafkit.linalg import FreeChainComplex, ZZ, k0_rank
from sheafkit.randgen import random_cons_function, random_poset, random_sheaf
from sheafkit.selftest import _check_chi_realize, _check_factorization
from sheafkit.sheaf import (
    constant_sheaf, j_shriek, localization_triangle, skyscraper, triangle_of, zero_sheaf,
)
from sheafkit.space import build_space, classify_subset, subspace

from conftest import is_zero_sheaf, zero_map


def sierpinski():
    return build_space(["s", "eta"], [("s", "eta")])


def lam():
    return FreeChainComplex.free_module(ZZ, 1, 0)


class TestChi:
    def test_open_extension(self):
        m = sierpinski()
        sub, _ = subspace(m, {"eta"})
        jl = j_shriek(m, {"eta"}, constant_sheaf(sub, lam()))
        assert chi(jl) == ConsFunction(m, {"s": 0, "eta": 1})

    def test_closed_pieces_give_multiples_of_indicators(self):
        # a closed extension of a complex of index a has chi = a on the
        # closed set and 0 outside
        rng = Random(40)
        from sheafkit.randgen import random_complex
        from sheafkit.sheaf import i_star
        for _ in range(20):
            m = random_poset(rng, 5)
            z = frozenset(q for p in m.points if rng.random() < 0.5
                          for q in m.down_set(p))
            sub, _ = subspace(m, z)
            c = random_complex(rng)
            k = i_star(m, z, constant_sheaf(sub, c))
            a = k0_rank(c).value
            assert chi(k) == ConsFunction.indicator(m, z).scale(a)

    def test_zero(self):
        m = sierpinski()
        assert chi(zero_sheaf(m, ZZ)).is_zero()

    def test_quasi_isomorphism_invariance(self):
        rng = Random(41)
        from sheafkit.randgen import conjugate_sheaf
        for _ in range(10):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m)
            assert chi(conjugate_sheaf(rng, k)) == chi(k)


class TestRealize:
    def test_indicator_of_closed_point(self):
        m = sierpinski()
        r = realize(ConsFunction(m, {"s": 1, "eta": 0}))
        assert r.stalks["s"].ranks == {0: 1}
        assert r.stalks["eta"].is_zero()

    def test_zero(self):
        m = sierpinski()
        assert is_zero_sheaf(realize(ConsFunction.zero(m)))

    def test_negative_values_in_odd_degree(self):
        m = sierpinski()
        r = realize(ConsFunction(m, {"s": -2, "eta": 0}))
        assert r.stalks["s"].ranks == {1: 2}
        assert chi(r) == ConsFunction(m, {"s": -2, "eta": 0})

    def test_round_trip_exhaustive_sampling(self):
        rng = Random(42)
        assert [i for i in range(200) if not _check_chi_realize(rng)] == []

    def test_equals_the_direct_sum_of_skyscrapers(self):
        def fold(phi):
            out = zero_sheaf(phi.space, ZZ)
            for p, v in phi.values:
                if v:
                    c = FreeChainComplex.free_module(ZZ, abs(v), 0 if v > 0 else 1)
                    out = out.direct_sum(skyscraper(phi.space, p, c))
            return out

        rng = Random(47)
        for _ in range(200):
            m = random_poset(rng, 5)
            phi = random_cons_function(rng, m, -3, 3)
            assert realize(phi) == fold(phi)


class TestClosedSupportDecomposition:
    def test_examples(self):
        m = sierpinski()
        d = closed_support_decomposition(ConsFunction(m, {"s": 1, "eta": 1}))
        assert [(sorted(z), c) for z, c in d] == [(["eta", "s"], 1)]
        d = closed_support_decomposition(ConsFunction(m, {"s": 1, "eta": 0}))
        assert [(sorted(z), c) for z, c in d] == [(["s"], 1)]
        d = closed_support_decomposition(ConsFunction(m, {"s": 0, "eta": 1}))
        assert [(sorted(z), c) for z, c in d] == [(["eta", "s"], 1), (["s"], -1)]

    def test_reconstruction_and_closedness(self):
        rng = Random(43)
        for _ in range(60):
            m = random_poset(rng, 5)
            phi = random_cons_function(rng, m)
            acc = ConsFunction.zero(m)
            seen = set()
            for z, c in closed_support_decomposition(phi):
                assert classify_subset(m, z)["closed"]
                assert z not in seen
                seen.add(z)
                acc = acc + ConsFunction.indicator(m, z).scale(c)
            assert acc == phi


class TestGlobalEuler:
    def test_examples(self):
        m = sierpinski()
        assert global_euler(constant_sheaf(m, lam())).value == 1
        sub, _ = subspace(m, {"eta"})
        assert global_euler(j_shriek(m, {"eta"}, constant_sheaf(sub, lam()))).value == 0
        pc = build_space(["a", "b", "x", "y"],
                         [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        assert global_euler(constant_sheaf(pc, lam())).value == 0

    def test_factorization_through_chi(self):
        rng = Random(44)
        assert [i for i in range(40) if not _check_factorization(rng)] == []


class TestAdditivity:
    def test_chi_additive_on_localization_triangles(self):
        rng = Random(45)
        for _ in range(40):
            m = random_poset(rng, 5)
            k = random_sheaf(rng, m)
            z = frozenset(q for p in m.points if rng.random() < 0.5
                          for q in m.down_set(p))
            tri = localization_triangle(k, z)
            assert chi(tri.b) == chi(tri.a) + chi(tri.c)

    def test_chi_additive_on_arbitrary_cones(self):
        rng = Random(46)
        for _ in range(30):
            m = random_poset(rng, 4)
            k = random_sheaf(rng, m)
            tri = triangle_of(zero_map(k, k))
            assert chi(tri.b) == chi(tri.a) + chi(tri.c)

    def test_cell_decomposition_bookkeeping(self):
        rng = Random(47)
        assert [i for i in range(30) if not _check_factorization(rng)] == []


class TestConsFunctionType:
    def test_totality_enforced(self):
        m = sierpinski()
        with pytest.raises(ConsFunctionError):
            ConsFunction(m, {"s": 1})
        with pytest.raises(ConsFunctionError):
            ConsFunction(m, {"s": 1, "eta": 0, "zz": 2})

    def test_ring_operations(self):
        m = sierpinski()
        a = ConsFunction(m, {"s": 1, "eta": 2})
        b = ConsFunction(m, {"s": -1, "eta": 3})
        assert a + b == ConsFunction(m, {"s": 0, "eta": 5})
        assert a * b == ConsFunction(m, {"s": -1, "eta": 6})
        assert a - b == ConsFunction(m, {"s": 2, "eta": -1})
        assert str(a) == "phi: eta=2 s=1"

    def test_linear_on_a_2000_point_antichain(self):
        # calls read one dict kept with the values
        m = build_space([f"p{i}" for i in range(2000)], [])
        f = ConsFunction(m, {p: i for i, p in enumerate(m.points)})
        start = time.perf_counter()
        assert all(f(p) == i for i, p in enumerate(m.points))
        assert time.perf_counter() - start < 0.05
        g = f + f
        assert g == ConsFunction(m, {p: 2 * i for i, p in enumerate(m.points)})
        assert hash(g) == hash(f.scale(2)) and "_at" not in repr(f)
