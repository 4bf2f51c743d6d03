import json
import os
import subprocess
import sys
import time
from random import Random

import pytest

import sheafkit
import sheafkit.sheaf
from sheafkit.linalg import (
    GF, ChainMap, DegreeOverflow, FreeChainComplex, Matrix, ZZ, QQ, complex_from_basis,
    homology, is_acyclic, k0_rank,
)
from sheafkit.randgen import (
    random_complex, random_monotone_map, random_poset, random_sheaf,
)
from sheafkit.selftest import _check_cohomological_dimension, _check_conservativity
from sheafkit.sheaf import (
    NotClosed, NotOpen, PathIndependenceViolation, SheafComplex, SheafMap,
    base_change_compare, base_change_locus, cell_decompose,
    compose_pushforward_compare, constant_sheaf, derived_hom, derived_tensor,
    evaluation_map, i_star, i_upper_shriek, is_dualizable, j_shriek,
    localization_triangle, open_unit, pullback, pushforward, restrict, rgamma,
    same_stalk_homology, sheaf_cone, sheaf_fiber,
    sheaf_is_acyclic, skyscraper, triangle_is_exact, triangle_of, unit_sheaf,
    zero_sheaf, _chain_matching, _derived_hom_labeled, _hom_end_complex, _label_key,
    _pushforward_labeled, _slice, rgamma_labeled, rgamma_reduced,
)
from sheafkit.space import (
    MonotoneMap, build_space, subspace, _key,
)


def ladder(height):
    """Width-2 ladder: two points per level, each below both points above."""
    pts = [f"{c}{i}" for i in range(height) for c in "pq"]
    covers = [(f"{c}{i}", f"{d}{i + 1}")
              for i in range(height - 1) for c in "pq" for d in "pq"]
    return build_space(pts, covers)


def fan(width, height):
    """x below width chains of height points each, all below z: x < a1 <
    ... < a<height> < z, x < b1 < ... < z, and so on."""
    chains = [[f"{c}{i}" for i in range(1, height + 1)] for c in "abcdefgh"[:width]]
    covers = [(x, y) for ch in chains for x, y in zip(["x"] + ch, ch + ["z"])]
    return build_space(["x", "z"] + [p for ch in chains for p in ch], covers)


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


def typed(m):
    """The dense entries of m with their Python types."""
    return (m.rows, m.cols, tuple(tuple((type(x), x) for x in row) for row in m.entries))


def assert_same_labeled(got, want):
    """Same complex, labels and index, in the same order and with the same
    entry types."""
    (cx, labels, index), (cx2, labels2, index2) = got, want
    assert list(cx.ranks.items()) == list(cx2.ranks.items())
    assert [(n, typed(d)) for n, d in cx.diffs.items()] == \
        [(n, typed(d)) for n, d in cx2.diffs.items()]
    assert list(labels.items()) == list(labels2.items())
    assert list(index.items()) == list(index2.items())


def _exhaustive_walk(k):
    """Every composite rho(x, z), each x's composed from the identity
    through the first cover into z inside the up-set of x, and the first
    error of comparing every other cover into z against it, or None."""
    rho = {}
    for x in k.space.points:
        walk = {x: ChainMap.identity(k.stalks[x])}
        for (w, z) in k.space.covers_upward():
            if w not in walk:
                continue
            via = k.gens[(w, z)].compose(walk[w])
            if z not in walk:
                walk[z] = via
                continue
            for n in set(via.mats) | set(walk[z].mats):
                if via.component(n) != walk[z].component(n):
                    return rho, f"two paths {x!r} -> {z!r} compose differently in degree {n}"
        rho.update(((x, z), f) for z, f in walk.items())
    return rho, None


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

    def test_violation_only_in_composites(self):
        # x < a1 < a2 < a3 < z and x < b1 < b2 < b3 < z: no two covers share
        # both ends of a square, so only the composites x -> z can disagree
        m = fan(2, 3)
        assert set(m.points) == {"x", "a1", "a2", "a3", "b1", "b2", "b3", "z"}
        assert len(m.covers) == 8
        c = lam()
        gens = {e: ChainMap.identity(c) for e in m.covers}
        k = SheafComplex(m, ZZ, {p: c for p in m.points}, gens)
        assert k.rho("x", "z") == ChainMap.identity(c)
        gens[("b1", "b2")] = ChainMap(c, c, {0: Matrix(ZZ, [[-1]])})
        with pytest.raises(PathIndependenceViolation) as e:
            SheafComplex(m, ZZ, {p: c for p in m.points}, gens)
        assert str(e.value) == "two paths 'x' -> 'z' compose differently in degree 0"

    def test_rho_of_a_cover_is_its_generization_map(self):
        m = ladder(3)
        k = random_sheaf(Random(5), m, max_pieces=3)
        for e in m.covers:
            assert k.rho(*e) is k.gens[e]
        assert k.rho("p0", "p0") == ChainMap.identity(k.stalks["p0"])
        with pytest.raises(sheafkit.sheaf.SheafError, match="not below"):
            k.rho("p2", "p0")

    def test_perturbed_generization_against_the_exhaustive_walk(self):
        """One generization entry perturbed on seeded random posets,
        ladders and fans: validation must raise exactly the error of the
        walk that composes every cover out of every x, or accept when it
        accepts, and a valid sheaf's composites must be the walk's."""
        rng = Random(2207)
        violations = accepted = 0
        for i in range(400):
            ring = (ZZ, QQ, GF(7))[i % 3]
            shape = i % 4
            if shape == 1:
                m = ladder(2 + i % 5)
            elif shape == 3:
                m = fan(rng.randint(3, 4), rng.randint(1, 2))
            else:
                m = random_poset(rng, 7, min_points=3, edge_prob=0.5)
            k = random_sheaf(rng, m, ring=ring, max_pieces=3)
            walk, want = _exhaustive_walk(k)
            assert want is None
            for (x, z), f in walk.items():
                assert k.rho(x, z) == f
            spots = [(e, n) for e, g in k.gens.items()
                     for n in k.stalks[e[0]].ranks if k.stalks[e[1]].rank(n)]
            if not spots:
                continue
            e, n = rng.choice(spots)
            g = k.gens[e]
            i0 = rng.randrange(g.target.rank(n))
            j0 = rng.randrange(g.source.rank(n))
            bump = Matrix.from_entries(ring, g.target.rank(n), g.source.rank(n),
                                       [(i0, j0, rng.choice((-2, -1, 1, 2)))])
            mats = dict(g.mats)
            mats[n] = g.component(n) + bump
            gens = dict(k.gens)
            gens[e] = ChainMap(g.source, g.target, mats, check=False)
            _, want = _exhaustive_walk(SheafComplex(m, ring, k.stalks, gens, check=False))
            try:
                SheafComplex(m, ring, k.stalks, gens)
                got = None
            except PathIndependenceViolation as err:
                got = str(err)
            assert got == want
            violations += got is not None
            accepted += got is None
        assert violations >= 50 and accepted >= 20

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
        assert [i for i in range(40) if not _check_cohomological_dimension(rng)] == []

    def test_size_ceiling_on_a_height_9_ladder(self):
        """rgamma of rank 20635, whose largest coboundary is 5648 x 4312 with
        0.14% of its entries nonzero; run in a child process so that its peak
        RSS is measured alone.  The child reads its own VmHWM: ru_maxrss
        keeps the high-water mark of the test process across fork and exec."""
        code = """if True:
            import json, time
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
            seconds = time.perf_counter() - start
            with open("/proc/self/status") as fh:
                hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps({"rank": c.total_rank(),
                              "homology": {n: str(v) for n, v in h.items()},
                              "seconds": seconds,
                              "rss_mb": hwm_kb / 1024}))
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sheafkit.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        got = json.loads(out.stdout)
        assert got["rank"] == 20635
        assert got["homology"] == {"1": "Z/3", "7": "Z"}
        assert got["seconds"] < 6
        assert got["rss_mb"] < 150

    def test_size_ceiling_on_a_height_10_ladder(self):
        """rgamma of rank 20005 over 59048 strict chains, of which 19844 have
        a top with a nonzero stalk.  Only those are listed as cofaces, which
        keeps the child's peak RSS near 52 MB; the memory bound lies below
        the 74 MB of listing all 59048."""
        code = """if True:
            import json, time
            from random import Random
            from sheafkit.linalg import ZZ, homology
            from sheafkit.randgen import random_sheaf
            from sheafkit.sheaf import rgamma
            from sheafkit.space import build_space
            pts = [f"{c}{i}" for i in range(10) for c in "pq"]
            covers = [(f"{c}{i}", f"{d}{i + 1}") for i in range(9) for c in "pq" for d in "pq"]
            k = random_sheaf(Random(9), build_space(pts, covers), ZZ, max_pieces=3)
            start = time.perf_counter()
            c = rgamma(k)
            h = homology(c)
            seconds = time.perf_counter() - start
            with open("/proc/self/status") as fh:
                hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps({"rank": c.total_rank(),
                              "homology": {n: str(v) for n, v in h.items()},
                              "seconds": seconds,
                              "rss_mb": hwm_kb / 1024}))
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sheafkit.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        got = json.loads(out.stdout)
        assert got["rank"] == 20005
        assert got["homology"] == {"1": "Z/3", "9": "Z"}
        assert got["seconds"] < 8
        assert got["rss_mb"] < 64


class TestReducedSections:
    """rgamma_reduced against rgamma, and the Morse matching it is built on."""

    @staticmethod
    def instances():
        """Seeded sheaves over Z, Q, F_2 and F_3 with stalks in degrees -1..1
        on random posets of 5-9 points, ladders of height 2-6 and fan(3, 3),
        whose open interval (x, z) is disconnected."""
        rng = Random(71)
        spaces = ([random_poset(rng, 9, min_points=5, edge_prob=0.5) for _ in range(40)]
                  + [ladder(h) for h in range(2, 7)] * 2 + [fan(3, 3)] * 4)
        for a, m in enumerate(spaces):
            ring = (ZZ, QQ, GF(2), GF(3))[a % 4]
            yield m, random_sheaf(rng, m, ring, max_pieces=3)

    def test_same_homology_as_rgamma(self):
        for _, k in self.instances():
            full, reduced = rgamma(k), rgamma_reduced(k)
            assert homology(reduced) == homology(full)
            assert k0_rank(reduced) == k0_rank(full)
            assert reduced.total_rank() <= full.total_rank()

    def test_degree_overflow_as_rgamma(self):
        # a chain of 8 points under a stalk in degree 10 reaches degree 17
        m = build_space([f"x{i}" for i in range(8)], [(f"x{i}", f"x{i + 1}") for i in range(7)])
        k = constant_sheaf(m, FreeChainComplex.free_module(ZZ, 1, 10))
        with pytest.raises(DegreeOverflow) as want:
            rgamma(k)
        with pytest.raises(DegreeOverflow) as got:
            rgamma_reduced(k)
        assert str(got.value) == str(want.value)
        assert homology(rgamma_reduced(k.shift(1))) == homology(rgamma(k.shift(1)))

    def test_total_rank_is_the_number_of_critical_labels(self):
        for m, k in self.instances():
            tops = {p for p, c in k.stalks.items() if not c.is_zero()}
            order, _, _, critical = _chain_matching(m, tops)
            labels = sum(k.stalks[order[c.bit_length() - 1]].total_rank() for c in critical)
            assert rgamma_reduced(k).total_rank() == labels

    def test_matching_is_acyclic_on_one_point_pairs(self):
        for m, _ in self.instances():
            order, _, partner, critical = _chain_matching(m, set(m.points))
            place = {p: a for a, p in enumerate(order)}
            mask = {c: sum(1 << place[p] for p in c) for c in m.strict_chains()}
            # every chain is critical or in exactly one pair
            assert sorted(critical + list(partner)) == sorted(mask.values())
            assert len(set(critical)) == len(critical) and not set(critical) & set(partner)
            for s, t in partner.items():
                assert partner[t] == s
                v = s ^ t  # one point, not the top, which both share
                assert v & (v - 1) == 0 and v < s & t and s.bit_length() == t.bit_length()
            # gradient paths: from the upper chain b of a pair (a, b) to every
            # other upper chain that inserts one point into a
            chains = {c: tuple(order[i] for i in range(len(order)) if c >> i & 1)
                      for c in mask.values()}

            def successors(b):
                a = partner[b]
                for w in m.points:
                    if w not in chains[a] and all(m.le(w, p) or m.le(p, w) for p in chains[a]):
                        c = a | 1 << place[w]
                        if c != b and partner.get(c, c) < c:
                            yield c
            state = {}
            for root in (b for b, a in partner.items() if a < b):
                if root in state:
                    continue
                state[root] = 1
                stack = [(root, successors(root))]
                while stack:
                    b, it = stack[-1]
                    for c in it:
                        assert state.get(c) != 1, "a gradient path closes a cycle"
                        if c not in state:
                            state[c] = 1
                            stack.append((c, successors(c)))
                            break
                    else:
                        state[b] = 2
                        stack.pop()

    @pytest.mark.parametrize("height, rank, want, seconds, mb", [
        (11, 17, {"1": "Z/3", "10": "Z"}, 4, 80),
        (12, 55, {"1": "Z/3", "11": "Z"}, 8, 160),
    ])
    def test_size_ceiling_on_the_reduced_path(self, height, rank, want, seconds, mb):
        """The reduced complex of the ceiling sheaf on ladders of height 11
        and 12, whose rgamma has rank 172807 and 767149 (height 11: 10.9 s
        for rgamma and homology, and the same homology).  About 0.2 s and
        41 MB, and 0.5 s and 95 MB, when these bounds were set; the chains
        are bit masks and no coface is stored, so memory stays far below
        the 594 MB of a build that lists them."""
        code = f"""if True:
            import json, time
            from random import Random
            from sheafkit.linalg import ZZ, homology
            from sheafkit.randgen import random_sheaf
            from sheafkit.sheaf import rgamma_reduced
            from sheafkit.space import build_space
            pts = [f"{{c}}{{i}}" for i in range({height}) for c in "pq"]
            covers = [(f"{{c}}{{i}}", f"{{d}}{{i + 1}}")
                      for i in range({height - 1}) for c in "pq" for d in "pq"]
            k = random_sheaf(Random(9), build_space(pts, covers), ZZ, max_pieces=3)
            start = time.perf_counter()
            c = rgamma_reduced(k)
            h = homology(c)
            seconds = time.perf_counter() - start
            with open("/proc/self/status") as fh:
                hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
            print(json.dumps({{"rank": c.total_rank(),
                              "homology": {{n: str(v) for n, v in h.items()}},
                              "seconds": seconds,
                              "rss_mb": hwm_kb / 1024}}))
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sheafkit.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        got = json.loads(out.stdout)
        assert got["rank"] == rank
        assert got["homology"] == want
        assert got["seconds"] < seconds
        assert got["rss_mb"] < mb


class TestLabelOrder:
    """Sections and the homotopy end list each degree's labels in
    ``_label_key`` order without sorting them: strict_chains comes in
    (length, keys) order and each chain yields its labels in increasing
    order.  ``_slice`` orders its degrees by that key."""

    def test_labels_come_in_label_key_order(self):
        rng = Random(61)
        for seed in range(48):
            ring = (ZZ, QQ, GF(2), GF(3))[seed % 4]
            m = random_poset(rng, 5)
            chains = m.strict_chains()
            assert list(chains) == sorted(
                chains, key=lambda c: (len(c), tuple(_key(x) for x in c)))
            k = random_sheaf(rng, m, ring, max_pieces=3)
            l = random_sheaf(rng, m, ring, max_pieces=2)
            for _, labels, _ in (rgamma_labeled(k), _hom_end_complex(k, l)):
                for labs in labels.values():
                    assert list(labs) == sorted(labs, key=_label_key)


def reference_chain_complex(m, R, cells, entries):
    """The labelled-complex builder that lists every strict chain as a
    coface of each of its faces, whether or not the chain has labels."""
    basis, faces = {}, {}
    for c in m.strict_chains():
        p = len(c) - 1
        for q, labs in cells(c):
            basis.setdefault(p + q, []).extend(labs)
        if p:
            for l in range(p + 1):
                faces.setdefault(c[:l] + c[l + 1:], []).append((c, l))
    cx, index = complex_from_basis(
        R, basis, lambda n, lab: entries(n, lab, faces.get(lab[0], ())))
    return cx, {n: tuple(labs) for n, labs in basis.items()}, index


class TestCofacesWithLabels:
    """Listing only the chains with labels as cofaces changes no label, no
    index and no matrix of sections or of the homotopy end."""

    @staticmethod
    def sparse_sheaf(rng, m, ring):
        x = rng.choice(m.points)
        kind = rng.randrange(3)
        if kind == 0:
            return skyscraper(m, x, random_complex(rng, ring, max_pieces=1, conjugate=False))
        if kind == 1:
            u = m.up_set(x)
            sub, _ = subspace(m, u)
            c = random_complex(rng, ring, max_pieces=1, conjugate=False)
            return j_shriek(m, u, constant_sheaf(sub, c))
        return random_sheaf(rng, m, ring, max_pieces=2)

    def test_against_the_builder_that_faces_every_chain(self, monkeypatch):
        rng = Random(83)
        for seed in range(64):
            ring = (ZZ, QQ, GF(2), GF(3))[seed % 4]
            m = random_poset(rng, 6, min_points=2)
            k = self.sparse_sheaf(rng, m, ring)
            l = self.sparse_sheaf(rng, m, ring)
            got = rgamma_labeled(k), _hom_end_complex(k, l), _hom_end_complex(l, k)
            with monkeypatch.context() as mp:
                mp.setattr(sheafkit.sheaf, "_chain_complex", reference_chain_complex)
                want = rgamma_labeled(k), _hom_end_complex(k, l), _hom_end_complex(l, k)
            assert got == want


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

    def test_triangles_build_no_subspace(self, monkeypatch):
        import sheafkit.sheaf as sh
        rng = Random(46)
        cases = []
        for _ in range(10):
            m = random_poset(rng, 5)
            cases.append((random_sheaf(rng, m), m.down_set(rng.choice(m.points))))
        calls = []
        build = sh.subspace
        monkeypatch.setattr(sh, "subspace", lambda *a: calls.append(1) or build(*a))
        for k, z in cases:
            assert triangle_is_exact(localization_triangle(k, z))
            _, tris = cell_decompose(k)
            assert all(triangle_is_exact(t) for t in tris)
        assert calls == []

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

    def test_one_end_complex_build_per_call(self, monkeypatch):
        import sheafkit.sheaf as sh
        calls = []
        build = sh._hom_end_complex
        monkeypatch.setattr(sh, "_hom_end_complex",
                            lambda k, l: calls.append(1) or build(k, l))
        rng = Random(44)
        for _ in range(6):
            m = random_poset(rng, 5, min_points=3)
            k = random_sheaf(rng, m, max_pieces=1)
            l = random_sheaf(rng, m, max_pieces=1)
            calls.clear()
            derived_hom(k, l)
            # every stalk is a slice of the one build
            assert len(calls) == 1
            calls.clear()
            evaluation_map(l)
            assert len(calls) == 2

    def test_stalks_are_the_end_complexes_of_the_restrictions(self):
        rng = Random(45)
        for i in range(24):
            ring = (ZZ, QQ, GF(2), GF(3))[i % 4]
            m = random_poset(rng, 5)
            k = random_sheaf(rng, m, ring, max_pieces=2)
            l = random_sheaf(rng, m, ring, max_pieces=2)
            sheaf, labels, indexes = _derived_hom_labeled(k, l)
            for x in m.points:
                u = m.up_set(x)
                want = _hom_end_complex(restrict(k, u), restrict(l, u))
                assert_same_labeled((sheaf.stalks[x], labels[x], indexes[x]), want)

    def test_slice_lists_degrees_in_build_order(self):
        # the whole end complex meets degree 1 first, at (a), and its slice
        # to the open {b} meets degrees 0 and 1 both at (b) with t = 0, so
        # they come in degree order there
        m = build_space(["a", "b"], [("a", "b")])
        k = SheafComplex(m, ZZ, {"a": lam(), "b": lam()}, {})
        l = SheafComplex(m, ZZ, {"a": FreeChainComplex.free_module(ZZ, 1, 1),
                                 "b": FreeChainComplex.free_module(ZZ, 1, 0).direct_sum(
                                     FreeChainComplex.free_module(ZZ, 1, 1))}, {})
        whole = _hom_end_complex(k, l)
        assert list(whole[1]) == [1, 0, 2]
        got = _slice(whole, {"b"})
        assert list(got[1]) == [0, 1]
        assert_same_labeled(got, _hom_end_complex(restrict(k, {"b"}), restrict(l, {"b"})))


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

    def assert_same_sheaf(self, a, b):
        assert a.space == b.space and a.ring == b.ring
        for p in a.space.points:
            x, y = a.stalks[p], b.stalks[p]
            assert x.ranks == y.ranks
            assert {n: typed(d) for n, d in x.diffs.items()} == \
                {n: typed(d) for n, d in y.diffs.items()}
        for e in a.space.covers:
            assert {n: typed(mm) for n, mm in a.gens[e].mats.items()} == \
                {n: typed(mm) for n, mm in b.gens[e].mats.items()}

    @staticmethod
    def base_change_cases(seed):
        """48 seeded (f, k, p) over Z, Q, F_2 and F_3, p in turn a point, an
        open or a closed inclusion, or a random map, which is not injective as
        soon as two points share an image."""
        rng = Random(seed)
        kinds = ("point", "open", "closed", "map")
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
            else:
                p = random_monotone_map(rng, random_poset(rng, 5, min_points=3), s)
            yield f, k, p

    def test_left_side_is_the_pulled_back_pushforward(self):
        non_injective = 0
        for f, k, p in self.base_change_cases(36):
            cmp_map, _, _ = base_change_compare(f, p, k)
            self.assert_same_sheaf(cmp_map.source, pullback(p, pushforward(f, k)))
            non_injective += len({t for _, t in p.mapping}) < len(p.mapping)
        assert non_injective >= 6

    def test_one_section_build_per_locus_and_pushforward(self, monkeypatch):
        import sheafkit.sheaf as sh
        calls = []
        build = sh.rgamma_labeled
        monkeypatch.setattr(sh, "rgamma_labeled", lambda k: calls.append(1) or build(k))
        rng = Random(37)
        for _ in range(6):
            x = random_poset(rng, 5)
            s = random_poset(rng, 5, min_points=3)
            f = random_monotone_map(rng, x, s)
            k = random_sheaf(rng, x)
            calls.clear()
            base_change_locus(f, k)
            # every point's test is a slice of the one build
            assert len(calls) == 1
            calls.clear()
            pushforward(f, k)
            assert len(calls) == 1

    @staticmethod
    def locus_by_comparison(f, k):
        """The locus from base_change_compare along each point inclusion."""
        s = f.target
        return frozenset(q for q in s.points
                         if base_change_compare(f, subspace(s, {q})[1], k)[1])

    def test_locus_matches_the_comparison_maps(self):
        rng = Random(38)
        not_iso = 0
        for i in range(1500):
            ring = (ZZ, QQ, GF(2), GF(3))[i % 4]
            x = random_poset(rng, 5)
            s = random_poset(rng, 4, min_points=3)
            f = random_monotone_map(rng, x, s)
            k = random_sheaf(rng, x, ring, max_pieces=2)
            locus, _ = base_change_locus(f, k)
            assert locus == self.locus_by_comparison(f, k)
            not_iso += len(s.points) - len(locus)
        assert not_iso >= 500

    def test_pushforward_stalks_are_the_restricted_sections(self):
        for f, k, p in self.base_change_cases(39):
            sheaf, labels, indexes = _pushforward_labeled(f, k, p)
            for t, q in p.mapping:
                want = rgamma_labeled(restrict(k, f.preimage(f.target.up_set(q))))
                assert_same_labeled((sheaf.stalks[t], labels[t], indexes[t]), want)

    def test_slice_drops_degrees_without_a_kept_label(self):
        # degree 1 has the labels (s; q=1) and (s<eta; q=0), both starting at s
        m = sierpinski()
        k = SheafComplex(m, ZZ, {"s": FreeChainComplex.free_module(ZZ, 1, 1),
                                 "eta": lam()}, {})
        whole = rgamma_labeled(k)
        assert set(whole[1]) == {0, 1}
        got = _slice(whole, {"eta"})
        assert set(got[1]) == {0} and got[0].ranks == {0: 1}
        assert_same_labeled(got, rgamma_labeled(restrict(k, {"eta"})))
        kernel = _slice(whole, m.points, {"eta"})
        assert [lab for labs in kernel[1].values() for lab in labs] == \
            [(("eta",), 0, 0), (("s", "eta"), 0, 0)]

    def test_slice_lists_degrees_in_rgamma_order(self):
        # the whole complex meets degree 1 first, at (a), and its slice to
        # the open {b, c} meets degree 0 first, at (b)
        m = build_space(["a", "b", "c"], [("b", "c")])
        k = SheafComplex(m, ZZ, {"a": FreeChainComplex.free_module(ZZ, 1, 1),
                                 "b": lam(), "c": lam()}, {})
        whole = rgamma_labeled(k)
        assert list(whole[1]) == [1, 0]
        got = _slice(whole, {"b", "c"})
        assert list(got[1]) == [0, 1]
        assert_same_labeled(got, rgamma_labeled(restrict(k, {"b", "c"})))


class TestConservativity:
    def test_contrapositive_on_random_instances(self):
        rng = Random(34)
        assert [i for i in range(40) if not _check_conservativity(rng)] == []


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
        from sheafkit.linalg import kernel_basis
        ker = kernel_basis(mtx)
        assert ker.cols == (1 if 0 in h and h[0].free_rank else 0)
        coker = homology(FreeChainComplex.from_diff(ZZ, -1, mtx)).get(0, FGModule(ZZ, (), 0))
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


class TestWideStalks:
    def test_rgamma_builds_no_zero_matrix_per_label(self, monkeypatch):
        # three rank-2000 stalks on a < b < c with zero generizations: the
        # basis labels read the stored differentials and components, all
        # absent, and build no zero matrix in their place
        m = build_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
        stalk = FreeChainComplex.free_module(ZZ, 2000, 0)
        k = SheafComplex(m, ZZ, {x: stalk for x in m.points}, {})
        zeros = Matrix.zeros.__func__
        calls = []

        def counting(cls, *args):
            calls.append(args)
            return zeros(cls, *args)

        monkeypatch.setattr(Matrix, "zeros", classmethod(counting))
        assert rgamma(k).ranks == {0: 2000 * 3, 1: 2000 * 3, 2: 2000}
        assert len(calls) < 100
