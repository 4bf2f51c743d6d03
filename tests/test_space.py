import math
import time
from itertools import combinations, permutations, product
from random import Random

import pytest

from sheafkit.randgen import random_monotone_map, random_poset
from sheafkit.space import (
    CycleDetected, DuplicatePoint, FinSpec, MonotoneMap, SpaceError, Stratification,
    UnknownPoint, admissible_order, build_space, classify_subset,
    chain_count, fiber_product, fibers_discrete, heights, induced_subspace, krull_dim, subspace, _key,
)


def sierpinski():
    return build_space(["s", "eta"], [("s", "eta")])


def pseudo_circle():
    return build_space(["a", "b", "x", "y"],
                       [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])


class TestBuildSpace:
    def test_sierpinski_opens(self):
        m = sierpinski()
        opens = [s for s in _subsets(m.points) if m.is_open(s)]
        assert sorted(map(sorted, opens)) == [[], ["eta"], ["eta", "s"]]

    def test_one_point(self):
        m = build_space(["x"], [])
        assert m.points == ("x",) and m.covers == ()

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_space(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(CycleDetected):
            build_space(["a"], [("a", "a")])

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoint):
            build_space(["a", "a"], [])

    def test_transitive_edges_reduce_to_hasse(self):
        m = build_space(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert m.covers == (("a", "b"), ("b", "c"))
        assert m.le("a", "c")

    def test_unknown_point_in_cover(self):
        with pytest.raises(UnknownPoint):
            build_space(["a"], [("a", "z")])


class TestCycleReport:
    """The point a cycle report names lies on the cycle and does not depend
    on the order in which the points and relations are listed."""

    def check(self, points, relations, cycle):
        named = set()
        for pts in permutations(points):
            for rels in permutations(relations):
                with pytest.raises(CycleDetected) as err:
                    build_space(pts, rels)
                named.add(str(err.value))
        assert len(named) == 1
        (message,) = named
        assert message in {f"cycle through {p!r}" for p in cycle}
        return message

    def test_same_point_under_every_listing(self):
        message = self.check("dcba", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")], "abc")
        assert message == "cycle through 'a'"

    def test_least_point_above_the_cycle(self):
        message = self.check("apqr", [("p", "q"), ("q", "r"), ("r", "p"), ("p", "a")], "pqr")
        assert message == "cycle through 'p'"


def _subsets(points):
    out = []
    for bits in product([0, 1], repeat=len(points)):
        out.append(frozenset(p for p, b in zip(points, bits) if b))
    return out


class TestClassify:
    def test_sierpinski(self):
        m = sierpinski()
        c = classify_subset(m, {"eta"})
        assert (c["open"], c["closed"], c["locally_closed"]) == (True, False, True)
        c = classify_subset(m, {"s"})
        assert (c["open"], c["closed"], c["locally_closed"]) == (False, True, True)

    def test_empty_subset(self):
        m = sierpinski()
        c = classify_subset(m, set())
        assert c == {"open": True, "closed": True, "locally_closed": True}

    def test_not_locally_closed(self):
        # in a 3-chain the two ends are neither open nor closed nor
        # open-in-their-closure
        m = build_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
        c = classify_subset(m, {"a", "c"})
        assert not c["locally_closed"]

    def test_unknown_point(self):
        with pytest.raises(UnknownPoint):
            classify_subset(sierpinski(), {"zz"})


class TestSubspace:
    """A convex subset's space comes from the covers inside it and equals the
    build that compares every pair of its points."""

    def test_equals_the_build_from_the_order(self):
        rng = Random(71)
        kinds = {"open": 0, "closed": 0, "locally closed": 0}
        for _ in range(300):
            m = random_poset(rng, 8, edge_prob=0.4)
            x, y = rng.choice(m.points), rng.choice(m.points)
            for kind, s in (("open", m.up_set(x)), ("closed", m.down_set(y)),
                            ("locally closed", m.up_set(x) & m.down_set(y))):
                pts = [p for p in m.points if p in s]
                sub, incl = subspace(m, s)
                assert sub == FinSpec.from_order(pts, m.le) == induced_subspace(m, s)
                assert sub.points == tuple(pts)
                assert incl.mapping == tuple(zip(pts, pts))
                kinds[kind] += len(s) > 1
        assert min(kinds.values()) >= 50

    def test_refuses_a_set_that_is_not_convex(self):
        m = build_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(SpaceError, match=r"^\['a', 'c'\] is not convex$"):
            subspace(m, {"a", "c"})
        with pytest.raises(UnknownPoint):
            subspace(m, {"zz"})
        assert subspace(m, set())[0].points == ()


class TestKrullDim:
    def test_examples(self):
        assert krull_dim(sierpinski()) == 1
        assert krull_dim(build_space(list("abcde"), [])) == 0
        chain = build_space(list("wxyz"), [("w", "x"), ("x", "y"), ("y", "z")])
        assert krull_dim(chain) == 3
        assert krull_dim(build_space([], [])) == -math.inf

    def test_height_20_ladder_without_its_chains(self):
        # the ladder has 3^20 - 1 strict chains; the covers alone give its height
        m = ladder(20)
        start = time.perf_counter()
        assert krull_dim(m) == 19
        assert time.perf_counter() - start < 0.5

    def test_equals_the_longest_strict_chain(self):
        rng = Random(44)
        for _ in range(60):
            m = shuffled_poset(rng, 8, rng.choice((0.2, 0.35, 0.6)))
            assert krull_dim(m) == max(len(c) for c in m.strict_chains()) - 1


def ladder(height):
    """Width-2 ladder: two points per level, each below both points above."""
    pts = [f"{c}{i}" for i in range(height) for c in "pq"]
    covers = [(f"{c}{i}", f"{d}{i + 1}")
              for i in range(height - 1) for c in "pq" for d in "pq"]
    return build_space(pts, covers)


def shuffled_poset(rng, max_points, edge_prob):
    """A random poset with its points renamed at random, so that its order
    need not follow the key order of the names."""
    m = random_poset(rng, max_points, edge_prob=edge_prob)
    names = list(m.points)
    rng.shuffle(names)
    rename = dict(zip(m.points, names))
    return build_space(names, [(rename[x], rename[y]) for x, y in m.covers])


def chains_oracle(m):
    """Every totally ordered subset of the key-sorted points, listed from
    its least point up, sorted by (length, keys)."""
    pts = sorted(m.points, key=_key)
    chains = []
    for n in range(1, len(pts) + 1):
        for s in combinations(pts, n):
            if all(m.le(x, y) or m.le(y, x) for x, y in combinations(s, 2)):
                chains.append(tuple(sorted(s, key=lambda x: len(m.down_set(x)))))
    return tuple(sorted(chains, key=lambda c: (len(c), tuple(_key(x) for x in c))))


class TestStrictChains:
    """strict_chains against a brute-force enumeration of its subsets."""

    def test_random_posets(self):
        rng = Random(71)
        for _ in range(80):
            m = shuffled_poset(rng, 7, rng.choice((0.2, 0.35, 0.6, 0.9)))
            assert m.strict_chains() == chains_oracle(m)
            assert chain_count(m) == len(m.strict_chains())

    def test_ladders(self):
        for height in range(1, 9):
            m = ladder(height)
            assert m.strict_chains() == chains_oracle(m)
            assert len(m.strict_chains()) == chain_count(m) == 3 ** height - 1

    def test_count_without_listing(self):
        m = ladder(20)
        start = time.perf_counter()
        assert chain_count(m) == 3 ** 20 - 1
        assert chain_count(build_space([], [])) == 0
        assert time.perf_counter() - start < 0.5

    def test_fiber_product_with_tuple_points(self):
        pt = build_space(["*"], [])
        f = MonotoneMap.constant(pseudo_circle(), pt, "*")
        p = MonotoneMap.constant(sierpinski(), pt, "*")
        w, _, _ = fiber_product(f, p)
        assert len(w.points) == 8 and all(isinstance(x, tuple) for x in w.points)
        assert w.strict_chains() == chains_oracle(w)

    def test_empty_space(self):
        m = build_space([], [])
        assert m.strict_chains() == chains_oracle(m) == ()


class TestFiberProduct:
    def test_disjoint_opens(self):
        m = sierpinski()
        u, ju = subspace(m, {"eta"})
        z, jz = subspace(m, {"s"})
        w, _, _ = fiber_product(ju, jz)
        assert w.points == ()

    def test_diagonal(self):
        m = sierpinski()
        idm = MonotoneMap.identity(m)
        w, p1, p2 = fiber_product(idm, idm)
        assert len(w.points) == 2
        assert krull_dim(w) == krull_dim(m)

    def test_antichain_over_point(self):
        ab = build_space(["a", "b"], [])
        pt = build_space(["*"], [])
        f = MonotoneMap.constant(ab, pt, "*")
        w, p1, _ = fiber_product(f, MonotoneMap.identity(pt))
        assert len(w.points) == 2 and krull_dim(w) == 0

    def test_universal_property_exhaustive(self):
        # over a family of small cospans, enumerate every cone (all pairs of
        # compatible maps from every shape) and check the mediating map into
        # the fiber product exists and is unique
        shapes = [
            build_space(["0"], []),
            build_space(["0", "1"], []),
            build_space(["0", "1"], [("0", "1")]),
            build_space(["0", "1", "2"], [("0", "1"), ("0", "2")]),
        ]
        cospans = []
        si = sierpinski()
        v = build_space(["m", "l", "r"], [("m", "l"), ("m", "r")])
        cospans.append((MonotoneMap(v, si, [("m", "s"), ("l", "eta"), ("r", "eta")]),
                        MonotoneMap.identity(si)))
        cospans.append((MonotoneMap(si, si, [("s", "s"), ("eta", "eta")]),
                        MonotoneMap(v, si, [("m", "s"), ("l", "s"), ("r", "eta")])))
        ab = build_space(["a", "b"], [])
        pt = build_space(["*"], [])
        cospans.append((MonotoneMap.constant(ab, pt, "*"),
                        MonotoneMap.constant(si, pt, "*")))
        for f, p in cospans:
            w, pr_x, pr_t = fiber_product(f, p)
            for cone_space in shapes:
                for q1 in _all_monotone(cone_space, f.source):
                    for q2 in _all_monotone(cone_space, p.source):
                        if any(f(q1(c)) != p(q2(c)) for c in cone_space.points):
                            continue
                        med = {c: (q1(c), q2(c)) for c in cone_space.points}
                        mm = MonotoneMap(cone_space, w, list(med.items()))
                        assert all(pr_x(mm(c)) == q1(c) for c in cone_space.points)
                        assert all(pr_t(mm(c)) == q2(c) for c in cone_space.points)
                        others = [v2 for v2 in _all_monotone(cone_space, w)
                                  if all(pr_x(v2(c)) == q1(c) and pr_t(v2(c)) == q2(c)
                                         for c in cone_space.points)]
                        assert len(others) == 1

    def test_dim_bound_sanity(self):
        rng = Random(12)
        for _ in range(20):
            s = random_poset(rng, 4)
            x = random_poset(rng, 4)
            t = random_poset(rng, 4)
            f = random_monotone_map(rng, x, s)
            p = random_monotone_map(rng, t, s)
            w, _, _ = fiber_product(f, p)
            if w.points:
                assert krull_dim(w) <= krull_dim(x) + krull_dim(t)


def _all_monotone(src, tgt):
    if not src.points:
        return [MonotoneMap(src, tgt, [])]
    out = []
    for images in product(tgt.points, repeat=len(src.points)):
        mapping = dict(zip(src.points, images))
        if all(tgt.le(mapping[a], mapping[b]) for a, b in src.covers):
            out.append(MonotoneMap(src, tgt, list(mapping.items())))
    return out


class TestAdmissibleOrder:
    def test_examples(self):
        assert [sorted(s) for s in admissible_order(sierpinski()).strata] == [["s"], ["eta"]]
        ab = build_space(["a", "b"], [])
        assert [sorted(s) for s in admissible_order(ab).strata] == [["a"], ["b"]]
        chain = build_space(["x", "y", "z"], [("x", "y"), ("y", "z")])
        assert [sorted(s) for s in admissible_order(chain).strata] == [["x"], ["y"], ["z"]]

    def test_prefixes_closed_and_singletons_locally_closed(self):
        rng = Random(13)
        for _ in range(40):
            m = random_poset(rng, 6)
            strat = admissible_order(m)
            prefix = set()
            for s in strat.strata:
                prefix |= s
                assert m.is_closed(prefix)
                assert classify_subset(m, s)["locally_closed"]


def reference_space(points, relations):
    """The definitions the one pass replaced, one traversal each: the
    closure by a depth-first search from every point, the Hasse covers by
    reduction over the up-sets, and the admissible order by repeated scans
    for the minimal points left, least by key first."""
    pts = sorted(points, key=_key)
    succ = {p: set() for p in pts}
    for x, y in relations:
        succ[x].add(y)
    up = {}
    for p in pts:
        seen, stack = {p}, [p]
        while stack:
            for q in succ[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        up[p] = frozenset(seen)
    down = {p: frozenset(q for q in pts if p in up[q]) for p in pts}
    covers = []
    for x in pts:
        above = up[x] - {x}
        covers += [(x, y) for y in above if not any(z != y and y in up[z] for z in above)]
    order, remaining = [], set(pts)
    while remaining:
        mins = [p for p in remaining if not any(q != p and q in remaining for q in down[p])]
        order.append(min(mins, key=_key))
        remaining.remove(order[-1])
    return (tuple(pts), tuple(sorted(covers, key=lambda e: (_key(e[0]), _key(e[1])))),
            up, down, order)


def chain_heights(m):
    """The length of the longest strict chain of m ending at each point."""
    height = dict.fromkeys(m.points, 0)
    for c in m.strict_chains():
        height[c[-1]] = max(height[c[-1]], len(c) - 1)
    return height


def comparable_pairs(m):
    return [(x, y) for x in m.points for y in m.points if x != y and m.le(x, y)]


class TestOnePass:
    """The space one pass builds against reference_space and the heights
    of its strict chains."""

    def check(self, m, points, relations):
        pts, covers, up, down, order = reference_space(points, relations)
        assert m.points == pts and m.covers == covers
        assert all(m.up_set(p) == up[p] and m.down_set(p) == down[p] for p in pts)
        assert [next(iter(s)) for s in admissible_order(m).strata] == order
        assert heights(m) == chain_heights(m)

    def test_random_posets(self):
        rng = Random(81)
        for _ in range(60):
            m = shuffled_poset(rng, 8, rng.choice((0.2, 0.35, 0.6)))
            points, covers = list(m.points), list(m.covers)
            rng.shuffle(points)
            rng.shuffle(covers)
            self.check(build_space(points, covers), points, covers)

    def test_every_comparable_pair(self):
        rng = Random(82)
        for _ in range(40):
            m = shuffled_poset(rng, 8, rng.choice((0.2, 0.35, 0.6)))
            points = list(m.points)
            rng.shuffle(points)
            self.check(FinSpec.from_order(points, m.le), points, comparable_pairs(m))

    def test_duplicate_and_transitive_relations(self):
        rng = Random(83)
        for _ in range(40):
            m = shuffled_poset(rng, 8, rng.choice((0.2, 0.35, 0.6)))
            pairs = comparable_pairs(m)
            relations = (list(m.covers) + rng.sample(pairs, len(pairs) // 2)
                         + rng.sample(pairs, len(pairs) // 3))
            rng.shuffle(relations)
            self.check(build_space(m.points, relations), m.points, relations)

    def test_fiber_products(self):
        rng = Random(84)
        for _ in range(30):
            s, x, t = (random_poset(rng, 4) for _ in range(3))
            f, p = random_monotone_map(rng, x, s), random_monotone_map(rng, t, s)
            w, _, _ = fiber_product(f, p)
            pairs = [(a, b) for a in w.points for b in w.points if a != b
                     and x.le(a[0], b[0]) and t.le(a[1], b[1])]
            self.check(w, w.points, pairs)


class TestFibersDiscrete:
    def test_examples(self):
        m = sierpinski()
        ab = build_space(["a", "b"], [])
        g = MonotoneMap(ab, m, [("a", "s"), ("b", "eta")])
        assert fibers_discrete(g)
        pt = build_space(["*"], [])
        assert not fibers_discrete(MonotoneMap.constant(m, pt, "*"))
        assert fibers_discrete(MonotoneMap.identity(m))


class TestMonotoneMap:
    def test_linear_on_a_2000_point_antichain(self):
        # the point sets are built once per map and calls read one dict
        # (quadratic before: 0.23 s for identity and 0.25 s for the calls)
        m = build_space([f"p{i}" for i in range(2000)], [])
        start = time.perf_counter()
        f = MonotoneMap.identity(m)
        assert all(f(x) == x for x in m.points)
        assert time.perf_counter() - start < 0.05

    def test_equality_and_hash_on_the_fields(self):
        m = sierpinski()
        f = MonotoneMap(m, m, [("s", "s"), ("eta", "eta")])
        g = MonotoneMap(m, m, [("eta", "eta"), ("s", "s")])
        assert f == g and hash(f) == hash(g) and f == MonotoneMap.identity(m)
        assert f != MonotoneMap.constant(m, m, "eta") and f("s") == "s"
        assert "_images" not in repr(f)
        with pytest.raises(UnknownPoint):
            MonotoneMap(m, m, [("s", "s"), ("eta", "x")])


class TestBooleanAlgebra:
    def test_up_sets_generate_power_set(self):
        # every subset is a boolean combination of basic opens, checked
        # exhaustively: points are separated by their basic-open fingerprints
        rng = Random(14)
        for _ in range(30):
            m = random_poset(rng, 6)
            algebra = {frozenset(m.points), frozenset()}
            for p in m.points:
                algebra.add(m.up_set(p))
            # close under the operations
            while True:
                new = set()
                for a in algebra:
                    new.add(frozenset(m.points) - a)
                    for b in algebra:
                        new.add(a | b)
                        new.add(a & b)
                if new <= algebra:
                    break
                algebra |= new
            assert algebra == set(_subsets(m.points))


class TestStratification:
    def test_rejects_non_closed_prefix(self):
        m = sierpinski()
        with pytest.raises(Exception):
            Stratification(m, (frozenset({"eta"}), frozenset({"s"})))
        Stratification(m, (frozenset({"s"}), frozenset({"eta"})))
