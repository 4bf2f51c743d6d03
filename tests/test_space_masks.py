"""The bit-mask space pass against the frozenset pass it replaced.

``frozenset_space`` keeps the frozenset code verbatim.  On every case both
sides must agree on the points, covers, admissible order, heights, up- and
down-sets, ``covers_upward``, ``lower_covers``, ``strict_chains``,
``chain_count``, ``_chain_matching``'s (order, below, partner, critical),
the flags of random subsets and the verdict and message on random strata;
on bad input, on the error class and message.  No mismatch is allowed.

The cases, from ``Random(SEED)``: 300 ``random_poset`` draws of 1-14
points given through their covers and a shuffled listing with extra
transitive and repeated relations, 200 shuffled relation sets of up to 14
points with shuffled names, ladders of height 2-8, ``fan(3, 3)``, the
empty space, points with tied keys and tuple points; and 400 bad inputs.

Where two points tie in key (1 and "1"), the reference lists the points
above a point in the iteration order of a frozenset, which follows string
hashes, so there the strict chains are compared as sets.
"""

import string
from random import Random

import pytest

import frozenset_space as ref
from sheafkit.randgen import random_poset
from sheafkit.sheaf import _chain_matching
from sheafkit.space import (
    CycleDetected, FinSpec, Stratification, chain_count, classify_subset, heights,
)

SEED = 35


def ladder(height):
    pts = [f"{c}{i}" for i in range(height) for c in "pq"]
    covers = [(f"{c}{i}", f"{d}{i + 1}")
              for i in range(height - 1) for c in "pq" for d in "pq"]
    return pts, covers


def fan(width, height):
    chains = [[f"{c}{i}" for i in range(1, height + 1)] for c in "abcdefgh"[:width]]
    covers = [(x, y) for ch in chains for x, y in zip(["x"] + ch, ch + ["z"])]
    return ["x", "z"] + [p for ch in chains for p in ch], covers


def with_extras(rng, points, covers):
    """points and covers shuffled, with some transitive and repeated
    relations added."""
    m = FinSpec(points, covers)
    extra = [(x, y) for x in m.points for y in m.up_set(x)
             if x != y and rng.random() < 0.3]
    rels = list(covers) + extra + rng.sample(list(covers), min(2, len(covers)))
    rng.shuffle(rels)
    pts = list(points)
    rng.shuffle(pts)
    return pts, rels


def shuffled_relations(rng):
    """A random order on up to 14 points with shuffled names, given by a
    random set of its relations."""
    n = rng.randint(0, 14)
    names = rng.sample(string.ascii_letters, n)
    rels = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.3]
    rng.shuffle(rels)
    return names, rels


def cases():
    rng = Random(SEED)
    out = []
    for _ in range(300):
        m = random_poset(rng, 14, edge_prob=rng.choice([0.1, 0.25, 0.4]))
        out.append((m.points, m.covers))
        out.append(with_extras(rng, m.points, m.covers))
    out += [shuffled_relations(rng) for _ in range(200)]
    out += [ladder(h) for h in range(2, 9)]
    out += [fan(3, 3), ([], [])]
    return out


TIED = [
    ([1, "1", "0", 0, "2"], [("0", 1), (0, "1"), (1, "2"), ("1", "2"), ("0", "1")]),
    (["1", 1, "a"], [(1, "a"), ("1", "a")]),
    ([1, "1", "b"], [("b", 1), ("b", "1")]),
    (["b", 1, "a", "1"], [("a", 1), ("a", "1"), ("b", 1), ("b", "1")]),
    ([("a", 1), ("a", "1"), "a", ("b",), (("a",), "c")],
     [("a", ("a", 1)), ("a", ("a", "1")), (("a", 1), ("b",)), (("a", "1"), ("b",)),
      (("b",), (("a",), "c")), ("a", (("a",), "c"))]),
]


def random_subset(rng, points):
    return [p for p in points if rng.random() < 0.4]


def random_strata(rng, old):
    """Strata that pass or fail each check: consecutive blocks of the
    admissible order as they are or shuffled, or with one block emptied,
    dropped, or added holding a repeated or an unknown point."""
    order = list(old._order)
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, max(len(order) - 1, 0)))
                  if len(order) > 1 else [])
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])]
    kind = rng.randrange(6)
    if kind == 1:
        rng.shuffle(blocks)
    elif kind == 2 and blocks:
        blocks[rng.randrange(len(blocks))] = []
    elif kind == 3 and len(order) > 1:
        blocks.append([rng.choice(order)])
    elif kind == 4:
        blocks.append(["not a point"])
    elif kind == 5 and blocks:
        blocks.pop(rng.randrange(len(blocks)))
    return tuple(blocks)


def outcome(build):
    try:
        return ("ok", build())
    except Exception as e:  # compared by class name and message
        return (type(e).__name__, str(e))


def compare(points, covers, rng, ties=False):
    new, old = FinSpec(points, covers), ref.FinSpec(points, covers)
    assert new.points == old.points
    assert new.covers == old.covers
    assert tuple(new.points[i] for i in new._order) == old._order
    assert heights(new) == old._height
    for p in new.points:
        assert new.up_set(p) == old.up_set(p)
        assert new.down_set(p) == old.down_set(p)
        assert new.lower_covers(p) == old.lower_covers(p)
        for q in new.points:
            assert new.le(p, q) == old.le(p, q)
    assert new.covers_upward() == old.covers_upward()
    if ties:
        assert set(new.strict_chains()) == set(old.strict_chains())
        assert len(new.strict_chains()) == len(old.strict_chains())
    else:
        assert new.strict_chains() == old.strict_chains()
    assert chain_count(new) == ref.chain_count(old)
    for _ in range(3):
        tops = set(random_subset(rng, new.points))
        assert _chain_matching(new, tops) == ref._chain_matching(old, tops)
    for _ in range(10):
        s = random_subset(rng, new.points)
        assert classify_subset(new, s) == ref.classify_subset(old, s)
        assert new.is_open(s) == old.is_open(s) and new.is_closed(s) == old.is_closed(s)
    for _ in range(10):
        strata = random_strata(rng, old)
        got = outcome(lambda: Stratification(new, strata).strata)
        want = outcome(lambda: ref.Stratification(old, strata).strata)
        assert got == want
    return new


def test_spaces_match_the_frozenset_pass():
    rng = Random(SEED + 1)
    accepted = set()
    for points, covers in cases():
        m = compare(points, covers, rng)
        accepted.add(len(m.points))
    assert set(range(15)) <= accepted


@pytest.mark.parametrize("points, covers", TIED)
def test_tied_keys_and_tuple_points_match(points, covers):
    rng = Random(SEED)
    for _ in range(5):
        pts, rels = list(points), list(covers)
        rng.shuffle(pts)
        rng.shuffle(rels)
        compare(pts, rels, rng, ties=True)


def bad_inputs(rng):
    """Duplicate points, unknown points, x<x and cycles among good
    relations, in a random listing."""
    for _ in range(400):
        pts, rels = shuffled_relations(rng)
        if not pts:
            continue
        kind = rng.randrange(4)
        if kind == 0:
            pts.append(rng.choice(pts))
        elif kind == 1:
            rels.insert(rng.randrange(len(rels) + 1), (rng.choice(pts), "?"))
        elif kind == 2:
            p = rng.choice(pts)
            rels.insert(rng.randrange(len(rels) + 1), (p, p))
        else:
            cyc = rng.sample(pts, rng.randint(1, min(4, len(pts))))
            rels += list(zip(cyc, cyc[1:] + cyc[:1]))
            rng.shuffle(rels)
        rng.shuffle(pts)
        yield pts, rels


def test_errors_match_the_frozenset_pass():
    rng = Random(SEED + 2)
    seen = set()
    for pts, rels in bad_inputs(rng):
        got = outcome(lambda: FinSpec(pts, rels).covers)
        assert got == outcome(lambda: ref.FinSpec(pts, rels).covers)
        seen.add(got[0])
        if got[0] == "CycleDetected":
            with pytest.raises(CycleDetected) as e:
                FinSpec(pts, rels)
            c = e.value.cycle
            # the walk's points form a cycle of given relations, the first named
            assert all((c[a], c[a - 1]) in rels for a in range(len(c)))
            assert repr(c[0]) in str(e.value)
    assert {"DuplicatePoint", "UnknownPoint", "CycleDetected"} <= seen
