"""The frozenset space pass, kept as the reference for the bit-mask one.

``FinSpec``, ``Stratification``, ``classify_subset``, ``chain_count``,
``_check_chain_budget``, ``_bits`` and ``_chain_matching`` below are the
code of ``sheafkit.space`` and ``sheafkit.sheaf`` as it was before subsets
became int bit masks, verbatim.  The exceptions are this module's own, with
the same names, so a test compares them by class name and message.
``tests/test_space_masks.py`` compares the two.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from sheafkit.sheaf import MAX_CHAINS, SheafError
from sheafkit.space import _key


class SpaceError(Exception):
    pass


class CycleDetected(SpaceError):
    pass


class DuplicatePoint(SpaceError):
    pass


class UnknownPoint(SpaceError):
    pass


class FinSpec:
    """A finite poset regarded as a finite spectral space.

    One pass of Kahn's algorithm over the given relations builds it.  A
    point is ready once its given predecessors are all listed, and the
    ready point least by key is listed next, so the pass lists the points
    in the admissible order.  A point gets its down-set, its height (the
    longest path of given relations below it, which is the longest strict
    chain) and its Hasse covers (the given relations into it that no other
    given relation into it passes over) when it becomes ready.  Points
    whose keys tie are taken in input order."""

    __slots__ = ("points", "covers", "_up", "_down", "_order", "_height",
                 "_chains", "_upward", "_lower")

    def __init__(self, points, covers):
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise DuplicatePoint("duplicate point identifiers")
        by_key = sorted(pts, key=_key)  # stable, so ties of key keep input order
        rank = {p: i for i, p in enumerate(by_key)}
        below = {p: set() for p in pts}  # p -> the given predecessors of p
        above = {p: set() for p in pts}
        for x, y in covers:
            if x not in rank or y not in rank:
                raise UnknownPoint(f"relation {x!r}<{y!r} mentions an unknown point")
            if x == y:
                raise CycleDetected(f"{x!r} < {x!r}")
            below[y].add(x)
            above[x].add(y)
        waiting = {p: len(below[p]) for p in pts}
        minimal = [p for p in pts if not waiting[p]]
        strict = dict.fromkeys(minimal, frozenset())  # p -> the points strictly below p
        down = {p: frozenset((p,)) for p in minimal}
        height = dict.fromkeys(minimal, 0)
        ready = sorted(rank[p] for p in minimal)  # a heap of ranks
        order, hasse = [], []
        while ready:
            y = by_key[heapq.heappop(ready)]
            order.append(y)
            for z in above[y]:
                waiting[z] -= 1
                if waiting[z]:
                    continue
                preds = below[z]
                strict[z] = frozenset().union(*map(down.__getitem__, preds))
                down[z] = strict[z].union((z,))
                height[z] = max(map(height.__getitem__, preds)) + 1
                # a given predecessor strictly below another is no cover
                hasse += [(x, z) for x in preds.difference(*map(strict.__getitem__, preds))]
                heapq.heappush(ready, rank[z])
        if len(order) < len(pts):
            # every point left has a point left below it: walk down from
            # the least one until a point repeats, which lies on a cycle
            z = min((p for p in pts if p not in down), key=rank.__getitem__)
            seen = set()
            while z not in seen:
                seen.add(z)
                z = min((x for x in below[z] if x not in down), key=rank.__getitem__)
            raise CycleDetected(f"cycle through {z!r}")
        up = {}
        for y in reversed(order):
            up[y] = frozenset().union(*map(up.__getitem__, above[y])).union((y,))
        self.points = tuple(by_key)
        self.covers = tuple(sorted(hasse, key=lambda e: (rank[e[0]], rank[e[1]])))
        self._up = up
        self._down = down
        self._order = tuple(order)
        self._height = height
        self._chains = None
        self._upward = None
        self._lower = None

    @classmethod
    def from_order(cls, points, leq):
        """Build from a comparison function leq(x, y)."""
        pts = list(points)
        covers = [(x, y) for x in pts for y in pts if x != y and leq(x, y)]
        return cls(pts, covers)

    def le(self, x, y) -> bool:
        return y in self._up[x]

    def up_set(self, x) -> frozenset:
        """The minimal open around x."""
        return self._up[x]

    def down_set(self, x) -> frozenset:
        """The closure of {x}."""
        return self._down[x]

    def is_empty(self) -> bool:
        return not self.points

    def check_subset(self, s):
        s = frozenset(s)
        unknown = s - set(self.points)
        if unknown:
            raise UnknownPoint(f"unknown points {sorted(unknown, key=_key)}")
        return s

    def is_open(self, s) -> bool:
        s = self.check_subset(s)
        return all(self._up[x] <= s for x in s)

    def is_closed(self, s) -> bool:
        s = self.check_subset(s)
        return all(self._down[x] <= s for x in s)

    def closure(self, s) -> frozenset:
        s = self.check_subset(s)
        out = set()
        for x in s:
            out |= self._down[x]
        return frozenset(out)

    def covers_upward(self):
        """The covers (w, z) in a linear extension of their tops z, the
        covers into one z in key order of w; built once."""
        if self._upward is None:
            # w < z implies a smaller down-set
            self._upward = sorted(self.covers, key=lambda e: (len(self._down[e[1]]), _key(e[1])))
        return self._upward

    def lower_covers(self, z) -> list:
        """The points that z covers, in the order of covers_upward; built
        once for every z."""
        if self._lower is None:
            lower = {p: [] for p in self.points}
            for w, y in self.covers_upward():
                lower[y].append(w)
            self._lower = lower
        return self._lower[z]

    def strict_chains(self):
        """All nonempty strict chains x_0 < ... < x_n, in (length, keys) order.

        Built one length at a time: the chains of length n + 1 extend those
        of length n, each in order, by the points above its top in key
        order.  Two chains with different prefixes compare by their prefixes,
        so a sorted level extends to a sorted level and no sort is needed."""
        if self._chains is None:
            strictly_above = {p: sorted((q for q in self._up[p] if q != p), key=_key)
                              for p in self.points}
            level = [(p,) for p in self.points]
            chains = []
            while level:
                chains += level
                level = [c + (q,) for c in level for q in strictly_above[c[-1]]]
            self._chains = tuple(chains)
        return self._chains

    def __eq__(self, other):
        return (isinstance(other, FinSpec) and self.points == other.points
                and self.covers == other.covers)

    def __hash__(self):
        return hash((self.points, self.covers))

    def __repr__(self):
        return f"FinSpec(points={list(self.points)}, covers={list(self.covers)})"



@dataclass(frozen=True)
class Stratification:
    """Ordered disjoint locally closed strata covering the space.

    The union of any prefix is closed, so the strata are listed from the most
    special layer upward.
    """

    space: FinSpec
    strata: tuple

    def __post_init__(self):
        seen = set()
        prefix = set()
        for s in self.strata:
            s = self.space.check_subset(s)
            if not s or s & seen:
                raise SpaceError("strata must be nonempty and disjoint")
            seen |= s
            prefix |= s
            if not self.space.is_closed(prefix):
                raise SpaceError("prefix union is not closed")
        if seen != set(self.space.points):
            raise SpaceError("strata do not cover the space")
        for s in self.strata:
            if not classify_subset(self.space, s)["locally_closed"]:
                raise SpaceError(f"stratum {sorted(s, key=_key)} is not locally closed")


def classify_subset(m: FinSpec, s) -> dict:
    """Flags {open, closed, locally_closed} of a subset.

    Locally closed means open inside its closure.
    """
    s = m.check_subset(s)
    cl = m.closure(s)
    locally_closed = all(
        y in s
        for x in s
        for y in cl
        if m.le(x, y)
    )
    return {
        "open": m.is_open(s),
        "closed": m.is_closed(s),
        "locally_closed": locally_closed,
    }



def chain_count(m: FinSpec) -> int:
    """The number of nonempty strict chains of m, counted without listing
    any: the chains with top x number c(x) = 1 + the sum of c(y) over the
    points y < x, taken along the order of the pass that built m."""
    c = {}
    for x in m._order:
        c[x] = 1 + sum(c[y] for y in m._down[x] if y != x)
    return sum(c.values())



def _check_chain_budget(m: FinSpec):
    """SheafError when m has more than MAX_CHAINS strict chains."""
    n = chain_count(m)
    if n > MAX_CHAINS:
        raise SheafError(f"{n} strict chains above the chain budget of {MAX_CHAINS}")



def _bits(mask):
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _chain_matching(m: FinSpec, tops):
    """The Morse matching of ``rgamma_reduced`` on the strict chains of m
    whose top lies in tops, as (order, below, partner, critical).

    order is the linear extension of the points by (down-set size, key).
    A chain is the bit mask of its points' places in order, so its top is
    its highest bit, and below[a] is the mask of the points below
    order[a].  For each top x, and for each v below x in order, a chain s
    is paired with s + v when both are chains with top x and neither is
    paired yet.  partner maps each paired chain to the other one of its
    pair; critical lists the unpaired chains by top, then by mask.  Every
    chain is listed, so a space with more than MAX_CHAINS strict chains is
    refused first.
    """
    _check_chain_budget(m)
    order = sorted(m.points, key=lambda p: (len(m.down_set(p)), _key(p)))
    pos = {p: a for a, p in enumerate(order)}
    below = [sum(1 << pos[w] for w in m.down_set(p) if w != p) for p in order]
    ending, partner, critical = [], {}, []
    for t, x in enumerate(order):
        top = 1 << t
        own = [top] + [c | top for b in _bits(below[t]) for c in ending[b]]
        ending.append(own)
        if x not in tops:
            continue
        left = set(own)
        for v in _bits(below[t]):
            vb = 1 << v
            # the pairs of one v are disjoint: s lacks v and s + v has it
            for s in [s for s in left if not s & vb and s | vb in left]:
                left -= {s, s | vb}
                partner[s], partner[s | vb] = s | vb, s
        critical.extend(sorted(left))
    return order, below, partner, critical
