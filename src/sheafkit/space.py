"""Finite spectral spaces as finite posets under specialization.

The order convention throughout: x <= y means x lies in the closure of {y}
(x is the more special point).  Open sets are then exactly the up-sets and
closed sets the down-sets; the minimal open neighbourhood of x is the
up-set of x.  Continuous maps correspond to monotone maps.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field


class SpaceError(Exception):
    pass


class CycleDetected(SpaceError):
    pass


class DuplicatePoint(SpaceError):
    pass


class UnknownPoint(SpaceError):
    pass


class NotTotal(SpaceError):
    """A map leaves points of its source without an image."""


def _key(p):
    """Deterministic sort key for point identifiers (strings or nested tuples)."""
    if type(p) is str:
        return (0, p)
    if isinstance(p, tuple):
        return (1, tuple(_key(q) for q in p))
    return (0, str(p))


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


def build_space(points, covers) -> FinSpec:
    """Validated FinSpec; rejects cycles and duplicate identifiers."""
    return FinSpec(points, covers)


@dataclass(frozen=True, eq=False, repr=False)
class MonotoneMap:
    """An order-preserving (= continuous) map of finite spectral spaces.

    The map is held as one dict; the (point, image) pairs of ``mapping`` are
    listed only when asked for, so building and calling a map allocates no
    pair per point."""

    source: FinSpec
    target: FinSpec
    _images: dict = field(repr=False)  # point -> image

    def __init__(self, source, target, mapping):
        items = dict(mapping)
        points, targets = set(source.points), set(target.points)
        missing = points.difference(items)
        if missing:
            raise NotTotal(f"map not total: missing {sorted(missing, key=_key)}")
        for x, fx in items.items():
            if x not in points:
                raise UnknownPoint(f"unknown source point {x!r}")
            if fx not in targets:
                raise UnknownPoint(f"unknown target point {fx!r}")
        for x, y in source.covers:
            if not target.le(items[x], items[y]):
                raise SpaceError(f"not monotone on {x!r} < {y!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_images", items)

    @property
    def mapping(self) -> tuple:
        """The (point, image) pairs in the order of ``source.points``."""
        return tuple((p, self._images[p]) for p in self.source.points)

    def __eq__(self, other):
        return (isinstance(other, MonotoneMap) and self.source == other.source
                and self.target == other.target and self._images == other._images)

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __repr__(self):
        return (f"MonotoneMap(source={self.source!r}, target={self.target!r}, "
                f"mapping={self.mapping!r})")

    def __call__(self, x):
        return self._images[x]

    @classmethod
    def identity(cls, m: FinSpec):
        return cls(m, m, zip(m.points, m.points))

    @classmethod
    def constant(cls, m: FinSpec, target: FinSpec, value):
        return cls(m, target, dict.fromkeys(m.points, value))

    def preimage(self, s) -> frozenset:
        s = self.target.check_subset(s)
        return frozenset(x for x, fx in self._images.items() if fx in s)

    def fiber(self, q) -> frozenset:
        return self.preimage({q})


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


def heights(m: FinSpec) -> dict:
    """The length of the longest strict chain ending at each point, as the
    pass that built m stored it; the dict is m's own, for reading."""
    return m._height


def chain_count(m: FinSpec) -> int:
    """The number of nonempty strict chains of m, counted without listing
    any: the chains with top x number c(x) = 1 + the sum of c(y) over the
    points y < x, taken along the order of the pass that built m."""
    c = {}
    for x in m._order:
        c[x] = 1 + sum(c[y] for y in m._down[x] if y != x)
    return sum(c.values())


def krull_dim(m: FinSpec):
    """Length of the longest strict chain, the greatest stored height;
    -inf for the empty space.  No chain is enumerated."""
    return max(heights(m).values(), default=-math.inf)


def fiber_product(f: MonotoneMap, p: MonotoneMap):
    """The fiber product X x_S T with its two projections.

    Points are pairs with equal image under f and p, ordered componentwise;
    this is the topological fiber product of the associated spaces.
    """
    if f.target != p.target:
        raise SpaceError("fiber product needs a common target")
    pts = [(x, t) for x in f.source.points for t in p.source.points
           if f(x) == p(t)]
    w = FinSpec.from_order(pts, lambda a, b: f.source.le(a[0], b[0]) and p.source.le(a[1], b[1]))
    pr_x = MonotoneMap(w, f.source, [(q, q[0]) for q in w.points])
    pr_t = MonotoneMap(w, p.source, [(q, q[1]) for q in w.points])
    return w, pr_x, pr_t


def admissible_order(m: FinSpec) -> Stratification:
    """Singleton stratification along a linear extension (most special first).

    The extension is the order of the pass that built m: at each step the
    point least by key among those whose points below are all listed, so
    the output is reproducible.
    """
    return Stratification(m, tuple(frozenset({x}) for x in m._order))


def fibers_discrete(f: MonotoneMap) -> bool:
    """True when every fiber is an antichain."""
    for q in f.target.points:
        fib = sorted(f.fiber(q), key=_key)
        for i, x in enumerate(fib):
            for y in fib[i + 1:]:
                if f.source.le(x, y) or f.source.le(y, x):
                    return False
    return True


def induced_subspace(m: FinSpec, s) -> FinSpec:
    """The induced poset on a convex subset s: with x <= z <= y in m and x,
    y in s, z is in s too.  Open, closed and locally closed sets are convex.
    The covers of m inside a convex s are the covers of the induced order,
    so the space is built from them and no pair of points is compared.
    SpaceError for a subset that is not convex."""
    s = m.check_subset(s)
    between = m.closure(s) - s  # the points below s and outside it
    if any(m.up_set(x) & between for x in s):
        raise SpaceError(f"{sorted(s, key=_key)} is not convex")
    return FinSpec([p for p in m.points if p in s],
                   [(x, y) for x, y in m.covers if x in s and y in s])


def subspace(m: FinSpec, s):
    """The induced poset on a convex subset (``induced_subspace``) with its
    inclusion map."""
    sub = induced_subspace(m, s)
    return sub, MonotoneMap(sub, m, zip(sub.points, sub.points))
