"""Finite spectral spaces as finite posets under specialization.

The order convention throughout: x <= y means x lies in the closure of {y}
(x is the more special point).  Open sets are then exactly the up-sets and
closed sets the down-sets; the minimal open neighbourhood of x is the
up-set of x.  Continuous maps correspond to monotone maps.

Inside this module a subset of a space is an int bit mask: bit i stands
for the point of place i in key order, ``points[i]``.  A space keeps the
up-set and down-set mask of each point, so openness, closedness, local
closedness, convexity and the monotonicity of a map are unions and tests
of masks.  ``up_set`` and ``down_set`` decode a point's mask to a
frozenset on first request and keep it; every subset a public function
takes or returns is a frozenset or any iterable of points.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field


class SpaceError(Exception):
    pass


class CycleDetected(SpaceError):
    """A relation x < x, or a cycle of relations.  ``cycle`` lists the
    cycle's points in the order of the walk that found it, each given as
    below the one before and the first below the last; (x,) for x < x."""

    def __init__(self, message, cycle):
        super().__init__(message)
        self.cycle = tuple(cycle)


class DuplicatePoint(SpaceError):
    pass


class UnknownPoint(SpaceError):
    pass


class NotTotal(SpaceError):
    """A map leaves points of its source without an image."""


class NotMonotone(SpaceError):
    """A map sends the relation x < y of its source to no relation;
    ``relation`` is (x, y)."""

    def __init__(self, message, relation):
        super().__init__(message)
        self.relation = relation


def _key(p):
    """Deterministic sort key for point identifiers (strings or nested tuples)."""
    if type(p) is str:
        return (0, p)
    if isinstance(p, tuple):
        return (1, tuple(_key(q) for q in p))
    return (0, str(p))


def _bits(mask):
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinSpec:
    """A finite poset regarded as a finite spectral space.

    A subset is held as an int bit mask: bit i stands for points[i], the
    point of place i in key order.  The space keeps the up-set and the
    down-set mask of every point, by place; ``up_set`` and ``down_set``
    decode a mask to a frozenset once per point, on first request.

    One pass of Kahn's algorithm over the given relations builds it.  A
    point is ready once its given predecessors are all listed, and the
    ready point least by key is listed next, so the pass lists the points
    in the admissible order.  A point gets its down-set (the union of
    those of its given predecessors), its height (the longest path of
    given relations below it, which is the longest strict chain) and its
    Hasse covers (the given predecessors below no other one) when it
    becomes ready.  Points whose keys tie are taken in input order."""

    __slots__ = ("points", "covers", "_rank", "_up", "_down", "_upsets", "_downsets",
                 "_order", "_height", "_chains", "_upward", "_lower")

    def __init__(self, points, covers):
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise DuplicatePoint("duplicate point identifiers")
        by_key = sorted(pts, key=_key)  # stable, so ties of key keep input order
        rank = {p: i for i, p in enumerate(by_key)}
        n = len(by_key)
        below = [0] * n  # place -> the mask of its given predecessors
        preds = [[] for _ in range(n)]  # the same places, listed
        succs = [[] for _ in range(n)]
        for x, y in covers:
            if x not in rank or y not in rank:
                raise UnknownPoint(f"relation {x!r}<{y!r} mentions an unknown point")
            if x == y:
                raise CycleDetected(f"{x!r} < {x!r}", (x,))
            i, j = rank[x], rank[y]
            if not below[j] >> i & 1:
                below[j] |= 1 << i
                preds[j].append(i)
                succs[i].append(j)
        waiting = list(map(len, preds))
        down = [1 << i for i in range(n)]
        height = [0] * n
        ready = [i for i in range(n) if not below[i]]  # ascending, so a heap
        order, hasse = [], []
        while ready:
            y = heapq.heappop(ready)
            order.append(y)
            for z in succs[y]:
                waiting[z] -= 1
                if waiting[z]:
                    continue
                s = passed = 0  # passed: the points strictly below a predecessor
                for x in preds[z]:
                    s |= down[x]
                    passed |= down[x] ^ 1 << x
                down[z] |= s
                height[z] = max(map(height.__getitem__, preds[z])) + 1
                # a given predecessor strictly below another is no cover
                hasse += [(x, z) for x in preds[z] if not passed >> x & 1]
                heapq.heappush(ready, z)
        if len(order) < n:
            # every point left has a point left below it: walk down from
            # the least one until a point repeats, which closes a cycle
            left = (1 << n) - 1
            for y in order:
                left ^= 1 << y
            z, walk, seen = next(_bits(left)), [], 0
            while not seen >> z & 1:
                seen |= 1 << z
                walk.append(z)
                z = next(_bits(below[z] & left))
            raise CycleDetected(f"cycle through {by_key[z]!r}",
                                (by_key[i] for i in walk[walk.index(z):]))
        up = [1 << i for i in range(n)]
        for y in reversed(order):
            u = up[y]
            for z in succs[y]:
                u |= up[z]
            up[y] = u
        self.points = tuple(by_key)
        self.covers = tuple((by_key[x], by_key[y]) for x, y in sorted(hasse))
        self._rank = rank
        self._up = up
        self._down = down
        self._upsets, self._downsets = {}, {}  # point -> its decoded up- or down-set
        self._order = order
        self._height = dict(zip(by_key, height))
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
        rank = self._rank
        return self._up[rank[x]] >> rank[y] & 1 == 1

    def _set(self, mask) -> frozenset:
        """The points of mask."""
        return frozenset(map(self.points.__getitem__, _bits(mask)))

    def _decoded(self, sets, masks, x) -> frozenset:
        """The set of masks[place of x], decoded once into the dict sets."""
        got = sets.get(x)
        if got is None:
            got = sets[x] = self._set(masks[self._rank[x]])
        return got

    def up_set(self, x) -> frozenset:
        """The minimal open around x."""
        return self._decoded(self._upsets, self._up, x)

    def down_set(self, x) -> frozenset:
        """The closure of {x}."""
        return self._decoded(self._downsets, self._down, x)

    def is_empty(self) -> bool:
        return not self.points

    def check_subset(self, s):
        s = frozenset(s)
        unknown = s.difference(self._rank)
        if unknown:
            raise UnknownPoint(f"unknown points {sorted(unknown, key=_key)}")
        return s

    def _mask(self, s) -> int:
        """The mask of the subset s; UnknownPoint as check_subset."""
        rank, mask = self._rank, 0
        for x in self.check_subset(s):
            mask |= 1 << rank[x]
        return mask

    def _hull(self, masks, mask) -> int:
        """The union of masks[i] over the points i of mask: its up-set
        for masks = self._up, its closure for self._down."""
        out = 0
        for i in _bits(mask):
            out |= masks[i]
        return out

    def is_open(self, s) -> bool:
        mask = self._mask(s)
        return self._hull(self._up, mask) == mask

    def is_closed(self, s) -> bool:
        mask = self._mask(s)
        return self._hull(self._down, mask) == mask

    def covers_upward(self):
        """The covers (w, z) in a linear extension of their tops z, the
        covers into one z in key order of w; built once."""
        if self._upward is None:
            # w < z implies a smaller down-set
            rank, down = self._rank, self._down
            self._upward = sorted(self.covers,
                                  key=lambda e: (down[rank[e[1]]].bit_count(), _key(e[1])))
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
        """All nonempty strict chains x_0 < ... < x_n, by length and then by
        the places of their points, compared in order; places are in key
        order, and points with tied keys keep their input order.

        Built one length at a time: the chains of length n + 1 extend those
        of length n, each in order, by the points above its top in place
        order.  Two chains with different prefixes compare by their prefixes,
        so a sorted level extends to a sorted level and no sort is needed."""
        if self._chains is None:
            pts = self.points
            strictly_above = {p: [pts[i] for i in _bits(u ^ 1 << j)]
                              for j, (p, u) in enumerate(zip(pts, self._up))}
            level = [(p,) for p in pts]
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

    The map is held as one dict, and as the target place of the image of
    each source point, by place; the (point, image) pairs of ``mapping``
    are listed only when asked for, so building and calling a map
    allocates no pair per point."""

    source: FinSpec
    target: FinSpec
    _images: dict = field(repr=False)  # point -> image
    _places: tuple = field(repr=False)  # source place -> target place of its image

    def __init__(self, source, target, mapping):
        items = dict(mapping)
        srank, trank = source._rank, target._rank
        missing = [p for p in source.points if p not in items]
        if missing:
            raise NotTotal(f"map not total: missing {missing}")
        for x, fx in items.items():
            if x not in srank:
                raise UnknownPoint(f"unknown source point {x!r}")
            if fx not in trank:
                raise UnknownPoint(f"unknown target point {fx!r}")
        places = tuple(trank[items[p]] for p in source.points)
        up = target._up
        for x, y in source.covers:
            if not up[places[srank[x]]] >> places[srank[y]] & 1:
                raise NotMonotone(f"not monotone on {x!r} < {y!r}", (x, y))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_images", items)
        object.__setattr__(self, "_places", places)

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

    def _preimage_mask(self, mask) -> int:
        """The source mask of the preimage of a target mask."""
        out = 0
        for i, t in enumerate(self._places):
            if mask >> t & 1:
                out |= 1 << i
        return out

    def preimage(self, s) -> frozenset:
        return self.source._set(self._preimage_mask(self.target._mask(s)))


@dataclass(frozen=True)
class Stratification:
    """Ordered disjoint locally closed strata covering the space.

    The union of any prefix is closed, so the strata are listed from the most
    special layer upward.
    """

    space: FinSpec
    strata: tuple

    def __post_init__(self):
        m = self.space
        masks = []
        seen = 0  # the prefix union, closed at the start of each step
        for s in self.strata:
            mask = m._mask(s)
            if not mask or mask & seen:
                raise SpaceError("strata must be nonempty and disjoint")
            seen |= mask
            if m._hull(m._down, mask) & ~seen:
                raise SpaceError("prefix union is not closed")
            masks.append(mask)
        if seen != (1 << len(m.points)) - 1:
            raise SpaceError("strata do not cover the space")
        for s, mask in zip(self.strata, masks):
            if not _classify(m, mask)["locally_closed"]:
                raise SpaceError(f"stratum {sorted(s, key=_key)} is not locally closed")


def _classify(m: FinSpec, mask) -> dict:
    """classify_subset on the subset of a mask."""
    up, cl = m._hull(m._up, mask), m._hull(m._down, mask)
    return {"open": up == mask, "closed": cl == mask,
            "locally_closed": not up & cl & ~mask}


def classify_subset(m: FinSpec, s) -> dict:
    """Flags {open, closed, locally_closed} of a subset.

    Locally closed means open inside its closure: the points above s that
    lie in its closure all lie in s.
    """
    return _classify(m, m._mask(s))


def heights(m: FinSpec) -> dict:
    """The length of the longest strict chain ending at each point, as the
    pass that built m stored it; the dict is m's own, for reading."""
    return m._height


def chain_count(m: FinSpec) -> int:
    """The number of nonempty strict chains of m, counted without listing
    any: the chains with top x number c(x) = 1 + the sum of c(y) over the
    points y < x, taken along the order of the pass that built m."""
    c = [0] * len(m.points)
    for x in m._order:
        c[x] = 1 + sum(c[y] for y in _bits(m._down[x] ^ 1 << x))
    return sum(c)


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
    return Stratification(m, tuple(frozenset((m.points[i],)) for i in m._order))


def fibers_discrete(f: MonotoneMap) -> bool:
    """True when every fiber is an antichain.  A relation x < y inside one
    fiber passes through covers that all stay in it, as f is monotone, so
    it is enough that no cover has both ends in one fiber."""
    return all(f(x) != f(y) for x, y in f.source.covers)


def induced_subspace(m: FinSpec, s) -> FinSpec:
    """The induced poset on a convex subset s: with x <= z <= y in m and x,
    y in s, z is in s too.  Open, closed and locally closed sets are convex.
    The covers of m inside a convex s are the covers of the induced order,
    so the space is built from them and no pair of points is compared.
    SpaceError for a subset that is not convex."""
    mask = m._mask(s)
    between = m._hull(m._down, mask) & ~mask  # the points below s and outside it
    if m._hull(m._up, mask) & between:
        raise SpaceError(f"{[m.points[i] for i in _bits(mask)]} is not convex")
    rank = m._rank
    return FinSpec([m.points[i] for i in _bits(mask)],
                   [(x, y) for x, y in m.covers if mask >> rank[x] & 1 and mask >> rank[y] & 1])


def subspace(m: FinSpec, s):
    """The induced poset on a convex subset (``induced_subspace``) with its
    inclusion map."""
    sub = induced_subspace(m, s)
    return sub, MonotoneMap(sub, m, zip(sub.points, sub.points))
