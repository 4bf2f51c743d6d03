"""Finite spectral spaces as finite posets under specialization.

The order convention throughout: x <= y means x lies in the closure of {y}
(x is the more special point).  Open sets are then exactly the up-sets and
closed sets the down-sets; the minimal open neighbourhood of x is the
up-set of x.  Continuous maps correspond to monotone maps.
"""

from __future__ import annotations

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


def _key(p):
    """Deterministic sort key for point identifiers (strings or nested tuples)."""
    if isinstance(p, tuple):
        return (1, tuple(_key(q) for q in p))
    return (0, str(p))


class FinSpec:
    """A finite poset regarded as a finite spectral space."""

    __slots__ = ("points", "covers", "_up", "_down", "_chains", "_upward", "_lower")

    def __init__(self, points, covers):
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise DuplicatePoint("duplicate point identifiers")
        pset = set(pts)
        rel = {p: set() for p in pts}  # p -> points strictly above p
        for x, y in covers:
            if x not in pset or y not in pset:
                raise UnknownPoint(f"relation {x!r}<{y!r} mentions an unknown point")
            if x == y:
                raise CycleDetected(f"{x!r} < {x!r}")
            rel[x].add(y)
        # transitive closure, with cycle rejection; the toposort is
        # post-order, so each point is processed after everything above it
        up = {p: {p} for p in pts}
        order = _toposort(pts, rel)
        for p in order:
            for q in rel[p]:
                up[p] |= up[q]
        self.points = tuple(sorted(pts, key=_key))
        self._up = {p: frozenset(s) for p, s in up.items()}
        down = {p: set() for p in pts}
        for p in pts:
            for q in self._up[p]:
                down[q].add(p)
        self._down = {p: frozenset(s) for p, s in down.items()}
        self.covers = tuple(sorted(self._hasse(), key=lambda e: (_key(e[0]), _key(e[1]))))
        self._chains = None
        self._upward = None
        self._lower = None

    def _hasse(self):
        edges = []
        for x in self.points:
            above = self._up[x] - {x}
            for y in above:
                if not any(z != y and y in self._up[z] for z in above):
                    edges.append((x, y))
        return edges

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

    def minimal_points(self, within=None):
        pts = self.points if within is None else sorted(within, key=_key)
        sub = set(pts)
        return [p for p in pts if not any(q != p and q in sub and self.le(q, p) for q in sub)]

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


def _toposort(pts, rel):
    order = []
    state = {p: 0 for p in pts}  # 0 unvisited, 1 on stack, 2 done
    for root in pts:
        if state[root]:
            continue
        stack = [(root, iter(sorted(rel[root], key=_key)))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    raise CycleDetected(f"cycle through {nxt!r}")
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(sorted(rel[nxt], key=_key))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                order.append(node)
                stack.pop()
    return order


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
            raise SpaceError(f"map not total: missing {sorted(missing, key=_key)}")
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

    def compose(self, other: "MonotoneMap") -> "MonotoneMap":
        """self after other."""
        if other.target != self.source:
            raise SpaceError("composition mismatch")
        return MonotoneMap(other.source, self.target,
                           {x: self._images[y] for x, y in other._images.items()})

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


def krull_dim(m: FinSpec):
    """Length of the longest strict chain; -inf for the empty space.

    A longest chain is saturated, so it climbs covers: the height of z is
    one more than the greatest height of a point it covers, read in one
    pass over the covers in a linear extension of their tops."""
    if m.is_empty():
        return -math.inf
    height = dict.fromkeys(m.points, 0)
    for w, z in m.covers_upward():
        height[z] = max(height[z], height[w] + 1)
    return max(height.values())


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

    Ties are broken by identifier order so the output is reproducible.
    """
    remaining = set(m.points)
    order = []
    while remaining:
        mins = m.minimal_points(remaining)
        x = min(mins, key=_key)
        order.append(frozenset({x}))
        remaining.remove(x)
    return Stratification(m, tuple(order))


def fibers_discrete(f: MonotoneMap) -> bool:
    """True when every fiber is an antichain."""
    for q in f.target.points:
        fib = sorted(f.fiber(q), key=_key)
        for i, x in enumerate(fib):
            for y in fib[i + 1:]:
                if f.source.le(x, y) or f.source.le(y, x):
                    return False
    return True


def subspace(m: FinSpec, s):
    """The induced poset on a subset with its inclusion map."""
    s = m.check_subset(s)
    pts = [p for p in m.points if p in s]
    sub = FinSpec.from_order(pts, m.le)
    incl = MonotoneMap(sub, m, [(p, p) for p in pts])
    return sub, incl
