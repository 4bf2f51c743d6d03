"""Bounded complexes of constructible sheaves on finite spectral spaces.

A sheaf complex is stored by its stalks: one free chain complex per point
(the sections over the minimal open up-set of the point) together with a
generization chain map along every cover relation, path-independent across
the poset.  The composite along x <= y is built only when asked for, through
one chosen cover path, and validation composes only the composites its
path comparisons need.  All functors below are computed exactly on this
data:

* derived global sections via the normalized chain cochain complex over
  strict chains of the poset (bounded by the Krull dimension), built by the
  one labelled-complex builder that also builds the homotopy end below,
* pullback, derived pushforward, extension by zero from opens and closeds,
* localization triangles with mapping-cone certificates,
* derived tensor (stalkwise, stalks are already complexes of frees),
* derived inner Hom via the homotopy-end complex over each up-set, which is
  the Hom against the two-sided bar resolution by the cell projectives
  "free sheaf on an up-set" (Hom out of those is stalk evaluation), each a
  slice of one build over the whole space; on a one-point space it is the
  Hom complex of two complexes,
* dualizability of an object via the chain-level evaluation map,
* base-change comparison maps for Cartesian squares and their iso locus,
* the filtration of a complex by extensions of its stalks over singleton
  strata, certifying the Euler-index bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    DEGREE_MAX, ChainMap, FGModule, FreeChainComplex, Matrix, RingMismatch, ScalarRing,
    block_diagonal, complex_from_basis, cone, homology, is_acyclic, kernel_basis,
    solve_right, tensor_chain_maps, tensor_total, _tensor_basis,
)
from .space import (
    FinSpec, MonotoneMap, SpaceError, admissible_order, classify_subset,
    fiber_product, subspace, _key,
)


class SheafError(Exception):
    pass


class NotOpen(SheafError):
    pass


class NotClosed(SheafError):
    pass


class PathIndependenceViolation(SheafError):
    pass


class SheafComplex:
    """A bounded complex of constructible sheaves given by stalk data.

    Values are immutable after construction.  The composite generization
    map along x <= y is built on demand by rho and kept in a memo that
    starts out holding the generization map of every cover; the memo is the
    only internal mutation, idempotent with deterministic entries, so
    concurrent readers never observe different results.
    """

    __slots__ = ("space", "ring", "stalks", "gens", "_rho")

    def __init__(self, space: FinSpec, ring: ScalarRing, stalks: dict,
                 gens: dict, check: bool = True):
        self.space = space
        self.ring = ring
        self.stalks = {}
        for p in space.points:
            c = stalks.get(p)
            if c is None:
                c = FreeChainComplex.zero(ring)
            self.stalks[p] = c
        self.gens = {}
        for (x, y) in space.covers:
            g = gens.get((x, y))
            if g is None:
                g = ChainMap.zero(self.stalks[x], self.stalks[y])
            self.gens[(x, y)] = g
        self._rho = dict(self.gens)
        if check:
            self._validate()

    def _validate(self):
        """Rings, endpoints and path independence; every generization map
        is a checked ChainMap already.

        For each x, every cover (w, z) inside the up-set of x that is not
        the first one into z in covers_upward order, through which rho(x, z)
        is composed, must carry rho(x, w) to rho(x, z).  By induction along
        a linear extension this compares all cover paths x -> z, and only
        the composites these compares need are ever built."""
        for p, c in self.stalks.items():
            if c.ring != self.ring:
                raise RingMismatch(f"stalk at {p!r} over {c.ring}, expected {self.ring}")
        for (x, y), g in self.gens.items():
            if g.source != self.stalks[x] or g.target != self.stalks[y]:
                raise SheafError(f"generization map at {x!r}<{y!r} has wrong endpoints")
        covers = self.space.covers_upward()
        for x in self.space.points:
            up = self.space.up_set(x)
            reached = set()
            for (w, z) in covers:
                if w not in up:
                    continue
                if z not in reached:
                    reached.add(z)
                    continue
                via = self.gens[(w, z)].compose(self.rho(x, w)).mats
                want = self.rho(x, z).mats
                for n in set(via) | set(want):
                    if via.get(n) != want.get(n):
                        raise PathIndependenceViolation(
                            f"two paths {x!r} -> {z!r} compose differently in degree {n}")

    def rho(self, x, y) -> ChainMap:
        """The composite generization map along any cover path x <= y: the
        identity when x == y, gens[(x, y)] itself for a cover, and otherwise
        gens[(w, y)] after rho(x, w) for the first point w that y covers
        inside the up-set of x, in covers_upward order."""
        got = self._rho.get((x, y))
        if got is not None:
            return got
        if x == y:
            got = self._rho[(x, x)] = ChainMap.identity(self.stalks[x])
            return got
        up = self.space.up_set(x)
        if y not in up:
            raise SheafError(f"{x!r} is not below {y!r}")
        # walk down to a known composite; every cover out of x is known
        path = []
        z = y
        while (x, z) not in self._rho:
            w = next(w for w in self.space.lower_covers(z) if w in up)
            path.append((w, z))
            z = w
        got = self._rho[(x, z)]
        for w, z in reversed(path):
            got = self._rho[(x, z)] = self.gens[(w, z)].compose(got)
        return got

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.stalks.values())

    def shift(self, k: int) -> "SheafComplex":
        return self._shifted(k, {p: c.shift(k) for p, c in self.stalks.items()})

    def _shifted(self, k: int, st: dict) -> "SheafComplex":
        """self[k] on the given stalks st, each the shift by k of self's."""
        gens = {(x, y): ChainMap(st[x], st[y], {n - k: m for n, m in g.mats.items()},
                                 check=False)
                for (x, y), g in self.gens.items()}
        return SheafComplex(self.space, self.ring, st, gens, check=False)

    def direct_sum(self, other: "SheafComplex") -> "SheafComplex":
        if self.space != other.space or self.ring != other.ring:
            raise SheafError("direct sum needs matching space and ring")
        stalks = {p: self.stalks[p].direct_sum(other.stalks[p]) for p in self.space.points}
        gens = {}
        for e in self.space.covers:
            x, y = e
            a, b = self.gens[e], other.gens[e]
            mats = {n: block_diagonal(a.component(n), b.component(n))
                    for n in set(a.mats) | set(b.mats)}
            gens[e] = ChainMap(stalks[x], stalks[y], mats, check=False)
        return SheafComplex(self.space, self.ring, stalks, gens, check=False)

    def __eq__(self, other):
        return (isinstance(other, SheafComplex) and self.space == other.space
                and self.ring == other.ring and self.stalks == other.stalks
                and self.gens == other.gens)

    def __repr__(self):
        ranks = {p: dict(c.ranks) for p, c in self.stalks.items() if not c.is_zero()}
        return f"SheafComplex({self.ring} on {len(self.space.points)} points, stalk ranks {ranks})"


class SheafMap:
    """A map of sheaf complexes: per-point chain maps commuting with generization."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: SheafComplex, target: SheafComplex,
                 comps: dict, check: bool = True):
        if source.space != target.space or source.ring != target.ring:
            raise SheafError("sheaf map needs matching space and ring")
        self.source = source
        self.target = target
        self.comps = {}
        for p in source.space.points:
            f = comps.get(p)
            if f is None:
                f = ChainMap.zero(source.stalks[p], target.stalks[p])
            self.comps[p] = f
        if check:
            self._validate()

    def _validate(self):
        for p, f in self.comps.items():
            if f.source != self.source.stalks[p] or f.target != self.target.stalks[p]:
                raise SheafError(f"component at {p!r} has wrong endpoints")
            f._validate()
        for (x, y) in self.source.space.covers:
            lhs = self.target.gens[(x, y)].compose(self.comps[x])
            rhs = self.comps[y].compose(self.source.gens[(x, y)])
            for n in set(lhs.mats) | set(rhs.mats):
                if lhs.component(n) != rhs.component(n):
                    raise SheafError(f"naturality fails at {x!r}<{y!r} in degree {n}")

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {}, check=False)

    @classmethod
    def identity(cls, k: SheafComplex):
        return cls(k, k, {p: ChainMap.identity(c) for p, c in k.stalks.items()},
                   check=False)

    def component(self, p) -> ChainMap:
        return self.comps[p]

    def compose(self, other: "SheafMap") -> "SheafMap":
        return SheafMap(other.source, self.target,
                        {p: self.comps[p].compose(other.comps[p])
                         for p in self.source.space.points}, check=False)

    def __repr__(self):
        return f"SheafMap on {len(self.source.space.points)} points"


@dataclass(frozen=True)
class Triangle:
    """A distinguished triangle a -> b -> c -> a[1] with c the mapping cone of f."""

    a: SheafComplex
    b: SheafComplex
    c: SheafComplex
    f: SheafMap
    g: SheafMap
    h: SheafMap


class CSheaf:
    """A single constructible sheaf: one finitely generated module per point
    and a generization matrix on module generators per cover relation.

    Generators are ordered torsion first (one per invariant factor), then
    free.  A matrix A defines a module map against the diagonal
    presentations exactly when torsion columns avoid free rows and each
    entry satisfies the divisibility d^target_i | A_{ij} d^source_j; the
    relation-level lift B_{ij} = A_{ij} d^source_j / d^target_i is then
    canonical and composes strictly, so path independence of the generator
    matrices carries over to the presentation complexes.
    """

    __slots__ = ("space", "ring", "stalks", "gens", "_complex")

    def __init__(self, space: FinSpec, ring: ScalarRing, stalks: dict, gens: dict):
        self.space = space
        self.ring = ring
        self.stalks = {}
        for p in space.points:
            mod = stalks.get(p)
            if mod is None:
                mod = FGModule(ring, (), 0)
            if mod.ring != ring:
                raise RingMismatch(f"stalk at {p!r} over {mod.ring}")
            self.stalks[p] = mod
        self.gens = {}
        for (x, y) in space.covers:
            a = gens.get((x, y))
            if a is None:
                a = Matrix.zeros(ring, _ngens(self.stalks[y]), _ngens(self.stalks[x]))
            self.gens[(x, y)] = a
        self._complex = self._build_complex()

    def _build_complex(self) -> SheafComplex:
        stalk_cx = {p: _presentation_complex(mod) for p, mod in self.stalks.items()}
        gens_cx = {}
        for (x, y), a in self.gens.items():
            src, tgt = self.stalks[x], self.stalks[y]
            if a.rows != _ngens(tgt) or a.cols != _ngens(src):
                raise SheafError(f"generization matrix at {x!r}<{y!r} has wrong shape")
            b = _relation_lift(a, src, tgt)
            if b is None:
                raise SheafError(f"matrix at {x!r}<{y!r} does not define a module map")
            gens_cx[(x, y)] = ChainMap(stalk_cx[x], stalk_cx[y], {0: a, -1: b})
        return SheafComplex(self.space, self.ring, stalk_cx, gens_cx)

    def as_complex(self) -> SheafComplex:
        """The presentation of this sheaf as a complex in degrees -1, 0."""
        return self._complex

    def __repr__(self):
        return f"CSheaf({self.ring} on {len(self.space.points)} points)"


def _ngens(mod: FGModule) -> int:
    return len(mod.invariant_factors) + mod.free_rank


def _presentation_complex(mod: FGModule) -> FreeChainComplex:
    k = len(mod.invariant_factors)
    n = _ngens(mod)
    rel = Matrix.from_entries(mod.ring, n, k,
                              ((i, i, d) for i, d in enumerate(mod.invariant_factors)))
    return FreeChainComplex(mod.ring, {-1: k, 0: n}, {-1: rel}, check=False)


def _relation_lift(a: Matrix, src: FGModule, tgt: FGModule):
    R = a.ring
    ks, kt = len(src.invariant_factors), len(tgt.invariant_factors)
    out = []
    for j, dj in enumerate(src.invariant_factors):
        for i, x in a.col(j):
            if i >= kt:
                return None  # torsion cannot map to the free part
            val = x * dj
            di = tgt.invariant_factors[i]
            if not R.divides(di, val):
                return None
            out.append((i, j, R.exact_div(val, di)))
    return Matrix.from_entries(R, kt, ks, out)


# ---------------------------------------------------------------------------
# basic constructors


def zero_sheaf(m: FinSpec, ring: ScalarRing) -> SheafComplex:
    return SheafComplex(m, ring, {}, {}, check=False)


def constant_sheaf(m: FinSpec, c: FreeChainComplex) -> SheafComplex:
    gens = {e: ChainMap.identity(c) for e in m.covers}
    return SheafComplex(m, c.ring, {p: c for p in m.points}, gens, check=False)


def skyscraper(m: FinSpec, x, c: FreeChainComplex) -> SheafComplex:
    """c at the single (locally closed) point x, zero elsewhere, zero maps."""
    m.check_subset({x})
    return SheafComplex(m, c.ring, {x: c}, {}, check=False)


def unit_sheaf(m: FinSpec, ring: ScalarRing) -> SheafComplex:
    return constant_sheaf(m, FreeChainComplex.free_module(ring, 1, 0))


def restrict(k: SheafComplex, s) -> SheafComplex:
    """k restricted to the induced poset on s: the pullback along its
    inclusion (exact, stalks kept)."""
    _, incl = subspace(k.space, s)
    return pullback(incl, k)


# ---------------------------------------------------------------------------
# derived global sections


def _col(m, j):
    """Column j of a stored differential or component; None is zero."""
    return () if m is None else m.col(j)


def _row(m, i):
    """Row i of a stored differential or component; None is zero."""
    return () if m is None else m.row(i)


def _label_key(lab):
    """The order of labels (chain, *rest) in a degree: rgamma's (chain, q,
    i) and the homotopy end's (chain, t, i, j)."""
    c = lab[0]
    return (len(c), tuple(_key(x) for x in c)) + lab[1:]


def _chain_complex(m: FinSpec, R: ScalarRing, cells, entries):
    """The total complex of a double complex over the strict chains of m,
    as (complex, labels, index).

    cells(c) yields (q, labels) for chain c: its labels (c, ...) in total
    degree len(c) - 1 + q, in increasing order.  entries(n, lab, cofaces)
    yields the (label, coefficient) pairs of the differential of lab in
    degree n + 1, where cofaces lists the (longer chain, dropped position)
    pairs that have lab's chain as a face.  Chains come in (length, keys)
    order, so each degree's labels are in ``_label_key`` order.

    Only a chain with labels is listed as a coface: an entry into a chain
    without labels would have no target, so ``entries`` finds none there
    (for sections its top stalk is zero, for the end its bottom or top).
    """
    basis, faces = {}, {}
    for c in m.strict_chains():
        p = len(c) - 1
        labelled = False
        for q, labs in cells(c):
            basis.setdefault(p + q, []).extend(labs)
            labelled = labelled or bool(labs)
        if p and labelled:  # dropping any point of a strict chain leaves a strict chain
            for l in range(p + 1):
                faces.setdefault(c[:l] + c[l + 1:], []).append((c, l))
    cx, index = complex_from_basis(
        R, basis, lambda n, lab: entries(n, lab, faces.get(lab[0], ())))
    return cx, {n: tuple(labs) for n, labs in basis.items()}, index


def rgamma_labeled(k: SheafComplex):
    """Derived sections as a labelled total complex.

    Degree-n basis labels are (chain, q, i): a strict chain of the carrier,
    an internal degree q with len(chain) - 1 + q = n, and a basis index of
    the stalk complex at the top of the chain.  The differential combines
    the alternating chain-drop faces (the last one through the generization
    map of the dropped top) with the stalk differentials.
    """
    def cells(c):
        for q, r in sorted(k.stalks[c[-1]].ranks.items()):
            yield q, [(c, q, i) for i in range(r)]

    def entries(n, lab, cofaces):
        c, q, i = lab
        sign_v = -1 if (len(c) - 1) % 2 else 1
        for i2, co in _col(k.stalks[c[-1]].diffs.get(q), i):
            yield (c, q + 1, i2), sign_v * co
        for (c2, l) in cofaces:  # c = face_l(c2), len(c2) = len(c) + 1
            sign = -1 if l % 2 else 1
            if l < len(c2) - 1:
                yield (c2, q, i), sign
            else:
                for i2, co in _col(k.rho(c2[-2], c2[-1]).mats.get(q), i):
                    yield (c2, q, i2), sign * co

    return _chain_complex(k.space, k.ring, cells, entries)


def rgamma(k: SheafComplex) -> FreeChainComplex:
    """Derived global sections; vanishes above the Krull dimension.

    This is the whole complex over every strict chain.  The ``cohomology``
    command reads the smaller equivalent ``rgamma_reduced`` instead; this
    one is kept because pushforward, base change and the other functors
    slice its labelled form, and because it is the oracle the reduced
    complex is tested against."""
    cx, _, _ = rgamma_labeled(k)
    return cx


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
    pair; critical lists the unpaired chains by top, then by mask.
    """
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


def rgamma_reduced(k: SheafComplex) -> FreeChainComplex:
    """A complex chain-homotopy equivalent to rgamma(k), built on the
    critical labels of an acyclic matching only (algebraic Morse theory:
    Sköldberg, TAMS 2006; Curry, Ghrist and Nanda, FoCM 2016).  The
    ``cohomology`` command reads its homology; rgamma stays the oracle.

    The matching (``_chain_matching``) is on chains: for each top x with a
    nonzero stalk, and for each v below x along the linear extension by
    (down-set size, key), a chain s is paired with s + v when both are
    chains with top x and neither is paired yet.  It pairs the labels
    (chain, q, i) of two paired chains for every q and i.  For one top it
    is a sequence of element matchings, which is acyclic (Jonsson, LNM
    1928; Babson and Hersh, TAMS 2005).  Each pair
    inserts a point below the top, so the entry of d between paired labels
    is the sign of that insertion times the identity of the top stalk, a
    unit over Z, Q and F_p.  The rest of d (the stalk differential, and
    the generization map into a new top) strictly raises (top, q), so no
    gradient path returns to a graded piece it left, and the matching is
    acyclic on the whole complex.

    The differential of a critical label is its coboundary with every term
    on the upper label b of a pair (a, b) replaced, until none is left, by
    minus its coefficient over the pair's unit times the rest of d(a).
    Terms on lower labels drop, as no gradient path returns from them to
    the degree of b.  The upper labels reachable from one source are
    expanded once each, in a topological order of the gradient paths.
    Cofaces come from the poset, as the points that fit between two
    consecutive points of a chain.  No label outside the critical ones
    gets a row or a column, so the total rank is the number of critical
    labels: 791 where rgamma has 9161 on the benchmark's ``sections``
    sheaves of seed 1, and 55 where rgamma has 767149 on the height-12
    ladder of the size-ceiling tests, built with its homology in about
    0.5 s and 95 MB.
    """
    m, R = k.space, k.ring
    order, below, partner, critical = _chain_matching(
        m, {p for p, c in k.stalks.items() if not c.is_zero()})
    above = [0] * len(order)
    for t, mask in enumerate(below):
        for b in _bits(mask):
            above[b] |= 1 << t
    stalks = [k.stalks[p] for p in order]
    labelled = sum(1 << t for t, c in enumerate(stalks) if c.ranks)
    height = []  # the number of points of the longest chain below each point
    for t, c in enumerate(stalks):
        height.append(max((height[b] + 1 for b in _bits(below[t])), default=0))
        if c.ranks and height[t] + max(c.ranks) > DEGREE_MAX:
            return rgamma(k)  # which raises its DegreeOverflow
    basis = {}
    for c in critical:
        p = c.bit_count() - 1
        for q, r in sorted(stalks[c.bit_length() - 1].ranks.items()):
            basis.setdefault(p + q, []).extend((c, q, i) for i in range(r))

    def coboundary(c, q, i):
        """The (label, coefficient) terms of d(c, q, i) in rgamma."""
        t = c.bit_length() - 1
        length = c.bit_count()
        sign_v = -1 if (length - 1) % 2 else 1
        for i2, co in _col(stalks[t].diffs.get(q), i):
            yield (c, q + 1, i2), sign_v * co
        fits = -1  # the points above the previous point of c, all at first
        for l, y in enumerate(_bits(c)):
            sign = -1 if l % 2 else 1
            for w in _bits(below[y] & fits):
                yield (c | 1 << w, q, i), sign
            fits = above[y]
        sign = -1 if length % 2 else 1
        for w in _bits(fits & labelled):
            for i2, co in _col(k.rho(order[t], order[w]).mats.get(q), i):
                yield (c | 1 << w, q, i2), sign * co

    def kept(lab):
        """Whether lab is critical or upper, that is not lower."""
        return partner.get(lab[0], 0) < lab[0]

    def flow(b):
        """The terms of -d(a)/e other than b and off lower labels, for the
        upper label b of the pair (a, b) whose unit is e."""
        t, q, i = b
        s = partner[t]
        e = -1 if (s & (t ^ s) - 1).bit_count() % 2 else 1
        return [(lab, -e * co) for lab, co in coboundary(s, q, i) if lab != b and kept(lab)]

    norm = R.normalize

    def reduced(n, lab):
        # the upper labels reachable from lab, in post-order, lab last
        flows = {lab: [(lab2, co) for lab2, co in coboundary(*lab) if kept(lab2)]}
        post, stack = [], [(lab, iter(flows[lab]))]
        while stack:
            b, it = stack[-1]
            for nxt, _ in it:
                if nxt[0] in partner and nxt not in flows:
                    flows[nxt] = flow(nxt)
                    stack.append((nxt, iter(flows[nxt])))
                    break
            else:
                post.append(stack.pop()[0])
        coef = {lab: 1}
        for b in reversed(post):
            lam = norm(coef.pop(b, 0))
            if lam:
                for lab2, co in flows[b]:
                    coef[lab2] = coef.get(lab2, 0) + lam * co
        return coef.items()

    cx, _ = complex_from_basis(R, basis, reduced)
    return cx


# ---------------------------------------------------------------------------
# the six-functor fragment


def pullback(f: MonotoneMap, k: SheafComplex) -> SheafComplex:
    """Stalk at x is the stalk at f(x); exact."""
    if k.space != f.target:
        raise SheafError("sheaf does not live on the target of the map")
    stalks = {x: k.stalks[f(x)] for x in f.source.points}
    gens = {(x, y): k.rho(f(x), f(y)) for (x, y) in f.source.covers}
    return SheafComplex(f.source, k.ring, stalks, gens, check=False)


def _pushforward_labeled(f: MonotoneMap, k: SheafComplex, p: MonotoneMap | None = None):
    """Derived pushforward pulled back along p (by default the identity of
    the target of f), with the rgamma labels of every stalk.

    Stalk at t is the derived-section complex of k over the preimage of the
    minimal open of p(t); generization maps are the cochain restrictions, as
    p is monotone and so the labels at y all occur at x for x < y.  The
    sections of k are built once, and each stalk is the quotient of them to
    the chains that start in the preimage (see ``_slice``).
    """
    if k.space != f.source:
        raise SheafError("sheaf does not live on the source of the map")
    s = f.target
    if p is None:
        p = MonotoneMap.identity(s)
    whole = rgamma_labeled(k)
    stalks = {q: _slice(whole, f.preimage(s.up_set(q)))
              for q in {p(t) for t in p.source.points}}
    del whole  # the slices hold no reference to it
    return _restriction_sheaf(p.source, k.ring, lambda t: stalks[p(t)])


def _slice(whole, bottoms, tops=None):
    """The part of whole = rgamma_labeled(k) or _hom_end_complex(k, l) on
    the labels (c, ...) with c[0] in bottoms and, if tops is given, c[-1]
    in tops, as (complex, labels, index): the kept labels in their order,
    and the submatrices of the differentials on them.  Degrees without a
    kept label are dropped.

    For an open (up-set) U the chains with c[0] outside U form a
    subcomplex, as a coface only adds points and so only lowers the bottom;
    the quotient by it is the complex built on restrict(k, U) (and
    restrict(l, U)) label for label, since the chains of U are exactly the
    chains that start in U.  Inside that quotient, the chains with c[-1] in
    an open V span a subcomplex, as a coface only raises the top: the
    kernel of restricting to the closed complement of V.
    """
    cx, labels, _ = whole
    kept = {}
    for n, labs in labels.items():
        pos = [a for a, lab in enumerate(labs)
               if lab[0][0] in bottoms and (tops is None or lab[0][-1] in tops)]
        if pos:
            kept[n] = pos
    # a build lists a degree where its first label occurs; two degrees that
    # first occur at one chain and internal degree come in degree order
    order = sorted(kept, key=lambda n: (_label_key(labels[n][kept[n][0]]), n))
    out_labels = {n: tuple(labels[n][a] for a in kept[n]) for n in order}
    index = {(n, lab): a for n, labs in out_labels.items() for a, lab in enumerate(labs)}
    diffs = {}
    for n in order:
        d, rows = cx.diffs.get(n), kept.get(n + 1)
        if d is not None and rows is not None:
            cols = {b: a for a, b in enumerate(kept[n])}
            diffs[n] = Matrix._of(cx.ring, len(rows), len(cols),
                                  [{cols[j]: x for j, x in d.row(i) if j in cols}
                                   for i in rows])
    ranks = {n: len(kept[n]) for n in order}
    return FreeChainComplex(cx.ring, ranks, diffs, check=False), out_labels, index


def _restriction_sheaf(m: FinSpec, ring: ScalarRing, local):
    """(sheaf, labels, indexes) for the stalks local(x) = (complex, labels,
    index) on m, generization x < y restricting to the labels of y, which
    must all occur at x."""
    stalks, labels, indexes = {}, {}, {}
    for x in m.points:
        stalks[x], labels[x], indexes[x] = local(x)
    gens = {}
    for (x, y) in m.covers:
        idx = indexes[x]
        gens[(x, y)] = _label_map(stalks[x], stalks[y], labels[y],
                                  lambda n, lab: ((idx[(n, lab)], 1),))
    return SheafComplex(m, ring, stalks, gens, check=False), labels, indexes


def _label_map(src: FreeChainComplex, tgt: FreeChainComplex, labels: dict,
               entries) -> ChainMap:
    """The chain map src -> tgt given row by row on labelled targets.

    labels maps a degree n to the ordered basis labels of tgt^n; the row of
    label lab holds the (column, coefficient) pairs of entries(n, lab).
    """
    R = src.ring
    mats = {n: Matrix.from_entries(R, len(labs), src.rank(n),
                                   ((r, j, x) for r, lab in enumerate(labs)
                                    for j, x in entries(n, lab)))
            for n, labs in labels.items()}
    return ChainMap(src, tgt, mats, check=False)


def pushforward(f: MonotoneMap, k: SheafComplex) -> SheafComplex:
    sheaf, _, _ = _pushforward_labeled(f, k)
    return sheaf


def _open_subset(m: FinSpec, u) -> frozenset:
    """u as a subset of m; NotOpen unless it is open."""
    u = m.check_subset(u)
    if not m.is_open(u):
        raise NotOpen(f"{sorted(u, key=_key)} is not open")
    return u


def _closed_subset(m: FinSpec, z) -> frozenset:
    """z as a subset of m; NotClosed unless it is closed."""
    z = m.check_subset(z)
    if not m.is_closed(z):
        raise NotClosed(f"{sorted(z, key=_key)} is not closed")
    return z


def _extend_by_zero(m: FinSpec, s, k: SheafComplex) -> SheafComplex:
    """k on the open or closed (so convex) s, zero elsewhere: the stalks of
    k on s and its composites along the covers of m inside s.  k lives on
    the subspace of s or on all of m."""
    stalks = {x: k.stalks[x] for x in s}
    gens = {(x, y): k.rho(x, y) for (x, y) in m.covers if x in s and y in s}
    return SheafComplex(m, k.ring, stalks, gens, check=False)


def j_shriek(m: FinSpec, u, k: SheafComplex) -> SheafComplex:
    """Extension by zero from an open subset; k must live on the subspace of u."""
    u = _open_subset(m, u)
    if k.space != subspace(m, u)[0]:
        raise SheafError("sheaf does not live on the open subspace")
    return _extend_by_zero(m, u, k)


def i_star(m: FinSpec, z, k: SheafComplex) -> SheafComplex:
    """Pushforward from a closed subset; extension by zero on down-sets.

    For x outside a down-set z the up-set of x misses z entirely, so the
    sections of the pushforward near x vanish and no derived correction
    appears: the stalk is k at points of z and zero elsewhere.
    """
    z = _closed_subset(m, z)
    if k.space != subspace(m, z)[0]:
        raise SheafError("sheaf does not live on the closed subspace")
    return _extend_by_zero(m, z, k)


def sheaf_cone(phi: SheafMap):
    """Mapping cone of a sheaf map with its inclusion and projection."""
    src, tgt = phi.source, phi.target
    stalks = {}
    incs = {}
    projs = {}
    for p in src.space.points:
        cn, inc, proj = cone(phi.comps[p])
        stalks[p] = cn
        incs[p] = inc
        projs[p] = proj
    gens = {}
    for (x, y) in src.space.covers:
        a = src.gens[(x, y)]
        b = tgt.gens[(x, y)]
        # cone^n = A^{n+1} (+) B^n, so the generization is a_{n+1} (+) b_n
        mats = {n: block_diagonal(a.component(n + 1), b.component(n))
                for n in {d - 1 for d in a.mats} | set(b.mats)}
        gens[(x, y)] = ChainMap(stalks[x], stalks[y], mats, check=False)
    cn_sheaf = SheafComplex(src.space, src.ring, stalks, gens, check=False)
    include = SheafMap(tgt, cn_sheaf, incs, check=False)
    # cone already built each stalk's shift A[1] as its projection's target
    shifted = src._shifted(1, {p: pr.target for p, pr in projs.items()})
    project = SheafMap(cn_sheaf, shifted, projs, check=False)
    return cn_sheaf, include, project


def triangle_of(phi: SheafMap) -> Triangle:
    cn, include, project = sheaf_cone(phi)
    return Triangle(phi.source, phi.target, cn, phi, include, project)


def localization_triangle(k: SheafComplex, z) -> Triangle:
    """The triangle (extension by zero off z) -> k -> cone, with the cone
    stalkwise equivalent to the sections supported on the closed set z."""
    m = k.space
    z = _closed_subset(m, z)
    u = frozenset(m.points) - z
    a = _extend_by_zero(m, u, k)
    comps = {p: ChainMap.identity(k.stalks[p]) for p in u}
    return triangle_of(SheafMap(a, k, comps, check=False))


def open_unit(k: SheafComplex, u):
    """The unit k -> (pushforward to the space of the restriction to the open u)."""
    m = k.space
    u = _open_subset(m, u)
    _, incl = subspace(m, u)
    l_sheaf, labels, _ = _pushforward_labeled(incl, pullback(incl, k))
    comps = {}
    for x in m.points:
        def entries(n, lab):
            # singleton chains (c_0) carry the restriction rho(x, c_0)
            c, _, i = lab
            if len(c) == 1:
                yield from k.rho(x, c[0]).component(n).row(i)

        comps[x] = _label_map(k.stalks[x], l_sheaf.stalks[x], labels[x], entries)
    return l_sheaf, SheafMap(k, l_sheaf, comps, check=False)


def sheaf_fiber(phi: SheafMap):
    """fib(phi) = cone(phi)[-1], with its projection to the source of phi."""
    cn, _, project = sheaf_cone(phi)
    fib = cn.shift(-1)
    # fib^n = cone^{n-1}, so the projection cone^{n-1} -> A^n serves in degree n
    comps = {p: ChainMap(fib.stalks[p], phi.source.stalks[p],
                         {n + 1: m for n, m in pr.mats.items()}, check=False)
             for p, pr in project.comps.items()}
    return fib, SheafMap(fib, phi.source, comps, check=False)


def i_upper_shriek(z, k: SheafComplex) -> SheafComplex:
    """Sections supported on the closed set z: the restriction to z of
    fib(k -> pushforward of the restriction to the open complement)."""
    m = k.space
    z = _closed_subset(m, z)
    u = frozenset(m.points) - z
    _, unit = open_unit(k, u)
    fib, _ = sheaf_fiber(unit)
    return restrict(fib, z)


# ---------------------------------------------------------------------------
# tensor and hom


def derived_tensor(k: SheafComplex, l: SheafComplex) -> SheafComplex:
    """Stalkwise total tensor; stalks are complexes of frees, so no further
    flat replacement is needed."""
    if k.space != l.space or k.ring != l.ring:
        raise SheafError("tensor needs matching space and ring")
    stalks = {p: tensor_total(k.stalks[p], l.stalks[p]) for p in k.space.points}
    gens = {e: tensor_chain_maps(k.gens[e], l.gens[e]) for e in k.space.covers}
    return SheafComplex(k.space, k.ring, stalks, gens, check=False)


def _hom_end_complex(k: SheafComplex, l: SheafComplex):
    """The homotopy-end complex of maps k -> l over the whole space.

    Degree-n basis labels are (chain, t, i, j): the label stands for the
    matrix unit Hom(K_{c_0}^t, L_{c_top}^{t+q}) placed in total degree
    (len(chain) - 1) + q = n.  On a one-point space it is the Hom complex
    of the two stalks, d(f) = d_L . f - (-1)^n f . d_K.
    """
    def cells(c):
        a, b = k.stalks[c[0]].ranks, l.stalks[c[-1]].ranks
        for t, ra in sorted(a.items()):
            for s, rb in sorted(b.items()):
                yield s - t, [(c, t, i, j) for i in range(ra) for j in range(rb)]

    def entries(n, lab, cofaces):
        c, t, i, j = lab
        p = len(c) - 1
        q = n - p
        a = k.stalks[c[0]]
        b = l.stalks[c[-1]]
        sign_v = -1 if p % 2 else 1
        # internal hom differential: d_L . f - (-1)^q f . d_K
        for j2, co in _col(b.diffs.get(t + q), j):
            yield (c, t, i, j2), sign_v * co
        sign_vk = sign_v if q % 2 else -sign_v
        for i2, co in _row(a.diffs.get(t - 1), i):
            yield (c, t - 1, i2, j), sign_vk * co
        # end differential: faces of longer chains
        for (c2, pos) in cofaces:
            sign = -1 if pos % 2 else 1
            if pos == 0:
                for i2, co in _row(k.rho(c2[0], c2[1]).mats.get(t), i):
                    yield (c2, t, i2, j), sign * co
            elif pos == len(c2) - 1:
                for j2, co in _col(l.rho(c2[-2], c2[-1]).mats.get(t + q), j):
                    yield (c2, t, i, j2), sign * co
            else:
                yield (c2, t, i, j), sign

    return _chain_complex(k.space, k.ring, cells, entries)


def _derived_hom_labeled(k: SheafComplex, l: SheafComplex):
    """Derived inner Hom with the labels of every stalk.  The homotopy end
    is built once over the whole space; the stalk at x is its quotient to
    the chains that start in the up-set of x (see ``_slice``), which is the
    homotopy end of the restrictions to that up-set label for label."""
    if k.space != l.space or k.ring != l.ring:
        raise SheafError("hom needs matching space and ring")
    m = k.space
    whole = _hom_end_complex(k, l)
    return _restriction_sheaf(m, k.ring, lambda x: _slice(whole, m.up_set(x)))


def derived_hom(k: SheafComplex, l: SheafComplex) -> SheafComplex:
    """Derived inner Hom; the stalk at x is the homotopy end over the up-set
    of x, assembled from Hom complexes of stalks along strict chains."""
    sheaf, _, _ = _derived_hom_labeled(k, l)
    return sheaf


def evaluation_map(k: SheafComplex):
    """The canonical map k (x) k^dual -> Hom(k, k) on the chain level.

    Returns (tensor sheaf, hom sheaf, the map).  The component at a basis
    vector a (x) phi sends a chain c to v |-> phi(c)(v) . rho(a), with the
    Koszul sign (-1)^{deg(a) . (len(c) - 1)}.
    """
    m = k.space
    R = k.ring
    kv, kv_labels, _ = _derived_hom_labeled(k, unit_sheaf(m, R))
    hom_kk, _, hom_idx = _derived_hom_labeled(k, k)
    tensor_sheaf = derived_tensor(k, kv)
    comps = {}
    for x in m.points:
        src = tensor_sheaf.stalks[x]
        tgt = hom_kk.stalks[x]
        mats = {}
        for n, labs in _tensor_basis(k.stalks[x], kv.stalks[x]).items():
            entries = []
            for pos, (p_deg, q_deg, i0, jv) in enumerate(labs):
                c, t, i, _ = kv_labels[x][q_deg][jv]
                sign = 1 if (p_deg * (len(c) - 1)) % 2 == 0 else -1
                for i2, co in k.rho(x, c[-1]).component(p_deg).col(i0):
                    entries.append((hom_idx[x][(n, (c, t, i, i2))], pos, sign * co))
            mats[n] = Matrix.from_entries(R, tgt.rank(n), src.rank(n), entries)
        comps[x] = ChainMap(src, tgt, mats, check=False)
    ev = SheafMap(tensor_sheaf, hom_kk, comps)
    return tensor_sheaf, hom_kk, ev


def is_dualizable(k: SheafComplex):
    """Whether evaluation k (x) k^dual -> Hom(k, k) is a stalkwise
    quasi-isomorphism; returns (flag, defect cone sheaf)."""
    _, _, ev = evaluation_map(k)
    defect, _, _ = sheaf_cone(ev)
    return sheaf_is_acyclic(defect), defect


# ---------------------------------------------------------------------------
# homology utilities


def sheaf_homology(k: SheafComplex) -> dict:
    """Point -> degree -> FGModule of the stalk complexes."""
    return {p: homology(c) for p, c in k.stalks.items()}


def sheaf_is_acyclic(k: SheafComplex) -> bool:
    return all(not homology(c) for c in k.stalks.values())


def same_stalk_homology(k: SheafComplex, l: SheafComplex) -> bool:
    """Equality of stalkwise homology; the spot check used for statements
    "quasi-isomorphic without an explicit map"."""
    return sheaf_homology(k) == sheaf_homology(l)


def _exact_at(c_p: FreeChainComplex, n_p: int, alpha: ChainMap,
              c_q: FreeChainComplex, n_q: int, beta: ChainMap,
              c_r: FreeChainComplex, n_r: int) -> bool:
    """Exactness of H^{n_p}(c_p) -> H^{n_q}(c_q) -> H^{n_r}(c_r)."""
    R = c_p.ring
    kp = kernel_basis(c_p.diff(n_p))
    kq = kernel_basis(c_q.diff(n_q))
    rel_q = c_q.diff(n_q - 1)
    rel_r = c_r.diff(n_r - 1)
    # composite must vanish on homology
    ba = beta.component(n_q) @ alpha.component(n_p) @ kp
    if ba.cols and solve_right(rel_r, ba) is None:
        return False
    if kq.cols == 0:
        return True
    # image of alpha expressed in kernel generators of c_q
    y = solve_right(kq, alpha.component(n_p) @ kp)
    if y is None:
        return False
    rel_in_kq = solve_right(kq, rel_q)
    if rel_in_kq is None:
        return False
    # kernel of the induced map on homology, as a sublattice of the generators
    bk = beta.component(n_q) @ kq
    stacked = bk.hstack(rel_r)
    ker = kernel_basis(stacked)
    w = ker.submatrix(range(kq.cols), range(ker.cols))
    gens = y.hstack(rel_in_kq)
    return solve_right(gens, w) is not None


def triangle_is_exact(tri: Triangle) -> bool:
    """Stalkwise long exact sequence of homology, at every point."""
    for p in tri.a.space.points:
        a, b, c = tri.a.stalks[p], tri.b.stalks[p], tri.c.stalks[p]
        f, g, h = tri.f.comps[p], tri.g.comps[p], tri.h.comps[p]
        degs = set(a.ranks) | set(b.ranks) | set(c.ranks)
        if not degs:
            continue
        lo, hi = min(degs) - 1, max(degs) + 1
        a1, b1 = tri.h.target.stalks[p], b.shift(1)
        f1 = ChainMap(a1, b1, {n - 1: m for n, m in f.mats.items()}, check=False)
        for n in range(lo, hi + 1):
            if not _exact_at(a, n, f, b, n, g, c, n):
                return False
            if not _exact_at(b, n, g, c, n, h, a1, n):
                return False
            if not _exact_at(c, n, h, a1, n, f1, b1, n):
                return False
    return True


# ---------------------------------------------------------------------------
# base change


def base_change_compare(f: MonotoneMap, p: MonotoneMap, k: SheafComplex):
    """The comparison (pushforward then pullback) -> (pullback then
    pushforward) for the Cartesian square on f and p.

    Returns (comparison SheafMap on the source of p, iso flag, defect cone).
    The left side is built on the source of p directly: its stalk at t is
    the derived sections of k over the preimage of the minimal open of p(t).
    Stalkwise the map is cochain restriction along the preimage inclusion,
    with chains that degenerate under projection sent to zero.
    """
    if f.target != p.target:
        raise SpaceError("maps must share a target")
    if k.space != f.source:
        raise SheafError("sheaf must live on the source of f")
    lhs, _, lhs_indexes = _pushforward_labeled(f, k, p)
    _, pr_x, pr_t = fiber_product(f, p)
    rhs, rhs_labels, _ = _pushforward_labeled(pr_t, pullback(pr_x, k))
    comps = {}
    for t in p.source.points:
        src_idx = lhs_indexes[t]

        def entries(n, lab):
            cw, q, i = lab
            cx = tuple(map(pr_x, cw))
            if any(cx[a] == cx[a + 1] for a in range(len(cx) - 1)):
                return ()  # degenerate image chain
            return ((src_idx[(n, (cx, q, i))], 1),)

        comps[t] = _label_map(lhs.stalks[t], rhs.stalks[t], rhs_labels[t], entries)
    comparison = SheafMap(lhs, rhs, comps)
    defect, _, _ = sheaf_cone(comparison)
    return comparison, sheaf_is_acyclic(defect), defect


def base_change_locus(f: MonotoneMap, k: SheafComplex):
    """Points of the target over which base change along the point inclusion
    is an isomorphism, with the open/closed classification of the locus.

    With X_q the preimage of the minimal open of q and V that of its other
    points, the comparison at q restricts the sections over X_q onto those
    over the closed fiber X_q - V.  The restriction is onto, with kernel the
    sections of the extension by zero from V: the chains of X_q that end in
    V (the localization triangle with sections taken).  So q is in the locus
    exactly when that kernel is acyclic; it is one slice of the sections of
    k, which are built once.
    """
    s = f.target
    whole = rgamma_labeled(k)
    locus = set()
    for q in s.points:
        up = s.up_set(q)
        kernel, _, _ = _slice(whole, f.preimage(up), f.preimage(up - {q}))
        if is_acyclic(kernel):
            locus.add(q)
    locus = frozenset(locus)
    return locus, classify_subset(s, locus)


def compose_pushforward_compare(f: MonotoneMap, g: MonotoneMap, k: SheafComplex):
    """The canonical comparison from the pushforward along g . f to the
    iterated pushforward, evaluating cochains at the singleton chains of the
    intermediate space.  Always a quasi-isomorphism; returned as an explicit
    sheaf map so tests can certify it."""
    if f.target != g.source:
        raise SpaceError("maps do not compose")
    gf = g.compose(f)
    lhs, _, lhs_idx = _pushforward_labeled(gf, k)
    mid, mid_labels, _ = _pushforward_labeled(f, k)
    rhs, rhs_labels, _ = _pushforward_labeled(g, mid)
    comps = {}
    for u in g.target.points:
        idx = lhs_idx[u]

        def entries(n, lab):
            cs, qq, ii = lab
            if len(cs) != 1:
                return ()
            return ((idx[(n, mid_labels[cs[0]][qq][ii])], 1),)

        comps[u] = _label_map(lhs.stalks[u], rhs.stalks[u], rhs_labels[u], entries)
    return lhs, rhs, SheafMap(lhs, rhs, comps)


# ---------------------------------------------------------------------------
# cell decomposition


def cell_decompose(k: SheafComplex):
    """Filter k by extensions by zero over growing open sets, one point at a
    time along the reverse admissible order.

    Returns (pieces, triangles): pieces are the (point, stalk complex) pairs
    with nonzero stalks, generic points first; triangles is a generator, to
    be read once, that builds the triangle K_{j-1} -> K_j -> cone of step j
    when it is read, its cone stalkwise equivalent to the extension by zero
    of the stalk at the point added at step j.  Summing the pointwise Euler
    ranks of the pieces recovers the Euler index of k.
    """
    m = k.space
    generic_first = [next(iter(s)) for s in reversed(admissible_order(m).strata)]
    pieces = [(pt, k.stalks[pt]) for pt in generic_first if not k.stalks[pt].is_zero()]

    def triangles():
        prev = zero_sheaf(m, k.ring)
        open_pts = frozenset()
        for pt in generic_first:
            open_pts |= {pt}
            cur = _extend_by_zero(m, open_pts, k)
            comps = {x: ChainMap.identity(prev.stalks[x]) for x in open_pts - {pt}}
            yield triangle_of(SheafMap(prev, cur, comps, check=False))
            prev = cur

    return pieces, triangles()
