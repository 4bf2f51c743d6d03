"""Bounded complexes of constructible sheaves on finite spectral spaces.

A sheaf complex is stored by its stalks: one free chain complex per point
(the sections over the minimal open up-set of the point) together with a
generization chain map along every cover relation, path-independent across
the poset.  All functors below are computed exactly on this data:

* derived global sections via the normalized chain cochain complex over
  strict chains of the poset (bounded by the Krull dimension),
* pullback, derived pushforward, extension by zero from opens and closeds,
* localization triangles with mapping-cone certificates,
* derived tensor (stalkwise, stalks are already complexes of frees),
* derived inner Hom via the homotopy-end complex over each up-set, which is
  the Hom against the two-sided bar resolution by the cell projectives
  "free sheaf on an up-set" (Hom out of those is stalk evaluation),
* dualizability of an object via the chain-level evaluation map,
* base-change comparison maps for Cartesian squares and their iso locus,
* the filtration of a complex by extensions of its stalks over singleton
  strata, certifying the Euler-index bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    ChainMap, FGModule, FreeChainComplex, Matrix, RingMismatch, ScalarRing,
    block_diagonal, complex_from_basis, cone, homology, kernel_basis,
    solve_right, tensor_chain_maps, tensor_with_basis,
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

    Values are immutable after construction; the only internal mutation is
    an idempotent memo of composite generization maps, whose entries are
    deterministic, so concurrent readers never observe different results.
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
        self._rho = {}
        if check:
            self._validate()

    def _validate(self):
        for p, c in self.stalks.items():
            if c.ring != self.ring:
                raise RingMismatch(f"stalk at {p!r} over {c.ring}, expected {self.ring}")
        for (x, y), g in self.gens.items():
            if g.source != self.stalks[x] or g.target != self.stalks[y]:
                raise SheafError(f"generization map at {x!r}<{y!r} has wrong endpoints")
            g._validate()
        self._validate_path_independence()

    def _validate_path_independence(self):
        """Compose each rho(x, z) once, through the first cover w < z, and
        check every other cover into z against it; by induction along a
        linear extension this compares all cover paths x -> z."""
        m = self.space
        below = {p: [] for p in m.points}
        for (w, z) in m.covers:
            below[z].append(w)
        # w < z implies a smaller down-set, so this order is a linear extension
        order = sorted(m.points, key=lambda p: len(m.down_set(p)))
        for x in m.points:
            up = m.up_set(x)
            rho = {x: ChainMap.identity(self.stalks[x])}
            for z in order:
                if z == x or z not in up:
                    continue
                first, *others = [self.gens[(w, z)].compose(rho[w])
                                  for w in below[z] if w in up]
                for via in others:
                    for n in set(via.mats) | set(first.mats):
                        if via.component(n) != first.component(n):
                            raise PathIndependenceViolation(
                                f"two paths {x!r} -> {z!r} compose differently in degree {n}")
                rho[z] = self._rho[(x, z)] = first

    def rho(self, x, y) -> ChainMap:
        """The composite generization map along any cover path x <= y."""
        if x == y:
            return ChainMap.identity(self.stalks[x])
        got = self._rho.get((x, y))
        if got is not None:
            return got
        if not self.space.le(x, y):
            raise SheafError(f"{x!r} is not below {y!r}")
        for (a, b) in self.space.covers:
            if a == x and self.space.le(b, y):
                got = self.rho(b, y).compose(self.gens[(x, b)])
                self._rho[(x, y)] = got
                return got
        raise SheafError(f"no cover path {x!r} -> {y!r}")

    def stalk(self, x) -> FreeChainComplex:
        return self.stalks[x]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.stalks.values())

    def shift(self, k: int) -> "SheafComplex":
        st = {p: c.shift(k) for p, c in self.stalks.items()}
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
            gens_cx[(x, y)] = ChainMap(stalk_cx[x], stalk_cx[y], {0: a, -1: b},
                                       check=False)
        return SheafComplex(self.space, self.ring, stalk_cx, gens_cx, check=True)

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
            val = R.mul(x, dj)
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
    """k restricted to the induced poset on s (exact, stalks kept)."""
    sub, _ = subspace(k.space, s)
    stalks = {p: k.stalks[p] for p in sub.points}
    gens = {(x, y): k.rho(x, y) for (x, y) in sub.covers}
    return SheafComplex(sub, k.ring, stalks, gens, check=False)


# ---------------------------------------------------------------------------
# derived global sections


def _chain_face_index(chains):
    """For each chain, the list of longer chains it is a face of.

    Returns dict face -> list of (chain, dropped_position).
    """
    idx = {}
    chain_set = set(chains)
    for c in chains:
        if len(c) < 2:
            continue
        for l in range(len(c)):
            face = c[:l] + c[l + 1:]
            if face in chain_set:
                idx.setdefault(face, []).append((c, l))
    return idx


def rgamma_labeled(k: SheafComplex):
    """Derived sections as a labelled total complex.

    Degree-n basis labels are (chain, q, i): a strict chain of the carrier,
    an internal degree q with len(chain) - 1 + q = n, and a basis index of
    the stalk complex at the top of the chain.  The differential combines
    the alternating chain-drop faces (the last one through the generization
    map of the dropped top) with the stalk differentials.
    """
    m = k.space
    R = k.ring
    chains = m.strict_chains()
    faces = _chain_face_index(chains)
    basis = {}
    for c in chains:
        p = len(c) - 1
        top = c[-1]
        for q, r in sorted(k.stalks[top].ranks.items()):
            lab = basis.setdefault(p + q, [])
            for i in range(r):
                lab.append((c, q, i))
    for lab in basis.values():
        lab.sort(key=lambda t: (len(t[0]), tuple(_key(x) for x in t[0]), t[1], t[2]))
    one, neg = R.one(), R.neg(R.one())

    def entries(n, lab):
        c, q, i = lab
        p = len(c) - 1
        sign_v = one if p % 2 == 0 else neg
        for i2, co in k.stalks[c[-1]].diff(q).col(i):
            yield (c, q + 1, i2), R.mul(sign_v, co)
        for (c2, l) in faces.get(c, ()):  # c = face_l(c2), len(c2) = p + 2
            sign = one if l % 2 == 0 else neg
            if l < len(c2) - 1:
                yield (c2, q, i), sign
            else:
                for i2, co in k.rho(c2[-2], c2[-1]).component(q).col(i):
                    yield (c2, q, i2), R.mul(sign, co)

    cx, index = complex_from_basis(R, basis, entries)
    labels = {n: tuple(lab) for n, lab in basis.items()}
    return cx, labels, index


def rgamma(k: SheafComplex) -> FreeChainComplex:
    """Derived global sections; vanishes above the Krull dimension."""
    cx, _, _ = rgamma_labeled(k)
    return cx


# ---------------------------------------------------------------------------
# the six-functor fragment


def pullback(f: MonotoneMap, k: SheafComplex) -> SheafComplex:
    """Stalk at x is the stalk at f(x); exact."""
    if k.space != f.target:
        raise SheafError("sheaf does not live on the target of the map")
    fm = dict(f.mapping)
    stalks = {x: k.stalks[fm[x]] for x in f.source.points}
    gens = {(x, y): k.rho(fm[x], fm[y]) for (x, y) in f.source.covers}
    return SheafComplex(f.source, k.ring, stalks, gens, check=False)


def _pushforward_labeled(f: MonotoneMap, k: SheafComplex, p: MonotoneMap | None = None):
    """Derived pushforward pulled back along p (by default the identity of
    the target of f), with the rgamma labels of every stalk.

    Stalk at t is the derived-section complex of k over the preimage of the
    minimal open of p(t); generization maps are the cochain restrictions, as
    p is monotone and so the labels at y all occur at x for x < y.
    """
    if k.space != f.source:
        raise SheafError("sheaf does not live on the source of the map")
    s = f.target
    if p is None:
        p = MonotoneMap.identity(s)
    pm = dict(p.mapping)
    return _restriction_sheaf(
        p.source, k.ring,
        lambda t: rgamma_labeled(restrict(k, f.preimage(s.up_set(pm[t])))))


def _restriction_sheaf(m: FinSpec, ring: ScalarRing, local):
    """(sheaf, labels, indexes) for the stalks local(x) = (complex, labels,
    index) on m, generization x < y restricting to the labels of y, which
    must all occur at x."""
    stalks, labels, indexes = {}, {}, {}
    for x in m.points:
        stalks[x], labels[x], indexes[x] = local(x)
    one = ring.one()
    gens = {}
    for (x, y) in m.covers:
        idx = indexes[x]
        gens[(x, y)] = _label_map(stalks[x], stalks[y], labels[y],
                                  lambda n, lab: ((idx[(n, lab)], one),))
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


def j_shriek(m: FinSpec, u, k: SheafComplex) -> SheafComplex:
    """Extension by zero from an open subset; k must live on the subspace of u."""
    u = m.check_subset(u)
    if not m.is_open(u):
        raise NotOpen(f"{sorted(u, key=_key)} is not open")
    sub, _ = subspace(m, u)
    if k.space != sub:
        raise SheafError("sheaf does not live on the open subspace")
    stalks = {x: k.stalks[x] for x in u}
    gens = {}
    for (x, y) in m.covers:
        if x in u:  # y is in u too since u is an up-set
            gens[(x, y)] = k.rho(x, y)
    return SheafComplex(m, k.ring, stalks, gens, check=False)


def i_star(m: FinSpec, z, k: SheafComplex) -> SheafComplex:
    """Pushforward from a closed subset; extension by zero on down-sets.

    For x outside a down-set z the up-set of x misses z entirely, so the
    sections of the pushforward near x vanish and no derived correction
    appears: the stalk is k at points of z and zero elsewhere.
    """
    z = m.check_subset(z)
    if not m.is_closed(z):
        raise NotClosed(f"{sorted(z, key=_key)} is not closed")
    sub, _ = subspace(m, z)
    if k.space != sub:
        raise SheafError("sheaf does not live on the closed subspace")
    stalks = {x: k.stalks[x] for x in z}
    gens = {}
    for (x, y) in m.covers:
        if y in z:  # x is in z too since z is a down-set
            gens[(x, y)] = k.rho(x, y)
    return SheafComplex(m, k.ring, stalks, gens, check=False)


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
    project = SheafMap(cn_sheaf, src.shift(1), projs, check=False)
    return cn_sheaf, include, project


def triangle_of(phi: SheafMap) -> Triangle:
    cn, include, project = sheaf_cone(phi)
    return Triangle(phi.source, phi.target, cn, phi, include, project)


def localization_triangle(k: SheafComplex, z) -> Triangle:
    """The triangle (extension by zero off z) -> k -> cone, with the cone
    stalkwise equivalent to the sections supported on the closed set z."""
    m = k.space
    z = m.check_subset(z)
    if not m.is_closed(z):
        raise NotClosed(f"{sorted(z, key=_key)} is not closed")
    u = frozenset(m.points) - z
    a = j_shriek(m, u, restrict(k, u))
    comps = {}
    for p in m.points:
        if p in u:
            comps[p] = ChainMap.identity(k.stalks[p])
    phi = SheafMap(a, k, comps, check=False)
    return triangle_of(phi)


def open_unit(k: SheafComplex, u):
    """The unit k -> (pushforward to the space of the restriction to the open u)."""
    m = k.space
    u = m.check_subset(u)
    if not m.is_open(u):
        raise NotOpen(f"{sorted(u, key=_key)} is not open")
    sub, incl = subspace(m, u)
    l_sheaf, labels, _ = _pushforward_labeled(incl, restrict(k, u))
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
    z = m.check_subset(z)
    if not m.is_closed(z):
        raise NotClosed(f"{sorted(z, key=_key)} is not closed")
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
    stalks = {}
    for p in k.space.points:
        cx, _ = tensor_with_basis(k.stalks[p], l.stalks[p])
        stalks[p] = cx
    gens = {}
    for e in k.space.covers:
        gens[e] = tensor_chain_maps(k.gens[e], l.gens[e])
    return SheafComplex(k.space, k.ring, stalks, gens, check=False)


def _hom_end_basis(k: SheafComplex, l: SheafComplex, chains):
    """Basis labels (chain, t, i, j) of the homotopy-end complex.

    The label stands for the matrix unit Hom(K_{c_0}^t, L_{c_top}^{t+q})
    placed in total degree (len(chain) - 1) + q.
    """
    basis = {}
    for c in chains:
        p = len(c) - 1
        a = k.stalks[c[0]]
        b = l.stalks[c[-1]]
        for t, ra in sorted(a.ranks.items()):
            for s, rb in sorted(b.ranks.items()):
                lab = basis.setdefault(p + (s - t), [])
                for i in range(ra):
                    for j in range(rb):
                        lab.append((c, t, i, j))
    for lab in basis.values():
        lab.sort(key=lambda x: (len(x[0]), tuple(_key(y) for y in x[0]), x[1], x[2], x[3]))
    return basis


def _hom_end_complex(k: SheafComplex, l: SheafComplex, up):
    """The homotopy-end complex of maps k -> l over the up-set `up`."""
    R = k.ring
    sub, _ = subspace(k.space, up)
    chains = sub.strict_chains()
    faces = _chain_face_index(chains)
    basis = _hom_end_basis(k, l, chains)
    one = R.one()
    neg = R.neg(one)

    def entries(n, lab):
        c, t, i, j = lab
        p = len(c) - 1
        q = n - p
        a = k.stalks[c[0]]
        b = l.stalks[c[-1]]
        sign_v = one if p % 2 == 0 else neg
        # internal hom differential: d_L . f - (-1)^q f . d_K
        for j2, co in b.diff(t + q).col(j):
            yield (c, t, i, j2), R.mul(sign_v, co)
        sign_k = neg if q % 2 == 0 else one
        for i2, co in a.diff(t - 1).row(i):
            yield (c, t - 1, i2, j), R.mul(R.mul(sign_v, sign_k), co)
        # end differential: faces of longer chains
        for (c2, pos) in faces.get(c, ()):
            sign = one if pos % 2 == 0 else neg
            if pos == 0:
                for i2, co in k.rho(c2[0], c2[1]).component(t).row(i):
                    yield (c2, t, i2, j), R.mul(sign, co)
            elif pos == len(c2) - 1:
                for j2, co in l.rho(c2[-2], c2[-1]).component(t + q).col(j):
                    yield (c2, t, i, j2), R.mul(sign, co)
            else:
                yield (c2, t, i, j), sign

    cx, index = complex_from_basis(R, basis, entries)
    labels = {n: tuple(lab) for n, lab in basis.items()}
    return cx, labels, index


def _derived_hom_labeled(k: SheafComplex, l: SheafComplex):
    if k.space != l.space or k.ring != l.ring:
        raise SheafError("hom needs matching space and ring")
    m = k.space
    return _restriction_sheaf(m, k.ring, lambda x: _hom_end_complex(k, l, m.up_set(x)))


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
    unit = unit_sheaf(m, R)
    kv, kv_labels, _ = _derived_hom_labeled(k, unit)
    hom_kk, _, hom_idx = _derived_hom_labeled(k, k)
    tensor_stalks = {}
    tensor_indexes = {}
    for p in m.points:
        cx, idx = tensor_with_basis(k.stalks[p], kv.stalks[p])
        tensor_stalks[p] = cx
        tensor_indexes[p] = idx
    gens = {e: tensor_chain_maps(k.gens[e], kv.gens[e]) for e in m.covers}
    tensor_sheaf = SheafComplex(m, R, tensor_stalks, gens, check=False)

    comps = {}
    for x in m.points:
        src = tensor_stalks[x]
        tgt = hom_kk.stalks[x]
        # invert the tensor index to enumerate source labels per degree
        by_degree = {}
        for (n, lab), pos in tensor_indexes[x].items():
            by_degree.setdefault(n, {})[pos] = lab
        mats = {}
        for n, pos_lab in by_degree.items():
            entries = []
            for pos, (p_deg, q_deg, i0, jv) in pos_lab.items():
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
        a1, b1 = a.shift(1), b.shift(1)
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
    prx = dict(pr_x.mapping)
    one = k.ring.one()
    comps = {}
    for t in p.source.points:
        src_idx = lhs_indexes[t]

        def entries(n, lab):
            cw, q, i = lab
            cx = tuple(prx[wpt] for wpt in cw)
            if any(cx[a] == cx[a + 1] for a in range(len(cx) - 1)):
                return ()  # degenerate image chain
            return ((src_idx[(n, (cx, q, i))], one),)

        comps[t] = _label_map(lhs.stalks[t], rhs.stalks[t], rhs_labels[t], entries)
    comparison = SheafMap(lhs, rhs, comps)
    defect, _, _ = sheaf_cone(comparison)
    return comparison, sheaf_is_acyclic(defect), defect


def base_change_locus(f: MonotoneMap, k: SheafComplex):
    """Points of the target over which base change along the point inclusion
    is an isomorphism, with the open/closed classification of the locus."""
    s = f.target
    locus = set()
    for q in s.points:
        _, incl = subspace(s, {q})
        _, iso, _ = base_change_compare(f, incl, k)
        if iso:
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
    one = k.ring.one()
    comps = {}
    for u in g.target.points:
        idx = lhs_idx[u]

        def entries(n, lab):
            cs, qq, ii = lab
            if len(cs) != 1:
                return ()
            return ((idx[(n, mid_labels[cs[0]][qq][ii])], one),)

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
            cur = j_shriek(m, open_pts, restrict(k, open_pts))
            comps = {x: ChainMap.identity(prev.stalks[x]) for x in open_pts - {pt}}
            yield triangle_of(SheafMap(prev, cur, comps, check=False))
            prev = cur

    return pieces, triangles()
