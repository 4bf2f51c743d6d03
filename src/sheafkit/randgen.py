"""Seeded random instances for property checks.

Random sheaf complexes are built from pieces whose generization data is
valid by construction (constant complexes extended by zero from up-sets and
down-sets, skyscrapers on points) and then disguised by unimodular changes
of basis at every point, which preserves validity while producing dense
matrices and mixed torsion.
"""

from __future__ import annotations

import string
from random import Random

from .k0 import ConsFunction
from .linalg import ChainMap, FreeChainComplex, Matrix, ScalarRing, ZZ
from .sheaf import SheafComplex, constant_sheaf, i_star, j_shriek, skyscraper, zero_sheaf
from .space import FinSpec, MonotoneMap, admissible_order, build_space, induced_subspace


def random_poset(rng: Random, max_points: int = 6, min_points: int = 1,
                 edge_prob: float = 0.35) -> FinSpec:
    n = rng.randint(min_points, max_points)
    names = list(string.ascii_lowercase[:n])
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                covers.append((names[i], names[j]))
    return build_space(names, covers)


def random_unimodular(rng: Random, ring: ScalarRing, n: int, ops: int = 4):
    """A unimodular matrix together with its inverse (elementary ops)."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    tinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        # row_i += c * row_j in t;  col_j -= c * col_i in tinv (over Z)
        for k in range(n):
            t[i][k] += c * t[j][k]
        for k in range(n):
            tinv[k][j] -= c * tinv[k][i]
    return Matrix(ring, t, n, n), Matrix(ring, tinv, n, n)


def random_complex(rng: Random, ring: ScalarRing = ZZ, max_pieces: int = 3,
                   degree_range=(-2, 2), conjugate: bool = True) -> FreeChainComplex:
    """Direct sum of shifted frees and two-term multiplication complexes,
    then an optional change of basis in every degree."""
    out = FreeChainComplex.zero(ring)
    for _ in range(rng.randint(1, max_pieces)):
        d = rng.randint(*degree_range)
        if rng.random() < 0.5:
            piece = FreeChainComplex.free_module(ring, rng.randint(1, 2), d)
        else:
            k = rng.choice([0, 1, 2, 2, 3, 6])
            piece = FreeChainComplex.from_diff(ring, d, Matrix(ring, [[k]]))
        out = out.direct_sum(piece)
    if conjugate:
        out = conjugate_complex(rng, out)
    return out


def _conjugated(rng: Random, c: FreeChainComplex):
    """c after a random unimodular change of basis t_n in every degree n,
    with the (t_n, t_n^-1) pairs by degree."""
    ts = {n: random_unimodular(rng, c.ring, r) for n, r in c.ranks.items()}
    diffs = {}
    for n in c.ranks:
        if c.rank(n + 1) == 0:
            continue
        t_next, _ = ts[n + 1]
        _, tinv = ts[n]
        diffs[n] = t_next @ c.diff(n) @ tinv
    return FreeChainComplex(c.ring, dict(c.ranks), diffs, check=False), ts


def conjugate_complex(rng: Random, c: FreeChainComplex):
    return _conjugated(rng, c)[0]


def conjugate_sheaf(rng: Random, k: SheafComplex) -> SheafComplex:
    """Each stalk conjugated in turn, and each generization map by the
    changes of basis of its two stalks."""
    stalks, ts = {}, {}
    for p, c in k.stalks.items():
        stalks[p], ts[p] = _conjugated(rng, c)
    gens = {}
    for (x, y), g in k.gens.items():
        mats = {}
        for n in set(k.stalks[x].ranks) & set(k.stalks[y].ranks):
            if k.stalks[x].rank(n) == 0 or k.stalks[y].rank(n) == 0:
                continue
            mats[n] = ts[y][n][0] @ g.component(n) @ ts[x][n][1]
        gens[(x, y)] = ChainMap(stalks[x], stalks[y], mats, check=False)
    return SheafComplex(k.space, k.ring, stalks, gens, check=False)


def random_sheaf(rng: Random, m: FinSpec, ring: ScalarRing = ZZ,
                 max_pieces: int = 2, degree_range=(-1, 1),
                 conjugate: bool = True, modules_only: bool = False) -> SheafComplex:
    """With modules_only the stalks are free modules in degree 0, so the
    result is an honest sheaf rather than a complex of sheaves."""
    out = zero_sheaf(m, ring)
    if m.is_empty():
        return out
    for _ in range(rng.randint(1, max_pieces)):
        x = rng.choice(m.points)
        if modules_only:
            c = FreeChainComplex.free_module(ring, rng.randint(1, 2), 0)
        else:
            c = random_complex(rng, ring, max_pieces=1, degree_range=degree_range,
                               conjugate=False)
        kind = rng.random()
        if kind < 0.4:
            u = m.up_set(x)
            piece = j_shriek(m, u, constant_sheaf(induced_subspace(m, u), c))
        elif kind < 0.8:
            z = m.down_set(x)
            piece = i_star(m, z, constant_sheaf(induced_subspace(m, z), c))
        else:
            piece = skyscraper(m, x, c)
        out = out.direct_sum(piece)
    if conjugate:
        out = conjugate_sheaf(rng, out)
    return out


def random_monotone_map(rng: Random, src: FinSpec, tgt: FinSpec,
                        tries: int = 60) -> MonotoneMap:
    """A random order-preserving map, by greedy assignment with restarts."""
    order = [next(iter(s)) for s in admissible_order(src).strata]
    for _ in range(tries):
        assign = {}
        ok = True
        for x in order:
            below = [assign[a] for (a, b) in src.covers if b == x and a in assign]
            cands = [q for q in tgt.points
                     if all(tgt.le(fa, q) for fa in below)]
            if not cands:
                ok = False
                break
            assign[x] = rng.choice(cands)
        if ok:
            return MonotoneMap(src, tgt, list(assign.items()))
    # fall back to a constant map onto a maximal point, which always works
    top = [q for q in tgt.points if not any(x == q for (x, _) in tgt.covers)]
    return MonotoneMap.constant(src, tgt, top[0] if top else tgt.points[-1])


def random_discrete_fiber_map(rng: Random, tgt: FinSpec, max_fiber: int = 2):
    """A map with antichain fibers: the source is a disjoint union of fiber
    antichains over the points of the target, with covers induced only
    between distinct fibers."""
    fibers = {q: [f"{q}{i}" for i in range(rng.randint(1, max_fiber))]
              for q in tgt.points}
    points = [x for fib in fibers.values() for x in fib]
    covers = []
    for (q, q2) in tgt.covers:
        for x in fibers[q]:
            for y in fibers[q2]:
                if rng.random() < 0.6:
                    covers.append((x, y))
    src = build_space(points, covers)
    mapping = [(x, q) for q, fib in fibers.items() for x in fib]
    return MonotoneMap(src, tgt, mapping)


def random_cons_function(rng: Random, m: FinSpec, lo: int = -3, hi: int = 3) -> ConsFunction:
    return ConsFunction(m, {p: rng.randint(lo, hi) for p in m.points})
