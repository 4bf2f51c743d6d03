"""The acceptance battery: one test per criterion, one printed verdict line.

Everything here is exact; random batches are seeded and sized as stated in
each criterion, with zero tolerated failures.  Run with -s to see the
verdict lines.
"""

from random import Random

import sheafkit.intpoly as ip
from sheafkit.k0 import ConsFunction
from sheafkit.linalg import FreeChainComplex, Matrix, ZZ, homology, snf
from sheafkit.randgen import random_monotone_map, random_poset, random_sheaf
from sheafkit.selftest import (
    _check_chi_realize, _check_conservativity, _check_factorization, _check_snf,
)
from sheafkit.sheaf import (
    base_change_compare, base_change_locus, constant_sheaf,
    localization_triangle, rgamma, triangle_is_exact,
)
from sheafkit.space import build_space, krull_dim, subspace
from sheafkit.sper import (
    Atom, PolyMap, SperPoint, cell_poset, closure, from_formula, push_cons,
    real_roots, sign_at,
)


def _verdict(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def lam():
    return FreeChainComplex.free_module(ZZ, 1, 0)


def test_criterion_1_pseudo_circle():
    # Oracle (by hand, recorded in README): the cochain complex of the
    # four-point space a, b < x, y with constant Z is
    #   C^0 = Z^4 (one factor per point) -> C^1 = Z^4 (one per cover)
    # with d(phi)(p < q) = phi(q) - phi(p), the incidence matrix of a
    # 4-cycle: kernel Z (constants), cokernel Z, so H^0 = H^1 = Z.
    m = build_space(["a", "b", "x", "y"],
                    [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
    h = homology(rgamma(constant_sheaf(m, lam())))
    ok = ({n: (mod.free_rank, mod.invariant_factors) for n, mod in h.items()}
          == {0: (1, ()), 1: (1, ())})
    _verdict(1, "pseudo-circle cohomology", ok)


def test_criterion_2_cohomological_dimension_bound():
    rng = Random(101)
    failures = 0
    for _ in range(200):
        m = random_poset(rng, 7)
        k = random_sheaf(rng, m, modules_only=True)
        bound = krull_dim(m)
        if any(n > bound for n in homology(rgamma(k))):
            failures += 1
    _verdict(2, "cohomological dimension bound, 200 random sheaves", failures == 0)


def test_criterion_3_localization_exactness():
    rng = Random(102)
    failures = 0
    for _ in range(300):
        m = random_poset(rng, 6)
        k = random_sheaf(rng, m)
        z = frozenset(q for p in m.points if rng.random() < 0.5
                      for q in m.down_set(p))
        if not triangle_is_exact(localization_triangle(k, z)):
            failures += 1
    _verdict(3, "localization triangles, 300 random pairs", failures == 0)


def test_criterion_4_euler_index_isomorphism():
    rng = Random(103)
    failures = sum(not _check_chi_realize(rng) for _ in range(200))
    failures += sum(not _check_factorization(rng) for _ in range(100))
    _verdict(4, "index realization and cell decomposition bookkeeping", failures == 0)


def test_criterion_5_additive_invariant_factorization():
    rng = Random(104)
    failures = sum(not _check_factorization(rng) for _ in range(100))
    _verdict(5, "Euler characteristic factors through the index", failures == 0)


def test_criterion_6_base_change():
    m = build_space(["s", "eta"], [("s", "eta")])
    sub, j = subspace(m, {"eta"})
    k = constant_sheaf(sub, lam())
    _, p_closed = subspace(m, {"s"})
    _, iso, defect = base_change_compare(j, p_closed, k)
    h = homology(defect.stalks["s"])
    ok = (not iso) and len(h) == 1 and next(iter(h.values())).free_rank == 1
    locus, flags = base_change_locus(j, k)
    ok = ok and locus == frozenset({"eta"}) and flags["open"] and not flags["closed"]
    rng = Random(105)
    good = 0
    for _ in range(100):
        s = random_poset(rng, 4)
        x = random_poset(rng, 4)
        f = random_monotone_map(rng, x, s)
        kk = random_sheaf(rng, x, max_pieces=1)
        u = s.up_set(rng.choice(s.points))
        _, incl = subspace(s, u)
        _, iso2, _ = base_change_compare(f, incl, kk)
        good += iso2
    ok = ok and good == 100
    _verdict(6, "base change detection and open-immersion isos", ok)


def test_criterion_7_conservativity():
    rng = Random(106)
    failures = sum(not _check_conservativity(rng) for _ in range(200))
    _verdict(7, "discrete-fiber pushforward is conservative, 200 instances",
             failures == 0)


def test_criterion_8_sturm():
    roots = real_roots((0, -2, 0, 1))
    ok = len(roots) == 3 and roots[1].compare(0) == 0
    q = (1,)
    for r in range(1, 6):
        q = ip.mul(q, (-r, 1))
    qr = real_roots(q)
    ok = ok and len(qr) == 5
    ok = ok and all(qr[i].compare(qr[i + 1]) < 0 for i in range(4))
    sqrt2 = real_roots((-2, 0, 1))[1]
    ok = ok and sign_at((-2, 0, 1), SperPoint.cut_plus(sqrt2)) == 1
    _verdict(8, "exact root isolation and cut signs", ok)


def test_criterion_9_sper_cells():
    s = from_formula(Atom((-2, 0, 1), "<"))
    ok = sum(s.mask) == 1 and len(s.roots) == 2
    cl = closure(s)
    ok = ok and list(cl.mask) == [False, True, True, True, False]
    cp = cell_poset(s)
    ok = ok and krull_dim(cp.space) == 1
    k = constant_sheaf(cp.space, lam())
    h = homology(rgamma(k))
    ok = ok and {n: (mod.free_rank, mod.invariant_factors)
                 for n, mod in h.items()} == {0: (1, ())}
    _verdict(9, "cell model of the open disc", ok)


def test_criterion_10_euler_pushforward():
    cp = cell_poset([])
    one = ConsFunction(cp.space, {q: 1 for q in cp.space.points})
    out, oc = push_cons(PolyMap((0, 0, 1)), one, cp)
    ok = [out(oc.point_at(i)) for i in range(len(oc.cells))] == [0, 1, 2]
    out, oc = push_cons(PolyMap((0, -3, 0, 1)), one, cp)
    ok = ok and [out(oc.point_at(i)) for i in range(len(oc.cells))] == [1, 2, 3, 2, 1]
    ok = ok and oc.roots[0].compare(-2) == 0 and oc.roots[1].compare(2) == 0
    # independent oracle: count roots of p(t) - c at rational samples
    for c, expect in ((-3, 1), (-2, 2), (0, 3), (2, 2), (3, 1)):
        fiber = real_roots(ip.sub((0, -3, 0, 1), (c,)))
        ok = ok and len(fiber) == expect
    _verdict(10, "Euler pushforward fiber counts", ok)


def test_criterion_11_smith_normal_form():
    s, u, v = snf(Matrix(ZZ, [[4, 6], [2, 2]]))
    ok = [s[0, 0], s[1, 1]] == [2, 2]
    rng = Random(107)
    ok = ok and sum(not _check_snf(rng) for _ in range(500)) == 0
    _verdict(11, "Smith normal form, 500 random matrices", ok)
