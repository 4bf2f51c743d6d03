"""Seeded invariant suites behind the selftest command.

Each suite is a check of one randomized instance, drawn from the stream it
is given, and a batch size; ``run_suites`` runs every batch and counts the
passes and failures, and the command exits nonzero when anything fails.
The batch sizes are chosen so the whole battery stays well under a minute.

Each ``_check_*`` is the one definition of its invariant: the acceptance
criteria and the unit tests that test it run the same function on their
own seeded streams, batch sizes and zero-failure gates.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import intpoly as ip
from .k0 import (
    ConsFunction, chi, closed_support_decomposition, global_euler, piece_indices,
    realize,
)
from .linalg import Matrix, ZZ, det, homology, snf
from .randgen import (
    random_cons_function, random_discrete_fiber_map, random_monotone_map,
    random_poset, random_sheaf,
)
from .sheaf import (
    base_change_compare, cell_decompose, derived_hom, derived_tensor,
    localization_triangle, pushforward, rgamma_reduced, sheaf_is_acyclic,
    skyscraper, triangle_is_exact,
)
from .space import classify_subset, fibers_discrete, krull_dim, subspace
from .sper import (
    And, Atom, Not, Or, PolyMap, SperPoint, cell_poset, closure, defining_formula,
    from_formula, pull_cons, push_cons, real_roots, refine_cells, sign_at,
    transfer_cons,
)


def _check_snf(rng: Random) -> bool:
    """u @ m @ v = s for a random integer matrix m, with u and v unimodular
    and s diagonal with d_1 | d_2 | ... (zeros last)."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    m = Matrix(ZZ, [[rng.randint(-20, 20) for _ in range(cols)]
                    for _ in range(rows)])
    s, u, v = snf(m)
    diag = [s[i, i] for i in range(min(rows, cols))]
    return ((u @ m @ v) == s and det(u) in (1, -1) and det(v) in (1, -1)
            and all(i == j for i, j, _ in s.nonzeros())
            and all(b == 0 if a == 0 else b % a == 0
                    for a, b in zip(diag, diag[1:])))


def _check_cohomological_dimension(rng: Random) -> bool:
    m = random_poset(rng, 6)
    k = random_sheaf(rng, m)
    tops = [c.max_degree() for c in k.stalks.values() if not c.is_zero()]
    top = max(tops) if tops else 0
    bound = krull_dim(m) + top if m.points else 0
    return all(deg <= bound for deg in homology(rgamma_reduced(k)))


def _check_localization(rng: Random) -> bool:
    m = random_poset(rng, 5)
    k = random_sheaf(rng, m)
    z = frozenset(q for p in m.points if rng.random() < 0.5
                  for q in m.down_set(p))
    return triangle_is_exact(localization_triangle(k, z))


def _check_chi_realize(rng: Random) -> bool:
    m = random_poset(rng, 4)
    phi = random_cons_function(rng, m)
    ok = chi(realize(phi)) == phi
    acc = ConsFunction.zero(m)
    for z, c in closed_support_decomposition(phi):
        ok = ok and classify_subset(m, z)["closed"]
        acc = acc + ConsFunction.indicator(m, z).scale(c)
    return ok and acc == phi


def _check_factorization(rng: Random) -> bool:
    """The Euler characteristic of k is that of realize(chi(k)) and the sum
    over the cell decomposition's pieces of their skyscrapers', and the
    pieces' Euler ranks, placed at their points, sum to chi(k)."""
    m = random_poset(rng, 4)
    k = random_sheaf(rng, m)
    euler = global_euler(k).value
    pieces, _ = cell_decompose(k)
    return (euler == global_euler(realize(chi(k))).value
            and piece_indices(k, pieces)[1]
            and euler == sum(global_euler(skyscraper(m, pt, c)).value
                             for pt, c in pieces))


def _check_open_base_change(rng: Random) -> bool:
    s = random_poset(rng, 4)
    x = random_poset(rng, 4)
    f = random_monotone_map(rng, x, s)
    k = random_sheaf(rng, x, max_pieces=1)
    u = rng.choice([frozenset(s.points)] + [s.up_set(p) for p in s.points])
    _, incl = subspace(s, u)
    return base_change_compare(f, incl, k)[1]


def _check_conservativity(rng: Random) -> bool:
    """Draws until the sheaf is not acyclic; a map whose fibers are not
    discrete fails."""
    while True:
        tgt = random_poset(rng, 4)
        f = random_discrete_fiber_map(rng, tgt)
        if not fibers_discrete(f):
            return False
        k = random_sheaf(rng, f.source)
        if not sheaf_is_acyclic(k):
            return not sheaf_is_acyclic(pushforward(f, k))


def _check_hom_tensor_adjunction(rng: Random) -> bool:
    """RHom(k (x) l, n) and RHom(k, RHom(l, n)) have the same homology at
    every point."""
    m = random_poset(rng, 5, min_points=4)
    k, l, n = (random_sheaf(rng, m, max_pieces=3) for _ in range(3))
    lhs = derived_hom(derived_tensor(k, l), n)
    rhs = derived_hom(k, derived_hom(l, n))
    return all(homology(lhs.stalks[p]) == homology(rhs.stalks[p]) for p in m.points)


def _random_formula(rng: Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        if not any(coeffs):
            coeffs[-1] = 1
        op = rng.choice(["<", "<=", "=", "!=", ">=", ">"])
        return Atom(ip.normalize(coeffs), op)
    kind = rng.random()
    if kind < 0.4:
        return And((_random_formula(rng, depth - 1), _random_formula(rng, depth - 1)))
    if kind < 0.8:
        return Or((_random_formula(rng, depth - 1), _random_formula(rng, depth - 1)))
    return Not(_random_formula(rng, depth - 1))


def _check_sper_boolean(rng: Random) -> bool:
    a = _random_formula(rng)
    b = _random_formula(rng)
    sa, sb = from_formula(a), from_formula(b)
    return (from_formula(And((a, b))) == sa.intersect(sb)
            and from_formula(Or((a, b))) == sa.union(sb)
            and from_formula(Not(a)) == sa.complement())


def _check_formula_round_trip(rng: Random) -> bool:
    """A set and its closure are the sets of their defining formulas, and
    the closure is closed."""
    s = from_formula(_random_formula(rng))
    cl = closure(s)
    return (from_formula(defining_formula(s)) == s
            and from_formula(defining_formula(cl)) == cl and closure(cl) == cl)


def _check_projection_formula(rng: Random) -> bool:
    """p_*(phi . p^*psi) = p_*(phi) . psi, compared on a common refinement of
    the two sides' cells (Schapira, JPAA 1991)."""
    coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(2, 4))]
    if ip.degree(ip.normalize(coeffs)) < 1:
        coeffs = [0, 0, 1]
    p = PolyMap(coeffs)
    cp = cell_poset(from_formula(_random_formula(rng)))
    phi = ConsFunction(cp.space, {q: rng.randint(-2, 2) for q in cp.space.points})
    pushed, down = push_cons(p, phi, cp)
    psi = ConsFunction(down.space, {q: rng.randint(-2, 2) for q in down.space.points})
    pulled, up = pull_cons(p, psi, down)
    mid = refine_cells(cp, up.roots)
    left, left_cells = push_cons(
        p, transfer_cons(phi, cp, mid) * transfer_cons(pulled, up, mid), mid)
    common = refine_cells(left_cells, down.roots)
    return (transfer_cons(left, left_cells, common)
            == transfer_cons(pushed, down, common) * transfer_cons(psi, down, common))


def _check_sign_multiplicativity(rng: Random) -> bool:
    f = ip.normalize([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
    g = ip.normalize([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
    pts = [SperPoint.neg_inf(), SperPoint.pos_inf(),
           SperPoint.alg(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))]
    probe = ip.normalize([rng.randint(-3, 3) for _ in range(3)])
    if ip.degree(probe) >= 1:
        for r in real_roots(probe):
            pts.extend([SperPoint.alg(r), SperPoint.cut_minus(r),
                        SperPoint.cut_plus(r)])
    return all(sign_at(ip.mul(f, g), x) == sign_at(f, x) * sign_at(g, x)
               for x in pts)


_SUITES = (
    ("snf", _check_snf, 500),
    ("cohomological-dimension", _check_cohomological_dimension, 60),
    ("localization", _check_localization, 40),
    ("chi-realize", _check_chi_realize, 60),
    ("euler-factorization", _check_factorization, 30),
    ("open-base-change", _check_open_base_change, 30),
    ("conservativity", _check_conservativity, 30),
    ("sper-boolean", _check_sper_boolean, 25),
    ("sign-multiplicativity", _check_sign_multiplicativity, 40),
    ("hom-tensor-adjunction", _check_hom_tensor_adjunction, 40),
    ("formula-round-trip", _check_formula_round_trip, 40),
    ("projection-formula", _check_projection_formula, 40),
)


def run_suites(seed: int = 0):
    """Run every suite's batch with its own deterministic stream; returns a
    list of (name, passes, failures)."""
    out = []
    for i, (name, check, n) in enumerate(_SUITES):
        rng = Random(seed * 1000003 + i)
        npass = sum(bool(check(rng)) for _ in range(n))
        out.append((name, npass, n - npass))
    return out
