"""Seeded invariant suites behind the selftest command.

Each suite runs a batch of randomized checks and reports (name, passes,
failures); the command exits nonzero when anything fails.  The batch sizes
are chosen so the whole battery stays well under a minute.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import intpoly as ip
from .k0 import ConsFunction, chi, closed_support_decomposition, global_euler, realize
from .linalg import Matrix, ZZ, det, homology, k0_rank, snf
from .randgen import (
    random_cons_function, random_discrete_fiber_map, random_monotone_map,
    random_poset, random_sheaf,
)
from .sheaf import (
    base_change_compare, cell_decompose, localization_triangle, pushforward,
    rgamma, sheaf_is_acyclic, triangle_is_exact,
)
from .space import classify_subset, fibers_discrete, krull_dim, subspace
from .sper import (
    And, Atom, Not, Or, SperPoint, from_formula, real_roots, sign_at,
)


def _suite_snf(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(ZZ, [[rng.randint(-20, 20) for _ in range(cols)]
                        for _ in range(rows)])
        s, u, v = snf(m)
        ok = (u @ m @ v) == s and det(u) in (1, -1) and det(v) in (1, -1)
        diag = [s[i, i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                ok = False
            if a != 0 and b % a != 0:
                ok = False
        npass, nfail = npass + ok, nfail + (not ok)
    return "snf", npass, nfail


def _suite_cohomological_dimension(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        m = random_poset(rng, 6)
        k = random_sheaf(rng, m)
        tops = [c.max_degree() for c in k.stalks.values() if not c.is_zero()]
        top = max(tops) if tops else 0
        bound = krull_dim(m) + top if m.points else 0
        ok = all(deg <= bound for deg in homology(rgamma(k)))
        npass, nfail = npass + ok, nfail + (not ok)
    return "cohomological-dimension", npass, nfail


def _suite_localization(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        m = random_poset(rng, 5)
        k = random_sheaf(rng, m)
        z = frozenset(q for p in m.points if rng.random() < 0.5
                      for q in m.down_set(p))
        ok = triangle_is_exact(localization_triangle(k, z))
        npass, nfail = npass + ok, nfail + (not ok)
    return "localization", npass, nfail


def _suite_chi_realize(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        m = random_poset(rng, 4)
        phi = random_cons_function(rng, m)
        ok = chi(realize(phi)) == phi
        parts = closed_support_decomposition(phi)
        acc = ConsFunction.zero(m)
        for z, c in parts:
            ok = ok and classify_subset(m, z)["closed"]
            acc = acc + ConsFunction.indicator(m, z).scale(c)
        ok = ok and acc == phi
        npass, nfail = npass + ok, nfail + (not ok)
    return "chi-realize", npass, nfail


def _suite_factorization(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        m = random_poset(rng, 4)
        k = random_sheaf(rng, m)
        ok = global_euler(k).value == global_euler(realize(chi(k))).value
        pieces, _ = cell_decompose(k)
        total = sum(k0_rank(c).value for _, c in pieces)
        ok = ok and total == sum(v for _, v in chi(k).values)
        npass, nfail = npass + ok, nfail + (not ok)
    return "euler-factorization", npass, nfail


def _suite_open_base_change(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        s = random_poset(rng, 4)
        x = random_poset(rng, 4)
        f = random_monotone_map(rng, x, s)
        k = random_sheaf(rng, x, max_pieces=1)
        opens = [u for u in _some_opens(rng, s)]
        u = rng.choice(opens)
        _, incl = subspace(s, u)
        _, iso, _ = base_change_compare(f, incl, k)
        npass, nfail = npass + iso, nfail + (not iso)
    return "open-base-change", npass, nfail


def _some_opens(rng: Random, m):
    out = [frozenset(m.points)]
    for p in m.points:
        out.append(m.up_set(p))
    return out


def _suite_conservativity(rng: Random, n: int):
    npass = nfail = 0
    done = 0
    while done < n:
        tgt = random_poset(rng, 4)
        f = random_discrete_fiber_map(rng, tgt)
        if not fibers_discrete(f):
            continue
        k = random_sheaf(rng, f.source)
        if sheaf_is_acyclic(k):
            continue
        done += 1
        ok = not sheaf_is_acyclic(pushforward(f, k))
        npass, nfail = npass + ok, nfail + (not ok)
    return "conservativity", npass, nfail


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


def _suite_sper_boolean(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        a = _random_formula(rng)
        b = _random_formula(rng)
        sa, sb = from_formula(a), from_formula(b)
        ok = from_formula(And((a, b))) == sa.intersect(sb)
        ok = ok and from_formula(Or((a, b))) == sa.union(sb)
        ok = ok and from_formula(Not(a)) == sa.complement()
        npass, nfail = npass + ok, nfail + (not ok)
    return "sper-boolean", npass, nfail


def _suite_sign_multiplicativity(rng: Random, n: int):
    npass = nfail = 0
    for _ in range(n):
        f = ip.normalize([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        g = ip.normalize([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        pts = [SperPoint.neg_inf(), SperPoint.pos_inf(),
               SperPoint.alg(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))]
        probe = ip.normalize([rng.randint(-3, 3) for _ in range(3)])
        if ip.degree(probe) >= 1:
            for r in real_roots(probe):
                pts.extend([SperPoint.alg(r), SperPoint.cut_minus(r),
                            SperPoint.cut_plus(r)])
        ok = all(sign_at(ip.mul(f, g), x) == sign_at(f, x) * sign_at(g, x)
                 for x in pts)
        npass, nfail = npass + ok, nfail + (not ok)
    return "sign-multiplicativity", npass, nfail


def run_suites(seed: int = 0):
    """Run every suite with its own deterministic stream; returns a list of
    (name, passes, failures)."""
    out = []
    suites = [
        (_suite_snf, 500),
        (_suite_cohomological_dimension, 60),
        (_suite_localization, 40),
        (_suite_chi_realize, 60),
        (_suite_factorization, 30),
        (_suite_open_base_change, 30),
        (_suite_conservativity, 30),
        (_suite_sper_boolean, 25),
        (_suite_sign_multiplicativity, 40),
    ]
    for i, (fn, n) in enumerate(suites):
        out.append(fn(Random(seed * 1000003 + i), n))
    return out
