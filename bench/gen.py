"""Seeded instance sets for the benchmark workloads.

An instance set is a fixed list of operations.  Each operation is one
``sheafkit`` command line; its file arguments name input files written by
``write_inputs``, and the program receives nothing else.  The same
``(workload, seed)`` always gives the same operations and the same bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from random import Random

from sheafkit import cli
from sheafkit import intpoly as ip
from sheafkit.randgen import (
    conjugate_sheaf, random_cons_function, random_monotone_map, random_poset,
    random_sheaf,
)
from sheafkit.space import build_space
from sheafkit.sper import cell_poset, from_formula

# Total rgamma ranks of the `sections` instances, one entry per operation.
# Homology cost grows roughly with the cube of the rank and varies about 2x
# between sheaves of one rank, so sizes follow a fixed schedule and the seed
# only draws sheaves of those sizes.  The median operation falls in the
# middle of 40 sheaves of rank 60 and the p90 operation among 30 of rank
# 200, so those latencies are quantiles of many sheaves rather than the
# cost of one.  Larger ranks are left out to keep every operation repeated
# several times in one run; ladder height 7 (rank above 2k) does not finish
# within minutes.
SECTION_RANKS = [20 + 20 * i // 29 for i in range(30)] + [60] * 40 + [200] * 30
LADDER_HEIGHTS = (3, 4, 5, 6)

# rgamma ranks of the `functors` sheaves, one entry per instance.  The cost
# of `basechange` grows steeply with this rank and, at one rank, varies up
# to 7x with the map; it sets the tail, so the largest class holds 48
# sheaves of one rank and the tail latency is a quantile of that class
# rather than the cost of one.  The median falls among the `decompose` and
# `pushforward` runs on the same 48 sheaves.
FUNCTOR_RANKS = [4 + 56 * i // 5 for i in range(6)] + [80] * 48
FUNCTOR_COMMANDS = ("cohomology", "chi", "decompose", "realize",
                    "pushforward", "basechange")

# `sper-roots` inputs: even polynomials of degree 20-40 with exactly
# ROOT_PAIRS pairs of real roots +-sqrt(c/a); a random cofactor with
# positive even coefficients has none.  Random polynomials vary 3x in cost
# with their number of real roots, and many rational roots cost up to 20 s.
ROOT_DEGREES = [20 + 4 * i for i in range(6)]
ROOT_PAIRS = 2
# atoms per `sper-set` and `sper-cells` formula: 17 cheap ones, 32 around
# the median and 2 large ones per command.  The 34 cheap formulas balance
# the 34 pushes, root finds and large formulas above the 7-atom class, so
# the median latency falls in the middle of its 64 formulas rather than at
# its slow edge, where few operations lie and the seed moves it most.
SET_ATOMS = (4,) * 17 + (7,) * 32 + (12,) * 2
# Real roots summed over a formula's atoms, by atom count: the middle of the
# values random formulas take.  The cost of `sper-set` and `sper-cells`
# follows this sum (correlation 0.8 with the log of the cost) and varies 5x
# between formulas of 7 atoms without it, so only formulas whose sum lies
# within one of the target are kept.
SET_ROOTS = {4: 5, 7: 10, 12: 18}
# (degree, real critical points) of the `sper-push` maps.  Push cost depends
# mostly on these two numbers, so they are fixed and only the coefficients
# are drawn.  The 20 maps of class (3, 2) are the slowest class and hold the
# tail percentile.  Degree 5 with real critical points takes 3-20 s per map
# and is left out.
PUSH_MAPS = ((2, 1), (3, 0)) + ((3, 2),) * 20 + ((4, 1), (5, 0))


@dataclass
class Op:
    """One command line of an instance set.

    ``argv`` holds file names relative to the input directory; ``files`` maps
    those names to their contents; ``oracle`` carries what the correctness
    checks need; ``sizes`` records the instance size.
    """

    id: str
    argv: list
    files: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    def resolved_argv(self, indir: str) -> list:
        """The command line with file arguments joined to ``indir``."""
        out = list(self.argv)
        for i in range(1, len(out) - 1):
            if out[i] in ("--space", "--sheaf", "--map"):
                out[i + 1] = os.path.join(indir, out[i + 1])
        return out

    def input_bytes(self) -> int:
        files = sum(len(t.encode()) for t in self.files.values())
        strings = sum(len(a.encode()) for i, a in enumerate(self.argv)
                      if i > 0 and self.argv[i - 1] in ("--poly", "--formula", "--phi"))
        return files + strings


# ---------------------------------------------------------------------------
# text writers


def map_to_text(name: str, target_name: str, f) -> str:
    """A map file in the format ``cli.parse_map`` reads; sheafkit has no writer."""
    t = f.target
    lines = [f"map {name}", f"target {target_name}",
             "points: " + " ".join(t.points),
             "covers: " + " ".join(f"{x}<{y}" for x, y in t.covers),
             "sends: " + " ".join(f"{x}->{y}" for x, y in f.mapping)]
    return "\n".join(lines) + "\n"


def poly_text(coeffs) -> str:
    """Explicit ``c*t^k`` terms; independent of ``intpoly.to_str``."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("*t" if k == 1 else f"*t^{k}")
        terms.append(f"{'-' if c < 0 else '+'} {abs(c)}{mono}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def phi_text(values) -> str:
    return "phi: " + " ".join(f"{p}={v}" for p, v in values)


# ---------------------------------------------------------------------------
# random inputs


def ladder(height: int):
    """Width-2 ladder: two points per level, every point below both of the
    next level's."""
    pts = [f"{c}{i}" for i in range(height) for c in "pq"]
    covers = [(f"{c}{i}", f"{d}{i + 1}")
              for i in range(height - 1) for c in "pq" for d in "pq"]
    return build_space(pts, covers)


def chains_by_top(m) -> dict:
    """Point -> number of strict chains whose top is that point."""
    count = {}
    for y in sorted(m.points, key=lambda p: len(m.down_set(p))):
        count[y] = 1 + sum(count[x] for x in m.down_set(y) if x != y)
    return count


def rgamma_rank(k) -> int:
    """Total rank of the derived-section complex, read off the stalks."""
    tops = chains_by_top(k.space)
    return sum(n * sum(k.stalks[p].ranks.values()) for p, n in tops.items())


def _predicted_rank(rng: Random, m, tops: dict, max_pieces: int) -> int:
    """The rgamma rank of ``random_sheaf(rng, m, max_pieces,
    conjugate=False)``, found by making the same random draws without
    building the sheaf."""
    total = 0
    for _ in range(rng.randint(1, max_pieces)):
        x = rng.choice(m.points)
        rng.randint(1, 1)
        rng.randint(-1, 1)
        if rng.random() < 0.5:
            rank = rng.randint(1, 2)      # a free module
        else:
            rng.choice(range(6))          # a two-term complex R -> R
            rank = 2
        kind = rng.random()
        support = m.up_set(x) if kind < 0.4 else m.down_set(x) if kind < 0.8 else (x,)
        total += rank * sum(tops[y] for y in support)
    return total


def _sheaf_of_rank(rng: Random, draw_space, target: int, max_pieces: int,
                   tries: int = 2000):
    """A ``random_sheaf`` on a space from ``draw_space()`` whose rgamma rank
    is within 5% of ``target`` (the closest one built if ``tries`` draws
    miss).  Draws whose predicted rank misses are skipped without building;
    ranks do not depend on the basis change, so it is applied to the chosen
    sheaf alone.  Returns (sheaf, rank)."""
    tol = max(5, target // 20)
    best = None
    probe = Random()
    for _ in range(tries):
        m = draw_space()
        probe.setstate(rng.getstate())
        if abs(_predicted_rank(probe, m, chains_by_top(m), max_pieces) - target) > tol:
            rng.setstate(probe.getstate())
            continue
        k = random_sheaf(rng, m, max_pieces=max_pieces, conjugate=False)
        r = rgamma_rank(k)
        if best is None or abs(r - target) < abs(best[1] - target):
            best = (k, r)
        if abs(r - target) <= tol:
            break
    k, r = best
    return conjugate_sheaf(rng, k), r


def _random_poly(rng: Random, degree: int, bound: int):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
    return coeffs


_RELOPS = ("<", "<=", "=", "!=", ">=", ">")


def _formula(rng: Random, atoms: int, degrees=(2, 4)):
    """A random Boolean combination of sign conditions.

    Returns the formula text and its tree: ("atom", coeffs, relop),
    ("!", node) or ("&" | "|", left, right).
    """
    parts = []
    for _ in range(atoms):
        coeffs = _random_poly(rng, rng.randint(*degrees), 5)
        relop = rng.choice(_RELOPS)
        node = ("atom", coeffs, relop)
        text = f"{poly_text(coeffs)} {relop} 0"
        if rng.random() < 0.15:
            node, text = ("!", node), f"!({text})"
        parts.append((text, node))
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        op = rng.choice(("&", "|"))
        (lt, ln), (rt, rn) = parts[i:i + 2]
        parts[i:i + 2] = [(f"({lt} {op} {rt})", (op, ln, rn))]
    return parts[0]


def _atoms(node) -> list:
    """The atom polynomials of a formula tree from ``_formula``."""
    if node[0] == "atom":
        return [node[1]]
    return [c for child in node[1:] for c in _atoms(child)]


def _formula_of_roots(rng: Random, atoms: int):
    """A ``_formula`` whose atoms have within one of ``SET_ROOTS[atoms]``
    real roots in all."""
    while True:
        text, tree = _formula(rng, atoms)
        roots = sum(len(ip.isolate_real_roots(tuple(c))) for c in _atoms(tree))
        if abs(roots - SET_ROOTS[atoms]) <= 1:
            return text, tree


def _sections(rng: Random):
    ladders = {}

    def draw_random():
        return random_poset(rng, 10, min_points=8, edge_prob=0.5)

    def draw_ladder():
        h = rng.choice(LADDER_HEIGHTS)
        return ladders.setdefault(h, ladder(h))

    ops = []
    for i, target in enumerate(SECTION_RANKS):
        k, r = _sheaf_of_rank(rng, draw_ladder if i % 2 else draw_random,
                              target, max_pieces=3)
        name = f"s{i:03d}"
        ops.append(Op(
            id=f"sections-{i:03d}",
            argv=["cohomology", "--space", f"{name}.space", "--sheaf", f"{name}.sheaf"],
            files={f"{name}.space": cli.space_to_text(name, k.space),
                   f"{name}.sheaf": cli.sheaf_to_text(k, name)},
            oracle={"euler": True},
            sizes={"rgamma_rank": r}))
    return ops


def _functors(rng: Random):
    def draw_space():
        return random_poset(rng, 8, min_points=5, edge_prob=0.4)

    ops = []
    for i, target in enumerate(FUNCTOR_RANKS):
        name = f"f{i:03d}"
        k, rank = _sheaf_of_rank(rng, draw_space, target, max_pieces=2)
        src = k.space
        tgt = random_poset(rng, 3 + i % 2, min_points=3 + i % 2, edge_prob=0.5)
        f = random_monotone_map(rng, src, tgt)
        phi = random_cons_function(rng, src)
        files = {f"{name}.space": cli.space_to_text(name, src),
                 f"{name}.sheaf": cli.sheaf_to_text(k, name),
                 f"{name}.map": map_to_text(f"{name}map", f"{name}t", f)}
        sizes = {"rgamma_rank": rank}
        space, sheaf, mapf = (["--space", f"{name}.space"], ["--sheaf", f"{name}.sheaf"],
                              ["--map", f"{name}.map"])
        stalk_chi = {p: sum((-1) ** (n % 2) * r for n, r in k.stalks[p].ranks.items())
                     for p in src.points}
        oracles = {"cohomology": {"euler": True},
                   "chi": {"chi": phi_text(stalk_chi.items())},
                   "decompose": {"stalk_chi": stalk_chi},
                   "realize": {"phi": phi_text(phi.values)}}
        for cmd in FUNCTOR_COMMANDS:
            if cmd == "realize":
                argv = [cmd] + space + ["--phi", phi_text(phi.values)]
            elif cmd in ("pushforward", "basechange"):
                argv = [cmd] + space + sheaf + mapf
            else:
                argv = [cmd] + space + sheaf
            ops.append(Op(id=f"functors-{i:03d}-{cmd}", argv=argv,
                          files={n: files[n] for n in files if n in argv},
                          oracle=oracles.get(cmd, {}), sizes=sizes))
    return ops


def _roots_poly(rng: Random, degree: int):
    """prod (a t^2 - c) over ROOT_PAIRS distinct c, times a cofactor with
    positive even coefficients only, which has no real root."""
    p = (1,)
    for c in rng.sample(range(2, 14), ROOT_PAIRS):
        p = ip.mul(p, (-c, 0, rng.randint(1, 3)))
    cofactor = [0] * (degree - 2 * ROOT_PAIRS + 1)
    cofactor[::2] = [rng.randint(1, 9) for _ in cofactor[::2]]
    return list(ip.mul(p, tuple(cofactor)))


def _quadratic_two_roots(rng: Random):
    """Coefficients of a quadratic with two distinct irrational real roots."""
    while True:
        c, b, a = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 4)
        disc = b * b - 4 * a * c
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            return [c, b, a]


def _push_map(rng: Random, degree: int, critical: int):
    """A map of the given degree with exactly ``critical`` real critical
    points, none found to be rational; degree 2 maps are taken as drawn."""
    while True:
        coeffs = _random_poly(rng, degree, 3)
        crit = ip.isolate_real_roots(ip.deriv(tuple(coeffs)))
        if degree == 2 or (len(crit) == critical
                           and all(e[0] == "interval" for e in crit)):
            return coeffs


def _reals(rng: Random):
    ops = []
    for i, deg in enumerate(ROOT_DEGREES):
        coeffs = _roots_poly(rng, deg)
        ops.append(Op(id=f"reals-roots-{i:03d}", argv=["sper-roots", "--poly", poly_text(coeffs)],
                      oracle={"coeffs": coeffs}, sizes={"degree": deg}))
    for cmd in ("sper-set", "sper-cells"):
        for i, atoms in enumerate(SET_ATOMS):
            text, tree = _formula_of_roots(rng, atoms)
            ops.append(Op(id=f"reals-{cmd[5:]}-{i:03d}", argv=[cmd, "--formula", text],
                          oracle={"formula": tree}, sizes={"atoms": atoms}))
    for i, (deg, critical) in enumerate(PUSH_MAPS):
        poly = poly_text(_push_map(rng, deg, critical))
        formula = f"{poly_text(_quadratic_two_roots(rng))} {rng.choice(_RELOPS)} 0"
        cp = cell_poset(from_formula(cli.parse_formula(formula)))
        phi = phi_text((q, rng.randint(-2, 2)) for q in cp.space.points)
        ops.append(Op(id=f"reals-push-{i:03d}",
                      argv=["sper-push", "--poly", poly, "--formula", formula, "--phi", phi],
                      sizes={"map_degree": deg}))
    return ops


def generate(workload: str, seed: int) -> list:
    """The instance set of a workload; pure function of (workload, seed)."""
    makers = {"sections": _sections, "functors": _functors, "reals": _reals}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return makers[workload](Random(f"{workload}:{seed}"))


def write_inputs(ops, indir: str) -> None:
    os.makedirs(indir, exist_ok=True)
    for op in ops:
        for name, text in op.files.items():
            with open(os.path.join(indir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
