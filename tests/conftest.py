import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from random import Random

import pytest

import sheafkit
from sheafkit.linalg import GF, QQ, ZZ, FreeChainComplex, homology
from sheafkit.randgen import random_monotone_map, random_poset, random_sheaf
from sheafkit.sheaf import (
    SheafComplex, SheafMap, _label_map, _slice, constant_sheaf, pullback, rgamma_labeled,
)
from sheafkit.space import MonotoneMap, build_space, subspace

SRC = os.path.dirname(os.path.dirname(sheafkit.__file__))

# Appended to the child's code: its own peak resident set, then its result.
# The child reads VmHWM itself, as ru_maxrss keeps the high-water mark of
# the test process across fork and exec.
_REPORT = """
with open("/proc/self/status") as fh:
    result["rss_mb"] = next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:")) / 1024
print(json.dumps(result))
"""


def _run_child(code, *argv, timeout=120):
    """Run code (dedented) in a fresh interpreter that imports this
    sheafkit, with sys.argv[1:] = argv, and return the dict it leaves in
    ``result``, with the child's peak resident set in MB under "rss_mb"."""
    script = "import json\nresult = {}\n" + textwrap.dedent(code) + _REPORT
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                         capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(out.stdout)


@pytest.fixture
def run_child():
    """``_run_child``, in a process measured alone; skipped where there is
    no /proc/self/status to read the peak resident set from."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the child's peak resident set is read from /proc/self/status")
    return _run_child


@pytest.fixture(scope="session")
def bench_gen():
    """The benchmark's instance generator, bench/gen.py, read and not
    changed."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "gen.py")
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def same_stalk_homology(k, l):
    """Equality of stalkwise homology: the oracle for statements
    "quasi-isomorphic without an explicit map"."""
    return ({p: homology(c) for p, c in k.stalks.items()}
            == {p: homology(c) for p, c in l.stalks.items()})


def unit_sheaf(m, ring):
    """The constant sheaf of rank 1 in degree 0 on m."""
    return constant_sheaf(m, FreeChainComplex.free_module(ring, 1, 0))


def is_zero_sheaf(k):
    """Whether every stalk of the sheaf complex k is zero."""
    return all(c.is_zero() for c in k.stalks.values())


def shift(k, n):
    """The sheaf complex k[n], stalk by stalk."""
    return k._shifted(n, {p: c.shift(n) for p, c in k.stalks.items()})


def zero_map(k, l):
    """The zero map of sheaf complexes k -> l."""
    return SheafMap(k, l, {}, check=False)


def restrict(k, s):
    """k restricted to the induced poset on s: the pullback along its
    inclusion (exact, stalks kept)."""
    _, incl = subspace(k.space, s)
    return pullback(incl, k)


def _per_point_pushforward(f, k):
    """The pushforward of k along f with nothing shared, as (sheaf, labels,
    indexes): one ``_slice`` of rgamma_labeled(k) per target point, the
    whole source included, and one ``_label_map`` per cover."""
    s = f.target
    whole = rgamma_labeled(k)
    stalks, labels, indexes = {}, {}, {}
    for t in s.points:
        stalks[t], labels[t], indexes[t] = _slice(whole, f.preimage(s.up_set(t)))
    gens = {}
    for (x, y) in s.covers:
        idx = indexes[x]
        gens[(x, y)] = _label_map(stalks[x], stalks[y], labels[y],
                                  lambda n, lab: ((idx[(n, lab)], 1),))
    return SheafComplex(s, k.ring, stalks, gens, check=False), labels, indexes


@pytest.fixture
def per_point_pushforward():
    """``_per_point_pushforward``, the reference for the shared stalks."""
    return _per_point_pushforward


def _fan_by_levels():
    """fan(3, 3), x below the chains a1 < a2 < a3, b1 < ... and c1 < ...,
    all below z, onto the chain l0 < ... < l4 by levels."""
    chains = [[f"{c}{i}" for i in (1, 2, 3)] for c in "abc"]
    covers = [(x, y) for ch in chains for x, y in zip(["x"] + ch, ch + ["z"])]
    m = build_space(["x", "z"] + [p for ch in chains for p in ch], covers)
    chain = build_space([f"l{i}" for i in range(5)], [(f"l{i}", f"l{i + 1}") for i in range(4)])
    level = {"x": "0", "z": "4"}
    return MonotoneMap(m, chain, [(p, "l" + level.get(p, p[1:])) for p in m.points])


def _pushforward_cases(seed, n=64):
    """n seeded (f, k), the rings Z, Q, F_2 and F_3 in turn within each
    kind of map: seeded maps, constant maps onto a random poset, identity
    maps, and fan(3, 3) onto a chain by levels."""
    rng = Random(seed)
    fan = _fan_by_levels()
    for i in range(n):
        ring = (ZZ, QQ, GF(2), GF(3))[i % 4]
        kind = ("seeded", "constant", "identity", "fan")[(i // 4) % 4]
        if kind == "fan":
            f = fan
        else:
            x = random_poset(rng, 5)
            if kind == "seeded":
                f = random_monotone_map(rng, x, random_poset(rng, 4))
            elif kind == "constant":
                s = random_poset(rng, 4, min_points=2)
                q = rng.choice(s.points)
                f = MonotoneMap(x, s, [(p, q) for p in x.points])
            else:
                f = MonotoneMap.identity(x)
        yield f, random_sheaf(rng, f.source, ring, max_pieces=2)


@pytest.fixture
def pushforward_cases():
    """``_pushforward_cases``: the maps the shared stalks are tested on."""
    return _pushforward_cases
