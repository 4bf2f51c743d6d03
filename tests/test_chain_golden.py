"""Chain-level golden digest.

No CLI command reaches derived Hom, derived tensor, the Hom and tensor of
complexes, localization triangles or the base-change comparison map, and
selftest compares only their homology, so neither the CLI reports nor the
benchmark digests would notice a change in their matrices.  This test
hashes every matrix they build - its shape and every entry with its Python
type, read through the dense ``entries`` view - on 40 seeded sheaves over
Z, Q, F_2 and F_3, against a recorded digest.
"""

import hashlib
from random import Random

from sheafkit.linalg import GF, QQ, ZZ, tensor_chain_maps
from sheafkit.randgen import random_monotone_map, random_poset, random_sheaf
from sheafkit.sheaf import (
    SheafComplex, base_change_compare, derived_hom, derived_tensor,
    localization_triangle, _hom_end_complex,
)
from sheafkit.space import build_space, subspace

GOLDEN = "c85d1682bea1fa83502adb1aacbc5c17d01343cc44380da76c8d2a77e3d3afa1"


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def put(self, *parts):
        self._h.update(repr(parts).encode())

    def matrix(self, m):
        self.put(m.rows, m.cols,
                 tuple(tuple((type(x).__name__, x) for x in row) for row in m.entries))

    def complex(self, c):
        self.put("complex", sorted(c.ranks.items()))
        for n in sorted(c.ranks):
            self.matrix(c.diff(n))

    def chain_map(self, f):
        for n in sorted(set(f.source.ranks) | set(f.target.ranks)):
            self.put("component", n)
            self.matrix(f.component(n))

    def sheaf(self, k):
        for p in k.space.points:
            self.put("stalk", p)
            self.complex(k.stalks[p])
        for e in k.space.covers:
            self.put("gen", e)
            self.chain_map(k.gens[e])

    def sheaf_map(self, phi):
        self.sheaf(phi.source)
        self.sheaf(phi.target)
        for p in phi.source.space.points:
            self.put("comp", p)
            self.chain_map(phi.comps[p])

    def hexdigest(self):
        return self._h.hexdigest()


def chain_level_digest():
    out = Digest()
    for seed in range(40):
        ring = (ZZ, QQ, GF(2), GF(3))[seed % 4]
        rng = Random(f"chain-golden:{seed}")
        m = random_poset(rng, 5)
        k = random_sheaf(rng, m, ring, max_pieces=3)
        l = random_sheaf(rng, m, ring, max_pieces=1)
        out.put("seed", seed)
        out.sheaf(derived_hom(k, l))
        out.sheaf(derived_tensor(k, l))
        rng.choice(m.points)  # keeps the draws below where they were recorded
        z = m.down_set(rng.choice(m.points))
        x = rng.choice(m.points)
        # the Hom complex of two stalks is the homotopy end on one point
        pt = build_space(["x"], [])
        cx, _, _ = _hom_end_complex(SheafComplex(pt, ring, {"x": k.stalks[x]}, {}),
                                    SheafComplex(pt, ring, {"x": l.stalks[x]}, {}))
        out.complex(cx)
        for e in m.covers:
            out.chain_map(tensor_chain_maps(k.gens[e], l.gens[e]))
        tri = localization_triangle(k, z)
        for phi in (tri.f, tri.g, tri.h):
            out.sheaf_map(phi)
        s = random_poset(rng, 3)
        f = random_monotone_map(rng, m, s)
        _, incl = subspace(s, s.up_set(rng.choice(s.points)))
        cmp_map, iso, _ = base_change_compare(f, incl, k)
        out.put("iso", iso)
        out.sheaf_map(cmp_map)
    return out.hexdigest()


def test_chain_level_golden_digest():
    assert chain_level_digest() == GOLDEN
