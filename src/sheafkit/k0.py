"""Constructible functions and the pointwise Euler index.

The Euler index of a sheaf complex assigns to each point the alternating
rank sum of its stalk complex.  On a finite carrier this identifies classes
of complexes up to the triangulated relations with integer-valued functions
on the points; `realize` is the constructive inverse and
`closed_support_decomposition` writes a function as an integer combination
of indicators of closed subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import ZZ, FreeChainComplex, K0Class, k0_rank
from .sheaf import SheafComplex, rgamma
from .space import FinSpec, admissible_order, _key


class ConsFunctionError(Exception):
    pass


@dataclass(frozen=True)
class ConsFunction:
    """An integer-valued function on the points of a finite carrier."""

    space: FinSpec
    values: tuple  # sorted tuple of (point, int) pairs, total on points
    _at: dict = field(compare=False, repr=False)  # the values as a dict

    def __init__(self, space: FinSpec, values):
        vals = dict(values)
        missing = set(space.points) - set(vals)
        if missing:
            raise ConsFunctionError(f"not total: missing {sorted(missing, key=_key)}")
        extra = set(vals) - set(space.points)
        if extra:
            raise ConsFunctionError(f"unknown points {sorted(extra, key=_key)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values",
                           tuple(sorted(((p, int(v)) for p, v in vals.items()),
                                        key=lambda kv: _key(kv[0]))))
        object.__setattr__(self, "_at", dict(self.values))

    def __call__(self, p) -> int:
        return self._at[p]

    @classmethod
    def zero(cls, space: FinSpec) -> "ConsFunction":
        return cls(space, {p: 0 for p in space.points})

    @classmethod
    def indicator(cls, space: FinSpec, subset) -> "ConsFunction":
        subset = space.check_subset(subset)
        return cls(space, {p: (1 if p in subset else 0) for p in space.points})

    def _binop(self, other, op):
        if self.space != other.space:
            raise ConsFunctionError("carriers differ")
        b = other._at
        return ConsFunction(self.space, {p: op(x, b[p]) for p, x in self.values})

    def __add__(self, other):
        return self._binop(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binop(other, lambda x, y: x - y)

    def __mul__(self, other):
        return self._binop(other, lambda x, y: x * y)

    def scale(self, c: int) -> "ConsFunction":
        return ConsFunction(self.space, {p: c * v for p, v in self.values})

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.values)

    def __str__(self):
        return "phi: " + " ".join(f"{p}={v}" for p, v in self.values)


def chi(k: SheafComplex) -> ConsFunction:
    """The pointwise Euler index: the K0 rank of every stalk complex."""
    return ConsFunction(k.space, {p: k0_rank(c).value for p, c in k.stalks.items()})


def piece_indices(k: SheafComplex, pieces):
    """The Euler rank of each (point, stalk complex) piece of a cell
    decomposition of k, as (point, rank) pairs, and whether the ranks,
    placed at their points, sum to chi(k)."""
    ranks = [(pt, k0_rank(c).value) for pt, c in pieces]
    acc = dict.fromkeys(k.space.points, 0)
    for pt, v in ranks:
        acc[pt] += v
    return ranks, ConsFunction(k.space, acc) == chi(k)


def realize(phi: ConsFunction) -> SheafComplex:
    """A sheaf complex with the given Euler index, exactly.

    The direct sum over points of a rank-|phi(x)| skyscraper on the
    singleton stratum: the stalk at x is free of rank |phi(x)|, in degree 0
    for positive values and degree 1 for negative ones (an odd shift flips
    the sign of the index), and every generization map is zero.
    """
    stalks = {p: FreeChainComplex.free_module(ZZ, abs(v), 0 if v > 0 else 1)
              for p, v in phi.values if v}
    return SheafComplex(phi.space, ZZ, stalks, {}, check=False)


def closed_support_decomposition(phi: ConsFunction):
    """phi as sum of c_k times the indicator of a closed subset Z_k.

    Greedy from the generic end of the admissible order: each step clears
    the current point by subtracting a multiple of the indicator of its
    closure, which only touches more special points.
    """
    m = phi.space
    order = [next(iter(s)) for s in admissible_order(m).strata]
    residual = dict(phi.values)
    out = []
    for p in reversed(order):
        c = residual[p]
        if c == 0:
            continue
        z = m.down_set(p)
        out.append((z, c))
        for q in z:
            residual[q] -= c
    if any(residual.values()):
        raise ConsFunctionError("decomposition failed to terminate")
    return out


def global_euler(k: SheafComplex) -> K0Class:
    """Euler characteristic of the derived global sections."""
    return k0_rank(rgamma(k))
