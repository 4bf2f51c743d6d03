"""Each selftest check fails on a seeded instance once one library name it
calls breaks the invariant it checks: a check that returned True every time
would pass every test that calls it and test nothing."""

from dataclasses import replace
from random import Random

import pytest

from sheafkit import selftest
from sheafkit.sheaf import zero_sheaf
from sheafkit.space import MonotoneMap, build_space
from sheafkit.sper import Not

from conftest import shift, zero_map

# check -> (library name in sheafkit.selftest, its broken version given the
# original, seed of an instance on which the break shows)
BREAKS = {
    # s doubled, so u m v != s
    "_check_snf": ("snf", lambda snf: lambda m: (
        lambda s, u, v: (s + s, u, v))(*snf(m)), 0),
    # the dimension bound one too low
    "_check_cohomological_dimension": ("krull_dim", lambda kd: lambda m: kd(m) - 1, 1),
    # the triangle's second map zero
    "_check_localization": ("localization_triangle", lambda lt: lambda k, z: (
        lambda t: replace(t, g=zero_map(t.b, t.c)))(lt(k, z)), 1),
    # the first closed support dropped
    "_check_chi_realize": ("closed_support_decomposition", lambda csd: lambda phi: csd(phi)[1:], 0),
    # the first piece dropped
    "_check_factorization": ("cell_decompose", lambda cd: lambda k: (
        lambda pieces, tris: (pieces[1:], tris))(*cd(k)), 4),
    # base change along the closed complement of the open set
    "_check_open_base_change": ("subspace", lambda sub: lambda s, u: sub(
        s, frozenset(s.points) - u), 27),
    # every pushforward zero
    "_check_conservativity": ("pushforward", lambda _: lambda f, k: zero_sheaf(
        f.target, k.ring), 0),
    # a negation ignored
    "_check_sper_boolean": ("from_formula", lambda ff: lambda phi: ff(
        phi.child if isinstance(phi, Not) else phi), 0),
    # every sign flipped
    "_check_sign_multiplicativity": ("sign_at", lambda sa: lambda f, x: -sa(f, x), 0),
    # every tensor shifted by one
    "_check_hom_tensor_adjunction": ("derived_tensor", lambda dt: lambda k, l: shift(dt(k, l), 1), 0),
    # every defining formula negated
    "_check_formula_round_trip": ("defining_formula", lambda df: lambda s: Not(df(s)), 0),
    # every pullback negated
    "_check_projection_formula": ("pull_cons", lambda pc: lambda p, psi, cells: (
        lambda f, up: (f.scale(-1), up))(*pc(p, psi, cells)), 0),
}


def test_every_suite_has_a_break():
    assert sorted(BREAKS) == sorted(check.__name__ for _, check, _ in selftest._SUITES)


@pytest.mark.parametrize("check", sorted(BREAKS))
def test_check_fails_when_the_library_breaks(check, monkeypatch):
    name, broken, seed = BREAKS[check]
    assert getattr(selftest, check)(Random(seed))
    monkeypatch.setattr(selftest, name, broken(getattr(selftest, name)))
    assert not getattr(selftest, check)(Random(seed))


def test_conservativity_fails_on_a_fiber_that_is_not_discrete(monkeypatch):
    sierpinski = build_space(["s", "eta"], [("s", "eta")])
    monkeypatch.setattr(selftest, "random_discrete_fiber_map",
                        lambda rng, tgt: MonotoneMap.constant(sierpinski, tgt, tgt.points[0]))
    assert not selftest._check_conservativity(Random(0))
