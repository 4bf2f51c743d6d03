"""Constructible sheaf complexes on finite spectral spaces.

Exact computations with bounded complexes of constructible sheaves on finite
posets (stalks, generization maps, the open/closed functor calculus), the
pointwise Euler index identifying classes of complexes with integer-valued
constructible functions, and an exact cell model of the real spectrum of the
rational affine line with Euler pushforward along polynomial maps.
"""

from .linalg import (
    ZZ, QQ, GF, ScalarRing, Matrix, FreeChainComplex, ChainMap, FGModule,
    K0Class, snf, homology, tensor_total, k0_rank,
)
from .space import (
    FinSpec, MonotoneMap, Stratification, build_space, classify_subset,
    krull_dim, fiber_product, admissible_order, fibers_discrete, subspace,
)
from .sheaf import (
    SheafComplex, SheafMap, Triangle, rgamma, pullback, pushforward, j_shriek,
    i_star, localization_triangle, derived_tensor, derived_hom,
    base_change_compare, base_change_locus, cell_decompose, constant_sheaf,
    skyscraper, zero_sheaf, sheaf_is_acyclic, triangle_is_exact,
)
from .k0 import (
    ConsFunction, chi, realize, closed_support_decomposition, global_euler,
)
from .sper import (
    AlgNumber, SperPoint, SperConstructible, PolyMap, CellPoset,
    real_roots, sign_at, from_formula, closure, cell_poset, push_cons,
    pull_cons, refine_cells, transfer_cons,
)

__all__ = [name for name in dir() if not name.startswith("_")]
