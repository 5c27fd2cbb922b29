"""Exact-arithmetic toolkit for positive tropical Plücker vectors.

Combinatorial layer: cyclic k-subsets, weak separation, noncrossing
collections, decorated ordered set partitions.  Geometric layer: the
planar basis and its dual cross-ratios, the noncrossing fan with its
decomposition map, min-plus evaluation over the ladder network, weight
functionals, and the bounded complex of a positive tropical linear
space with its diameter bound.
"""

from .combinat import (
    DecoratedOSP,
    KSubset,
    NoncrossingTableau,
    dosp,
    is_cyclic_interval,
    is_noncrossing_partition,
    ksubset,
    maximal_noncrossing_collections,
    noncrossing,
    noncrossing_collections,
    noncyclic_subsets,
    weakly_separated,
)
from .ladder import LadderPoint, enumerate_path_families, rho, tropical_pluecker
from .ncfan import TPoint, d1_project, nc_decompose, nc_weight, psi, t_vector
from .planar import (
    corank_vector,
    cubical_array,
    directed_distance,
    planar_basis_vector,
    planar_expand,
    tropical_u,
)
from .pluecker import (
    PlueckerVector,
    equivalent_mod_lineality,
    face_restrict_one,
    face_restrict_zero,
    is_positive_tropical,
    lineality_shift,
)
from .troplin import (
    BoundedComplexReport,
    Matroid,
    argmin_matroid,
    balanced_representative,
    bounded_complex_vertices,
    central_representative,
    central_roof,
    diameter_check,
    grassmann_necklace,
    subdifferential_at,
)
from .weight import bridge, closed_form_tropical, pk_weight, weight_report, weight_two_candidates

__version__ = "0.1.0"
