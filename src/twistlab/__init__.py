"""Exact verification toolkit for Dehn twist algebra on a genus-g surface.

The lattice module models the homology lattice with its intersection
pairing and transvection action; words evaluates twist words in the
symplectic group and carries a verified relation catalog; fourier holds
finitely supported vectors on the character torus; cohomology implements
cocycles, coboundaries and the telescoping solver; cli is the command
line front end.
"""

from .exact import ExactSqrt, GaussianRational
from .lattice import (
    HomologyClass,
    SymplecticMatrix,
    apply,
    basis_curve_class,
    basis_curve_name,
    choose_increasing_twist,
    dual_terms,
    intersection,
    is_symplectic,
    iter_classes,
    norm1,
    orbit_ray,
    standard_form,
    symplectic_basis,
    transvect,
    transvection_matrix,
    twist_matrix,
    x_basis,
    y_basis,
    zero_class,
)
from .words import (
    Curve,
    MetadataError,
    RelationInstance,
    TwistWord,
    basis_curves,
    builtin_catalog,
    find_twist_pair,
    is_torelli,
    matrix_residual,
    transvection_class,
    verify_relation,
    word_matrix,
)
from .fourier import (
    AliasingError,
    SparseVector,
    TorusPoint,
    act,
    decay_constant,
    decay_constants,
    evaluate,
    grid_mean,
    inner,
    torus_action,
    twist,
)
from .cohomology import (
    Cocycle,
    GeneratorSet,
    NonCocycleError,
    SolveReport,
    SmoothnessCheck,
    applicable_relations,
    c_pairing,
    coboundary,
    expansion_terms,
    extend,
    matches_generators,
    max_relation_residual,
    project_fixed,
    relation_residual,
    s_vector,
    smoothness_report,
    solve_coboundary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
