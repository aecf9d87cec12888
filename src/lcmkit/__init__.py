"""Cohen-Macaulay and l-Cohen-Macaulay checks for simplicial complexes,
squarefree modules, and simplicial posets, over Q or GF(p)."""

from .complexes import (
    SimplicialComplex,
    boundary_simplex,
    complete_graph,
    cycle,
    full_simplex,
    parse_facet_file,
    format_facet_file,
    path,
    real_projective_plane,
)
from .linalg import (
    FieldSpec,
    GF2,
    HomologyVector,
    QQ,
    SparseMatrix,
    rank,
    reduced_homology,
)
from .cm import (
    BettiTable,
    hochster_betti,
    is_cohen_macaulay,
    is_l_cm,
    l_cm_threshold,
    max_l,
)
from .squarefree import (
    SquarefreeModule,
    canonical_betti,
    delete_variables,
    from_complex,
    is_2cm_via_canonical,
    is_module_cm,
    is_module_l_cm,
    koszul_betti,
    max_module_l,
    module_dim,
    module_l_cm_threshold,
    module_skeleton,
    omega_module,
    parse_module_file,
    format_module_file,
    restrict,
    thm25_condition_ii,
    thm25_condition_iii,
)
from .posets import (
    SimplicialPoset,
    delete_atoms,
    face_poset,
    face_ring_module,
    glued_simplices,
    is_poset_cm,
    is_poset_l_cm,
    max_poset_l,
    order_complex,
    parse_poset_file,
    format_poset_file,
    poset_l_cm_threshold,
    poset_skeleton,
    random_simplicial_poset,
    restrict_poset,
)
from .sweeps import (
    SweepReport,
    enumerate_complexes,
    random_complex,
    standard_instances,
    sweep_oracle,
    sweep_remark45,
    sweep_routes,
    sweep_skeleton,
    sweep_thm25,
)

__version__ = "0.1.0"
