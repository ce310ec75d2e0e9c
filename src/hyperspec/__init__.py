"""Spectral radii of k-uniform hypergraphs.

Two independent computations of the spectral radius (certified tensor
power iteration; exact weighted-incidence labelings), the rewiring
operations that increase it, and exhaustive enumeration of linear
unicyclic hypergraphs up to isomorphism.
"""

from .hypergraph import (
    Hypergraph,
    StructuralProfile,
    hypergraph_from_json,
    hypergraph_from_text,
    hypergraph_to_json,
    hypergraph_to_text,
    load_hypergraph,
    make_hypergraph,
    power_base,
    power_hypergraph,
    save_hypergraph,
    structural_profile,
    unique_cycle,
)
from .canonical import canonical_form, canonical_id, canonicalize
from .families import (
    FAMILY_TAGS,
    CycleRoles,
    FamilySpec,
    family,
    family_o_with_roles,
    family_p_with_roles,
    family_q_with_roles,
    simple_cycle,
    simple_family_graph,
    simple_s,
    simple_star,
    simple_t1,
    simple_t2,
    simple_u1,
)
from .spectral import (
    ConvergenceError,
    IterationOptions,
    SpectralResult,
    apply_adjacency,
    rayleigh,
    spectral_radii_tensor,
    spectral_radius_power_formula,
    spectral_radius_tensor,
)
from .alpha_normal import (
    NormalityReport,
    WeightedIncidence,
    build_B_O,
    build_B_P,
    build_B_Q_supernormal,
    check_normal,
    cycle_consistency,
    f_O,
    f_P,
    gamma,
    phi,
    psi,
    rho_from_alpha,
    solve_alpha,
    spectral_radius_alpha,
    weights_to_text,
)
from .transforms import EdgeMove, MoveResult, move_edges, relocate, yss_move
from .enumeration import (
    CapExceededError,
    InstanceCheck,
    RankEntry,
    VerificationReport,
    enumerate_linear_unicyclic,
    pool_size,
    rank_by_rho,
    verify_suite,
)

__version__ = "0.1.0"
