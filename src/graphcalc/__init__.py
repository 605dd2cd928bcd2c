"""Calculus on weighted graphs: measures, norms, operators, isoperimetry,
Cheeger-type eigenvalue bounds, heat kernels, and a Sobolev/Nash/Trudinger
verification harness."""

from .graph import (
    Edge,
    GraphError,
    WeightedGraph,
    build_graph,
    double,
    from_markov_chain,
    half_degrees,
    is_connected,
    L_stats,
    natural_measure,
    subdivide_edge,
    with_boundary,
)
from .functions import (
    VertexFunction,
    balance_interval,
    balance_point,
    coarea,
    edge_integral,
    grad_lp_norm,
    is_split,
    lp_norm_edge,
    lp_norm_vertex,
    midpoint_l2_sq,
    split_interval,
    split_shift,
    vertex_integral,
)
from .operators import (
    EdgeField,
    SpectralDecomposition,
    divergence,
    eigenvalues,
    gradient_field,
    laplacian_apply,
    laplacian_matrix,
    normal_flux,
    operator_norm_report,
    spectral_decomposition,
)
from .isoperimetry import (
    IsoReport,
    characteristic_approx,
    enumerate_connected_subsets,
    iso_constant,
    magnification,
    neighborhood,
    sobolev_quotient,
)
from .bounds import (
    alon_bound,
    alon_field,
    alon_field_checks,
    bobkov_bound,
    bound_report,
    certified_magnification,
    dodziuk_bound,
    mohar_bound,
    nodal_region_reduction,
    q1_quotient,
    q2_quotient,
    rayleigh_quotient,
    true_lambda,
)
from .heat import (
    DecayProfile,
    HeatKernel,
    default_t_grid,
    eigenvalue_lower_bounds,
    exhaustion_check,
    finite_uniqueness_check,
    general_decay_bound,
    heat_grid,
    heat_kernel,
    heat_residual,
    heat_solve,
    hypothesis_audit,
    nash_diagonal_bound,
    nonuniqueness_tree,
    power_profile,
)
from .sobolev import (
    InequalityCheck,
    general_F_check,
    gennash_check,
    iteration_constant,
    nash_check,
    sharpness_experiment,
    sobolev_check,
    sup_embedding_check,
    trudinger_check,
)
from . import generators
from .verify import SUITES, run_suite

__version__ = "1.0.0"
