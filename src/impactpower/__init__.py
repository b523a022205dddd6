"""Quantify quantum correlations through the global impact of local unitaries.

The library computes the impact of a local Hamiltonian on a bipartite state,
its time maximum (the impact power), the extremal impact powers over all
local Hamiltonians, and the geometric discord they encode, together with
independent brute-force oracles and a command-line frontend.
"""

from .errors import (
    DegenerateHamiltonian,
    DimensionMismatch,
    ImpactPowerError,
    InvalidDensityMatrix,
    InvalidHamiltonian,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    OutOfRange,
)
from .linalg import (
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    haar_unitary,
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    hs_norm_sq,
    partial_trace_A,
    partial_trace_B,
    tensor,
    trace_norm,
)
from .states import (
    BlochTwoQubit,
    ClassicalQuantumSpec,
    DensityMatrix,
    bloch_decompose,
    bloch_reconstruct,
    classical_quantum,
    from_pure,
    isotropic,
    load_state,
    phi_plus,
    random_cq_spec,
    random_state,
    random_states,
    save_state,
    state_from_dict,
    state_to_dict,
    swap_operator,
    swap_parties,
    werner,
)
from .dynamics import (
    ImpactCoefficients,
    ImpactPowerResult,
    LocalHamiltonian,
    evolve,
    hamiltonian_from_dict,
    hamiltonian_to_dict,
    impact,
    impact_coefficients,
    impact_power,
    impact_power_result,
    load_hamiltonian,
    save_hamiltonian,
    trace_impact,
)
from .correlations import (
    BoundCheck,
    CorrelationReport,
    GeneralBoundCheck,
    KMatrix,
    MMatrix,
    extremal_axes,
    general_dim_bound_check,
    geometric_discord,
    k_matrix,
    k_matrix_discord,
    m_matrix,
    measurement_min_discord,
    p_extrema,
    p_extrema_stack,
    purity_bound_check,
    purity_bound_rhs,
    report,
)
from .oracle import (
    AxisSearch,
    GridMax,
    discord_cq_search,
    fibonacci_sphere_axes,
    impact_power_grid,
    p_max_search,
    p_min_search,
    trace_p_min_probe,
    unitary_expm_evolve,
)

__version__ = "0.1.0"
