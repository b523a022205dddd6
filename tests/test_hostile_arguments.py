"""Every public constructor and top-level function against hostile argument values.

Each argument slot that takes a number, an array, a count, a dimension pair or
a seed gets one hostile value at a time, the other arguments valid.  A call
must return or raise an ``ImpactPowerError``: never a bare numpy or Python
exception.  Left out by name: the ``linalg`` kernels (``tensor``,
``hs_norm_sq``, ``trace_norm``, the partial traces and ``hermitian_eigen*``),
numeric hot paths that do not validate their arguments; the JSON and file
readers, whose input is parsed JSON (see ``test_json_numbers_must_be_json_numbers``);
and slots that take a package object (a state, a Hamiltonian, a spec).
"""

import math

import numpy as np
import pytest

import impactpower as ip
from impactpower import correlations, dynamics, linalg, oracle, states
from impactpower.errors import DimensionMismatch, ImpactPowerError, OutOfRange

_HOSTILE = {
    "string": "x",
    "nan": math.nan,
    "ragged": [[1.0], [2.0, 3.0]],
    "minus-one": -1,
    "1e400-int": 10**400,
    "true": True,
    "none": None,
    "one-and-a-half": 1.5,
    "1x2-array": np.zeros((1, 2)),
    "numeric-strings": [["1", "0"], ["0", "0"]],
    "booleans": [[True, False], [False, False]],
}

_RHO = states.werner(0.3)
_RHO_3X2 = states.random_state((3, 2), seed=0)
_H = dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 1.0)
_BLOCKS = (np.eye(2, dtype=complex) / 2,) * 2
_BLOCH = dynamics.LocalHamiltonian.from_bloch_axis
_PROJECTORS = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)

#: slot name -> a call that puts its one argument in that slot
_SLOTS = {
    "DensityMatrix mat": lambda v: states.DensityMatrix(v, (2, 2)),
    "DensityMatrix dims": lambda v: states.DensityMatrix(np.eye(4) / 4, v),
    "from_pure vec": lambda v: states.from_pure(v, (2, 2)),
    "from_pure dims": lambda v: states.from_pure(states.phi_plus(2), v),
    "phi_plus d": states.phi_plus,
    "swap_operator d": states.swap_operator,
    "werner x": states.werner,
    "isotropic f": states.isotropic,
    "isotropic d": lambda v: states.isotropic(0.5, v),
    "ClassicalQuantumSpec probabilities": lambda v: states.ClassicalQuantumSpec(v, np.eye(2), _BLOCKS),
    "ClassicalQuantumSpec basis": lambda v: states.ClassicalQuantumSpec([0.5, 0.5], v, _BLOCKS),
    "ClassicalQuantumSpec blocks": lambda v: states.ClassicalQuantumSpec([0.5, 0.5], np.eye(2), v),
    "random_state dims": states.random_state,
    "random_state rank": lambda v: states.random_state((2, 2), rank=v, seed=0),
    "random_state seed": lambda v: states.random_state((2, 2), seed=v),
    "random_states dims": lambda v: states.random_states(v, None, [0]),
    "random_states rank": lambda v: states.random_states((2, 2), v, [0]),
    "random_states seeds": lambda v: states.random_states((2, 2), None, v),
    "random_cq_spec dims": states.random_cq_spec,
    "random_cq_spec n_blocks": lambda v: states.random_cq_spec((2, 2), n_blocks=v, seed=0),
    "random_cq_spec seed": lambda v: states.random_cq_spec((2, 2), seed=v),
    "haar_unitary d": lambda v: linalg.haar_unitary(v, np.random.default_rng(0)),
    "haar_unitary rng": lambda v: linalg.haar_unitary(2, v),
    "LocalHamiltonian energies": lambda v: dynamics.LocalHamiltonian(v, _PROJECTORS),
    "LocalHamiltonian projectors": lambda v: dynamics.LocalHamiltonian([0.0, 1.0], v),
    "LocalHamiltonian.from_matrix h": dynamics.LocalHamiltonian.from_matrix,
    "LocalHamiltonian.from_bloch_axis axis": lambda v: _BLOCH(v, 1.0),
    "LocalHamiltonian.from_bloch_axis gap": lambda v: _BLOCH([0, 0, 1], v),
    "evolve t": lambda v: dynamics.evolve(_RHO, _H, v),
    "impact t": lambda v: dynamics.impact(_RHO, _H, v),
    "trace_impact t": lambda v: dynamics.trace_impact(_RHO, _H, v),
    "unitary_expm_evolve t": lambda v: oracle.unitary_expm_evolve(_RHO, _H, v),
    "p_extrema_stack mats": lambda v: correlations.p_extrema_stack(v, 2),
    "p_extrema_stack d_b": lambda v: correlations.p_extrema_stack(_RHO.mat[None], v),
    "purity_bound_rhs purity": correlations.purity_bound_rhs,
    "measurement_min_discord starts": lambda v: correlations.measurement_min_discord(_RHO_3X2, v),
    "measurement_min_discord seed": lambda v: correlations.measurement_min_discord(_RHO_3X2, 2, v),
    "geometric_discord starts": lambda v: correlations.geometric_discord(_RHO_3X2, starts=v),
    "geometric_discord seed": lambda v: correlations.geometric_discord(_RHO_3X2, 2, seed=v),
    "report starts": lambda v: correlations.report(_RHO, starts=v),
    "report seed": lambda v: correlations.report(_RHO_3X2, 2, seed=v),
    "general_dim_bound_check starts": lambda v: correlations.general_dim_bound_check(_RHO, _H, v),
    "general_dim_bound_check seed": lambda v: correlations.general_dim_bound_check(_RHO, _H, 2, v),
    "fibonacci_sphere_axes n": oracle.fibonacci_sphere_axes,
    "fibonacci_sphere_axes seed": lambda v: oracle.fibonacci_sphere_axes(10, seed=v, jitter=0.5),
    "fibonacci_sphere_axes jitter": lambda v: oracle.fibonacci_sphere_axes(10, jitter=v),
    "impact_power_grid grid_points": lambda v: oracle.impact_power_grid(_RHO, _H, grid_points=v),
    "p_min_search samples": lambda v: oracle.p_min_search(_RHO, samples=v),
    "p_min_search seed": lambda v: oracle.p_min_search(_RHO, samples=4, seed=v),
    "p_max_search samples": lambda v: oracle.p_max_search(_RHO, samples=v, grid_points=16),
    "p_max_search grid_points": lambda v: oracle.p_max_search(_RHO, samples=4, grid_points=v),
    "p_max_search seed": lambda v: oracle.p_max_search(_RHO, samples=4, grid_points=16, seed=v),
    "discord_cq_search samples": lambda v: oracle.discord_cq_search(_RHO, samples=v),
    "discord_cq_search seed": lambda v: oracle.discord_cq_search(_RHO, samples=2, seed=v),
    "trace_p_min_probe samples": lambda v: oracle.trace_p_min_probe(_RHO, samples=v),
    "trace_p_min_probe seed": lambda v: oracle.trace_p_min_probe(_RHO, samples=4, seed=v),
}


@pytest.mark.parametrize("value", list(_HOSTILE.values()), ids=list(_HOSTILE))
@pytest.mark.parametrize("slot", sorted(_SLOTS))
def test_a_hostile_argument_returns_or_raises_an_impact_power_error(slot, value):
    try:
        _SLOTS[slot](value)
    except ImpactPowerError:
        pass


def test_every_public_callable_is_in_the_table_or_left_out_by_name():
    covered = {slot.split()[0].split(".")[0] for slot in _SLOTS}
    kernels = {
        "tensor", "hs_norm_sq", "trace_norm", "partial_trace_A", "partial_trace_B",
        "hermitian_eigendecompose", "hermitian_eigenvalues",
    }
    readers = {"load_state", "save_state", "state_from_dict", "state_to_dict", "load_hamiltonian",
               "save_hamiltonian", "hamiltonian_from_dict", "hamiltonian_to_dict"}
    # functions whose every argument is a package object, and plain result records
    objects = {
        "bloch_decompose", "bloch_reconstruct", "classical_quantum", "swap_parties",
        "impact_coefficients", "impact_power", "impact_power_result", "extremal_axes",
        "k_matrix", "k_matrix_discord", "m_matrix", "p_extrema", "purity_bound_check",
        "BlochTwoQubit", "ImpactCoefficients", "ImpactPowerResult", "BoundCheck",
        "CorrelationReport", "GeneralBoundCheck", "KMatrix", "MMatrix", "AxisSearch", "GridMax",
    }
    public = {
        name for name, value in vars(ip).items()
        if callable(value) and not name.startswith("_")
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    assert public - covered - kernels - readers - objects == set()


#: the matrix slots that once read numeric strings and booleans as the numbers 1 and 0
_MATRIX_SLOTS = {
    "DensityMatrix": lambda v: states.DensityMatrix(v, (2, 1)),
    "DensityMatrix unvalidated": lambda v: states.DensityMatrix(v, (2, 1), validate=False),
    "from_matrix": dynamics.LocalHamiltonian.from_matrix,
    "projectors": lambda v: dynamics.LocalHamiltonian([0.0], [v]),
    "CQ blocks": lambda v: states.ClassicalQuantumSpec([1.0], [[1.0], [0.0]], [v]),
    "p_extrema_stack": lambda v: correlations.p_extrema_stack([v], 1),
}


@pytest.mark.parametrize("kind", ["numeric-strings", "booleans"])
@pytest.mark.parametrize("slot", sorted(_MATRIX_SLOTS))
def test_a_matrix_of_numeric_strings_or_booleans_is_refused(slot, kind):
    with pytest.raises(ImpactPowerError, match="is not a complex number$"):
        _MATRIX_SLOTS[slot](_HOSTILE[kind])


@pytest.mark.parametrize("slot", ["werner x", "isotropic f", "fibonacci_sphere_axes jitter"])
def test_a_one_entry_array_is_no_real_parameter(slot):
    # werner([0.5]) and isotropic([0.5]) once returned states
    with pytest.raises(DimensionMismatch, match="^expected one "):
        _SLOTS[slot]([0.5])


@pytest.mark.parametrize(
    "slot, name",
    [
        ("isotropic d", "isotropic local dimension"),
        ("phi_plus d", "local dimension"),
        ("random_state dims", "subsystem dimension"),
        ("p_min_search samples", "samples"),
        ("measurement_min_discord starts", "starts"),
    ],
)
def test_a_count_past_sys_maxsize_is_refused_in_the_count_words(slot, name):
    # each once raised numpy's bare ValueError; a count that could really be
    # allocated is never tried here
    value = (2, 10**400) if slot == "random_state dims" else 10**400
    with pytest.raises(ImpactPowerError, match=rf"^{name}: expected a whole number >= \d, got 1000"):
        _SLOTS[slot](value)


@pytest.mark.parametrize("seeds", [5, np.random.default_rng(0), None, np.array(3)], ids=["int", "generator", "none", "0-d"])
def test_seeds_that_are_no_sequence_are_out_of_range(seeds):
    # a bare TypeError from len(seeds)
    with pytest.raises(OutOfRange, match="^seeds: expected a sequence of seeds"):
        states.random_states((2, 2), None, seeds)


@pytest.mark.parametrize("d_b", ["x", math.nan, None, True, 0])
def test_p_extrema_stack_reads_d_b_as_a_count(d_b):
    # "x" and NaN once raised a bare ValueError, None a TypeError, and True read as 1
    with pytest.raises(DimensionMismatch, match="^d_B: expected a whole number >= 1"):
        correlations.p_extrema_stack(np.eye(2)[None] / 2, d_b)
