import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impactpower import dynamics, linalg, oracle, states
from impactpower.errors import DimensionMismatch, ImpactPowerError, InvalidHamiltonian, OutOfRange

from conftest import random_hermitian

DIAG_QUBIT = dynamics.LocalHamiltonian(
    np.array([0.0, 1.0]), (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
)

#: idempotent, mutually annihilating and complete, but not Hermitian; without
#: a Hermiticity check, evolve under it gives a "state" of trace 1.46
OBLIQUE_PAIR = (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]]))


def bell_state():
    return states.from_pure(states.phi_plus(2), (2, 2))


def random_qubit_hamiltonian(rng, gap_range=(0.5, 3.0)):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return dynamics.LocalHamiltonian.from_bloch_axis(axis, float(rng.uniform(*gap_range)))


def test_hamiltonian_validation():
    with pytest.raises(InvalidHamiltonian):
        dynamics.LocalHamiltonian(
            np.array([0.0, 1.0]),
            (np.diag([1.0, 0.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)),
        )
    with pytest.raises(InvalidHamiltonian):
        # not a projector
        dynamics.LocalHamiltonian(np.array([1.0]), (0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(DimensionMismatch):
        dynamics.LocalHamiltonian(np.array([0.0, 1.0]), (np.eye(2, dtype=complex),))
    # a NaN energy used to pass and give werner(0) a finite impact power
    with pytest.raises(InvalidHamiltonian, match="non-finite"):
        dynamics.LocalHamiltonian(np.array([0.0, np.nan]), DIAG_QUBIT.projectors)
    with pytest.raises(InvalidHamiltonian, match="non-finite"):
        nan_projector = np.diag([1.0, np.nan]).astype(complex)
        dynamics.LocalHamiltonian(np.array([0.0, 1.0]), (nan_projector, DIAG_QUBIT.projectors[1]))


def test_from_matrix_reconstructs(rng):
    h = random_hermitian(rng, 3)
    ham = dynamics.LocalHamiltonian.from_matrix(h)
    assert np.max(np.abs(ham.matrix() - h)) <= 1e-10
    assert ham.fully_nondegenerate


def test_from_matrix_merges_degenerate_levels():
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 1.0]))
    assert ham.energies.tolist() == [0.0, 1.0]
    assert abs(np.trace(ham.projectors[1]).real - 2.0) <= 1e-12
    assert not ham.fully_nondegenerate
    assert not ham.trivial


def test_trivial_and_degeneracy_flags():
    ident = dynamics.LocalHamiltonian.from_matrix(2.0 * np.eye(2))
    assert ident.trivial and not ident.fully_nondegenerate
    assert DIAG_QUBIT.fully_nondegenerate and not DIAG_QUBIT.trivial


def test_period_is_two_pi_over_the_smallest_distinct_gap():
    assert DIAG_QUBIT.period == 2.0 * math.pi
    # 1 and 1 + 1e-12 merge, leaving gaps 1.5 and 2.5
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([-0.5, 1.0, 1.0 + 1e-12, 3.5]))
    assert ham.period == 2.0 * math.pi / 1.5
    with pytest.raises(OutOfRange, match="single distinct level"):
        dynamics.LocalHamiltonian.from_matrix(2.0 * np.eye(2)).period


def _diag_projectors(d):
    return np.eye(d)[:, None] * np.eye(d)[:, :, None] + 0j


#: (given energies, given projectors, the same H built from its distinct
#: levels in ascending order)
_UNSORTED_OR_NEAR_EQUAL = {
    "unsorted": (
        [1.0, 0.0],
        _diag_projectors(2)[::-1],
        ([0.0, 1.0], _diag_projectors(2)),
    ),
    "near-equal": (
        [0.0, 1.0, 1.0 + 1e-12],
        _diag_projectors(3),
        ([0.0, 1.0], (_diag_projectors(3)[0], _diag_projectors(3)[1] + _diag_projectors(3)[2])),
    ),
}


@pytest.mark.parametrize("case", sorted(_UNSORTED_OR_NEAR_EQUAL))
def test_hamiltonian_stores_its_distinct_levels_ascending(case):
    energies, projectors, (levels, merged) = _UNSORTED_OR_NEAR_EQUAL[case]
    ham = dynamics.LocalHamiltonian(np.array(energies), projectors)
    ref = dynamics.LocalHamiltonian(np.array(levels), merged)
    assert ham.energies.tolist() == levels
    assert _same_bits(ham.energies, ref.energies) and _same_bits(ham.projectors, ref.projectors)
    assert ham.trivial is False and ham.period == 2.0 * math.pi
    assert ham.fully_nondegenerate == (ham.d_a == 2)
    for array in (ham.energies, ham.projectors):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # every result follows the distinct levels, to the bit
    rho = states.random_state((ham.d_a, 2), seed=0)
    ts = np.linspace(0.0, 7.0, 9)
    assert dynamics.impact_power_result(rho, ham) == dynamics.impact_power_result(rho, ref)
    for fn in (dynamics.impact, dynamics.trace_impact):
        assert _same_bits(fn(rho, ham, ts), fn(rho, ref, ts))
    assert _same_bits(dynamics.evolve(rho, ham, 1.3).mat, dynamics.evolve(rho, ref, 1.3).mat)
    assert _same_bits(dynamics.impact_coefficients(rho, ham).b, dynamics.impact_coefficients(rho, ref).b)


def test_gap_zero_bloch_shorthand_is_one_level():
    ham = dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 0.0)
    assert ham.energies.tolist() == [0.0] and ham.trivial and not ham.fully_nondegenerate
    assert np.array_equal(ham.projectors, np.eye(2)[None])
    assert not ham.energies.flags.writeable and not ham.projectors.flags.writeable
    rho = states.random_state((2, 2), seed=0)
    assert dynamics.impact_power_result(rho, ham) == dynamics.ImpactPowerResult(0.0, 0.0, True, 0.0)


def test_from_matrix_merges_its_levels_once(monkeypatch):
    calls = []
    merge = dynamics._merge_levels
    monkeypatch.setattr(dynamics, "_merge_levels", lambda *a: calls.append(1) or merge(*a))
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.5]))
    dynamics.impact_power_result(states.random_state((3, 2), seed=0), ham)
    assert ham.trivial is False and ham.fully_nondegenerate and ham.period == 2.0 * math.pi
    assert len(calls) == 1


def test_hamiltonian_keeps_read_only_copies_of_its_arrays():
    # the caller's arrays stay the caller's: changing them later must not
    # change the Hamiltonian
    energies = np.array([0.0, 1.0, 2.0])
    projectors = np.eye(3)[:, None] * np.eye(3)[:, :, None] + 0j
    ham = dynamics.LocalHamiltonian(energies, projectors)
    period = ham.period
    energies[1] = 0.5
    projectors[0, 0, 0] = 2.0
    assert ham.energies.tolist() == [0.0, 1.0, 2.0] and ham.projectors[0, 0, 0] == 1.0
    assert ham.period == period
    assert not ham.energies.flags.writeable and not ham.projectors.flags.writeable


_SUBNORMAL_LEVELS = {"2 levels": [0.0, 1e-320], "3 levels": [0.0, 1e-320, 2e-320]}


@pytest.mark.parametrize("case", sorted(_SUBNORMAL_LEVELS))
def test_impact_power_rejects_a_gap_with_no_finite_period(case):
    # 2 pi / 1e-320 overflows: unchecked, two levels give t_max = inf and
    # three fail on an empty grid
    levels = _SUBNORMAL_LEVELS[case]
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag(levels))
    assert ham.energies.size == len(levels)
    rho = states.random_state((len(levels), 2), seed=0)
    with pytest.raises(ImpactPowerError, match="gap 1e-320"):
        dynamics.impact_power_result(rho, ham)


def test_from_bloch_axis_matrix():
    ham = dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 2.0)
    assert np.allclose(ham.matrix(), np.diag([1.0, -1.0]), atol=1e-14)
    with pytest.raises(OutOfRange):
        dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 0.0], 1.0)
    with pytest.raises(OutOfRange, match="non-finite"):
        dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], math.nan)
    with pytest.raises(OutOfRange, match="non-finite"):
        dynamics.LocalHamiltonian.from_bloch_axis([0.0, math.inf, 1.0], 1.0)
    with pytest.raises(OutOfRange, match="does not fit a float"):
        dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 10**400)


@pytest.mark.parametrize("scale", [2.41054866170259e-158, 1e-300, 1e200])
def test_from_bloch_axis_normalizes_tiny_and_huge_axes(scale):
    # the squared norm of these axes under- or overflows
    for direction in ([0.0, 0.0, 1.0], [1.0, 0.0, 1.0]):
        ham = dynamics.LocalHamiltonian.from_bloch_axis(np.multiply(scale, direction), 2.0)
        unit = dynamics.LocalHamiltonian.from_bloch_axis(direction, 2.0)
        assert np.array_equal(ham.projectors, unit.projectors)


def test_evolve_identity_cases():
    bell = bell_state()
    assert np.max(np.abs(dynamics.evolve(bell, DIAG_QUBIT, 0.0).mat - bell.mat)) == 0.0
    ident = dynamics.LocalHamiltonian.from_matrix(3.0 * np.eye(2))
    evolved = dynamics.evolve(bell, ident, 1.7)
    assert np.max(np.abs(evolved.mat - bell.mat)) <= 1e-12


def test_evolve_bell_to_orthogonal_state():
    bell = bell_state()
    evolved = dynamics.evolve(bell, DIAG_QUBIT, math.pi)
    assert abs(np.trace(evolved.mat @ bell.mat)) <= 1e-10
    assert abs(evolved.purity - 1.0) <= 1e-10


def test_evolve_matches_dense_exponential_oracle(rng):
    # reference: numpy eigendecomposition exponential of the embedded generator
    for _ in range(5):
        rho = states.random_state((3, 2), seed=rng)
        ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3))
        t = float(rng.uniform(0.0, 4.0))
        w, v = np.linalg.eigh(linalg.tensor(ham.matrix(), np.eye(2)))
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        expected = u @ rho.mat @ u.conj().T
        assert np.max(np.abs(dynamics.evolve(rho, ham, t).mat - expected)) <= 1e-12


def test_evolve_preserves_purity(rng):
    rho = states.random_state((2, 3), seed=rng)
    ham = random_qubit_hamiltonian(rng)
    assert abs(dynamics.evolve(rho, ham, 2.3).purity - rho.purity) <= 1e-10


def test_evolve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dynamics.evolve(states.random_state((3, 2), seed=1), DIAG_QUBIT, 1.0)


_TIME_ROUTES = {
    "evolve": dynamics.evolve,
    "impact": dynamics.impact,
    "trace_impact": dynamics.trace_impact,
    "expm_oracle": oracle.unitary_expm_evolve,
}


@pytest.mark.parametrize(
    "route, t, error, message",
    [
        ("evolve", math.nan, OutOfRange, "time nan is non-finite"),
        ("evolve", 10**400, OutOfRange, "does not fit a float"),
        ("evolve", [1.0, 2.0], DimensionMismatch, "one time"),
        ("impact", math.inf, OutOfRange, "time inf is non-finite"),
        ("impact", 10**400, OutOfRange, "does not fit a float"),
        ("impact", [0.0, 1.0, -math.inf], OutOfRange, "is non-finite"),
        ("trace_impact", math.nan, OutOfRange, "time nan is non-finite"),
        ("trace_impact", [10**400, 1.0], OutOfRange, "does not fit a float"),
        ("expm_oracle", math.nan, OutOfRange, "time nan is non-finite"),
        ("expm_oracle", -math.inf, OutOfRange, "time -inf is non-finite"),
        ("expm_oracle", 1e300, OutOfRange, "no finite norm at time 1e\\+300"),
        ("expm_oracle", 10**400, OutOfRange, "does not fit a float"),
    ],
)
def test_a_time_that_is_no_finite_float_is_out_of_range(route, t, error, message):
    # each once gave NaN entries, a NaN impact, a bare OverflowError or a
    # complaint about a non-finite rho the caller never passed
    rho = states.random_state((2, 2), seed=0)
    h = dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 1.0)
    with pytest.raises(error, match=message):
        _TIME_ROUTES[route](rho, h, t)


def test_impact_zero_at_t0(rng):
    rho = states.random_state((2, 2), seed=rng)
    assert dynamics.impact(rho, DIAG_QUBIT, 0.0) == 0.0


def test_impact_bell_reaches_one():
    assert abs(dynamics.impact(bell_state(), DIAG_QUBIT, math.pi) - 1.0) <= 1e-12


def test_impact_matches_coefficient_profile(rng):
    for _ in range(10):
        rho = states.random_state((3, 3), seed=rng)
        ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3))
        coeff = dynamics.impact_coefficients(rho, ham)
        t = float(rng.uniform(0.0, 6.0))
        closed = coeff.a - sum(
            coeff.b[l, k] * math.cos((ham.energies[l] - ham.energies[k]) * t)
            for l, k in zip(*np.tril_indices(len(coeff.b), -1))
        )
        assert abs(dynamics.impact(rho, ham, t) - closed) <= 1e-10


def test_coefficients_product_state_diagonal_hamiltonian():
    rho = states.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    coeff = dynamics.impact_coefficients(rho, DIAG_QUBIT)
    assert abs(coeff.a) <= 1e-14
    assert abs(coeff.b[1, 0]) <= 1e-14


def test_coefficients_bell():
    coeff = dynamics.impact_coefficients(bell_state(), DIAG_QUBIT)
    assert abs(coeff.a - 0.5) <= 1e-12
    assert abs(coeff.b[1, 0] - 0.5) <= 1e-12


def test_coefficients_sum_rule_and_positivity(rng):
    for _ in range(10):
        rho = states.random_state((3, 2), seed=rng)
        ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3))
        coeff = dynamics.impact_coefficients(rho, ham)
        pairs = coeff.b[np.tril_indices(len(coeff.b), -1)]
        assert abs(pairs.sum() - coeff.a) <= 1e-10
        assert (pairs >= -1e-12).all()


def test_impact_power_trivial_hamiltonian():
    ident = dynamics.LocalHamiltonian.from_matrix(4.2 * np.eye(2))
    assert dynamics.impact_power(states.random_state((2, 2), seed=5), ident) == 0.0


def test_impact_power_bell_any_axis(rng):
    bell = bell_state()
    for _ in range(5):
        assert abs(dynamics.impact_power(bell, random_qubit_hamiltonian(rng)) - 1.0) <= 1e-10


def test_impact_power_lower_bound_multi_level(rng):
    for _ in range(5):
        rho = states.random_state((3, 2), seed=rng)
        ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3))
        res = dynamics.impact_power_result(rho, ham)
        coeff = dynamics.impact_coefficients(rho, ham)
        assert res.value >= 2.0 * coeff.b[np.tril_indices(len(coeff.b), -1)].max() - 1e-8
        assert res.value <= res.upper_bound + 1e-12
        assert not res.exact


def test_impact_power_two_level_merged_projectors(rng):
    # a qutrit Hamiltonian with two distinct energies follows the closed form
    rho = states.random_state((3, 2), seed=rng)
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 1.0]))
    res = dynamics.impact_power_result(rho, ham)
    assert res.exact
    grid = max(
        dynamics.impact(rho, ham, float(t)) for t in np.linspace(0.0, 2.0 * math.pi, 2001)
    )
    assert abs(res.value - grid) <= 1e-8


def test_impact_power_energy_shift_and_scale_invariance(rng):
    rho = states.random_state((3, 2), seed=rng)
    base = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.1, 2.7]))
    shifted = dynamics.LocalHamiltonian(base.energies + 5.0, base.projectors)
    scaled = dynamics.LocalHamiltonian(base.energies * -2.5, base.projectors)
    p = dynamics.impact_power(rho, base)
    assert abs(p - dynamics.impact_power(rho, shifted)) <= 1e-10
    assert abs(p - dynamics.impact_power(rho, scaled)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d_a=st.integers(min_value=2, max_value=4),
    shift=st.floats(min_value=-100.0, max_value=100.0),
    scale=st.floats(min_value=0.25, max_value=4.0),
    flip=st.booleans(),
)
def test_impact_power_under_energy_shift_and_scale(seed, d_a, shift, scale, flip):
    rng = np.random.default_rng(seed)
    base = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, d_a))
    assume(float(np.min(np.diff(base.energies))) > 1e-2)
    rho = states.random_state((d_a, 2), seed=rng)
    p = dynamics.impact_power(rho, base)
    shifted = dynamics.LocalHamiltonian(base.energies + shift, base.projectors)
    assert abs(dynamics.impact_power(rho, shifted) - p) <= 1e-10
    scaled = dynamics.LocalHamiltonian(base.energies * (-scale if flip else scale), base.projectors)
    res = dynamics.impact_power_result(rho, scaled)
    assert abs(res.value - p) <= 1e-10
    # mirror-image maxima make t_max ambiguous: check the value attained there
    assert abs(dynamics.impact(rho, scaled, res.t_max) - res.value) <= 1e-10


def test_impact_power_finishes_for_a_tiny_level_gap():
    # span = 2 pi / 1e-7 puts t where its float spacing exceeds the golden tolerance
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 1.0 + 1e-7]))
    res = dynamics.impact_power_result(states.random_state((3, 2), seed=0), ham)
    assert math.isfinite(res.value) and 0.0 < res.value <= res.upper_bound


def test_impact_power_unitary_covariance(rng):
    rho = states.random_state((2, 3), seed=rng)
    ham = random_qubit_hamiltonian(rng)
    u = linalg.haar_unitary(2, rng)
    rho_rot = states.DensityMatrix(
        linalg.tensor(u, np.eye(3)) @ rho.mat @ linalg.tensor(u, np.eye(3)).conj().T, (2, 3)
    )
    ham_rot = dynamics.LocalHamiltonian.from_matrix(u @ ham.matrix() @ u.conj().T)
    assert abs(dynamics.impact_power(rho, ham) - dynamics.impact_power(rho_rot, ham_rot)) <= 1e-10


def test_impact_power_zero_on_classical_quantum(rng):
    spec = states.random_cq_spec((2, 2), seed=rng)
    omega = states.classical_quantum(spec)
    projectors = tuple(np.outer(c, c.conj()) for c in spec.basis.T)
    ham = dynamics.LocalHamiltonian(np.array([0.3, 1.9]), projectors)
    assert dynamics.impact_power(omega, ham) <= 1e-10


def test_impact_periodicity(rng):
    rho = states.random_state((2, 2), seed=rng)
    ham = random_qubit_hamiltonian(rng)
    gap = float(ham.energies[1] - ham.energies[0])
    for t in (0.3, 1.1, 2.9):
        assert abs(
            dynamics.impact(rho, ham, t) - dynamics.impact(rho, ham, t + 2.0 * math.pi / gap)
        ) <= 1e-10


def test_impact_grid_argmax_near_half_period(rng):
    rho = states.random_state((2, 2), seed=rng)
    ham = random_qubit_hamiltonian(rng)
    gap = float(ham.energies[1] - ham.energies[0])
    n = 512
    ts = np.arange(1, n + 1) * (2.0 * math.pi / gap / n)
    values = [dynamics.impact(rho, ham, float(t)) for t in ts]
    t_best = ts[int(np.argmax(values))]
    assert abs(t_best - math.pi / gap) <= 2.0 * math.pi / gap / n + 1e-12


def test_trace_impact_basics(rng):
    bell = bell_state()
    assert dynamics.trace_impact(bell, DIAG_QUBIT, 0.0) <= 1e-12
    # orthogonal pure states: eigenvalues +-1, trace norm 2, half the square is 2
    assert abs(dynamics.trace_impact(bell, DIAG_QUBIT, math.pi) - 2.0) <= 1e-10
    for _ in range(20):
        rho = states.random_state((2, 2), seed=rng)
        ham = random_qubit_hamiltonian(rng)
        t = float(rng.uniform(0.0, 6.0))
        assert dynamics.trace_impact(rho, ham, t) >= dynamics.impact(rho, ham, t) - 1e-10


def test_hamiltonian_json_roundtrip(tmp_path, rng):
    ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3))
    path = tmp_path / "h.json"
    dynamics.save_hamiltonian(ham, path)
    back = dynamics.load_hamiltonian(path)
    assert np.max(np.abs(back.matrix() - ham.matrix())) <= 1e-12


def test_hamiltonian_bloch_shorthand(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"dA": 2, "bloch_axis": [0, 0, 1], "gap": 2.0}))
    ham = dynamics.load_hamiltonian(path)
    assert np.allclose(ham.matrix(), np.diag([1.0, -1.0]), atol=1e-14)


def test_hamiltonian_from_dict_rejects_malformed():
    with pytest.raises(InvalidHamiltonian):
        dynamics.hamiltonian_from_dict({"dA": 2})
    with pytest.raises(InvalidHamiltonian, match="malformed"):
        dynamics.hamiltonian_from_dict(
            {"dA": 2, "energies": "ab", "projectors": [linalg._matrix_to_pairs(np.eye(2))]}
        )


# --- frozen per-projector loops: the reference the projector stack must match ---


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_validate(energies, projectors) -> None:
    # the per-pair validation loop of the tuple-of-projectors design
    energies = np.asarray(energies, dtype=float).reshape(-1)
    projectors = tuple(np.asarray(p, dtype=complex) for p in projectors)
    if energies.size != len(projectors) or energies.size == 0:
        raise DimensionMismatch(
            f"need one projector per energy, got {energies.size} energies "
            f"and {len(projectors)} projectors"
        )
    d = projectors[0].shape[0]
    for p in projectors:
        if p.shape != (d, d):
            raise DimensionMismatch("projectors have inconsistent shapes")
    if not np.all(np.isfinite(energies)):
        raise InvalidHamiltonian("energies have non-finite (NaN or inf) entries")
    if not all(np.all(np.isfinite(p)) for p in projectors):
        raise InvalidHamiltonian("projectors have non-finite (NaN or inf) entries")
    tol = dynamics.PROJECTOR_TOL
    for i, p in enumerate(projectors):
        if float(np.max(np.abs(p - p.conj().T))) > tol:
            raise InvalidHamiltonian(f"projector {i} violates Pi = Pi^dagger within {tol:.1e}")
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            target = p if i == j else 0.0
            if float(np.max(np.abs(p @ q - target))) > tol:
                raise InvalidHamiltonian(
                    f"projectors {i},{j} violate Pi_i Pi_j = delta_ij Pi_i within {tol:.1e}"
                )
    if float(np.max(np.abs(sum(projectors) - np.eye(d)))) > tol:
        raise InvalidHamiltonian(f"projectors do not resolve the identity within {tol:.1e}")


def _reference_levels(energies, projectors, gap_tol):
    merged_e, merged_p = [], []
    for idx in np.argsort(energies, kind="stable"):
        e = float(energies[idx])
        if merged_e and e - merged_e[-1] <= gap_tol:
            merged_p[-1] = merged_p[-1] + projectors[idx]
        else:
            merged_e.append(e)
            merged_p.append(projectors[idx].copy())
    return np.array(merged_e), np.array(merged_p)


def _reference_coefficients(rho, projectors):
    eye_b = np.eye(rho.d_b, dtype=complex)
    y = [rho.mat @ linalg.tensor(p, eye_b) for p in projectors]
    n = len(y)
    b = np.zeros((n, n))
    dephased_overlap = 0.0
    for l in range(n):
        dephased_overlap += float(np.sum(y[l] * y[l].T).real)
        for k in range(l):
            b[l, k] = 2.0 * float(np.sum(y[l] * y[k].T).real)
    return rho.purity - dephased_overlap, b


def _test_hamiltonians(rng):
    """Two and three levels, merged-degenerate qutrits, four levels, all energies negative."""
    return [
        random_qubit_hamiltonian(rng),
        dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 2)),
        dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3)),
        dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 1.0])),
        dynamics.LocalHamiltonian.from_matrix(np.diag([-0.5, 2.0, 2.0 + 1e-12])),
        dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 4)),
        # exact zeros of the projectors scale to -0.0 here
        dynamics.LocalHamiltonian.from_matrix(np.diag([-3.0, -2.0, -1.0])),
    ]


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_impacts_over_time_array_equal_scalar_calls(rng, d_b):
    for ham in _test_hamiltonians(rng):
        rho = states.random_state((ham.d_a, d_b), seed=rng)
        ts = np.concatenate([[0.0], rng.uniform(0.0, 9.0, 16)])
        for fn in (dynamics.impact, dynamics.trace_impact):
            stacked = fn(rho, ham, ts)
            assert stacked.shape == ts.shape
            scalar = np.array([fn(rho, ham, float(t)) for t in ts])
            assert _same_bits(stacked, scalar)
            assert isinstance(fn(rho, ham, float(ts[1])), float)


def test_projector_stack_matches_per_projector_loops(rng):
    for ham in _test_hamiltonians(rng):
        assert ham.projectors.shape == (len(ham.energies), ham.d_a, ham.d_a)
        assert ham.projectors.dtype == complex
        ref_matrix = sum(e * p for e, p in zip(ham.energies, ham.projectors))
        assert _same_bits(ham.matrix(), ref_matrix)
        for d_b in (2, 3):
            rho = states.random_state((ham.d_a, d_b), rank=1 + d_b, seed=rng)
            coeff = dynamics.impact_coefficients(rho, ham)
            ref_a, ref_b = _reference_coefficients(rho, ham.projectors)
            assert coeff.a == ref_a
            assert _same_bits(coeff.b, ref_b)


def test_constructor_merges_like_the_reference_loop(rng):
    # rank-one eigenprojectors as given, ascending and reversed, over spectra
    # with distinct, equal and near-equal (within gap_tol) eigenvalues
    matrices = [random_hermitian(rng, d) for d in (2, 3, 4)] + [
        np.diag([0.0, 1.0, 1.0]),
        np.diag([-0.5, 2.0, 2.0 + 1e-12]),
        np.diag([-3.0, -2.0, -1.0]),
        np.eye(3),
    ]
    for h in matrices:
        eig = linalg.hermitian_eigendecompose(np.asarray(h, dtype=complex))
        vecs = eig.eigenvectors.T
        rank_one = vecs[:, :, None] * vecs.conj()[:, None, :]
        for energies, projectors in ((eig.eigenvalues, rank_one), (eig.eigenvalues[::-1], rank_one[::-1])):
            ham = dynamics.LocalHamiltonian(energies, projectors)
            ref_levels, ref_projectors = _reference_levels(
                energies, projectors, dynamics._gap_tol(energies)
            )
            assert _same_bits(ham.energies, ref_levels)
            assert _same_bits(ham.projectors, ref_projectors)


def _reference_golden_max(f, lo, hi, tol):
    # the scalar golden-section loop, frozen
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        if b - a >= width:
            break
    return (f1, x1) if f1 >= f2 else (f2, x2)


def test_lockstep_golden_sections_match_each_bracket_alone():
    # brackets of different widths finish in different rounds; the last sits
    # past t ~ 8192, where the float spacing of t exceeds the tolerance
    lo = np.array([0.0, 1.0, 2.5, -3.0, 40.0, 9000.0])
    hi = lo + np.array([1e-6, 0.5, 2.0, 7.0, 300.0, 1.0])
    peaks = lo + np.array([0.3, 0.7, 0.1, 0.45, 0.9, 0.6]) * (hi - lo)
    tol = dynamics.TIME_REFINE_TOL
    rounds = []

    def stacked(indices, ts):
        return (np.cos(np.array(ts) - peaks[indices]) - 1.0).tolist()

    def answer(indices, ts):
        rounds.append(indices)
        return stacked(indices, ts)

    searches = [linalg._golden_steps(a, b, tol) for a, b in zip(lo.tolist(), hi.tolist())]
    results = linalg._lockstep(searches, answer)
    evaluations = []
    for i in range(len(lo)):
        alone = []

        def f(t, i=i, alone=alone):
            alone.append(t)
            return stacked([i], [t])[0]

        assert results[i] == _reference_golden_max(f, float(lo[i]), float(hi[i]), tol)
        evaluations.append(len(alone))
    assert len(set(evaluations)) == len(lo)
    # each round asks the unfinished searches, in ascending order
    assert rounds == [[i for i, n in enumerate(evaluations) if n > r] for r in range(len(rounds))]


def _reference_numeric_power(rho, ham):
    # the per-pair profile loop of the three-or-more-level search
    energies = ham.energies
    _, b = _reference_coefficients(rho, ham.projectors)
    pairs = [(l, k) for l in range(1, energies.size) for k in range(l)]
    gaps = np.array([energies[l] - energies[k] for l, k in pairs])
    weights = np.array([b[l, k] for l, k in pairs])

    def profile(ts):
        acc = np.zeros_like(ts)
        for g, w in zip(gaps, weights):
            acc += w * (1.0 - np.cos(g * ts))
        return acc

    span = 2.0 * math.pi / float(np.min(gaps))
    step = span / dynamics.GRID_POINTS
    ts = np.arange(1, dynamics.GRID_POINTS + 1) * step
    values = profile(ts)
    best = int(np.argmax(values))
    value, t_best = _reference_golden_max(
        lambda t: float(profile(np.array([t]))[0]),
        max(ts[best] - step, step * 1e-6),
        min(ts[best] + step, span),
        dynamics.TIME_REFINE_TOL,
    )
    value = max(value, float(values[best]))
    return value, float(ts[best]) if value == float(values[best]) else t_best


def _numeric_power_cases(rng, d_a):
    """Random pairs, then pairs on which the pruned grid search is easy to get wrong."""
    cases = []
    for _ in range(3):
        ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, d_a))
        cases.append((states.random_state((d_a, 2), seed=rng), ham))
    u = linalg.haar_unitary(d_a, rng)

    def rotated(levels):
        return dynamics.LocalHamiltonian.from_matrix(u @ np.diag(levels) @ u.conj().T)

    g = rng.standard_normal((2 * d_a, 2 * d_a))
    real_rho = states.DensityMatrix((g @ g.T / np.trace(g @ g.T)).astype(complex), (d_a, 2))
    return cases + [
        # rank one
        (states.random_state((d_a, 2), rank=1, seed=rng), rotated(rng.uniform(-2.0, 2.0, d_a))),
        # equally spaced levels: many maxima of equal height
        (states.random_state((d_a, 2), seed=rng), rotated(0.3 + 1.7 * np.arange(d_a))),
        # a real state on levels 0, 1, 2, ...: I(t) = I(span - t), ties across cells
        (real_rho, dynamics.LocalHamiltonian.from_matrix(np.diag(np.arange(d_a, dtype=float)))),
        # a min gap of 1e-3 beside gaps up to 50: the fast pairs' reach covers many cells
        (
            states.random_state((d_a, 2), rank=2, seed=rng),
            rotated(np.concatenate([[0.0, 1e-3], rng.uniform(1.0, 50.0, d_a - 2)])),
        ),
    ] + [
        # a min gap of 1e-3 beside gaps of 0.05 to 1: a half cell is ~pi long,
        # so a pair with dE below 2 / pi reaches |w dE| pi, not only |w dE|
        (
            states.random_state((d_a, 2), seed=rng),
            rotated(np.concatenate([[0.0, 1e-3], rng.uniform(0.05, 1.0, d_a - 2)])),
        )
        for _ in range(6)
    ]


@pytest.mark.parametrize("d_a", [3, 4, 5])
def test_numeric_impact_power_matches_per_pair_loop(rng, d_a):
    # five levels give ten pairs, past the eight where numpy sums pairwise; the
    # pruned grid search must give the full grid's maximum and polish to the bit
    for rho, ham in _numeric_power_cases(rng, d_a):
        res = dynamics.impact_power_result(rho, ham)
        assert (res.value, res.t_max) == _reference_numeric_power(rho, ham)


@pytest.mark.parametrize("d_a", [3, 4, 5])
def test_pruned_grid_skips_cells_beside_fast_pairs(monkeypatch, d_a):
    # levels 0 and 1e-3 carry most of the weight, beside gaps of 1 to 50: a
    # fast pair's term can reach at most its own range within a cell, so the
    # slow pair still rules out cells
    evaluated = []
    search = dynamics._grid_argmax

    def counting(profile, *args):
        def counted(ts):
            evaluated.append(ts.size)
            return profile(ts)

        return search(counted, *args)

    monkeypatch.setattr(dynamics, "_grid_argmax", counting)
    psi = np.concatenate([[1.0, 1.0], np.full(d_a - 2, 0.3)])
    psi = np.kron(psi / np.linalg.norm(psi), [1.0, 0.0]).astype(complex)
    mat = 0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(2 * d_a) / (2 * d_a)
    rho = states.DensityMatrix(mat, (d_a, 2))
    levels = np.concatenate([[0.0, 1e-3], np.linspace(1.0, 50.0, d_a - 2)])
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag(levels))
    res = dynamics.impact_power_result(rho, ham)
    assert (res.value, res.t_max) == _reference_numeric_power(rho, ham)
    # probes, grid points and the golden polish together
    assert sum(evaluated) < dynamics.GRID_POINTS


def test_merge_levels_groups_by_first_energy():
    # 0, 0.6 tol, 1.2 tol: 0.6 joins the first level, 1.2 is too far from 0
    eye3 = np.eye(3, dtype=complex)
    rank_one = eye3[:, :, None] * eye3[:, None, :]
    energies = np.array([1.2, 0.0, 0.6])
    levels, projectors = dynamics._merge_levels(energies, rank_one, 0.7)
    ref_levels, ref_projectors = _reference_levels(energies, rank_one, 0.7)
    assert levels.tolist() == [0.0, 1.2]
    assert _same_bits(levels, ref_levels) and _same_bits(projectors, ref_projectors)


def _invalid_projector_sets():
    p0, p1, p2 = (np.diag(v).astype(complex) for v in np.eye(3))
    return {
        "non-orthogonal at 0,1": ([0.0, 1.0, 2.0], (p0 + p1, p1, p2)),
        "non-orthogonal at 1,2": ([0.0, 1.0, 2.0], (p0, p1, p1)),
        "non-idempotent": ([0.0], (0.5 * np.eye(2, dtype=complex),)),
        "non-orthogonal at 0,2 before non-idempotent 1": ([0.0, 1.0, 2.0], (p0 + p2, 0.5 * p1, p2)),
        "incomplete": ([0.0, 1.0], (p0, p1)),
        "non-Hermitian": ([0.0, 1.0], OBLIQUE_PAIR),
        "non-Hermitian 1 of 3": (
            [0.0, 1.0, 2.0],
            (p0, np.array([[0, 0, 0], [0, 1, 1], [0, 0, 0]]), np.array([[0, 0, 0], [0, 0, -1], [0, 0, 1]])),
        ),
        "ragged": ([0.0, 1.0], (np.eye(2, dtype=complex), np.eye(3, dtype=complex))),
        "not square": ([0.0, 1.0], (np.zeros((2, 3)), np.zeros((2, 3)))),
        "count": ([0.0, 1.0, 2.0], (p0, p1)),
        "empty": ([], ()),
        "NaN projector": ([0.0, 1.0, 2.0], (p0, np.diag([0.0, np.nan, 0.0]), p2)),
        "NaN energy": ([0.0, np.nan, 2.0], (p0, p1, p2)),
        "inf energy": ([0.0, 1.0, np.inf], (p0, p1, p2)),
    }


@pytest.mark.parametrize("case", sorted(_invalid_projector_sets()))
def test_invalid_projector_sets_raise_the_loop_error(case):
    energies, projectors = _invalid_projector_sets()[case]
    with pytest.raises(Exception) as expected:
        _reference_validate(np.array(energies), projectors)
    with pytest.raises(Exception) as got:
        dynamics.LocalHamiltonian(np.array(energies), projectors)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d_a=st.integers(min_value=2, max_value=4),
    degenerate=st.booleans(),
)
def test_hamiltonian_dict_round_trip_is_exact_for_matrices(seed, d_a, degenerate):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d_a)
    if degenerate:
        h = np.diag(np.round(np.linalg.eigvalsh(h)))
    ham = dynamics.LocalHamiltonian.from_matrix(h)
    back = dynamics.hamiltonian_from_dict(json.loads(json.dumps(dynamics.hamiltonian_to_dict(ham))))
    assert _same_bits(back.energies, ham.energies)
    assert _same_bits(back.projectors, ham.projectors)


@settings(max_examples=30, deadline=None)
@given(axis=st.tuples(_finite, _finite, _finite), gap=_finite)
def test_hamiltonian_dict_round_trip_is_exact_for_bloch_axes(axis, gap):
    assume(np.linalg.norm(axis) > 0.0)
    ham = dynamics.LocalHamiltonian.from_bloch_axis(axis, gap)
    back = dynamics.hamiltonian_from_dict(json.loads(json.dumps(dynamics.hamiltonian_to_dict(ham))))
    assert _same_bits(back.energies, ham.energies)
    assert _same_bits(back.projectors, ham.projectors)
