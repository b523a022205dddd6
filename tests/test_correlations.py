import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactpower import correlations, dynamics, linalg, states
from impactpower.errors import DegenerateHamiltonian, DimensionMismatch

from conftest import random_hermitian


def bell_state():
    return states.from_pure(states.phi_plus(2), (2, 2))


def dephasing_distance(rho, axis):
    # independent evaluation of 2 ||rho - Phi_r(rho)||^2
    r_sigma = sum(axis[i] * linalg.PAULIS[i] for i in range(3))
    eye_b = np.eye(rho.d_b, dtype=complex)
    p0 = linalg.tensor((np.eye(2) + r_sigma) / 2.0, eye_b)
    p1 = linalg.tensor((np.eye(2) - r_sigma) / 2.0, eye_b)
    dephased = p0 @ rho.mat @ p0 + p1 @ rho.mat @ p1
    return 2.0 * linalg.hs_norm_sq(rho.mat - dephased)


def test_m_matrix_maximally_mixed():
    mm = correlations.m_matrix(states.DensityMatrix(np.eye(4) / 4, (2, 2)))
    assert np.max(np.abs(mm.m - np.eye(3) / 4)) <= 1e-12


def test_m_matrix_product_basis_state():
    rho = states.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    assert np.max(np.abs(correlations.m_matrix(rho).m - np.diag([0.0, 0.0, 1.0]))) <= 1e-12


def test_m_matrix_bell_vanishes():
    assert np.max(np.abs(correlations.m_matrix(bell_state()).m)) <= 1e-12


def test_m_matrix_quadratic_form_equals_dephasing(rng):
    for _ in range(10):
        d_b = int(rng.integers(2, 5))
        rho = states.random_state((2, d_b), seed=rng)
        mm = correlations.m_matrix(rho)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        quad = rho.purity - float(axis @ mm.m @ axis)
        assert abs(quad - dephasing_distance(rho, axis)) <= 1e-10


def test_m_matrix_requires_qubit_a():
    rho = states.random_state((3, 2), seed=0)
    with pytest.raises(DimensionMismatch, match="m_matrix"):
        correlations.m_matrix(rho)
    with pytest.raises(DimensionMismatch, match="p_extrema"):
        correlations.p_extrema(rho)


def test_p_extrema_examples():
    rho00 = states.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    p_min, p_max = correlations.p_extrema(rho00)
    assert abs(p_min) <= 1e-12 and abs(p_max - 1.0) <= 1e-12
    p_min, p_max = correlations.p_extrema(bell_state())
    assert abs(p_min - 1.0) <= 1e-10 and abs(p_max - 1.0) <= 1e-10
    assert abs(correlations.p_extrema(states.werner(1.0))[0] - 1.0 / 9.0) <= 1e-12


def test_extremal_axes_attain_extrema(rng):
    rho = states.random_state((2, 3), seed=rng)
    mm = correlations.m_matrix(rho)
    axis_min, axis_max = correlations.extremal_axes(mm)
    p_min, p_max = correlations.p_extrema(rho)
    assert abs(dephasing_distance(rho, axis_min) - p_min) <= 1e-10
    assert abs(dephasing_distance(rho, axis_max) - p_max) <= 1e-10


def _reference_canonical_axis(vec):
    v = vec / np.linalg.norm(vec)
    for comp in v:
        if abs(comp) > 1e-12:
            if comp < 0.0:
                v = -v
            break
    return v


def test_canonical_axis_matches_entry_loop_bit_for_bit(rng):
    vecs = [rng.standard_normal(3) for _ in range(50)]
    vecs += [np.array(v) for v in ([0.0, -1.0, 2.0], [1e-13, -2.0, 0.0], [-1e-13, 3.0, -1.0], [-0.0, 0.0, -5.0])]
    for v in vecs:
        assert correlations._canonical_axis(v).tobytes() == _reference_canonical_axis(v).tobytes()


def test_extremal_axes_deterministic_under_ties():
    mm = correlations.m_matrix(states.DensityMatrix(np.eye(4) / 4, (2, 2)))
    a1 = correlations.extremal_axes(mm)
    a2 = correlations.extremal_axes(mm)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert abs(np.linalg.norm(a1[0]) - 1.0) <= 1e-12


def test_geometric_discord_zero_on_classical_quantum(rng):
    for _ in range(5):
        spec = states.random_cq_spec((2, 2), seed=rng)
        value, method = correlations.geometric_discord(states.classical_quantum(spec))
        assert value <= 1e-9
        assert method == "closed-form"


def test_geometric_discord_werner_grid():
    for x in np.linspace(-1.0, 1.0, 21):
        value, _ = correlations.geometric_discord(states.werner(float(x)))
        assert abs(value - (2.0 * x - 1.0) ** 2 / 18.0) <= 1e-10


def test_geometric_discord_bell():
    assert abs(correlations.geometric_discord(bell_state())[0] - 0.5) <= 1e-10


def test_geometric_discord_local_unitary_covariance(rng):
    for _ in range(5):
        rho = states.random_state((2, 2), seed=rng)
        u = linalg.tensor(linalg.haar_unitary(2, rng), linalg.haar_unitary(2, rng))
        rotated = states.DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
        assert abs(
            correlations.geometric_discord(rho)[0] - correlations.geometric_discord(rotated)[0]
        ) <= 1e-9


def test_geometric_discord_asymmetry():
    # classical-quantum on A with nonorthogonal B blocks has discord only when
    # measured on B
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    spec = states.ClassicalQuantumSpec(
        np.array([0.5, 0.5]),
        np.eye(2, dtype=complex),
        (np.diag([1.0, 0.0]).astype(complex), np.outer(plus, plus.conj())),
    )
    omega = states.classical_quantum(spec)
    d_a = correlations.geometric_discord(omega)[0]
    d_b = correlations.geometric_discord(states.swap_parties(omega))[0]
    assert d_a <= 1e-10
    assert d_b > 1e-3


def test_measurement_min_discord_matches_closed_form(rng):
    for _ in range(4):
        rho = states.random_state((2, 3), seed=rng)
        numeric = correlations.measurement_min_discord(rho, starts=8, seed=rng)
        closed = correlations.geometric_discord(rho)[0]
        assert abs(numeric - closed) <= 1e-8


def test_measurement_min_discord_qutrit_cq_is_zero(rng):
    spec = states.random_cq_spec((3, 2), seed=rng)
    omega = states.classical_quantum(spec)
    value, method = correlations.geometric_discord(omega, starts=8, seed=1)
    assert method == "numeric"
    assert value <= 1e-9


def test_measurement_min_discord_embedded_qubit_matches_closed_form():
    # a qubit-A state placed on |0>, |1> of a qutrit A keeps its discord
    for i in range(6):
        d_b = 2 + i % 2
        q = states.random_state((2, d_b), rank=1 + i % (2 * d_b), seed=[11, i])
        blocks = np.zeros((3, d_b, 3, d_b), dtype=complex)
        blocks[:2, :, :2, :] = q.mat.reshape(2, d_b, 2, d_b)
        embedded = states.DensityMatrix(blocks.reshape(3 * d_b, 3 * d_b), (3, d_b))
        value = correlations.measurement_min_discord(embedded)
        assert abs(value - correlations.p_extrema(q)[0] / 2.0) <= 1e-9


def test_measurement_min_discord_maximally_mixed_qutrit():
    # every basis dephases Id/6 to itself, so each pair gain is 0 from the start
    value = correlations.measurement_min_discord(states.DensityMatrix(np.eye(6) / 6, (3, 2)))
    assert 0.0 <= value <= 1e-12


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), rank=st.integers(min_value=1, max_value=6))
def test_measurement_min_discord_local_unitary_invariance(seed, rank):
    rng = np.random.default_rng(seed)
    rho = states.random_state((3, 2), rank=rank, seed=rng)
    u = linalg.tensor(linalg.haar_unitary(3, rng), linalg.haar_unitary(2, rng))
    rotated = states.DensityMatrix(u @ rho.mat @ u.conj().T, (3, 2))
    assert abs(
        correlations.measurement_min_discord(rho) - correlations.measurement_min_discord(rotated)
    ) <= 1e-9


def _reference_joint_diagonal_weight(a):
    # the one-start solver: Jacobi-angle sweeps over one (K, d, d) stack
    d = a.shape[1]
    for _ in range(correlations._MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                app, apq, aqp, aqq = a[:, p, p], a[:, p, q], a[:, q, p], a[:, q, q]
                h = np.array([app - aqq, apq + aqp, 1j * (aqp - apq)])
                g = (h @ h.conj().T).real
                vals, vecs = np.linalg.eigh(g)
                if vals[-1] - g[0, 0] <= correlations._GAIN_ROUNDOFF * vals[-1]:
                    continue
                x, y, z = vecs[:, -1] * math.copysign(1.0, vecs[0, -1])
                c = math.sqrt((1.0 + x) / 2.0)
                s = (y - 1j * z) / math.sqrt(2.0 * (1.0 + x))
                rot = np.array([[c, -s.conjugate()], [s, c]])
                a[:, [p, q], :] = rot.conj().T @ a[:, [p, q], :]
                a[:, :, [p, q]] = a[:, :, [p, q]] @ rot
                rotated = True
        if not rotated:
            break
    diag = np.diagonal(a, axis1=1, axis2=2)
    return float(np.vdot(diag, diag).real)


def _reference_min_discord(rho, starts, seed):
    # every start swept on its own, then the best weight over starts
    rng = np.random.default_rng(seed)
    d_a = rho.d_a
    rho4 = rho.mat.reshape(d_a, rho.d_b, d_a, rho.d_b)
    unitaries = [np.eye(d_a, dtype=complex)]
    unitaries += [linalg.haar_unitary(d_a, rng) for _ in range(max(starts - 1, 0))]
    weights = [
        _reference_joint_diagonal_weight(
            np.einsum("ai,abcd,cj->bdij", u.conj(), rho4, u).reshape(-1, d_a, d_a)
        )
        for u in unitaries
    ]
    return max(rho.purity - max(weights), 0.0), weights


@functools.cache
def _discord_cases():
    # (rho, starts, seed generator): criterion-6 states with the generator the
    # criterion hands on, every rank of 3x2, 3x3, 4x2, 5x2, 4x3 and 3x1, and
    # the maximally mixed qutrit-qubit state
    cases = []
    for i in range(66):
        rng = np.random.default_rng([6, i])
        rho = states.random_state((3, 2), seed=rng)
        while True:
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            if dynamics.LocalHamiltonian.from_matrix((z + z.conj().T) / 2.0).fully_nondegenerate:
                break
        cases.append((rho, 8, rng))
    n = 0
    for dims, per_rank in (((3, 2), 4), ((3, 3), 4), ((4, 2), 3), ((5, 2), 1), ((4, 3), 2), ((3, 1), 4)):
        for rank in range(1, dims[0] * dims[1] + 1):
            for _ in range(per_rank):
                rho = states.random_state(dims, rank=rank, seed=[16, n])
                cases.append((rho, (1, 2, 8, 12)[n % 4], np.random.default_rng([17, n])))
                n += 1
    mixed = states.DensityMatrix(np.eye(6) / 6, (3, 2))
    cases += [(mixed, starts, np.random.default_rng(starts)) for starts in (1, 2, 8, 12)]
    return cases


@pytest.mark.parametrize("max_sweeps", [correlations._MAX_SWEEPS, 2])
def test_measurement_min_discord_stack_matches_per_start_sweeps_bit_for_bit(monkeypatch, max_sweeps):
    monkeypatch.setattr(correlations, "_MAX_SWEEPS", max_sweeps)
    sweep = correlations._joint_diagonal_weight
    calls = []

    def spy(a):
        calls.append(sweep(a))
        return calls[-1]

    monkeypatch.setattr(correlations, "_joint_diagonal_weight", spy)
    cases = _discord_cases()
    assert len(cases) >= 200
    for k, (rho, starts, rng) in enumerate(cases):
        expected, weights = _reference_min_discord(rho, starts, copy.deepcopy(rng))
        calls.clear()
        value = correlations.measurement_min_discord(rho, starts=starts, seed=copy.deepcopy(rng))
        assert len(calls) == 1, k
        assert calls[0].tobytes() == np.array(weights).tobytes(), k
        assert np.float64(value).tobytes() == np.float64(expected).tobytes(), k


def _reference_p_extrema(rho):
    # the per-state formula: M entry by entry from X_i = rho (sigma_i (x) 1)
    eye_b = np.eye(rho.d_b, dtype=complex)
    x = [rho.mat @ linalg.tensor(s, eye_b) for s in linalg.PAULIS]
    m = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            m[i, j] = m[j, i] = complex(np.sum(x[i] * x[j].T)).real
    vals = linalg.hermitian_eigendecompose(m.astype(complex)).eigenvalues
    purity = float(np.vdot(rho.mat, rho.mat).real)
    p_min, p_max = purity - float(vals[-1]), purity - float(vals[0])
    if -1e-10 <= p_min < 0.0:
        p_min = 0.0
    if -1e-10 <= p_max < 0.0:
        p_max = 0.0
    return purity, p_min, p_max


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_p_extrema_stack_matches_single_states_bit_for_bit(d_b):
    mats = np.concatenate(
        [states.random_states((2, d_b), rank, [[d_b, rank, i] for i in range(20)]) for rank in (1, 2, 2 * d_b)]
        + [states.DensityMatrix(np.eye(2 * d_b) / (2 * d_b), (2, d_b)).mat[None]]
    )
    purity, p_min, p_max = correlations.p_extrema_stack(mats, d_b)
    for k, mat in enumerate(mats):
        rho = states.DensityMatrix(mat, (2, d_b), validate=False)
        stacked = np.array([purity[k], p_min[k], p_max[k]])
        assert stacked.tobytes() == np.array(_reference_p_extrema(rho)).tobytes()
        assert stacked[1:].tobytes() == np.array(correlations.p_extrema(rho)).tobytes()
    with pytest.raises(DimensionMismatch):
        correlations.p_extrema_stack(mats[0], d_b)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d_b=st.integers(min_value=2, max_value=4),
    rank=st.integers(min_value=1, max_value=8),
)
def test_p_extrema_order_property(seed, d_b, rank):
    # 0 <= p_min <= p_max <= Tr rho^2, with the scan checker's 1e-10 slack on the top
    mats = states.random_states((2, d_b), min(rank, 2 * d_b), [[seed, i] for i in range(16)])
    purity, p_min, p_max = correlations.p_extrema_stack(mats, d_b)
    assert np.all(0.0 <= p_min)
    assert np.all(p_min <= p_max)
    assert np.all(p_max <= purity + 1e-10)



@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d_b=st.integers(min_value=2, max_value=4),
    rank=st.integers(min_value=1, max_value=8),
)
def test_p_extrema_local_unitary_invariance(seed, d_b, rank):
    # U_A only relabels the axes of H_A, and U_B leaves every norm alone
    rng = np.random.default_rng(seed)
    rho = states.random_state((2, d_b), rank=min(rank, 2 * d_b), seed=rng)
    u = linalg.tensor(linalg.haar_unitary(2, rng), linalg.haar_unitary(d_b, rng))
    rotated = states.DensityMatrix(u @ rho.mat @ u.conj().T, (2, d_b))
    assert np.allclose(correlations.p_extrema(rotated), correlations.p_extrema(rho), rtol=0.0, atol=1e-10)

def test_k_matrix_examples():
    assert abs(correlations.k_matrix_discord(states.DensityMatrix(np.eye(4) / 4, (2, 2)))) <= 1e-12
    assert abs(correlations.k_matrix_discord(bell_state()) - 0.5) <= 1e-12
    assert abs(correlations.k_matrix_discord(states.werner(0.0)) - 1.0 / 18.0) <= 1e-12


def test_k_matrix_agrees_with_geometric_discord(rng):
    for _ in range(10):
        rho = states.random_state((2, 2), seed=rng)
        assert abs(
            correlations.k_matrix_discord(rho) - correlations.geometric_discord(rho)[0]
        ) <= 1e-10


def test_k_matrix_invariants(rng):
    for _ in range(10):
        rho = states.random_state((2, 2), seed=rng)
        b = states.bloch_decompose(rho)
        km = correlations.k_matrix(rho)
        assert np.max(np.abs(km.k - (np.outer(b.x, b.x) + b.t @ b.t.T))) <= 1e-12
        assert float(linalg.hermitian_eigenvalues(km.k.astype(complex))[0]) >= -1e-10
        assert 3.0 * km.k_max >= b.x @ b.x + float(np.sum(b.t * b.t)) - 1e-10


def test_k_matrix_requires_two_qubits():
    with pytest.raises(DimensionMismatch):
        correlations.k_matrix_discord(states.random_state((2, 3), seed=0))


def test_purity_bound_werner_saturates():
    for x in np.linspace(-1.0, 1.0, 21):
        assert correlations.purity_bound_check(states.werner(float(x))).saturates


def test_purity_bound_product_state():
    rho = states.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    check = correlations.purity_bound_check(rho)
    assert abs(check.lhs) <= 1e-12 and abs(check.rhs - 1.0) <= 1e-12
    assert not check.saturates


def test_purity_bound_random_states(rng):
    for _ in range(300):
        check = correlations.purity_bound_check(states.random_state((2, 2), seed=rng))
        assert check.lhs <= check.rhs + 1e-9


def test_general_bound_reduces_to_qubit_case(rng):
    rho = states.random_state((2, 2), seed=rng)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    ham = dynamics.LocalHamiltonian.from_bloch_axis(axis, 1.3)
    result = correlations.general_dim_bound_check(rho, ham)
    assert abs(result.bound - 2.0 * correlations.geometric_discord(rho)[0]) <= 1e-12
    assert result.p >= result.bound - 1e-10


def test_general_bound_classical_quantum_qutrit(rng):
    spec = states.random_cq_spec((3, 2), seed=rng)
    omega = states.classical_quantum(spec)
    projectors = tuple(np.outer(c, c.conj()) for c in spec.basis.T)
    ham = dynamics.LocalHamiltonian(np.array([0.0, 1.0, 2.2]), projectors)
    result = correlations.general_dim_bound_check(omega, ham, starts=6, seed=3)
    assert result.p <= 1e-9
    assert result.bound <= 1e-9


def test_general_bound_random_qutrit_states(rng):
    for _ in range(8):
        rho = states.random_state((3, 2), seed=rng)
        ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3))
        result = correlations.general_dim_bound_check(rho, ham, starts=6, seed=rng)
        assert result.p >= result.bound - 1e-6


def test_general_bound_rejects_degenerate():
    rho = states.random_state((3, 2), seed=2)
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 1.0]))
    with pytest.raises(DegenerateHamiltonian):
        correlations.general_dim_bound_check(rho, ham)


def test_order_relation_random_pairs(rng):
    for _ in range(300):
        rho = states.random_state((2, 2), seed=rng)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        ham = dynamics.LocalHamiltonian.from_bloch_axis(axis, float(rng.uniform(0.5, 3.0)))
        discord = correlations.geometric_discord(rho)[0]
        assert dynamics.impact_power(rho, ham) >= 2.0 * discord - 1e-10


def test_report_werner_endpoint():
    rep = correlations.report(states.werner(1.0))
    assert abs(rep.purity - 1.0 / 3.0) <= 1e-12
    assert abs(rep.p_min - 1.0 / 9.0) <= 1e-12
    assert abs(rep.discord - 1.0 / 18.0) <= 1e-12
    assert rep.saturates_bound is True
    assert rep.method == "closed-form"


def test_report_maximally_mixed():
    rep = correlations.report(states.DensityMatrix(np.eye(4) / 4, (2, 2)))
    assert rep.purity == 0.25
    assert abs(rep.p_min) <= 1e-12 and abs(rep.p_max) <= 1e-12 and abs(rep.discord) <= 1e-12


def test_report_wide_b_side(rng):
    rho = states.random_state((2, 4), seed=rng)
    rep = correlations.report(rho)
    assert abs(rep.p_min - 2.0 * rep.discord) <= 1e-12
    assert rep.bound_rhs is None and rep.saturates_bound is None
    assert 0.0 <= rep.p_min <= rep.p_max <= 1.0 + 1e-10


def test_report_qutrit_side(rng):
    rho = states.random_state((3, 2), seed=rng)
    rep = correlations.report(rho, starts=6, seed=5)
    assert rep.p_min is None and rep.p_max is None
    assert rep.method == "numeric"
    assert rep.discord >= 0.0
