import copy
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactpower import correlations, dynamics, linalg, states
from impactpower.errors import DegenerateHamiltonian, DimensionMismatch, NoConvergence, OutOfRange

from conftest import random_density, random_hermitian


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


def test_measurement_min_discord_reports_a_solver_failure(monkeypatch):
    # the Jacobi sweep's eigh once let a bare LinAlgError escape
    rho = states.random_state((3, 2), seed=0)

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        correlations.measurement_min_discord(rho)


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



def _frozen_boolean_index_sweeps(a):
    # the stacked sweeps that rotate every gaining start through a
    # boolean-index copy and write it back, kept to pin the in-place rotation
    d = a.shape[-1]
    for _ in range(correlations._MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                app, apq, aqp, aqq = a[..., p, p], a[..., p, q], a[..., q, p], a[..., q, q]
                h = np.stack([app - aqq, apq + aqp, 1j * (aqp - apq)], axis=1)
                g = (h @ h.conj().swapaxes(-1, -2)).real
                vals, vecs = np.linalg.eigh(g)
                gain = vals[:, -1] - g[:, 0, 0] > correlations._GAIN_ROUNDOFF * vals[:, -1]
                if not gain.any():
                    continue
                v = vecs[gain, :, -1]
                x, y, z = (v * np.copysign(1.0, v[:, :1])).T
                c = np.sqrt((1.0 + x) / 2.0)
                s = (y - 1j * z) / np.sqrt(2.0 * (1.0 + x))
                rot = np.stack([c, -s.conj(), s, c], axis=-1).reshape(-1, 1, 2, 2)
                b = a[gain]
                b[..., [p, q], :] = rot.conj().swapaxes(-1, -2) @ b[..., [p, q], :]
                b[..., [p, q]] = b[..., [p, q]] @ rot
                a[gain] = b
                rotated = True
        if not rotated:
            break
    return linalg.hs_norm_sq(np.diagonal(a, axis1=-2, axis2=-1))


@pytest.mark.parametrize("dims", [(3, 2), (3, 3), (4, 2), (5, 2), (3, 4)])
def test_in_place_sweeps_match_boolean_index_sweeps_bit_for_bit(dims):
    # full rank, rank 1 and rank 2, each with 1, 2 and 12 starts: a single
    # start always rotates in place, more starts mix the two routes
    d_a = dims[0]
    for rank in (dims[0] * dims[1], 1, 2):
        for starts in (1, 2, 12):
            for i in range(3):
                rho = states.random_state(dims, rank=rank, seed=[19, rank, starts, i])
                rng = np.random.default_rng([20, rank, starts, i])
                draws = [linalg.haar_unitary(d_a, rng) for _ in range(starts - 1)]
                u = np.stack([np.eye(d_a, dtype=complex)] + draws)
                rho4 = rho.mat.reshape(d_a, dims[1], d_a, dims[1])
                blocks = np.einsum("sai,abcd,scj->sbdij", u.conj(), rho4, u).reshape(starts, -1, d_a, d_a)
                frozen = blocks.copy()
                weights = correlations._joint_diagonal_weight(blocks)
                assert weights.tobytes() == _frozen_boolean_index_sweeps(frozen).tobytes()
                assert blocks.tobytes() == frozen.tobytes()


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


_FROZEN_ROWS, _FROZEN_COLS = np.triu_indices(3)


def _frozen_fancy_index_m(mats, d_b):
    # M's upper triangle as one product of fancy-indexed copies of all six (X_i, X_j^T) pairs
    sig = linalg.tensor(np.stack(linalg.PAULIS), np.eye(d_b, dtype=complex))
    x = mats[:, None] @ sig
    prod = x[:, _FROZEN_ROWS] * x[:, _FROZEN_COLS].swapaxes(-1, -2)
    entries = prod.reshape(prod.shape[:2] + (-1,)).sum(axis=-1).real
    m = np.empty((mats.shape[0], 3, 3))
    m[:, _FROZEN_ROWS, _FROZEN_COLS] = entries
    m[:, _FROZEN_COLS, _FROZEN_ROWS] = entries
    return m


def _m_stack_cases():
    for d_b in (1, 2, 3, 4):
        for rank in sorted({1, 2, 2 * d_b}):
            for n in (1, 7, 40, 300):
                seeds = [[23, d_b, rank, n, i] for i in range(n)]
                yield f"2x{d_b} rank {rank} N {n}", d_b, states.random_states((2, d_b), rank, seeds)
    # the grids give M exact zeros, whose signs must match too
    yield "werner", 2, np.stack([states.werner(x).mat for x in np.linspace(-1.0, 1.0, 101)])
    yield "isotropic", 2, np.stack([states.isotropic(f).mat for f in np.linspace(0.0, 1.0, 101)])


def test_m_stack_matches_frozen_fancy_index_products():
    for case, d_b, mats in _m_stack_cases():
        m, eig = correlations._m_stack(mats, d_b)
        frozen = _frozen_fancy_index_m(mats, d_b)
        assert m.tobytes() == frozen.tobytes(), case
        frozen_eig = linalg._lapack(np.linalg.eigh, frozen.astype(complex))
        assert eig.eigenvalues.tobytes() == frozen_eig.eigenvalues.tobytes(), case
        assert eig.eigenvectors.tobytes() == frozen_eig.eigenvectors.tobytes(), case


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


def test_general_bound_rejects_a_single_level_on_one_dimension():
    # one level on d_A = 1 counts as fully nondegenerate, but the bound
    # 4 D / (d_A (d_A - 1)) needs two distinct levels
    rho = states.random_state((1, 2), seed=0)
    ham = dynamics.LocalHamiltonian(np.array([0.5]), np.eye(1)[None])
    assert ham.trivial and ham.fully_nondegenerate
    with pytest.raises(DegenerateHamiltonian, match="at least two levels"):
        correlations.general_dim_bound_check(rho, ham)


#: largest deviation over 120 cases (4 seeds of 30) was 6.6e-16, for the
#: measurement discord; the rest stayed at or below 4.4e-16
ANCILLA_TOL = 4e-15


def test_an_ancilla_on_b_scales_by_its_purity():
    # rho -> rho (x) sigma_C with C appended to B scales p_min, p_max, the
    # discord, the impact profile and the impact power by Tr sigma_C^2
    rng = np.random.default_rng(77)

    def attach(rho, sigma):
        return states.DensityMatrix(np.kron(rho.mat, sigma), (rho.d_a, rho.d_b * len(sigma)))

    for _ in range(30):
        sigma = random_density(rng, 2)
        scale = float(np.trace(sigma @ sigma).real)
        qubit, qutrit = states.random_state((2, 2), seed=rng), states.random_state((3, 2), seed=rng)
        got = correlations.p_extrema(attach(qubit, sigma))
        want = correlations.p_extrema(qubit)
        assert np.max(np.abs(np.subtract(got, scale * np.array(want)))) <= ANCILLA_TOL
        seed = int(rng.integers(2**31))
        got = correlations.measurement_min_discord(attach(qutrit, sigma), seed=seed)
        want = correlations.measurement_min_discord(qutrit, seed=seed)
        assert abs(got - scale * want) <= ANCILLA_TOL
        gap = float(rng.uniform(0.5, 3.0))
        two_level = dynamics.LocalHamiltonian.from_bloch_axis(rng.standard_normal(3), gap)
        three_level = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, 3))
        for rho, ham in ((qubit, two_level), (qutrit, three_level)):
            ts = np.linspace(0.0, ham.period, 33)
            got = dynamics.impact(attach(rho, sigma), ham, ts)
            assert np.max(np.abs(got - scale * dynamics.impact(rho, ham, ts))) <= ANCILLA_TOL
            got = dynamics.impact_power(attach(rho, sigma), ham)
            assert abs(got - scale * dynamics.impact_power(rho, ham)) <= ANCILLA_TOL


#: largest deviation over 480 cases (4 seeds of 120) was 1.7e-16 for M and
#: 2.8e-16 for the impact profile
FLAGGED_TOL = 2e-15


def test_a_flagged_mixture_splits_m_and_the_impact_profile():
    # rho = p rho_1 (x) |0><0| + (1-p) rho_2 (x) |1><1| with the flag on B:
    # M and the impact profile split as p^2 (rho_1 term) + (1-p)^2 (rho_2 term)
    rng = np.random.default_rng(78)
    flags = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    for k in range(30):
        d_b = 2 + k % 2
        rho_1, rho_2 = (states.random_state((2, d_b), seed=rng) for _ in range(2))
        p = float(rng.uniform())
        mat = p * np.kron(rho_1.mat, flags[0]) + (1.0 - p) * np.kron(rho_2.mat, flags[1])
        rho = states.DensityMatrix(mat, (2, 2 * d_b))
        w_1, w_2 = p * p, (1.0 - p) ** 2
        want = w_1 * correlations.m_matrix(rho_1).m + w_2 * correlations.m_matrix(rho_2).m
        assert np.max(np.abs(correlations.m_matrix(rho).m - want)) <= FLAGGED_TOL
        gap = float(rng.uniform(0.5, 3.0))
        ham = dynamics.LocalHamiltonian.from_bloch_axis(rng.standard_normal(3), gap)
        ts = np.linspace(0.0, ham.period, 33)
        want = w_1 * dynamics.impact(rho_1, ham, ts) + w_2 * dynamics.impact(rho_2, ham, ts)
        assert np.max(np.abs(dynamics.impact(rho, ham, ts) - want)) <= FLAGGED_TOL


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


@pytest.mark.parametrize("starts", [0, -5, 1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_report_rejects_bad_starts_in_either_regime(dims, starts):
    # the qubit-A closed form does not use starts, and once accepted any value
    rho = states.random_state(dims, seed=0)
    for call in (correlations.report, correlations.geometric_discord):
        with pytest.raises(OutOfRange, match=r"^starts: expected a whole number >= 1"):
            call(rho, starts=starts)


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_report_is_the_one_regime_choice(dims):
    # every field equals its counterpart from the functions that read the
    # report, and from p_extrema or measurement_min_discord, to the bit
    for seed in range(4):
        rho = states.random_state(dims, seed=[len(dims), *dims, seed])
        rep = correlations.report(rho)
        keys = ["purity", "p_min", "p_max", "discord", "bound_rhs", "saturates_bound", "method"]
        assert list(dataclasses.asdict(rep)) == keys
        assert rep.purity == rho.purity
        assert (rep.discord, rep.method) == correlations.geometric_discord(rho)
        if rho.d_a == 2:
            p_min, p_max = correlations.p_extrema(rho)
            assert (rep.p_min, rep.p_max, rep.discord, rep.method) == (p_min, p_max, p_min / 2.0, "closed-form")
        else:
            assert (rep.p_min, rep.p_max) == (None, None)
            assert (rep.discord, rep.method) == (correlations.measurement_min_discord(rho), "numeric")
        if dims == (2, 2):
            check = correlations.purity_bound_check(rho)
            assert (rep.p_min, rep.bound_rhs, rep.saturates_bound) == tuple(check)
            assert rep.bound_rhs == correlations.purity_bound_rhs(rho.purity)
        else:
            assert (rep.bound_rhs, rep.saturates_bound) == (None, None)
