import math

import numpy as np
import pytest

from impactpower import correlations, linalg, oracle, states
from impactpower.errors import DimensionMismatch, ImpactPowerError, NoConvergence, NotHermitian, OutOfRange

from conftest import random_density, random_hermitian

I2 = np.eye(2, dtype=complex)


def test_tensor_identities(rng):
    assert np.array_equal(linalg.tensor(I2, I2), np.eye(4))
    assert np.array_equal(linalg.tensor(linalg.SIGMA_Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]))
    # np.kron is the reference: same products, so equal to the bit
    for shape_a, shape_b in (((2, 2), (3, 3)), ((3, 2), (2, 4)), ((1, 3), (2, 1))):
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        assert np.array_equal(linalg.tensor(a, b), np.kron(a, b))
        assert np.array_equal(linalg.tensor(a, np.eye(3)), np.kron(a, np.eye(3)))


def test_tensor_stacks_match_kron(rng):
    a = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    b = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stacked = linalg.tensor(a, b)
    assert stacked.shape == (5, 6, 6)
    for i in range(5):
        assert np.array_equal(stacked[i], np.kron(a[i], b[i]))
    # a single matrix on either side broadcasts against the stack
    for i, block in enumerate(linalg.tensor(a, np.eye(3))):
        assert np.array_equal(block, np.kron(a[i], np.eye(3)))
    for i, block in enumerate(linalg.tensor(linalg.SIGMA_Y, b)):
        assert np.array_equal(block, np.kron(linalg.SIGMA_Y, b[i]))


def test_tensor_double_bitflip():
    ket00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    ket11 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    assert np.allclose(linalg.tensor(linalg.SIGMA_X, linalg.SIGMA_X) @ ket00, ket11)


def test_partial_trace_product_factorization(rng):
    rho = random_density(rng, 2)
    tau = random_hermitian(rng, 3)
    joint = linalg.tensor(rho, tau)
    assert np.allclose(linalg.partial_trace_B(joint, (2, 3)), rho * np.trace(tau), atol=1e-12)
    assert np.allclose(linalg.partial_trace_A(joint, (2, 3)), tau * np.trace(rho), atol=1e-12)


def test_partial_trace_bell_marginal():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(linalg.partial_trace_B(rho, (2, 2)), I2 / 2, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    rho = random_density(rng, 6)
    assert abs(np.trace(linalg.partial_trace_B(rho, (2, 3))) - 1.0) <= 1e-12
    assert abs(np.trace(linalg.partial_trace_A(rho, (2, 3))) - 1.0) <= 1e-12


def test_partial_traces_of_a_stack_match_each_matrix(rng):
    stack = np.array([random_density(rng, 6) for _ in range(5)]).reshape(5, 1, 6, 6)
    for trace in (linalg.partial_trace_A, linalg.partial_trace_B):
        stacked = trace(stack, (3, 2))
        for k in range(5):
            assert stacked[k, 0].tobytes() == trace(stack[k, 0], (3, 2)).tobytes()
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace_A(np.zeros((2, 6, 5)), (3, 2))


def test_partial_trace_of_tensor_recovers_factor(rng):
    rho_a = random_density(rng, 3)
    rho_b = random_density(rng, 2)
    joint = linalg.tensor(rho_a, rho_b)
    assert np.max(np.abs(linalg.partial_trace_A(joint, (3, 2)) - rho_b)) <= 1e-12
    assert np.max(np.abs(linalg.partial_trace_B(joint, (3, 2)) - rho_a)) <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace_B(np.eye(5), (2, 2))


def test_trace_identities_randomized(rng):
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(np.trace(a @ b) - np.trace(b @ a)) <= 1e-12 * max(1.0, abs(np.trace(a @ b)))
        assert abs(np.trace(a + b) - np.trace(a) - np.trace(b)) <= 1e-12
        u = linalg.haar_unitary(4, rng)
        assert abs(np.trace(u @ a @ u.conj().T) - np.trace(a)) <= 1e-12 * max(1.0, abs(np.trace(a)))


def test_eigendecompose_identity():
    eig = linalg.hermitian_eigendecompose(I2)
    assert np.allclose(eig.eigenvalues, [1.0, 1.0])
    v = eig.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - I2)) <= 1e-10


def test_eigendecompose_sigma_z():
    eig = linalg.hermitian_eigendecompose(linalg.SIGMA_Z)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])
    # eigenvector for -1 is |1>, for +1 is |0>, up to phase
    assert abs(abs(eig.eigenvectors[1, 0]) - 1.0) <= 1e-12
    assert abs(abs(eig.eigenvectors[0, 1]) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 8, 16])
def test_eigendecompose_random_reconstruction(rng, n):
    a = random_hermitian(rng, n)
    eig = linalg.hermitian_eigendecompose(a)
    v, w = eig.eigenvectors, eig.eigenvalues
    residual = np.sqrt(linalg.hs_norm_sq(a - (v * w) @ v.conj().T))
    assert residual <= 1e-10 * max(1.0, np.sqrt(linalg.hs_norm_sq(a)))
    assert np.sqrt(linalg.hs_norm_sq(v.conj().T @ v - np.eye(n))) <= 1e-10
    assert np.all(np.diff(w) >= 0.0)


def test_eigenvalues_match_external_reference(rng):
    for n in (3, 5, 8):
        a = random_hermitian(rng, n)
        ours = linalg.hermitian_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(ours - ref)) <= 1e-10


def test_eigendecompose_degenerate_spectrum(rng):
    a = random_hermitian(rng, 5)
    w, v = np.linalg.eigh(a)
    w[:3] = w[0]
    a = (v * w) @ v.conj().T
    a = (a + a.conj().T) / 2
    eig = linalg.hermitian_eigendecompose(a)
    residual = np.sqrt(linalg.hs_norm_sq(a - (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T))
    assert residual <= 1e-10 * max(1.0, np.sqrt(linalg.hs_norm_sq(a)))


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # NaN compares false against any tolerance, so it needs its own check
    for bad in (np.nan, np.inf):
        for solve in (linalg.hermitian_eigendecompose, linalg.hermitian_eigenvalues):
            with pytest.raises(ImpactPowerError, match="non-finite"):
                solve(np.array([[1.0, 0.0], [0.0, bad]]))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stacked_eigenvalues_and_norms_match_single_calls(rng, n):
    stack = np.array([random_hermitian(rng, n) for _ in range(7)])
    values = linalg.hermitian_eigenvalues(stack)
    norms = linalg.hs_norm_sq(stack)
    traces = linalg.trace_norm(stack)
    assert values.shape == (7, n) and norms.shape == (7,) and traces.shape == (7,)
    for i, a in enumerate(stack):
        assert np.array_equal(values[i], linalg.hermitian_eigenvalues(a))
        assert norms[i] == linalg.hs_norm_sq(a)
        assert traces[i] == linalg.trace_norm(a)


def test_stacked_eigenvalues_reject_one_bad_matrix(rng):
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    with_nan = stack.copy()
    with_nan[2, 0, 1] = np.nan
    with pytest.raises(ImpactPowerError, match="non-finite"):
        linalg.hermitian_eigenvalues(with_nan)
    with pytest.raises(ImpactPowerError, match="non-finite"):
        linalg.hermitian_eigenvalues(with_nan[2])
    skewed = stack.copy()
    skewed[1, 0, 2] += 1e-6
    with pytest.raises(NotHermitian) as stacked_error:
        linalg.hermitian_eigenvalues(skewed)
    with pytest.raises(NotHermitian) as single_error:
        linalg.hermitian_eigenvalues(skewed[1])
    assert str(stacked_error.value) == str(single_error.value)
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eigenvalues(np.zeros((4, 2, 3)))


def test_solver_failure_raises_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eigendecompose(linalg.SIGMA_Z)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eigenvalues(linalg.SIGMA_Z)


def test_eigendecompose_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eigendecompose(np.zeros((2, 3)))


def test_norms_on_sigma_z():
    assert abs(linalg.hs_norm_sq(linalg.SIGMA_Z) - 2.0) <= 1e-15
    assert abs(linalg.trace_norm(linalg.SIGMA_Z) - 2.0) <= 1e-12


def test_trace_norm_requires_hermitian():
    with pytest.raises(NotHermitian):
        linalg.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for bad in (np.nan, -np.inf):
        with pytest.raises(ImpactPowerError, match="non-finite"):
            linalg.trace_norm(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_trace_norm_dominates_hs_for_traceless(rng):
    # squared trace norm >= squared Hilbert-Schmidt norm, here on traceless input
    for _ in range(25):
        a = random_hermitian(rng, 4)
        a -= np.trace(a) * np.eye(4) / 4
        assert linalg.trace_norm(a) ** 2 >= linalg.hs_norm_sq(a) - 1e-12


def test_hs_norm_equals_eigenvalue_square_sum(rng):
    a = random_hermitian(rng, 6)
    w = linalg.hermitian_eigenvalues(a)
    assert abs(linalg.hs_norm_sq(a) - np.sum(w**2)) <= 1e-10 * max(1.0, linalg.hs_norm_sq(a))


def test_pairs_codec_roundtrip(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pairs = linalg._matrix_to_pairs(a)
    back = linalg._pairs_to_matrix(pairs, 3, 3, "matrix")
    assert np.array_equal(a, back)
    with pytest.raises(DimensionMismatch):
        linalg._pairs_to_matrix(pairs, 2, 2, "matrix")


def test_haar_stack_equals_haar_unitary_calls_in_turn():
    for d in (2, 3, 5):
        for n in (0, 1, 11):
            one_by_one, stacked = np.random.default_rng([d, n]), np.random.default_rng([d, n])
            want = np.array([linalg.haar_unitary(d, one_by_one) for _ in range(n)], dtype=complex)
            got = linalg._haar_stack(d, n, stacked)
            assert got.shape == (n, d, d) and np.array_equal(got, want.reshape(n, d, d))
            assert stacked.random() == one_by_one.random()


def test_haar_unitary_is_unitary(rng):
    u = linalg.haar_unitary(5, rng)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-12


_QUBITS = states.random_state((2, 2), seed=0)
#: every public call that draws from a ``seed`` argument
_SEEDED_CALLS = {
    "p_min_search": lambda seed: oracle.p_min_search(_QUBITS, samples=5, seed=seed),
    "p_max_search": lambda seed: oracle.p_max_search(_QUBITS, samples=5, seed=seed),
    "discord_cq_search": lambda seed: oracle.discord_cq_search(_QUBITS, samples=3, seed=seed),
    "trace_p_min_probe": lambda seed: oracle.trace_p_min_probe(_QUBITS, samples=5, seed=seed),
    "fibonacci_sphere_axes": lambda seed: oracle.fibonacci_sphere_axes(5, seed=seed, jitter=0.5),
    "random_state": lambda seed: states.random_state((2, 2), seed=seed),
    "random_states": lambda seed: states.random_states((2, 2), None, [0, seed]),
    "random_cq_spec": lambda seed: states.random_cq_spec((2, 2), seed=seed),
    "measurement_min_discord": lambda seed: correlations.measurement_min_discord(
        states.random_state((3, 2), seed=0), starts=2, seed=seed
    ),
}


@pytest.mark.parametrize("seed", ["x", 1.5, math.nan, -1, [1, -1]], ids=["str", "float", "nan", "negative", "list"])
@pytest.mark.parametrize("call", sorted(_SEEDED_CALLS))
def test_a_seed_numpy_cannot_take_is_out_of_range(call, seed):
    # each once raised numpy's bare TypeError or ValueError
    with pytest.raises(OutOfRange, match=r"^seed: expected None, a whole number >= 0"):
        _SEEDED_CALLS[call](seed)


@pytest.mark.parametrize("seed", [None, 3, 2**70, [1, 2], np.uint32(5), np.random.SeedSequence(4)])
def test_seed_takes_what_default_rng_takes(seed):
    assert linalg._seed(seed).random() == np.random.default_rng(seed).random() or seed is None
    rng = np.random.default_rng(7)
    assert linalg._seed(rng) is rng

