import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactpower import linalg, states
from impactpower.dynamics import LocalHamiltonian
from impactpower.errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NotNormalized,
    OutOfRange,
)


def test_from_pure_basis_state():
    rho = states.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    assert np.allclose(rho.mat, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_from_pure_bell():
    rho = states.from_pure(states.phi_plus(2), (2, 2))
    assert abs(rho.purity - 1.0) <= 1e-10
    assert np.allclose(rho.reduced_a(), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(rho.reduced_b(), np.eye(2) / 2, atol=1e-12)


def test_from_pure_random_is_rank_one(rng):
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    vec /= np.linalg.norm(vec)
    rho = states.from_pure(vec, (2, 3))
    w = linalg.hermitian_eigenvalues(rho.mat)
    assert np.max(np.abs(w - np.array([0, 0, 0, 0, 0, 1.0]))) <= 1e-10


def test_from_pure_rejects_unnormalized():
    with pytest.raises(NotNormalized, match="non-finite"):
        states.from_pure(np.array([1.0, 0.0, 0.0, np.nan]), (2, 2))
    with pytest.raises(NotNormalized):
        states.from_pure(np.array([1.0, 1.0, 0.0, 0.0]), (2, 2))


def test_werner_midpoint_is_maximally_mixed():
    rho = states.werner(0.5)
    assert np.allclose(rho.mat, np.eye(4) / 4, atol=1e-14)
    assert abs(rho.purity - 0.25) <= 1e-12


def test_werner_singlet_endpoint():
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2)
    rho = states.werner(-1.0)
    overlap = np.real(singlet.conj() @ rho.mat @ singlet)
    assert abs(overlap - 1.0) <= 1e-12
    assert abs(rho.purity - 1.0) <= 1e-12


def test_werner_purity_formula_grid():
    for x in np.linspace(-1.0, 1.0, 101):
        assert abs(states.werner(float(x)).purity - (x * x - x + 1.0) / 3.0) <= 1e-12


def test_werner_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        states.werner(1.5)
    with pytest.raises(OutOfRange):
        states.werner(-1.0001)


_HALF_QUBIT = (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)
#: per real parameter: a call that puts its argument there, and a finite value
#: out of its range with the words that refuse it (any finite gap is valid)
_REAL_PARAMETERS = {
    "werner parameter": (states.werner, 1.5, r"outside \[-1, 1\]"),
    "isotropic fidelity": (states.isotropic, -0.1, r"outside \[0, 1\]"),
    "probabilities": (
        lambda p: states.ClassicalQuantumSpec([p, 0.5], np.eye(2, dtype=complex), _HALF_QUBIT),
        -0.5,
        r"outside \[-1e-12, inf\]",
    ),
    "bloch axis": (lambda r: LocalHamiltonian.from_bloch_axis([0.0, 0.0, r], 1.0), 0.0, "must be nonzero"),
    "gap": (lambda g: LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], g), None, None),
}
_NOT_REAL = {
    "string": ("0.3", "is not a real number"),
    "bool": (True, "is not a real number"),
    "nan": (math.nan, r"is non-finite \(NaN or inf\)"),
    "inf": (math.inf, r"is non-finite \(NaN or inf\)"),
    "1e400-int": (10**400, "does not fit a float"),
}
_REAL_CASES = [
    pytest.param(name, value, problem, id=f"{name}-{kind}")
    for name in _REAL_PARAMETERS
    for kind, (value, problem) in _NOT_REAL.items()
] + [
    pytest.param(name, value, problem, id=f"{name}-out-of-range")
    for name, (_, value, problem) in _REAL_PARAMETERS.items()
    if problem
]


@pytest.mark.parametrize("name, value, problem", _REAL_CASES)
def test_a_real_parameter_that_is_no_finite_number_in_range_is_refused(name, value, problem):
    # "0.3" and True were read as numbers, and 10**400 raised a bare OverflowError
    with pytest.raises(OutOfRange, match=f"^{name} .*{problem}$"):
        _REAL_PARAMETERS[name][0](value)


def test_classical_quantum_single_term():
    spec = states.ClassicalQuantumSpec(
        np.array([1.0]),
        np.array([[1.0], [0.0]], dtype=complex),
        (np.diag([1.0, 0.0]).astype(complex),),
    )
    omega = states.classical_quantum(spec)
    assert np.allclose(omega.mat, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_classical_quantum_two_blocks_purity():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    spec = states.ClassicalQuantumSpec(
        np.array([0.5, 0.5]),
        np.eye(2, dtype=complex),
        (np.diag([1.0, 0.0]).astype(complex), np.outer(plus, plus.conj())),
    )
    omega = states.classical_quantum(spec)
    # direct evaluation of Tr[omega^2] is the oracle here
    direct = float(np.trace(omega.mat @ omega.mat).real)
    assert abs(direct - 0.5) <= 1e-12
    assert abs(omega.purity - direct) <= 1e-12


def test_classical_quantum_dephasing_invariance(rng):
    spec = states.random_cq_spec((2, 3), seed=rng)
    omega = states.classical_quantum(spec)
    eye_b = np.eye(3, dtype=complex)
    dephased = sum(
        linalg.tensor(np.outer(col, col.conj()), eye_b)
        @ omega.mat
        @ linalg.tensor(np.outer(col, col.conj()), eye_b)
        for col in spec.basis.T
    )
    assert np.max(np.abs(dephased - omega.mat)) <= 1e-12
    # and a phase unitary in the spec basis leaves the state fixed
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    u_a = (spec.basis * phases) @ spec.basis.conj().T
    u = linalg.tensor(u_a, eye_b)
    assert np.max(np.abs(u @ omega.mat @ u.conj().T - omega.mat)) <= 1e-12


def test_classical_quantum_spec_validation():
    with pytest.raises(OutOfRange):
        states.ClassicalQuantumSpec(
            np.array([0.6, 0.6]),
            np.eye(2, dtype=complex),
            (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
        )
    with pytest.raises(NotNormalized):
        states.ClassicalQuantumSpec(
            np.array([0.5, 0.5]),
            np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
            (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
        )
    with pytest.raises(OutOfRange, match="non-finite"):
        states.ClassicalQuantumSpec(
            np.array([0.5, np.nan]),
            np.eye(2, dtype=complex),
            (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
        )
    with pytest.raises(OutOfRange, match="non-finite"):
        states.ClassicalQuantumSpec(
            np.array([0.5, 0.5]),
            np.array([[1.0, 0.0], [0.0, np.nan]], dtype=complex),
            (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
        )


def test_isotropic_endpoints():
    assert np.allclose(states.isotropic(0.25, 2).mat, np.eye(4) / 4, atol=1e-14)
    bell = states.from_pure(states.phi_plus(2), (2, 2))
    assert np.max(np.abs(states.isotropic(1.0, 2).mat - bell.mat)) <= 1e-14


def test_isotropic_purity_self_consistency():
    f = 0.7
    rho = states.isotropic(f, 2)
    # closed form: three eigenvalues (1-f)/3 and one eigenvalue f
    closed = 3.0 * ((1.0 - f) / 3.0) ** 2 + f * f
    assert abs(rho.purity - closed) <= 1e-12


def test_isotropic_twirling_invariance(rng):
    rho = states.isotropic(0.6, 2)
    for _ in range(5):
        u = linalg.haar_unitary(2, rng)
        twirl = linalg.tensor(u, u.conj())
        assert np.max(np.abs(twirl @ rho.mat @ twirl.conj().T - rho.mat)) <= 1e-12


def test_isotropic_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        states.isotropic(1.2, 2)


_WHOLE = r"a whole number >= \d, got "
_PAIR = r"a pair \(d_A, d_B\), got "


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: states.DensityMatrix(np.eye(4) / 4, (2.7, 2)), DimensionMismatch, _WHOLE + "2.7"),
        (lambda: states.DensityMatrix(np.eye(2) / 2, (2, True)), DimensionMismatch, _WHOLE + "True"),
        (lambda: states.from_pure(np.eye(4)[0], (2.5, 2)), DimensionMismatch, _WHOLE + "2.5"),
        (lambda: linalg.partial_trace_B(np.eye(4), (2.5, 2)), DimensionMismatch, _WHOLE + "2.5"),
        (lambda: linalg.partial_trace_A(np.eye(4), (2, 2.0)), DimensionMismatch, _WHOLE + "2.0"),
        (lambda: states.random_state((2.0, 2), seed=0), DimensionMismatch, _WHOLE + "2.0"),
        (lambda: states.random_state((2, 2), rank=1.5), OutOfRange, _WHOLE + "1.5"),
        (lambda: states.random_cq_spec((2, 2), n_blocks=1.5), OutOfRange, _WHOLE + "1.5"),
        (lambda: states.random_cq_spec((2, "2")), DimensionMismatch, _WHOLE + "'2'"),
        (lambda: states.isotropic(0.5, 2.0), OutOfRange, _WHOLE + "2.0"),
        (lambda: states.phi_plus(2.0), OutOfRange, _WHOLE + "2.0"),
        (lambda: states.swap_operator(0), OutOfRange, _WHOLE + "0"),
        (lambda: states.DensityMatrix(np.eye(4) / 4, (2, 2, 5)), DimensionMismatch, _PAIR + r"\(2, 2, 5\)"),
        (lambda: linalg.partial_trace_B(np.eye(4), [2, 2, 7]), DimensionMismatch, _PAIR + r"\[2, 2, 7\]"),
        (lambda: states.random_state((2,), seed=0), DimensionMismatch, _PAIR + r"\(2,\)"),
    ],
    ids=["density-2.7", "density-True", "pure-2.5", "trace-B-2.5", "trace-A-2.0",
         "random-dims-2.0", "rank-1.5", "blocks-1.5", "cq-dims-str", "isotropic-2.0",
         "phi-plus-2.0", "swap-0", "density-three-dims", "trace-B-three-dims", "random-one-dim"],
)
def test_a_dimension_or_count_that_is_no_whole_number_is_refused(build, error, message):
    # each was once truncated to an int, read only its first two entries, or
    # raised a bare TypeError or IndexError
    with pytest.raises(error, match=f"expected {message}$"):
        build()


def test_numpy_integer_dims_and_counts_pass():
    two = np.int64(2)
    rho = states.random_state((two, np.int32(2)), rank=two, seed=0)
    assert rho.dims == (2, 2) and type(rho.dims[0]) is int
    assert np.array_equal(rho.mat, states.random_state((2, 2), rank=2, seed=0).mat)
    assert states.random_cq_spec((two, two), n_blocks=two, seed=0).probabilities.size == 2
    assert states.isotropic(0.5, np.int8(3)).dims == (3, 3)


def test_random_state_rank_one_is_pure():
    rho = states.random_state((2, 2), rank=1, seed=11)
    assert abs(rho.purity - 1.0) <= 1e-10


def test_random_state_validity_sweep():
    # every full-rank draw passes PSD validation and stays PSD afterwards
    for i in range(2000):
        rho = states.random_state((2, 2), seed=i)
        assert float(linalg.hermitian_eigenvalues(rho.mat)[0]) >= -1e-12


def test_random_state_deterministic():
    a = states.random_state((2, 3), seed=42)
    b = states.random_state((2, 3), seed=42)
    assert np.array_equal(a.mat, b.mat)


def test_random_state_rejects_bad_rank():
    with pytest.raises(OutOfRange):
        states.random_state((2, 2), rank=5, seed=0)
    with pytest.raises(DimensionMismatch):
        states.random_state((2, 0), seed=0)


def _reference_draw(dims, rank, seed):
    # the per-item draw: one Ginibre matrix from the seed's own stream
    dim = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= float(np.trace(mat).real)
    return mat


@pytest.mark.parametrize("dims,rank", [((2, 2), 4), ((2, 2), 2), ((2, 3), 1), ((2, 4), 2), ((3, 3), 4)])
def test_random_states_match_single_states_bit_for_bit(dims, rank):
    seeds = [[17, i] for i in range(40)]
    stack = states.random_states(dims, rank, seeds)
    assert stack.shape == (40, dims[0] * dims[1], dims[0] * dims[1])
    clamped = 0
    for mat, seed in zip(stack, seeds):
        raw = _reference_draw(dims, rank, seed)
        clamped += bool(np.linalg.eigvalsh(raw)[0] < 0.0)
        assert mat.tobytes() == states.random_state(dims, rank=rank, seed=seed).mat.tobytes()
        assert mat.tobytes() == states.DensityMatrix(raw, dims).mat.tobytes()
    if rank < dims[0] * dims[1]:
        # rank-deficient draws have round-off negative eigenvalues: the clamp branch ran
        assert clamped > 0
    assert states.random_states(dims, rank, []).shape == (0,) + stack.shape[1:]


_ROW_PREFIXES = [0, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 7, 10**30]


@pytest.mark.parametrize("second", [None, 12], ids=["one-int", "two-ints"])
@pytest.mark.parametrize("first", _ROW_PREFIXES)
def test_row_generators_match_default_rng(first, second):
    prefix = [first] if second is None else [first, second]
    for rows in (range(301), range(2**32 - 3, 2**32 + 3)):
        gens = states._row_generators(prefix, rows)
        assert len(gens) == len(rows)
        for i, gen in zip(rows, gens):
            reference = np.random.default_rng([*prefix, i])
            assert gen.bit_generator.state == reference.bit_generator.state, i
            assert gen.standard_normal(16).tobytes() == reference.standard_normal(16).tobytes(), i


def test_row_generators_of_all_zero_and_long_entropy_rows():
    # all-zero words hash like the pool's zero padding; past four words each
    # row mixes in only the words it has
    for prefix in ([], [0, 0, 0], [1, 2, 3, 4, 5, 6]):
        rows = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        for i, gen in zip(rows, states._row_generators(prefix, rows)):
            assert gen.bit_generator.state == np.random.default_rng([*prefix, i]).bit_generator.state
    assert states._row_generators([3], []) == []
    with pytest.raises(OutOfRange):
        states._row_generators([-1], range(2))
    # the hashed seed holds PCG64's 4 uint64 words and refuses any other request
    with pytest.raises(ValueError, match="holds 4 uint64 words"):
        states._hashed_seed_type()(np.zeros(4, dtype=np.uint64)).generate_state(8, np.uint32)


def _bad_two_qubit_matrices():
    nan = np.eye(4, dtype=complex) / 4
    nan[1, 2] = np.nan
    non_hermitian = np.eye(4, dtype=complex) / 4
    non_hermitian[0, 1] = 0.2
    off_trace = np.eye(4, dtype=complex) / 4 * 1.1
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    return [nan, non_hermitian, off_trace, negative]


@pytest.mark.parametrize("position", [0, 3, 5])
@pytest.mark.parametrize("bad", _bad_two_qubit_matrices(), ids=["nan", "hermiticity", "trace", "positivity"])
def test_stacked_validation_reports_like_the_2d_call(bad, position):
    with pytest.raises(InvalidDensityMatrix) as single:
        states.DensityMatrix(bad, (2, 2))
    good = states.random_states((2, 2), None, [[5, i] for i in range(5)])
    stack = np.insert(good, position, bad, axis=0)
    with pytest.raises(InvalidDensityMatrix) as stacked:
        states._validated_stack(stack, 4)
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)


def test_bloch_decompose_maximally_mixed():
    b = states.bloch_decompose(states.DensityMatrix(np.eye(4) / 4, (2, 2)))
    assert np.allclose(b.x, 0) and np.allclose(b.y, 0) and np.allclose(b.t, 0)


def test_bloch_decompose_bell():
    bell = states.from_pure(states.phi_plus(2), (2, 2))
    b = states.bloch_decompose(bell)
    # oracle: direct Pauli expectations
    for i, si in enumerate(linalg.PAULIS):
        for j, sj in enumerate(linalg.PAULIS):
            direct = float(np.trace(bell.mat @ linalg.tensor(si, sj)).real)
            assert abs(b.t[i, j] - direct) <= 1e-12
    assert np.allclose(b.t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    assert np.allclose(b.x, 0) and np.allclose(b.y, 0)


def test_bloch_decompose_werner_is_isotropic_in_t():
    b = states.bloch_decompose(states.werner(0.2))
    assert np.allclose(b.x, 0, atol=1e-12) and np.allclose(b.y, 0, atol=1e-12)
    assert np.max(np.abs(b.t - b.t[0, 0] * np.eye(3))) <= 1e-12


def test_bloch_roundtrip_and_purity_identity(rng):
    for i in range(10):
        rho = states.random_state((2, 2), seed=rng)
        b = states.bloch_decompose(rho)
        back = states.bloch_reconstruct(b)
        assert np.max(np.abs(back.mat - rho.mat)) <= 1e-10
        norms = b.x @ b.x + b.y @ b.y + float(np.sum(b.t * b.t))
        assert abs(rho.purity - (1.0 + norms) / 4.0) <= 1e-10


def test_reduced_purity_identities(rng):
    for _ in range(10):
        rho = states.random_state((2, 2), seed=rng)
        b = states.bloch_decompose(rho)
        red_a = rho.reduced_a()
        red_b = rho.reduced_b()
        assert abs(np.trace(red_a @ red_a).real - (1.0 + b.x @ b.x) / 2.0) <= 1e-10
        assert abs(np.trace(red_b @ red_b).real - (1.0 + b.y @ b.y) / 2.0) <= 1e-10


def test_bloch_requires_two_qubits():
    with pytest.raises(DimensionMismatch):
        states.bloch_decompose(states.random_state((2, 3), seed=0))


def _reference_bloch_decompose(rho):
    # one tensor product and one trace per Pauli expectation
    eye2 = np.eye(2, dtype=complex)
    x = np.array([np.trace(rho.mat @ linalg.tensor(s, eye2)).real for s in linalg.PAULIS])
    y = np.array([np.trace(rho.mat @ linalg.tensor(eye2, s)).real for s in linalg.PAULIS])
    t = np.array(
        [
            [np.trace(rho.mat @ linalg.tensor(si, sj)).real for sj in linalg.PAULIS]
            for si in linalg.PAULIS
        ]
    )
    return states.BlochTwoQubit(x=x, y=y, t=t)


def _reference_bloch_reconstruct(b):
    # the expansion summed term by term: 1, then x_i and y_i for each i, then T
    eye2 = np.eye(2, dtype=complex)
    mat = linalg.tensor(eye2, eye2).astype(complex)
    for i, s in enumerate(linalg.PAULIS):
        mat += b.x[i] * linalg.tensor(s, eye2)
        mat += b.y[i] * linalg.tensor(eye2, s)
    for i, si in enumerate(linalg.PAULIS):
        for j, sj in enumerate(linalg.PAULIS):
            mat += b.t[i, j] * linalg.tensor(si, sj)
    return states.DensityMatrix(mat / 4.0, (2, 2))


def _reference_classical_quantum(spec):
    mat = np.zeros((spec.d_a * spec.d_b,) * 2, dtype=complex)
    for p, vec, block in zip(spec.probabilities, spec.basis.T, spec.blocks):
        mat += p * linalg.tensor(np.outer(vec, vec.conj()), block)
    return states.DensityMatrix(mat, (spec.d_a, spec.d_b))


def _reference_swap_operator(d):
    f = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            f[k * d + l, l * d + k] = 1.0
    return f


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_bloch_data_match_per_pauli_loops_bit_for_bit():
    mats = np.concatenate(
        [states.random_states((2, 2), rank, [[21, rank, i] for i in range(500)]) for rank in (1, 2, 3, 4)]
    )
    rhos = [states.DensityMatrix(m, (2, 2), validate=False) for m in mats]
    rhos += [states.werner(x) for x in (-1.0, 0.0, 0.5, 1.0)]
    rhos += [states.from_pure(np.eye(4)[k], (2, 2)) for k in range(4)]
    rhos += [states.from_pure(states.phi_plus(2), (2, 2)), states.DensityMatrix(np.eye(4) / 4, (2, 2))]
    for k, rho in enumerate(rhos):
        b, ref = states.bloch_decompose(rho), _reference_bloch_decompose(rho)
        assert all(_same_bits(getattr(b, f), getattr(ref, f)) for f in "xyt"), k
        back = states.bloch_reconstruct(b).mat
        assert _same_bits(back, _reference_bloch_reconstruct(b).mat), k


def test_classical_quantum_matches_per_block_loop_bit_for_bit():
    specs = [
        states.random_cq_spec((d_a, d_b), n_blocks=1 + i % d_a, seed=[22, d_a, d_b, i])
        for d_a in (2, 3, 4)
        for d_b in (1, 2, 3)
        for i in range(56)
    ]
    # exact zeros in the basis times negative block entries make -0.0 terms
    negative = np.array([[0.6, -0.2], [-0.2, 0.4]])
    for blocks in ((np.eye(2) / 2, np.diag([1.0, 0.0])), (negative, negative)):
        specs.append(states.ClassicalQuantumSpec(np.array([0.25, 0.75]), np.eye(2, dtype=complex), blocks))
    assert len(specs) >= 500
    for k, spec in enumerate(specs):
        omega = states.classical_quantum(spec)
        ref = _reference_classical_quantum(spec)
        assert omega.dims == ref.dims and _same_bits(omega.mat, ref.mat), k


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_swap_operator_matches_entry_loop_bit_for_bit(d):
    assert _same_bits(states.swap_operator(d), _reference_swap_operator(d))


def test_swap_parties_swaps_marginals():
    rho = states.random_state((2, 3), seed=9)
    swapped = states.swap_parties(rho)
    assert swapped.dims == (3, 2)
    assert np.max(np.abs(swapped.reduced_a() - rho.reduced_b())) <= 1e-12
    assert np.max(np.abs(swapped.reduced_b() - rho.reduced_a())) <= 1e-12


def test_density_matrix_validation_messages():
    with pytest.raises(InvalidDensityMatrix, match="trace"):
        states.DensityMatrix(np.eye(4) / 4 * 1.1, (2, 2))
    with pytest.raises(InvalidDensityMatrix, match="hermiticity"):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.2
        states.DensityMatrix(mat, (2, 2))
    with pytest.raises(InvalidDensityMatrix, match="positivity"):
        states.DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))
    with pytest.raises(DimensionMismatch):
        states.DensityMatrix(np.eye(4) / 4, (2, 3))
    for bad in (np.nan, np.inf):
        mat = np.eye(4, dtype=complex) / 4
        mat[1, 2] = bad
        with pytest.raises(InvalidDensityMatrix, match="finiteness"):
            states.DensityMatrix(mat, (2, 2))


def test_density_matrix_clamps_roundoff_negatives():
    mat = np.diag([1.0 + 5e-10, 0.0, 0.0, -5e-10])
    rho = states.DensityMatrix(mat, (2, 2))
    assert float(linalg.hermitian_eigenvalues(rho.mat)[0]) >= -1e-15
    assert abs(np.trace(rho.mat).real - 1.0) <= 1e-12


def test_state_json_roundtrip(tmp_path):
    rho = states.random_state((2, 3), seed=3)
    path = tmp_path / "state.json"
    states.save_state(rho, path)
    back = states.load_state(path)
    assert back.dims == rho.dims
    assert np.max(np.abs(back.mat - rho.mat)) <= 1e-12



@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dims=st.tuples(st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=3)),
    rank=st.integers(min_value=1, max_value=9),
)
def test_state_dict_round_trip_within_a_few_ulps(seed, dims, rank):
    # not bit-exact: validation divides by a trace that is 1 only to an ulp and
    # re-clamps slightly negative eigenvalues of rank-deficient states
    rho = states.random_state(dims, rank=min(rank, dims[0] * dims[1]), seed=seed)
    back = states.state_from_dict(states.state_to_dict(rho))
    assert back.dims == rho.dims
    assert np.max(np.abs(back.mat - rho.mat)) <= 4 * np.finfo(float).eps

def test_state_from_dict_rejects_malformed():
    with pytest.raises(InvalidDensityMatrix):
        states.state_from_dict({"matrix": []})
    with pytest.raises(InvalidDensityMatrix, match="malformed"):
        states.state_from_dict({"dims": [2, 2], "matrix": "x"})


def test_state_file_validates(tmp_path):
    path = tmp_path / "bad.json"
    mat = np.eye(4) * 0.275
    path.write_text(
        json.dumps({"dims": [2, 2], "matrix": [[float(v.real), 0.0] for v in mat.ravel()]})
    )
    with pytest.raises(InvalidDensityMatrix, match="trace"):
        states.load_state(path)
