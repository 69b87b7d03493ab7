import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabicav.core import (
    BLOCK, Basis, DensityMatrix, ValidationError, hermitian_eigen, partial_transpose,
    time_grid,
)
from conftest import random_density, random_hermitian


@pytest.mark.parametrize("t", [float("nan"), [0.0, float("nan"), 1.0]],
                         ids=["scalar", "array"])
def test_time_grid_rejects_nan_times(t):
    with pytest.raises(ValidationError, match="^t must be >= 0$"):
        time_grid(t)


def test_eigen_identity():
    w, v = hermitian_eigen(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(v @ v.conj().T, np.eye(3))


def test_eigen_diagonal_sorted_descending():
    w, _ = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])


def test_eigen_pauli_x():
    w, v = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    for i in range(2):
        assert np.allclose(m @ v[:, i], w[i] * v[:, i])


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_odd_dimension():
    with pytest.raises(ValidationError):
        hermitian_eigen(np.eye(5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 3, 4, 9]))
def test_eigen_reconstruction(seed, dim):
    m = random_hermitian(np.random.default_rng(seed), dim)
    w, v = hermitian_eigen(m)
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))
    assert np.all(np.diff(w) <= 1e-12)


def _sparse_state():
    # |e,0>/|g,1> block plus |g,0> population, a 3-level state in the 4x4 ordering
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = 0.35
    m[2, 2] = 0.35
    m[1, 2] = 0.1 + 0.3j
    m[2, 1] = 0.1 - 0.3j
    m[3, 3] = 0.3
    return m


def test_partial_transpose_moves_coherences_to_corners():
    m = _sparse_state()
    r = partial_transpose(m)
    assert r[0, 3] == m[2, 1]
    assert r[3, 0] == m[1, 2]
    assert r[1, 2] == 0.0 and r[2, 1] == 0.0
    for i in range(4):
        assert r[i, i] == m[i, i]
    assert np.max(np.abs(r - r.conj().T)) == 0.0


def test_partial_transpose_diagonal_invariant():
    m = np.eye(4, dtype=complex) / 4.0
    assert np.array_equal(partial_transpose(m), m)


def test_partial_transpose_bell_block():
    # projector on (|e,0> + |g,1>)/sqrt(2): maximally entangled in the block
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    w, _ = hermitian_eigen(partial_transpose(np.outer(psi, psi)))
    assert w[-1] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involution_exact():
    m = _sparse_state()
    assert np.array_equal(partial_transpose(partial_transpose(m)), m)


def test_partial_transpose_of_a_stack_transposes_each_member():
    rng = np.random.default_rng(5)
    members = np.array([random_density(rng, 4) for _ in range(3)])
    stack = partial_transpose(members)
    assert stack.shape == (3, 4, 4)
    for m, pt in zip(members, stack):
        assert np.array_equal(pt, partial_transpose(m))


def test_partial_transpose_rejects_three_level():
    with pytest.raises(ValidationError):
        partial_transpose(np.diag([1.0, 0.0, 0.0]).astype(complex))


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.7, 0.7, 0.0]).astype(complex), Basis.BARE)  # trace 1.4
    bad = np.diag([1.0, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.1  # non-Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(bad, Basis.BARE)
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.1, -0.1, 0.0]).astype(complex), Basis.BARE)  # negative


def test_density_matrix_basis_dimension_mismatch():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4, dtype=complex) / 4.0, Basis.BARE)


def _good_stack(n=5):
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[0, 1], m[1, 0] = 0.1j, -0.1j
    return np.stack([m] * n)


def test_density_matrix_stack_reports_per_member_defects():
    stack = _good_stack()
    stack[2] = np.diag([1.0, 0.0, 0.0])
    rho = DensityMatrix(stack, Basis.BARE)
    assert rho.dim == 3 and rho.matrix.shape == (5, 3, 3)
    assert rho.trace_defect.shape == (5,) and np.all(rho.trace_defect <= 1e-15)
    assert rho.min_eigenvalue.shape == (5,)
    assert rho.min_eigenvalue[2] == pytest.approx(0.0, abs=1e-15)
    assert rho.min_eigenvalue[0] == pytest.approx(
        DensityMatrix(stack[0], Basis.BARE).min_eigenvalue, abs=1e-15)


_NOT_HERMITIAN = np.diag([0.5, 0.3, 0.2]).astype(complex)
_NOT_HERMITIAN[0, 2] = 0.1


@pytest.mark.parametrize("bad, message", [
    (np.diag([0.6, 0.3, 0.2]), "trace defect"),
    (_NOT_HERMITIAN, "hermiticity defect"),
    (np.diag([1.1, -0.1, 0.0]), "minimum eigenvalue"),
    (np.diag([np.nan, 0.5, 0.5]), "matrix entries must be finite"),
])
def test_density_matrix_stack_names_first_bad_index(bad, message):
    stack = _good_stack()
    stack[3] = stack[4] = bad
    with pytest.raises(ValidationError, match=rf"^state 3: {message}"):
        DensityMatrix(stack, Basis.BARE)


@pytest.mark.parametrize("bad, message", [
    (_NOT_HERMITIAN, "hermiticity defect"),
    (np.diag([1.1, -0.1, 0.0]), "minimum eigenvalue"),
])
def test_stack_checks_name_the_index_across_blocks(bad, message):
    stack = _good_stack(2 * BLOCK + 3)
    stack[BLOCK + 7] = stack[2 * BLOCK + 1] = bad
    with pytest.raises(ValidationError, match=rf"^state {BLOCK + 7}: {message}"):
        DensityMatrix(stack, Basis.BARE)


def test_blockwise_spectrum_matches_the_whole_stack():
    rng = np.random.default_rng(3)
    stack = np.stack([np.diag(p).astype(complex) for p in rng.dirichlet([1, 1, 1], 2 * BLOCK + 3)])
    stack[:, 0, 1] = 0.5j * np.sqrt(stack[:, 0, 0] * stack[:, 1, 1])
    stack[:, 1, 0] = stack[:, 0, 1].conj()
    rho = DensityMatrix(stack, Basis.BARE).validate()
    assert np.array_equal(rho.min_eigenvalue, np.linalg.eigvalsh(stack)[:, 0])
    assert rho.hermiticity_defect.shape == (2 * BLOCK + 3,)


def test_stack_checks_allocate_a_bounded_block():
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[0, 1], m[1, 0] = 0.1j, -0.1j
    stack = np.ascontiguousarray(np.broadcast_to(m, (36000, 3, 3)))   # 5.2 MB
    tracemalloc.start()
    try:
        DensityMatrix(stack, Basis.BARE).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6   # full-stack temporaries took 11.4 MB


_LOOSE_HERMITIAN = np.diag([0.5, 0.3, 0.2]).astype(complex)
_LOOSE_HERMITIAN[0, 2] = 1e-11


@pytest.mark.parametrize("member, message", [
    (np.diag([0.5, 0.3, 0.2 + 1e-11]), r"trace defect 1\.000e-11 > 1e-12"),
    (_LOOSE_HERMITIAN, r"hermiticity defect 1\.000e-11 > 1e-12"),
    (np.diag([0.5 + 5e-10, 0.5, -5e-10]), r"minimum eigenvalue -5\.000e-10 < -1e-10"),
])
def test_member_between_budgets_constructs_but_fails_validate(member, message):
    # within the 1e-9 construction budget, outside the strict one
    stack = _good_stack()
    stack[2] = member
    rho = DensityMatrix(stack, Basis.BARE)
    with pytest.raises(ValidationError, match=rf"^state 2: {message}$"):
        rho.validate()


def test_density_matrix_rejects_bad_stack_shapes():
    with pytest.raises(ValidationError):
        DensityMatrix(np.zeros((2, 2, 3, 3), dtype=complex), Basis.BARE)
    with pytest.raises(ValidationError):
        DensityMatrix(np.zeros((2, 3, 4), dtype=complex), Basis.BARE)


def test_density_matrix_stack_len_and_members():
    stack = _good_stack(4)
    stack[1] = np.diag([1.0, 0.0, 0.0])
    rho = DensityMatrix(stack, Basis.BARE, note="fallback")
    assert len(rho) == 4
    for i in range(-4, 4):
        member = rho[i]
        assert member.matrix.shape == (3, 3) and member.basis is Basis.BARE
        assert member.note == "fallback"
        assert np.array_equal(member.matrix, stack[i])
    assert [m.min_eigenvalue for m in rho] == pytest.approx(list(rho.min_eigenvalue), abs=0)
    with pytest.raises(IndexError):
        rho[4]
    assert len(DensityMatrix(np.zeros((0, 3, 3)), Basis.BARE)) == 0


def test_single_density_matrix_is_not_a_stack():
    rho = DensityMatrix(_good_stack(1)[0], Basis.BARE)
    with pytest.raises(TypeError):
        len(rho)
    with pytest.raises(TypeError):
        rho[0]
