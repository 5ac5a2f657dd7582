"""Tests for the dense linear-algebra layer and its gate constants."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chsh_local import linalg

GATE_CONSTANTS = (linalg.X, linalg.Y, linalg.Z, linalg.H)


def small_int_matrices(dim=2):
    """Complex matrices with small integer parts: products and sums of these
    are exact in floating point regardless of evaluation order."""
    entry = st.integers(min_value=-8, max_value=8)
    return st.lists(
        st.tuples(entry, entry), min_size=dim * dim, max_size=dim * dim
    ).map(
        lambda pairs: np.array(
            [complex(re, im) for re, im in pairs], dtype=complex
        ).reshape(dim, dim)
    )


def test_identity_examples():
    assert np.array_equal(linalg.identity(1), np.array([[1.0 + 0.0j]]))
    assert np.array_equal(linalg.identity(4), np.eye(4, dtype=complex))
    assert linalg.identity(3).dtype == complex


def test_identity_rejects_nonpositive_dim():
    with pytest.raises(ValueError):
        linalg.identity(0)
    with pytest.raises(ValueError):
        linalg.identity(-2)


def test_pauli_algebra():
    for p in (linalg.X, linalg.Y, linalg.Z):
        assert np.array_equal(linalg.matmul(p, p), linalg.identity(2))
    # XY = iZ and cyclic relatives.
    assert np.allclose(linalg.matmul(linalg.X, linalg.Y), 1j * linalg.Z)
    assert np.allclose(linalg.matmul(linalg.Y, linalg.Z), 1j * linalg.X)
    assert np.allclose(linalg.matmul(linalg.Z, linalg.X), 1j * linalg.Y)


def test_hadamard_conjugates_x_to_z():
    hxh = linalg.matmul(linalg.H, linalg.matmul(linalg.X, linalg.H))
    assert np.allclose(hxh, linalg.Z, atol=1e-15)


def test_matmul_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        linalg.matmul(linalg.X, linalg.identity(4))


def test_matmul_rejects_nonsquare():
    with pytest.raises(ValueError):
        linalg.matmul(np.ones((2, 3)), np.ones((3, 2)))


def test_dagger_of_hermitian_constants():
    for m in (linalg.X, linalg.Y, linalg.Z, linalg.H):
        assert np.array_equal(linalg.dagger(m), m)


@given(small_int_matrices())
def test_dagger_is_an_involution(m):
    assert np.array_equal(linalg.dagger(linalg.dagger(m)), m)


@given(small_int_matrices(), small_int_matrices())
def test_dagger_reverses_products_exactly_on_integer_matrices(a, b):
    left = linalg.dagger(linalg.matmul(a, b))
    right = linalg.matmul(linalg.dagger(b), linalg.dagger(a))
    assert np.array_equal(left, right)


def test_tensor_block_structure():
    ix = linalg.tensor(linalg.identity(2), linalg.X)
    assert ix.shape == (4, 4)
    assert np.array_equal(ix[:2, :2], linalg.X)
    assert np.array_equal(ix[2:, 2:], linalg.X)
    assert np.array_equal(ix[:2, 2:], np.zeros((2, 2)))


def test_tensor_associativity_on_gate_constants():
    # The only irrational magnitude in these constants is H's 1/sqrt(2);
    # kron multiplies entries pairwise, so grouping cannot change results.
    for a in GATE_CONSTANTS:
        for b in GATE_CONSTANTS:
            for c in GATE_CONSTANTS:
                left = linalg.tensor(linalg.tensor(a, b), c)
                right = linalg.tensor(a, linalg.tensor(b, c))
                assert np.array_equal(left, right)


@given(small_int_matrices(), small_int_matrices(), small_int_matrices())
def test_tensor_associativity_on_integer_matrices(a, b, c):
    left = linalg.tensor(linalg.tensor(a, b), c)
    right = linalg.tensor(a, linalg.tensor(b, c))
    assert np.array_equal(left, right)


def test_roty_reference_points():
    assert np.allclose(linalg.roty(0.0), linalg.identity(2), atol=1e-15)
    assert np.allclose(linalg.roty(2.0 * np.pi), -linalg.identity(2), atol=1e-15)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(linalg.roty(np.pi / 2.0), np.array([[s, -s], [s, s]]), atol=1e-15)


def test_roty_composes_additively():
    composed = linalg.matmul(linalg.roty(0.7), linalg.roty(0.5))
    assert np.allclose(composed, linalg.roty(1.2), atol=1e-12)


def test_roty_rejects_nonfinite_angle():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            linalg.roty(bad)


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_roty_is_unitary(theta):
    u = linalg.roty(theta)
    assert linalg.frobenius_distance(linalg.dagger(u) @ u, linalg.identity(2)) <= linalg.DEFAULT_TOL


def test_frobenius_distance():
    assert linalg.frobenius_distance(linalg.X, linalg.X) == 0.0
    assert linalg.frobenius_distance(linalg.X, linalg.Z) == pytest.approx(
        np.sqrt(4.0), abs=1e-15
    )
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 4$"):
        linalg.frobenius_distance(linalg.X, linalg.identity(4))


def test_validators_reject_nonfinite_entries():
    # matmul/tensor/dagger do not scan; frobenius_distance rejects NaN/inf
    # through the one norm it computes, without a RuntimeWarning.
    for value in (np.nan, np.inf, complex(0.0, -np.inf)):
        for slot in ((0, 0), (0, 1)):
            bad = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
            bad[slot] = value
            with pytest.raises(ValueError, match="non-finite"):
                linalg.frobenius_distance(bad, linalg.X)
            with pytest.raises(ValueError, match="non-finite"):
                linalg.frobenius_distance(linalg.X, bad)


def test_gate_constants_are_read_only():
    with pytest.raises(ValueError):
        linalg.X[0, 0] = 5.0


def test_single_qubit_gate_reads_the_fixed_gates_and_names_an_unknown_one():
    for name, matrix in (("X", linalg.X), ("Y", linalg.Y), ("Z", linalg.Z), ("H", linalg.H)):
        assert linalg.single_qubit_gate(name) is matrix
    assert np.array_equal(linalg.single_qubit_gate("ROTY", 0.3), linalg.roty(0.3))
    for bad in ("CNOT", "x", "", None, ["X"]):
        message = f"^no single-qubit gate named {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            linalg.single_qubit_gate(bad)
