"""Dense complex linear algebra for qubit operators.

Everything in this package lives in dimensions 2**n with n <= 11, so dense
numpy arrays are the substrate: no sparsity, no decompositions.  The global
qubit-ordering convention is fixed here once: qubit 0 is the leftmost
(most significant) tensor factor.  All other modules embed operators through
:func:`tensor` / :func:`embed_one` rather than hand-rolled index math, so a
convention mistake cannot hide in one module.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

#: Default comparison tolerance (Frobenius norm), inherited by every module.
DEFAULT_TOL = 1e-10

#: Largest register size.  An n-qubit network holds 2n dense 2**n x 2**n
#: complex128 descriptors, 2n * 4**n * 16 bytes: about 1.4 GiB at n = 11
#: (what redundancy_demo(10) needs) but 6 GiB at n = 12, too close to the
#: 7.8 GiB of a small host to be an honest cap.
MAX_QUBITS = 11


def _frozen(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    m.setflags(write=False)
    return m


# Operator constants.  Read-only: they are shared freely across threads and
# between networks.
X = _frozen([[0, 1], [1, 0]])
Y = _frozen([[0, -1j], [1j, 0]])
Z = _frozen([[1, 0], [0, -1]])
H = _frozen(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
P0 = _frozen([[1, 0], [0, 0]])  # projector onto |0>
P1 = _frozen([[0, 0], [0, 1]])  # projector onto |1>
# Control is the leftmost (most significant) factor.
CNOT = _frozen([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def roty(theta: float) -> np.ndarray:
    """Rotation about Y: exp(-i*theta*Y/2).

    This sign/half-angle convention is the single shared constant between the
    descriptor engine and the state-vector oracle; both consume the matrix,
    neither shares application code with the other.
    """
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _finite_norm(m: np.ndarray) -> float:
    """Frobenius norm of m; a NaN or inf entry makes it non-finite, a ValueError."""
    norm = float(np.linalg.norm(m))
    if not np.isfinite(norm):
        raise ValueError("matrix contains non-finite entries")
    return norm


def identity(dim: int) -> np.ndarray:
    """Identity matrix of the given dimension (dim >= 1)."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return np.eye(dim, dtype=complex)


def matmul(a, b) -> np.ndarray:
    """Matrix product; dimensions must match."""
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_square(a).conj().T


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the left argument is the more significant factor."""
    return np.kron(_as_square(a), _as_square(b))


def tensor_all(factors) -> np.ndarray:
    """Left-fold of :func:`tensor` over a sequence of factors."""
    mats = list(factors)
    if not mats:
        raise ValueError("need at least one factor")
    return reduce(tensor, mats)


def embed_one(u, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at a slot of an n-qubit register.

    Two Kronecker products with block identities; bit-identical to folding
    :func:`tensor` over n single-qubit factors.
    """
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    return tensor(tensor(identity(2**qubit), u), identity(2 ** (n - qubit - 1)))


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b."""
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    with np.errstate(invalid="ignore", over="ignore"):
        return _finite_norm(a - b)


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True if dagger(a) @ a is the identity within tol (Frobenius)."""
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    a = _as_square(a)
    with np.errstate(invalid="ignore", over="ignore"):
        return _finite_norm(a.conj().T @ a - np.eye(a.shape[0])) <= tol


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """True if a equals its conjugate transpose within tol (Frobenius)."""
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    a = _as_square(a)
    with np.errstate(invalid="ignore", over="ignore"):
        return _finite_norm(a - a.conj().T) <= tol
