"""Dense complex linear algebra for qubit operators.

The dense routes, the state-vector oracle and the descriptor engine's audit
route, live in dimensions 2**n with n <= MAX_QUBITS, so dense numpy arrays
are the substrate: no sparsity, no decompositions.  The engine's update rule
works on Pauli sums and uses nothing here.  The qubit-ordering convention is
fixed here once: qubit 0 is the leftmost (most significant) tensor factor.
:func:`chsh_local.descriptors.embedded_gate` builds it by folding
:func:`tensor` over n factors, the Kronecker reference the tests hold the
other routes to.  The audit route applies gates to the rows of the
cumulative unitary by bit n-1-k of the row index, and the oracle reads the
convention through its own index math (axis k of the reshaped amplitudes),
so a convention mistake in any of them shows up as a disagreement.
"""

from __future__ import annotations

import numpy as np

#: Default comparison tolerance (Frobenius norm), inherited by every module.
DEFAULT_TOL = 1e-10

#: Largest register of the dense routes, the state-vector oracle and the
#: descriptor engine's audit route.  An audit holds at most five 2**n x 2**n
#: complex128 matrices at once (the cumulative unitary, its adjoint, a
#: row-permuted or row-scaled copy and the two recomputed components),
#: 16 * 4**n bytes each.  At n = 11 a locality audit of 20 remote gates
#: after a 20-gate prelude peaks at +326 MiB and takes about 3 s on a 2-vCPU
#: host: 1.5 s for the two O(8**n) products by the adjoint, 1 s to rebuild
#: the unitary at O(4**n) per gate.  n = 12 would need four times the memory
#: and about six times the time.
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


def roty(theta: float) -> np.ndarray:
    """Rotation about Y: exp(-i*theta*Y/2).

    This sign/half-angle convention is shared by the state-vector oracle and
    the descriptor engine's audit route; the engine's update rule applies
    the same rotation to (qx, qz) through cos(theta) and sin(theta).
    """
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


#: The fixed single-qubit gates by name; ROTY(theta) is built by :func:`roty`.
_FIXED_GATES = {"X": X, "Y": Y, "Z": Z, "H": H}


def single_qubit_gate(name: str, theta: float | None = None) -> np.ndarray:
    """Matrix of the single-qubit gate X, Y, Z, H or ROTY(theta) by name.

    Any other name is a ValueError naming it.
    """
    if name == "ROTY":
        return roty(theta)
    try:
        return _FIXED_GATES[name]
    except (KeyError, TypeError):
        raise ValueError(f"no single-qubit gate named {name!r}") from None


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


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


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b; a NaN or inf entry makes it non-finite, a ValueError."""
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    with np.errstate(invalid="ignore", over="ignore"):
        norm = float(np.linalg.norm(a - b))
    if not np.isfinite(norm):
        raise ValueError("matrix contains non-finite entries")
    return norm
