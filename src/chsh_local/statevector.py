"""Schrodinger-picture oracle: a plain state-vector simulator.

This module is the independent cross-check for the descriptor engine.  It
shares the gate-matrix constants in :mod:`chsh_local.linalg` (so both
pictures speak the same conventions) but none of the application machinery:
gates act here by tensor contraction on a reshaped amplitude array, not by
operator conjugation.  Agreement between the two routes is evidence, not
tautology.

Qubit 0 is the leftmost tensor factor, so after reshaping the amplitude
vector to shape (2,) * n, axis k belongs to qubit k directly.
:func:`apply_circuit_sv` is the one gate loop: it carries one working
array through a whole circuit and freezes one StateVector at the end;
:func:`apply_gate_sv` is its one-gate case.  Outcome probabilities are
Born-rule sums of |amplitude|**2 over the basis states consistent with a
record; :func:`record_probabilities` groups the squared amplitudes of
all 2**k records on k qubits into rows with one transpose and sums every
row at once, and :func:`outcome_probability` reads one of its entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import linalg
from .descriptors import GateSpec, as_index, checked_qubits, checked_record
from .linalg import MAX_QUBITS


@dataclass(frozen=True)
class StateVector:
    """Amplitudes of an n-qubit register in the z basis, unit norm."""

    n: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 2**self.n


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


def init_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    n = as_index(n, "qubit count")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    amplitudes = np.zeros(2**n, dtype=complex)
    amplitudes[0] = 1.0
    return StateVector(n=n, amplitudes=_frozen(amplitudes))


def apply_gate_sv(state: StateVector, g: GateSpec) -> StateVector:
    """Apply one gate: :func:`apply_circuit_sv` on the one-gate circuit ``(g,)``."""
    return apply_circuit_sv(state, (g,))


def apply_circuit_sv(state: StateVector, gates: Iterable[GateSpec]) -> StateVector:
    """Apply a gate sequence by contracting each gate into the amplitude tensor.

    Each gate is checked against the register, then applied to one working
    copy of the amplitudes.  A single-qubit gate on qubit k is one matrix
    product with the amplitudes reshaped so that axis k leads; CNOT flips
    the target axis inside the control's 1 slice, in place.  One StateVector
    is built and frozen at the end, so a gate that raises leaves `state` as
    it was.
    """
    n = state.n
    psi = state.amplitudes.copy()
    for g in gates:
        g.validate_for(n)
        if g.name == "CNOT":
            control, target = g.targets
            picked = tuple(1 if axis == control else slice(None) for axis in range(n))
            tensor = psi.reshape((2,) * n)
            # Target axis index drops by one inside the control slice.
            tensor[picked] = np.flip(tensor[picked], axis=target - (target > control))
        else:
            # The contraction np.tensordot(u, psi, axes=([1], [k])) performs,
            # written out: the same np.dot on the same operands, so bit-identical
            # to it, without its per-call Python overhead.  A stacked
            # u @ psi.reshape(2**k, 2, -1) is not: its products round differently.
            u = linalg.single_qubit_gate(g.name, g.theta)
            k = g.targets[0]
            psi = np.dot(u, psi.reshape(2**k, 2, -1).transpose(1, 0, 2).reshape(2, -1))
            psi = psi.reshape(2, 2**k, -1).transpose(1, 0, 2).reshape(-1)
    return StateVector(n=n, amplitudes=_frozen(psi))


def run_circuit(n: int, gates: Iterable[GateSpec]) -> StateVector:
    """Convenience: prepare |0...0> on n qubits and run the whole circuit."""
    return apply_circuit_sv(init_state(n), gates)


def outcome_probability(state: StateVector, outcomes) -> float:
    """Probability of a joint z-basis outcome record on distinct qubits.

    The record's entry of :func:`record_probabilities` on its qubits, in
    record order.  An empty record has probability 1.
    """
    qubits, index = checked_record(outcomes, state.n)
    return record_probabilities(state, qubits)[index]


def record_probabilities(state: StateVector, qubits) -> tuple[float, ...]:
    """Probabilities of all 2**k outcome records on k distinct qubits ((1.0,) if none).

    Entry j is the probability of the record whose outcome bits, qubits[0]
    most significant, spell j: |amplitude|**2 summed over the basis indices
    whose bits on `qubits` spell j.  |amplitude|**2 is formed once and
    transposed so that the record's axes lead, in record order, and the
    others follow in qubit order: row j of that (2**k, 2**n / 2**k) array
    holds record j's entries in index order, and one row sum gives every
    record the float a per-record mask would.
    """
    record = checked_qubits(qubits, state.n)
    if not record:
        # The empty record is certain; the sum of every |amplitude|**2 is
        # only 1 up to rounding.
        return (1.0,)
    probs = np.abs(state.amplitudes) ** 2
    axes = record + [q for q in range(state.n) if q not in record]
    # Row j holds the entries the mask code == j would pick, in the same
    # increasing index order, so numpy's pairwise row sum returns the same
    # float.  Only on a contiguous copy: a strided view's rows are summed
    # in another order.
    rows = np.ascontiguousarray(probs.reshape((2,) * state.n).transpose(axes))
    return tuple(rows.reshape(2 ** len(record), -1).sum(axis=1).tolist())
