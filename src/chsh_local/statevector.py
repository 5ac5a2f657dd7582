"""Schrodinger-picture oracle: a plain state-vector simulator.

This module is the independent cross-check for the descriptor engine.  It
shares the gate-matrix constants in :mod:`chsh_local.linalg` (so both
pictures speak the same conventions) but none of the application machinery:
gates act here by tensor contraction on a reshaped amplitude array, not by
operator conjugation.  Agreement between the two routes is evidence, not
tautology.

Qubit 0 is the leftmost tensor factor, so after reshaping the amplitude
vector to shape (2,) * n, axis k belongs to qubit k directly.  Outcome
probabilities are Born-rule sums of |amplitude|**2 over the basis states
consistent with a record; :func:`record_probabilities` forms the squared
amplitudes and each basis state's outcome code once for all 2**k records
on k qubits, and :func:`outcome_probability` is its one-record case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import linalg
from .descriptors import GateSpec, OutcomeSpec, as_index
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
    """Apply one gate by contracting it into the amplitude tensor.

    A single-qubit gate on qubit k is one matrix product with the amplitudes
    reshaped so that axis k leads; CNOT flips the target axis inside the
    control's 1 slice.
    """
    g.validate_for(state.n)
    psi = state.amplitudes.reshape((2,) * state.n)
    if g.name == "CNOT":
        control, target = g.targets
        psi = psi.copy()
        picked = [slice(None)] * state.n
        picked[control] = 1
        picked = tuple(picked)
        # Target axis index drops by one inside the control slice.
        flip_axis = target if target < control else target - 1
        psi[picked] = np.flip(psi[picked], axis=flip_axis)
    else:
        # The contraction np.tensordot(u, psi, axes=([1], [k])) performs,
        # written out: the same np.dot on the same operands, so bit-identical
        # to it, without its per-call Python overhead.  A stacked
        # u @ psi.reshape(2**k, 2, -1) is not: its products round differently.
        u = linalg.single_qubit_gate(g.name, g.theta)
        k = g.targets[0]
        psi = np.dot(u, psi.reshape(2**k, 2, -1).transpose(1, 0, 2).reshape(2, -1))
        psi = psi.reshape(2, 2**k, -1).transpose(1, 0, 2)
    return StateVector(n=state.n, amplitudes=_frozen(np.ascontiguousarray(psi.reshape(state.dim))))


def apply_circuit_sv(state: StateVector, gates: Iterable[GateSpec]) -> StateVector:
    """Fold :func:`apply_gate_sv` over a gate sequence."""
    for g in gates:
        state = apply_gate_sv(state, g)
    return state


def run_circuit(n: int, gates: Iterable[GateSpec]) -> StateVector:
    """Convenience: prepare |0...0> on n qubits and run the whole circuit."""
    return apply_circuit_sv(init_state(n), gates)


def _record_sums(state: StateVector, qubits: list[int], codes) -> tuple[float, ...]:
    """Probabilities of the records on `qubits` whose outcome codes are `codes`.

    A basis index's outcome code spells its bits on `qubits`, qubits[0] most
    significant; each record's probability sums |amplitude|**2 over the
    indices with its code.
    """
    probs = np.abs(state.amplitudes) ** 2
    indices = np.arange(state.dim)
    code = np.zeros(state.dim, dtype=indices.dtype)
    for q in qubits:
        code = (code << 1) | ((indices >> (state.n - 1 - q)) & 1)
    # Of a list, not of a generator: see OutcomeSpec.checked_record.
    return tuple([float(probs[code == j].sum()) for j in codes])


def outcome_probability(state: StateVector, outcomes) -> float:
    """Probability of a joint z-basis outcome record on distinct qubits.

    Sums |amplitude|**2 over every basis state consistent with the record:
    the one-record case of :func:`record_probabilities`.  An empty record
    has probability 1.
    """
    specs = OutcomeSpec.checked_record(outcomes, state.n)
    code = 0
    for s in specs:
        code = (code << 1) | s.outcome
    return _record_sums(state, [s.qubit for s in specs], [code])[0]


def record_probabilities(state: StateVector, qubits) -> tuple[float, ...]:
    """Probabilities of all 2**k outcome records on k distinct qubits ((1.0,) if none).

    Entry j is :func:`outcome_probability` of the record whose outcome bits,
    qubits[0] most significant, spell j, and is bit-identical to it:
    |amplitude|**2 and each index's outcome code are formed once, and each
    record sums the same entries in the same order as a per-record mask
    would.
    """
    specs = OutcomeSpec.checked_record([(q, 0) for q in qubits], state.n)
    return _record_sums(state, [s.qubit for s in specs], range(2 ** len(specs)))
