"""Schrodinger-picture oracle: a plain state-vector simulator.

This module is the independent cross-check for the descriptor engine.  It
shares the gate-matrix constants in :mod:`chsh_local.linalg` (so both
pictures speak the same conventions) but none of the application machinery:
gates act here by tensor contraction on a reshaped amplitude array, not by
operator conjugation.  Agreement between the two routes is evidence, not
tautology.

Qubit 0 is the leftmost tensor factor, so after reshaping the amplitude
vector to shape (2,) * n, axis k belongs to qubit k directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import linalg
from .descriptors import GateSpec, OutcomeSpec
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
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    amplitudes = np.zeros(2**n, dtype=complex)
    amplitudes[0] = 1.0
    return StateVector(n=n, amplitudes=_frozen(amplitudes))


def apply_gate_sv(state: StateVector, g: GateSpec) -> StateVector:
    """Apply one gate by contracting it into the amplitude tensor."""
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
        u = linalg.single_qubit_gate(g.name, g.theta)
        k = g.targets[0]
        psi = np.tensordot(u, psi, axes=([1], [k]))
        psi = np.moveaxis(psi, 0, k)
    return StateVector(n=state.n, amplitudes=_frozen(np.ascontiguousarray(psi.reshape(state.dim))))


def apply_circuit_sv(state: StateVector, gates: Iterable[GateSpec]) -> StateVector:
    """Fold :func:`apply_gate_sv` over a gate sequence."""
    for g in gates:
        state = apply_gate_sv(state, g)
    return state


def run_circuit(n: int, gates: Iterable[GateSpec]) -> StateVector:
    """Convenience: prepare |0...0> on n qubits and run the whole circuit."""
    return apply_circuit_sv(init_state(n), gates)


def outcome_probability(state: StateVector, outcomes) -> float:
    """Probability of a joint z-basis outcome record on distinct qubits.

    Sums |amplitude|**2 over every basis state consistent with the record.
    An empty record has probability 1.
    """
    specs = [_check_outcome(state, o) for o in outcomes]
    if len({s.qubit for s in specs}) != len(specs):
        raise ValueError(f"outcome qubits must be distinct, got {[s.qubit for s in specs]}")
    probs = np.abs(state.amplitudes) ** 2
    mask = np.ones(state.dim, dtype=bool)
    indices = np.arange(state.dim)
    for s in specs:
        bit = (indices >> (state.n - 1 - s.qubit)) & 1
        mask &= bit == s.outcome
    return float(probs[mask].sum())


def _check_outcome(state: StateVector, o) -> OutcomeSpec:
    qubit, outcome = o
    if not 0 <= qubit < state.n:
        raise ValueError(f"qubit {qubit} out of range for n={state.n}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return OutcomeSpec(int(qubit), int(outcome))
