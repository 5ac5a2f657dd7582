"""Tests for the Schrodinger-picture oracle."""

import itertools

import numpy as np
import pytest

from chsh_local import descriptors, statevector
from chsh_local.descriptors import GateSpec


def test_init_state_is_all_zeros_ket():
    state = statevector.init_state(3)
    assert state.n == 3
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)


def test_init_state_range_errors():
    for bad in (0, -1, 12, 13):
        with pytest.raises(ValueError):
            statevector.init_state(bad)


def test_hadamard_splits_evenly():
    state = statevector.run_circuit(1, [GateSpec.h(0)])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(state.amplitudes, [s, s], atol=1e-15)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of two flips the leftmost factor: |00> -> |10>, index 2.
    state = statevector.run_circuit(2, [GateSpec.x(0)])
    assert state.amplitudes[2] == 1.0
    state = statevector.run_circuit(2, [GateSpec.x(1)])
    assert state.amplitudes[1] == 1.0


def test_bell_state_amplitudes():
    state = statevector.run_circuit(2, [GateSpec.h(0), GateSpec.cnot(0, 1)])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(state.amplitudes, [s, 0.0, 0.0, s], atol=1e-15)


def test_bell_state_outcome_probabilities():
    state = statevector.run_circuit(2, [GateSpec.h(0), GateSpec.cnot(0, 1)])
    assert statevector.outcome_probability(state, [(0, 0)]) == pytest.approx(0.5)
    assert statevector.outcome_probability(state, [(0, 0), (1, 0)]) == pytest.approx(0.5)
    assert statevector.outcome_probability(state, [(0, 0), (1, 1)]) == pytest.approx(0.0)


def test_cnot_with_control_below_target_index():
    # Prepare |01>, then CNOT controlled on qubit 1: flips qubit 0 -> |11>.
    state = statevector.run_circuit(2, [GateSpec.x(1), GateSpec.cnot(1, 0)])
    assert state.amplitudes[3] == 1.0


def test_cnot_on_nonadjacent_qubits():
    state = statevector.run_circuit(3, [GateSpec.x(0), GateSpec.cnot(0, 2)])
    # |000> -> |100> -> |101>, index 5.
    assert state.amplitudes[5] == 1.0


def test_outcome_probability_validation():
    state = statevector.init_state(2)
    assert statevector.outcome_probability(state, []) == 1.0
    with pytest.raises(ValueError):
        statevector.outcome_probability(state, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        statevector.outcome_probability(state, [(2, 0)])
    with pytest.raises(ValueError):
        statevector.outcome_probability(state, [(0, 2)])


def test_application_matches_full_matrix_route():
    # The contraction-based application must equal multiplying by the
    # embedded gate matrix; checked over random circuits.
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = statevector.init_state(n)
        reference = state.amplitudes.copy()
        depth = int(rng.integers(1, 15))
        for _ in range(depth):
            if n >= 2 and rng.random() < 0.3:
                control, target = rng.choice(n, size=2, replace=False)
                g = GateSpec.cnot(int(control), int(target))
            elif rng.random() < 0.5:
                g = GateSpec.roty(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(n)))
            else:
                g = GateSpec.h(int(rng.integers(n)))
            state = statevector.apply_gate_sv(state, g)
            reference = descriptors.embedded_gate(g, n) @ reference
        assert np.allclose(state.amplitudes, reference, atol=1e-12)


def test_norm_preserved_by_random_circuits():
    gates = [GateSpec.h(0), GateSpec.cnot(0, 1), GateSpec.roty(1.1, 1), GateSpec.cnot(1, 0)]
    state = statevector.run_circuit(2, gates)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    total = sum(
        statevector.outcome_probability(state, list(enumerate(bits)))
        for bits in itertools.product((0, 1), repeat=2)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_amplitudes_are_read_only():
    state = statevector.init_state(1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_gate_out_of_range_rejected():
    state = statevector.init_state(2)
    with pytest.raises(ValueError):
        statevector.apply_gate_sv(state, GateSpec.x(2))
