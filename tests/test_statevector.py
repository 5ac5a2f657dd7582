"""Tests for the Schrodinger-picture oracle."""

import itertools

import numpy as np
import pytest

from chsh_local import descriptors, linalg, statevector, verify
from chsh_local.descriptors import GateSpec
from chsh_local.linalg import MAX_QUBITS


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
    assert statevector.record_probabilities(state, []) == (1.0,)
    message = r"outcome qubits must be distinct, got \[0, 0\]"
    with pytest.raises(ValueError, match=message):
        statevector.outcome_probability(state, [(0, 0), (0, 1)])
    with pytest.raises(ValueError, match=message):
        statevector.record_probabilities(state, [0, 0])
    with pytest.raises(ValueError, match="qubit 2 out of range for n=2"):
        statevector.outcome_probability(state, [(2, 0)])
    for bad in (2, -1):
        with pytest.raises(ValueError, match=f"qubit {bad} out of range for n=2"):
            statevector.record_probabilities(state, [1, bad])
    with pytest.raises(ValueError, match="outcome must be 0 or 1, got 2"):
        statevector.outcome_probability(state, [(0, 2)])


def masked_sum_probability(state, outcomes):
    """Reference: one mask over the basis indices per record."""
    probs = np.abs(state.amplitudes) ** 2
    mask = np.ones(state.dim, dtype=bool)
    indices = np.arange(state.dim)
    for qubit, outcome in outcomes:
        mask &= ((indices >> (state.n - 1 - qubit)) & 1) == outcome
    return float(probs[mask].sum())


def assert_masked_sums(state, qubits):
    probabilities = statevector.record_probabilities(state, qubits)
    assert len(probabilities) == 2 ** len(qubits)
    for j, bits in enumerate(itertools.product((0, 1), repeat=len(qubits))):
        record = list(zip(qubits, bits))
        # The empty record is certain: exactly 1, not the rounded norm.
        reference = masked_sum_probability(state, record) if record else 1.0
        assert probabilities[j] == reference
        assert statevector.outcome_probability(state, record) == reference


def test_record_probabilities_equal_per_record_masked_sums():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        gates = verify.random_circuit(rng, n, int(rng.integers(1, 15)))
        state = statevector.run_circuit(n, gates)
        assert_masked_sums(state, rng.permutation(n)[: rng.integers(0, n + 1)].tolist())
    # Larger registers, so that a record's sum runs over up to 1024 entries:
    # past numpy's 8-element unrolled sum and its 128-element pairwise block.
    for n in range(6, MAX_QUBITS + 1):
        state = statevector.run_circuit(n, verify.random_circuit(rng, n, 4 * n))
        for k in (1, 2, 3):
            assert_masked_sums(state, rng.permutation(n)[:k].tolist())


def test_empty_record_is_exactly_certain():
    # The sum of every |amplitude|**2 after a random circuit is 1 only up
    # to rounding; the empty record's probability is 1 exactly, as on the
    # engine route.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        state = statevector.run_circuit(n, verify.random_circuit(rng, n, int(rng.integers(1, 15))))
        assert statevector.record_probabilities(state, []) == (1.0,)
        assert statevector.outcome_probability(state, []) == 1.0


def tensordot_gate(state, g):
    """Reference single-qubit application: contract the gate into axis k."""
    psi = state.amplitudes.reshape((2,) * state.n)
    u = linalg.single_qubit_gate(g.name, g.theta)
    psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [g.targets[0]])), 0, g.targets[0])
    return np.ascontiguousarray(psi.reshape(state.dim))


def test_single_qubit_gates_equal_the_tensordot_contraction_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        state = statevector.init_state(n)
        for g in verify.random_circuit(rng, n, int(rng.integers(1, 15))):
            after = statevector.apply_gate_sv(state, g)
            if g.name != "CNOT":
                assert np.array_equal(after.amplitudes, tensordot_gate(state, g))
            state = after


def flip_gate(state, g):
    """Reference CNOT: the target-flipped amplitudes, taken where the control is 1."""
    control, target = g.targets
    psi = state.amplitudes.reshape((2,) * state.n)
    after = psi.copy()
    picked = tuple(1 if axis == control else slice(None) for axis in range(state.n))
    after[picked] = np.flip(psi, axis=target)[picked]
    return after.reshape(state.dim)


def test_a_circuit_equals_its_gates_applied_one_by_one():
    # run_circuit applies a whole circuit in one gate loop; folding the
    # per-gate references over the same gates must give the same bits.
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        gates = verify.random_circuit(rng, n, int(rng.integers(0, 25)))
        reference = statevector.init_state(n)
        for g in gates:
            step = flip_gate if g.name == "CNOT" else tensordot_gate
            reference = statevector.StateVector(n, step(reference, g))
        assert np.array_equal(statevector.run_circuit(n, gates).amplitudes, reference.amplitudes)


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
