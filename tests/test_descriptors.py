"""Tests for the Heisenberg-picture descriptor engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_local import descriptors, linalg, statevector
from chsh_local.descriptors import GateSpec


def bell_network():
    return descriptors.apply_circuit(
        descriptors.init_network(2), [GateSpec.h(0), GateSpec.cnot(0, 1)]
    )


class TestGateSpec:
    def test_factories_roundtrip(self):
        assert GateSpec.x(3) == GateSpec("X", (3,))
        assert GateSpec.cnot(1, 0) == GateSpec("CNOT", (1, 0))
        assert GateSpec.roty(0.5, 2) == GateSpec("ROTY", (2,), 0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            GateSpec("SWAP", (0, 1))

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            GateSpec("X", (0, 1))
        with pytest.raises(ValueError):
            GateSpec("CNOT", (0,))

    def test_duplicate_and_negative_targets_rejected(self):
        with pytest.raises(ValueError):
            GateSpec("CNOT", (1, 1))
        with pytest.raises(ValueError):
            GateSpec("X", (-1,))

    def test_roty_angle_required_and_finite(self):
        with pytest.raises(ValueError):
            GateSpec("ROTY", (0,))
        with pytest.raises(ValueError):
            GateSpec("ROTY", (0,), float("nan"))
        with pytest.raises(ValueError):
            GateSpec("X", (0,), 0.3)

    def test_validate_for_range(self):
        GateSpec.cnot(0, 3).validate_for(4)
        with pytest.raises(ValueError):
            GateSpec.cnot(0, 3).validate_for(3)


class TestEmbeddedGate:
    def test_cnot_matches_constant(self):
        assert np.array_equal(
            descriptors.embedded_gate(GateSpec.cnot(0, 1), 2), linalg.CNOT
        )

    def test_reversed_cnot(self):
        # Control on qubit 1: swaps |01> and |11> (indices 1 and 3).
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[2, 2] = 1.0
        expected[3, 1] = expected[1, 3] = 1.0
        assert np.array_equal(
            descriptors.embedded_gate(GateSpec.cnot(1, 0), 2), expected
        )

    def test_single_qubit_embedding_position(self):
        assert np.array_equal(
            descriptors.embedded_gate(GateSpec.h(1), 2),
            linalg.tensor(linalg.identity(2), linalg.H),
        )


class TestInitNetwork:
    def test_fresh_descriptors_are_embedded_paulis(self):
        net = descriptors.init_network(2)
        assert np.array_equal(net.descriptors[0].qx, linalg.embed_one(linalg.X, 0, 2))
        assert np.array_equal(net.descriptors[1].qz, linalg.embed_one(linalg.Z, 1, 2))
        assert np.array_equal(net.cumulative_unitary, linalg.identity(4))
        assert net.gate_log == ()

    def test_fresh_network_measures(self):
        net = descriptors.init_network(1)
        assert descriptors.branch_measure(net, (0, 0)) == pytest.approx(1.0)
        assert descriptors.branch_measure(net, (0, 1)) == pytest.approx(0.0)

    def test_qubit_count_range(self):
        for bad in (0, -3, 12, 13):
            with pytest.raises(ValueError):
                descriptors.init_network(bad)

    def test_descriptor_arrays_are_read_only(self):
        net = descriptors.init_network(1)
        with pytest.raises(ValueError):
            net.descriptors[0].qx[0, 0] = 9.0


class TestQyDerived:
    def test_fresh_qy_is_embedded_y(self):
        net = descriptors.init_network(2)
        assert np.allclose(net.descriptors[1].qy(), linalg.embed_one(linalg.Y, 1, 2))

    def test_hadamard_flips_qy_sign(self):
        # H Y H = -Y.
        net = descriptors.apply_gate(descriptors.init_network(1), GateSpec.h(0))
        assert np.allclose(net.descriptors[0].qy(), -linalg.Y, atol=1e-12)


class TestApplyGate:
    def test_returns_new_network_and_keeps_original(self):
        net = descriptors.init_network(2)
        before = net.descriptors[0].qx.copy()
        evolved = descriptors.apply_gate(net, GateSpec.h(0))
        assert evolved is not net
        assert np.array_equal(net.descriptors[0].qx, before)
        assert evolved.gate_log == (GateSpec.h(0),)

    def test_untouched_descriptor_is_shared_object(self):
        net = descriptors.init_network(3)
        evolved = descriptors.apply_gate(net, GateSpec.h(0))
        assert evolved.descriptors[1] is net.descriptors[1]
        assert evolved.descriptors[2] is net.descriptors[2]
        assert evolved.descriptors[0] is not net.descriptors[0]

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            descriptors.apply_gate(descriptors.init_network(2), GateSpec.x(2))

    def test_x_flips_branch_measure(self):
        net = descriptors.apply_gate(descriptors.init_network(1), GateSpec.x(0))
        assert descriptors.branch_measure(net, (0, 1)) == pytest.approx(1.0)

    def test_cumulative_unitary_tracks_gates(self):
        gates = [GateSpec.h(0), GateSpec.cnot(0, 1), GateSpec.roty(0.4, 1)]
        net = descriptors.apply_circuit(descriptors.init_network(2), gates)
        expected = linalg.identity(4)
        for g in gates:
            expected = linalg.matmul(descriptors.embedded_gate(g, 2), expected)
        assert np.allclose(net.cumulative_unitary, expected, atol=1e-12)


class TestBranchMeasure:
    def test_rotated_qubit_measure(self):
        # RotY(2pi/3) sends |0> to cos(pi/3)|0> + sin(pi/3)|1>.
        theta = 2.0 * np.pi / 3.0
        net = descriptors.apply_gate(descriptors.init_network(1), GateSpec.roty(theta, 0))
        engine = descriptors.branch_measure(net, (0, 0))
        oracle = statevector.outcome_probability(
            statevector.run_circuit(1, [GateSpec.roty(theta, 0)]), [(0, 0)]
        )
        assert engine == pytest.approx(0.25, abs=1e-12)
        assert engine == pytest.approx(oracle, abs=1e-12)

    def test_bell_marginals(self):
        net = bell_network()
        for qubit in (0, 1):
            for outcome in (0, 1):
                assert descriptors.branch_measure(net, (qubit, outcome)) == pytest.approx(
                    0.5, abs=1e-12
                )

    def test_outcomes_sum_to_one(self):
        net = bell_network()
        total = descriptors.branch_measure(net, (0, 0)) + descriptors.branch_measure(
            net, (0, 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        net = descriptors.init_network(1)
        with pytest.raises(ValueError):
            descriptors.branch_measure(net, (1, 0))
        with pytest.raises(ValueError):
            descriptors.branch_measure(net, (0, 2))


class TestJointMeasure:
    def test_bell_correlations(self):
        net = bell_network()
        assert descriptors.joint_measure(net, [(0, 0), (1, 0)]) == pytest.approx(
            0.5, abs=1e-12
        )
        assert descriptors.joint_measure(net, [(0, 0), (1, 1)]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_order_does_not_matter(self):
        net = bell_network()
        forward = descriptors.joint_measure(net, [(0, 0), (1, 0)])
        backward = descriptors.joint_measure(net, [(1, 0), (0, 0)])
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_empty_record_has_measure_one(self):
        assert descriptors.joint_measure(bell_network(), []) == 1.0

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            descriptors.joint_measure(bell_network(), [(0, 0), (0, 1)])


class TestConditionalMeasure:
    def test_bell_conditional_is_certain(self):
        net = bell_network()
        assert descriptors.conditional_measure(net, (0, 0), (1, 0)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert descriptors.conditional_measure(net, (0, 0), (1, 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_measure_branch_rejected(self):
        net = descriptors.init_network(2)
        with pytest.raises(ValueError):
            descriptors.conditional_measure(net, (0, 1), (1, 0))

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            descriptors.conditional_measure(bell_network(), (0, 0), (0, 1))


class TestLocality:
    def test_remote_gates_leave_descriptor_untouched(self):
        net = bell_network()
        remote = [GateSpec.h(1), GateSpec.roty(0.9, 1), GateSpec.z(1)]
        assert descriptors.locality_audit(net, 0, remote)

    def test_remote_cnot_pair_leaves_third_qubit_untouched(self):
        net = descriptors.apply_circuit(
            descriptors.init_network(3), [GateSpec.h(0), GateSpec.cnot(0, 2)]
        )
        assert descriptors.locality_audit(net, 1, [GateSpec.cnot(0, 2), GateSpec.h(2)])

    def test_audit_rejects_ops_touching_watched_qubit(self):
        with pytest.raises(ValueError):
            descriptors.locality_audit(bell_network(), 0, [GateSpec.x(0)])

    def test_audit_rejects_bad_qubit(self):
        with pytest.raises(ValueError):
            descriptors.locality_audit(bell_network(), 5, [])

    def test_recomputed_components_match_stored(self):
        net = descriptors.apply_circuit(
            descriptors.init_network(2),
            [GateSpec.h(0), GateSpec.cnot(0, 1), GateSpec.roty(-0.3, 0)],
        )
        for qubit in (0, 1):
            qx, qz = descriptors.recomputed_components(net, qubit)
            assert np.allclose(qx, net.descriptors[qubit].qx, atol=1e-10)
            assert np.allclose(qz, net.descriptors[qubit].qz, atol=1e-10)


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    depth = draw(st.integers(min_value=1, max_value=8))
    gates = []
    for _ in range(depth):
        if n >= 2 and draw(st.booleans()):
            control = draw(st.integers(min_value=0, max_value=n - 1))
            target = draw(
                st.integers(min_value=0, max_value=n - 1).filter(lambda t: t != control)
            )
            gates.append(GateSpec.cnot(control, target))
        else:
            name = draw(st.sampled_from(("X", "Y", "Z", "H", "ROTY")))
            qubit = draw(st.integers(min_value=0, max_value=n - 1))
            theta = None
            if name == "ROTY":
                theta = draw(st.floats(min_value=-2 * np.pi, max_value=2 * np.pi))
            gates.append(GateSpec(name, (qubit,), theta))
    return n, gates


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_random_circuit_invariants(circuit):
    n, gates = circuit
    net = descriptors.apply_circuit(descriptors.init_network(n), gates)
    assert linalg.is_unitary(net.cumulative_unitary)
    for qubit in range(n):
        p0 = descriptors.branch_measure(net, (qubit, 0))
        p1 = descriptors.branch_measure(net, (qubit, 1))
        assert -1e-12 <= p0 <= 1.0 + 1e-12
        assert p0 + p1 == pytest.approx(1.0, abs=1e-10)
        # The local update rule agrees with dense conjugation by the rebuilt U.
        qx, qz = descriptors.recomputed_components(net, qubit)
        assert linalg.frobenius_distance(qx, net.descriptors[qubit].qx) <= 1e-10
        assert linalg.frobenius_distance(qz, net.descriptors[qubit].qz) <= 1e-10
    # Descriptors square to the identity: they are conjugated Paulis.
    d = net.descriptors[0]
    assert np.allclose(linalg.matmul(d.qx, d.qx), linalg.identity(2**n), atol=1e-10)
    assert np.allclose(linalg.matmul(d.qz, d.qz), linalg.identity(2**n), atol=1e-10)
