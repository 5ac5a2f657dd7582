"""Tests for the Heisenberg-picture descriptor engine."""

import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_local import descriptors, game, linalg, statevector, verify
from chsh_local.descriptors import GateSpec
from chsh_local.game import QUESTION_PAIRS


BELL_PREP = [GateSpec.h(0), GateSpec.cnot(0, 1)]

#: CNOT(0, 1) on two qubits: the control, qubit 0, is the leftmost factor.
CNOT_01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def bell_network():
    return descriptors.apply_circuit(descriptors.init_network(2), BELL_PREP)


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
        cnot = descriptors.embedded_gate(GateSpec.cnot(0, 1), 2)
        assert np.array_equal(cnot, CNOT_01)
        assert np.array_equal(cnot @ cnot, linalg.identity(4))

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

    def test_qubit_zero_is_the_leftmost_factor(self):
        assert np.array_equal(
            descriptors.embedded_gate(GateSpec.x(0), 2), linalg.tensor(linalg.X, linalg.identity(2))
        )
        assert np.array_equal(
            descriptors.embedded_gate(GateSpec.x(1), 2), linalg.tensor(linalg.identity(2), linalg.X)
        )

    def test_single_qubit_gate_matches_the_block_identity_form(self):
        # The n-factor fold equals I(2**k) (x) u (x) I(2**(n-k-1)) bit for bit.
        for name, theta in (("X", None), ("Y", None), ("Z", None), ("H", None), ("ROTY", 0.37)):
            u = linalg.single_qubit_gate(name, theta)
            for n in range(1, 6):
                for k in range(n):
                    block = np.kron(np.kron(np.eye(2**k), u), np.eye(2 ** (n - k - 1)))
                    embedded = descriptors.embedded_gate(GateSpec(name, (k,), theta), n)
                    assert embedded.dtype == block.dtype
                    assert np.array_equal(embedded, block)

    def test_out_of_range_target_is_rejected(self):
        with pytest.raises(ValueError, match="out of range for n=2"):
            descriptors.embedded_gate(GateSpec.x(2), 2)
        with pytest.raises(ValueError, match="out of range for n=2"):
            descriptors.embedded_gate(GateSpec.cnot(0, 2), 2)


class TestInitNetwork:
    def test_fresh_descriptors_are_embedded_paulis(self):
        net = descriptors.init_network(2)
        qx0 = descriptors.to_dense(net.descriptors[0].qx, 2)
        qz1 = descriptors.to_dense(net.descriptors[1].qz, 2)
        assert np.array_equal(qx0, descriptors.embedded_gate(GateSpec.x(0), 2))
        assert np.array_equal(qz1, descriptors.embedded_gate(GateSpec.z(1), 2))
        assert np.array_equal(descriptors.cumulative_unitary(2, []), linalg.identity(4))

    def test_fresh_network_measures(self):
        net = descriptors.init_network(1)
        assert descriptors.branch_measure(net, (0, 0)) == pytest.approx(1.0)
        assert descriptors.branch_measure(net, (0, 1)) == pytest.approx(0.0)

    def test_qubit_count_range(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                descriptors.init_network(bad)
        # Past MAX_QUBITS the engine still builds; the dense audit route refuses.
        for wide in (12, 13):
            net = descriptors.init_network(wide)
            assert descriptors.branch_measure(net, (wide - 1, 0)) == 1.0
            with pytest.raises(ValueError, match="dense audit route"):
                descriptors.to_dense(net.descriptors[0].qx, wide)
            with pytest.raises(ValueError, match="dense audit route"):
                descriptors.embedded_gate(GateSpec.x(0), wide)
            with pytest.raises(ValueError, match="dense audit route"):
                descriptors.cumulative_unitary(wide, [])
            with pytest.raises(ValueError, match="dense audit route"):
                descriptors.recomputed_components(wide, [], 0)

    def test_qubit_count_cap(self):
        cap = descriptors.MAX_NETWORK_QUBITS
        net = descriptors.init_network(cap)
        assert net.n == len(net.descriptors) == cap
        assert descriptors.branch_measure(net, (cap - 1, 0)) == 1.0
        with pytest.raises(ValueError, match=f"qubit count {cap + 1} exceeds .*MAX_NETWORK_QUBITS"):
            descriptors.init_network(cap + 1)

    def test_descriptor_arrays_are_read_only(self):
        net = descriptors.init_network(1)
        with pytest.raises(TypeError):
            net.descriptors[0].qx[(0, 0)] = 9.0

    @pytest.mark.parametrize(
        "round_trip", [lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy]
    )
    def test_pickle_and_deepcopy_round_trip(self, round_trip):
        gates = [GateSpec.h(0), GateSpec.roty(0.7, 1), GateSpec.cnot(0, 1), GateSpec.roty(-1.1, 2)]
        net = descriptors.apply_circuit(descriptors.init_network(3), gates)
        assert len(net.descriptors[1].qz) > 1  # non-Clifford: several strings
        copied = round_trip(net)
        assert copied == net
        for d in copied.descriptors:
            for component in (d.qx, d.qz):
                with pytest.raises(TypeError):
                    component[(0, 0)] = 9.0
        assert descriptors.apply_gate(copied, GateSpec.h(2)) == descriptors.apply_gate(
            net, GateSpec.h(2)
        )


def dense_qy(net, qubit):
    """The third component i qx qz, from the dense forms of the stored pair."""
    d = net.descriptors[qubit]
    return 1j * descriptors.to_dense(d.qx, net.n) @ descriptors.to_dense(d.qz, net.n)


class TestQyDerived:
    def test_fresh_qy_is_embedded_y(self):
        net = descriptors.init_network(2)
        assert np.allclose(dense_qy(net, 1), descriptors.embedded_gate(GateSpec.y(1), 2))

    def test_hadamard_flips_qy_sign(self):
        # H Y H = -Y.
        net = descriptors.apply_gate(descriptors.init_network(1), GateSpec.h(0))
        assert np.allclose(dense_qy(net, 0), -linalg.Y, atol=1e-12)


class TestApplyGate:
    def test_returns_new_network_and_keeps_original(self):
        net = descriptors.init_network(2)
        before = dict(net.descriptors[0].qx)
        evolved = descriptors.apply_gate(net, GateSpec.h(0))
        assert evolved is not net
        assert net.descriptors[0].qx == before

    def test_equal_descriptors_make_equal_networks(self):
        # A network is its descriptors: H H returns the fresh network, history and all.
        fresh = descriptors.init_network(1)
        assert descriptors.apply_circuit(fresh, [GateSpec.h(0), GateSpec.h(0)]) == fresh
        assert [f.name for f in dataclasses.fields(fresh)] == ["n", "descriptors"]

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
        expected = linalg.identity(4)
        for g in gates:
            expected = linalg.matmul(descriptors.embedded_gate(g, 2), expected)
        assert np.allclose(descriptors.cumulative_unitary(2, gates), expected, atol=1e-12)


def kronecker_unitary(n, gates):
    """Reference: the left product of the gates' Kronecker-embedded matrices."""
    unitary = linalg.identity(2**n)
    for g in gates:
        unitary = linalg.matmul(descriptors.embedded_gate(g, n), unitary)
    return unitary


class TestAuditRoute:
    def test_row_updates_match_the_kronecker_reference(self):
        rng = np.random.default_rng(20261018)
        seen = set()
        for n in range(1, 6):
            # Every gate type on every qubit, and CNOT in both directions.
            fixed = [GateSpec(name, (k,)) for name in ("X", "Y", "Z", "H") for k in range(n)]
            fixed += [GateSpec.roty(0.3 + k, k) for k in range(n)]
            fixed += [GateSpec.cnot(c, t) for c in range(n) for t in range(n) if c != t]
            for _ in range(6):
                gates = verify.random_circuit(rng, n, int(rng.integers(1, 21)))
                gates += [fixed[i] for i in rng.permutation(len(fixed))]
                seen.update((g.name, g.targets[0] < g.targets[-1]) for g in gates)
                reference = kronecker_unitary(n, gates)
                assert np.allclose(descriptors.cumulative_unitary(n, gates), reference, atol=1e-12)
                reference_dagger = linalg.dagger(reference)
                for k in range(n):
                    qx, qz = descriptors.recomputed_components(n, gates, k)
                    for got, pauli in ((qx, GateSpec.x(k)), (qz, GateSpec.z(k))):
                        embedded = descriptors.embedded_gate(pauli, n)
                        expected = reference_dagger @ embedded @ reference
                        assert np.allclose(got, expected, atol=1e-12)
        assert {("CNOT", True), ("CNOT", False)} <= seen
        assert {name for name, _ in seen} == set(descriptors.GATE_NAMES)

    def test_out_of_range_circuit_gate_is_rejected(self):
        with pytest.raises(ValueError, match="out of range for n=2"):
            descriptors.cumulative_unitary(2, [GateSpec.h(0), GateSpec.cnot(0, 2)])


class TestPauliSums:
    def test_engine_path_makes_no_dense_call(self, monkeypatch):
        p = game.default_protocol()

        def dense(*args, **kwargs):
            raise AssertionError("dense linalg call on the engine path")

        defined = [
            name
            for name, value in vars(linalg).items()
            if callable(value) and getattr(value, "__module__", None) == linalg.__name__
        ]
        assert {"identity", "single_qubit_gate", "dagger", "frobenius_distance"} <= set(defined)
        for name in defined:
            monkeypatch.setattr(linalg, name, dense)
        for q in QUESTION_PAIRS:
            assert game.branch_tree(p, q).win_measure() == pytest.approx(
                game.QUANTUM_WIN_RATE, abs=1e-12
            )
        assert game.redundancy_demo(10) == 0.0

    def test_term_cap_fails_fast(self, monkeypatch):
        monkeypatch.setattr(descriptors, "MAX_TERMS", 3)
        net = descriptors.apply_circuit(
            descriptors.init_network(2), [GateSpec.roty(0.3, 0), GateSpec.roty(0.5, 1)]
        )
        # Each qx is now two strings; the CNOT's product has four.
        with pytest.raises(ValueError, match="exceeds the term cap 3"):
            descriptors.apply_gate(net, GateSpec.cnot(0, 1))


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
        assert descriptors.record_measures(bell_network(), []) == (1.0,)

    def test_duplicate_qubits_rejected(self):
        message = r"outcome qubits must be distinct, got \[0, 0\]"
        with pytest.raises(ValueError, match=message):
            descriptors.joint_measure(bell_network(), [(0, 0), (0, 1)])
        with pytest.raises(ValueError, match=message):
            descriptors.record_measures(bell_network(), [0, 0])

    def test_record_measures_reject_out_of_range_qubits(self):
        for bad in (2, -1):
            with pytest.raises(ValueError, match=f"qubit {bad} out of range for n=2"):
                descriptors.record_measures(bell_network(), [0, bad])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: descriptors.OutcomeSpec.checked((1.7, 0), 2), "qubit must be an int, got 1.7"),
        (lambda: descriptors.OutcomeSpec.checked((True, 0), 2), "qubit must be an int, got True"),
        (lambda: descriptors.OutcomeSpec.checked((1, 1.0), 2), "outcome must be an int, got 1.0"),
        (
            lambda: descriptors.record_measures(bell_network(), [0.5, 1]),
            "qubit must be an int, got 0.5",
        ),
        (
            lambda: statevector.outcome_probability(statevector.run_circuit(2, []), [(0.9, 0)]),
            "qubit must be an int, got 0.9",
        ),
        (lambda: GateSpec("X", (1.5,)), "target must be an int, got 1.5"),
        (lambda: GateSpec("X", (True,)), "target must be an int, got True"),
        (lambda: descriptors.recomputed_components(2, [], 0.5), "qubit must be an int, got 0.5"),
        (lambda: descriptors.init_network(2.5), "qubit count must be an int, got 2.5"),
        (lambda: statevector.init_state(True), "qubit count must be an int, got True"),
        (lambda: verify.check_circuit_count(2.5), "n_circuits must be an int, got 2.5"),
        (
            lambda: game.strategy_win_rate(game.DeterministicStrategy(True, False, 0, 1)),
            "strategy bit 0 must be an int, got True",
        ),
        (
            lambda: game.win_predicate(game.QuestionPair(0, 0), 1.0, 0),
            "aa must be an int, got 1.0",
        ),
    ],
    ids=[
        "outcome-float-qubit",
        "outcome-bool-qubit",
        "outcome-float-bit",
        "record-float-qubit",
        "oracle-float-qubit",
        "gate-float-target",
        "gate-bool-target",
        "audit-float-qubit",
        "network-float-size",
        "oracle-bool-size",
        "float-circuit-count",
        "bool-strategy-bit",
        "float-answer-bit",
    ],
)
def test_non_int_indices_are_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integers_are_indices():
    assert descriptors.OutcomeSpec.checked((np.int64(1), np.uint8(0)), 2) == (1, 0)
    assert type(GateSpec("X", (np.int64(1),)).targets[0]) is int


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
        remote = [GateSpec.h(1), GateSpec.roty(0.9, 1), GateSpec.z(1)]
        assert descriptors.locality_audit(2, BELL_PREP, 0, remote)

    def test_remote_cnot_pair_leaves_third_qubit_untouched(self):
        prelude = [GateSpec.h(0), GateSpec.cnot(0, 2)]
        assert descriptors.locality_audit(3, prelude, 1, [GateSpec.cnot(0, 2), GateSpec.h(2)])

    def test_audit_rejects_ops_touching_watched_qubit(self):
        with pytest.raises(ValueError):
            descriptors.locality_audit(2, BELL_PREP, 0, [GateSpec.x(0)])

    def test_audit_rejects_bad_qubit(self):
        for bad in (5, -1):
            with pytest.raises(ValueError, match=f"qubit {bad} out of range for n=2"):
                descriptors.locality_audit(2, BELL_PREP, bad, [])

    def test_recomputed_components_match_stored(self):
        gates = [GateSpec.h(0), GateSpec.cnot(0, 1), GateSpec.roty(-0.3, 0)]
        net = descriptors.apply_circuit(descriptors.init_network(2), gates)
        for qubit in (0, 1):
            qx, qz = descriptors.recomputed_components(2, gates, qubit)
            assert np.allclose(qx, descriptors.to_dense(net.descriptors[qubit].qx, 2), atol=1e-10)
            assert np.allclose(qz, descriptors.to_dense(net.descriptors[qubit].qz, 2), atol=1e-10)


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
    u = descriptors.cumulative_unitary(n, gates)
    unitarity_gap = linalg.frobenius_distance(linalg.dagger(u) @ u, linalg.identity(2**n))
    assert unitarity_gap <= linalg.DEFAULT_TOL
    for qubit in range(n):
        p0 = descriptors.branch_measure(net, (qubit, 0))
        p1 = descriptors.branch_measure(net, (qubit, 1))
        assert -1e-12 <= p0 <= 1.0 + 1e-12
        assert p0 + p1 == pytest.approx(1.0, abs=1e-10)
        # The local update rule agrees with dense conjugation by the rebuilt U.
        qx, qz = descriptors.recomputed_components(n, gates, qubit)
        d = net.descriptors[qubit]
        assert linalg.frobenius_distance(qx, descriptors.to_dense(d.qx, n)) <= 1e-10
        assert linalg.frobenius_distance(qz, descriptors.to_dense(d.qz, n)) <= 1e-10
    # Descriptors square to the identity: they are conjugated Paulis.
    d = net.descriptors[0]
    qx, qz = descriptors.to_dense(d.qx, n), descriptors.to_dense(d.qz, n)
    assert np.allclose(linalg.matmul(qx, qx), linalg.identity(2**n), atol=1e-10)
    assert np.allclose(linalg.matmul(qz, qz), linalg.identity(2**n), atol=1e-10)


def full_fold_joint_measure(net, outcomes):
    """Reference: every fold step forms the whole product M qz."""
    m = {(0, 0): 1.0}
    for qubit, outcome in outcomes:
        sign = 1.0 if outcome == 0 else -1.0
        m = descriptors._combine(
            (0.5, m), (0.5 * sign, descriptors._product(m, net.descriptors[qubit].qz))
        )
    return descriptors._reference_expectation(m)


def test_joint_measure_equals_the_full_fold_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        gates = verify.random_circuit(rng, n, int(rng.integers(1, 21)))
        net = descriptors.apply_circuit(descriptors.init_network(n), gates)
        qubits = rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
        outcomes = [(q, int(rng.integers(2))) for q in qubits]
        assert descriptors.joint_measure(net, outcomes) == full_fold_joint_measure(net, outcomes)
        # Every record on the same qubits, from one prefix-shared fold;
        # record j spells its outcome bits with qubits[0] most significant.
        measures = descriptors.record_measures(net, qubits)
        assert len(measures) == 2 ** len(qubits)
        for j, bits in enumerate(itertools.product((0, 1), repeat=len(qubits))):
            record = list(zip(qubits, bits))
            assert measures[j] == full_fold_joint_measure(net, record)
