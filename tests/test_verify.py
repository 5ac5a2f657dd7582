"""Tests for the verification suites' own failure detection and inputs."""

import dataclasses
from types import MappingProxyType

import numpy as np
import pytest

from chsh_local import descriptors, statevector, verify
from chsh_local.linalg import DEFAULT_TOL, MAX_QUBITS


def test_equivalence_suite_catches_order_dependent_joint_measures(monkeypatch):
    # An offset above DEFAULT_TOL but below EQUIVALENCE_TOL, applied only when
    # a record lists its qubits in descending order: the oracle comparison
    # alone would pass, so only the reversed-order check can catch it.
    offset = 5e-10
    assert DEFAULT_TOL < offset < verify.EQUIVALENCE_TOL
    exact = descriptors.record_measures

    def order_dependent(net, qubits):
        qubits = list(qubits)
        measures = exact(net, qubits)
        if len(qubits) > 1 and qubits[0] > qubits[-1]:
            measures = tuple(m + offset for m in measures)
        return measures

    monkeypatch.setattr(descriptors, "record_measures", order_dependent)
    result = verify.picture_equivalence_suite(n_circuits=50)
    assert not result.passed
    assert result.failures > 0
    assert result.max_deviation <= verify.EQUIVALENCE_TOL
    assert "reversed order changed circuit" in result.detail
    assert f"{result.failures} order failures" in result.detail


def test_equivalence_suite_catches_an_oracle_disagreement(monkeypatch):
    # Every oracle probability moved by 2e-9, past EQUIVALENCE_TOL: each
    # comparison fails and the detail names the worst record.
    exact = statevector.record_probabilities

    def shifted(state, qubits):
        return tuple(p + 2e-9 for p in exact(state, qubits))

    monkeypatch.setattr(statevector, "record_probabilities", shifted)
    result = verify.picture_equivalence_suite(n_circuits=20)
    assert not result.passed
    assert result.failures == result.checked
    assert result.max_deviation > verify.EQUIVALENCE_TOL
    assert "; worst at circuit " in result.detail


def test_random_circuit_needs_an_allowed_qubit():
    with pytest.raises(ValueError, match="^need at least one allowed qubit$"):
        verify.random_circuit(np.random.default_rng(0), 3, 5, allowed=())


@pytest.mark.parametrize(
    "n, depth, allowed, message",
    [
        (2, -3, None, r"depth must be >= 0, got -3"),
        (2, 2.5, None, r"depth must be an int, got 2\.5"),
        (2, True, None, r"depth must be an int, got True"),
        (2.0, 3, None, r"n must be an int, got 2\.0"),
        (2, 3, (5, 7), r"allowed qubits must be in \[0, 2\), got \[5, 7\]"),
        (2, 3, (0, -1), r"allowed qubits must be in \[0, 2\), got \[0, -1\]"),
        (2, 3, (1, 1), r"allowed qubits must be distinct, got \[1, 1\]"),
        (2, 3, (0, 1.0), r"allowed must be an int, got 1\.0"),
        (2, 3, 1, r"allowed must be a sequence, got 1"),
    ],
    ids=[
        "negative-depth", "float-depth", "bool-depth", "float-n", "off-register",
        "negative-qubit", "repeated-qubit", "float-qubit", "not-a-sequence",
    ],
)
def test_random_circuit_rejects_bad_inputs_before_any_draw(n, depth, allowed, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.random_circuit(rng, n, depth, allowed=allowed)
    # Nothing was drawn: the generator is where a fresh one starts.
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_random_circuit_keeps_its_draws_for_valid_inputs():
    # Depth 0 draws nothing; numpy ints and a list are valid `allowed` values,
    # and each gate stays on the allowed qubits.
    rng = np.random.default_rng(4)
    assert verify.random_circuit(rng, 3, 0) == []
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state
    gates = verify.random_circuit(rng, 4, 30, allowed=[np.int64(3), 1])
    assert {t for g in gates for t in g.targets} <= {1, 3}
    again = verify.random_circuit(np.random.default_rng(4), 4, 30, allowed=(3, 1))
    assert gates == again


def test_locality_suite_catches_a_dropped_circuit_gate(monkeypatch):
    # The stored descriptors stay right, so only the dense recomputation
    # can catch a cumulative unitary that forgets the first gate of the
    # audited circuit.  (Forgetting the last one would go unseen: a remote
    # gate commutes with the watched qubit's Paulis.)
    exact = descriptors.cumulative_unitary

    def drop_first(n, gates):
        return exact(n, list(gates)[1:])

    monkeypatch.setattr(descriptors, "cumulative_unitary", drop_first)
    result = verify.locality_suite(n_circuits=50)
    assert not result.passed
    assert result.failures > 0
    assert f"{result.failures} locality violations" in result.detail


def test_locality_suite_catches_a_rewritten_non_target(monkeypatch):
    # Every gate nudges one coefficient of each non-target qz by 1e-14.  At
    # most 40 gates per trial keep the dense drift far below DEFAULT_TOL, so
    # only the exact after == before check can catch the rewrite.
    nudge = 1e-14
    assert 40 * nudge * 2**2 < DEFAULT_TOL  # sqrt(2**4) scales a one-string drift
    exact = descriptors.apply_circuit

    def leaky(net, gates):
        for g in gates:
            out = exact(net, (g,))
            rewritten = []
            for k, d in enumerate(out.descriptors):
                if k not in g.targets:
                    key = next(iter(d.qz))
                    qz = MappingProxyType({**d.qz, key: d.qz[key] + nudge})
                    d = descriptors.Descriptor(d.qx, qz)
                rewritten.append(d)
            net = dataclasses.replace(out, descriptors=tuple(rewritten))
        return net

    monkeypatch.setattr(descriptors, "apply_circuit", leaky)
    result = verify.locality_suite(n_circuits=50)
    assert not result.passed
    assert result.failures == 50  # every trial has at least one remote gate
    assert "50 locality violations" in result.detail


@pytest.mark.parametrize("suite", [verify.picture_equivalence_suite, verify.locality_suite])
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_circuits": 0}, "n_circuits must be >= 1, got 0"),
        ({"n_circuits": -5}, "n_circuits must be >= 1, got -5"),
    ],
)
def test_suites_reject_sizes_that_check_nothing(suite, kwargs, message):
    with pytest.raises(ValueError, match=message):
        suite(**kwargs)


@pytest.mark.parametrize("suite", [verify.picture_equivalence_suite, verify.locality_suite])
@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "seed must be an int, got True"),
        (1.5, r"seed must be an int, got 1\.5"),
        (-1, "seed must be >= 0, got -1"),
    ],
    ids=["bool", "float", "negative"],
)
def test_suites_reject_a_seed_that_is_not_an_int_of_at_least_zero(suite, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        suite(n_circuits=1, seed=seed)


def test_suites_take_a_numpy_int_seed_as_its_value():
    for suite in (verify.picture_equivalence_suite, verify.locality_suite):
        assert suite(n_circuits=3, seed=np.int64(7)) == suite(n_circuits=3, seed=7)


def test_locality_suite_needs_two_qubits():
    # A remote circuit needs a qubit besides the watched one, and every
    # register a suite draws must fit the dense routes.
    assert 2 <= verify.SUITE_MAX_QUBITS <= MAX_QUBITS
    assert verify.SUITE_MAX_DEPTH >= 1
