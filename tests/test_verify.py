"""Tests for the verification suites' own failure detection and inputs."""

import dataclasses
from types import MappingProxyType

import pytest

from chsh_local import descriptors, verify
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


def test_locality_suite_needs_two_qubits():
    # A remote circuit needs a qubit besides the watched one, and every
    # register a suite draws must fit the dense routes.
    assert 2 <= verify.SUITE_MAX_QUBITS <= MAX_QUBITS
    assert verify.SUITE_MAX_DEPTH >= 1
