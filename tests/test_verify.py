"""Tests for the verification suites' own failure detection."""

from chsh_local import descriptors, verify
from chsh_local.linalg import DEFAULT_TOL


def test_equivalence_suite_catches_order_dependent_joint_measures(monkeypatch):
    # An offset above DEFAULT_TOL but below EQUIVALENCE_TOL, applied only when
    # a record lists its qubits in descending order: the oracle comparison
    # alone would pass, so only the reversed-order check can catch it.
    offset = 5e-10
    assert DEFAULT_TOL < offset < verify.EQUIVALENCE_TOL
    exact = descriptors.joint_measure

    def order_dependent(net, outcomes):
        outcomes = list(outcomes)
        value = exact(net, outcomes)
        if len(outcomes) > 1 and outcomes[0][0] > outcomes[-1][0]:
            value += offset
        return value

    monkeypatch.setattr(descriptors, "joint_measure", order_dependent)
    result = verify.picture_equivalence_suite(n_circuits=50)
    assert not result.passed
    assert result.failures > 0
    assert result.max_deviation <= verify.EQUIVALENCE_TOL
    assert "reversed order changed circuit" in result.detail
    assert f"{result.failures} order failures" in result.detail
