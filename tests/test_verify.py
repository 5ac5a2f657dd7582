"""Tests for the verification suites' own failure detection and inputs."""

import dataclasses
import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_local import descriptors, statevector, verify
from chsh_local.descriptors import GateSpec
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


def per_call_random_circuit(rng, n, depth, allowed=None):
    """The reference random_circuit: one numpy Generator call per draw."""
    targets = tuple(range(n)) if allowed is None else tuple(allowed)
    names = list(descriptors.GATE_NAMES)
    if len(targets) < 2:
        names = names[:-1]
    gates = []
    for _ in range(depth):
        name = names[rng.integers(len(names))]
        if name == "CNOT":
            control, target = rng.choice(len(targets), size=2, replace=False)
            gates.append(GateSpec.cnot(targets[control], targets[target]))
        elif name == "ROTY":
            theta = rng.uniform(-math.pi, math.pi)
            gates.append(GateSpec.roty(theta, targets[rng.integers(len(targets))]))
        else:
            gates.append(GateSpec(name, (targets[rng.integers(len(targets))],)))
    return gates


def twin(rng):
    """A second PCG64 Generator in `rng`'s state, its 32-bit buffer included."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


#: The suites' draws as numpy calls: integers(low, high) for each bound they
#: use, uniform(-pi, pi) and choice(m, 2, replace=False) for m = 2..4.
DRAW_CALLS = (
    [("integers", low, high) for low, high in [(1, 5), (0, 21), (1, 21), (2, 5), (0, 6)]]
    + [("integers", 0, n) for n in range(1, 5)]
    + [("uniform",)]
    + [("choice", m) for m in range(2, 5)]
)


def numpy_draw(rng, call):
    if call[0] == "integers":
        return int(rng.integers(call[1], call[2]))
    if call[0] == "uniform":
        return rng.uniform(-math.pi, math.pi)
    return tuple(rng.choice(call[1], size=2, replace=False).tolist())


def reader_draw(draws, call):
    if call[0] == "integers":
        return call[1] + draws.bounded(call[2] - 1 - call[1])
    if call[0] == "uniform":
        return draws.uniform(-math.pi, math.pi)
    return draws.pair(call[1])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    buffered=st.booleans(),
    block=st.integers(1, 9),
    calls=st.lists(st.sampled_from(DRAW_CALLS), max_size=60),
)
def test_draw_reader_matches_numpy_call_for_call(seed, buffered, block, calls):
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(6)  # takes a word's low half and buffers its high half
    assert rng.bit_generator.state["has_uint32"] == int(buffered)
    reference = twin(rng)
    draws = verify._Draws(rng, block=block)
    assert [reader_draw(draws, c) for c in calls] == [numpy_draw(reference, c) for c in calls]
    draws.sync()
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "span, rejected", [(2, False), (3, True), (4, False), (5, True), (6, True)]
)
def test_draw_reader_rejects_a_zero_half_as_numpy_does(span, rejected):
    # Lemire's method rejects a product whose low 32 bits fall below
    # 2**32 mod span; a buffered half of 0 gives a low word of 0.
    assert (2**32 % span > 0) == rejected
    for seed in range(20):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
        reference = twin(rng)
        draws = verify._Draws(rng, block=3)
        assert draws.bounded(span - 1) == int(reference.integers(span))
        draws.sync()
        assert rng.bit_generator.state == reference.bit_generator.state
        # A rejected half makes the draw read a new word.
        assert (rng.bit_generator.state["state"] != state["state"]) == rejected


@pytest.mark.parametrize("seed", range(12))
def test_random_circuit_equals_its_per_call_reference(seed):
    rng = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for depth in (0, 1, 5, 20, 90):
        for n, allowed in [(1, None), (2, None), (4, None), (4, (2,)), (5, (4, 0, 2)), (6, [1, 3])]:
            assert verify.random_circuit(rng, n, depth, allowed) == per_call_random_circuit(
                reference, n, depth, allowed
            )
            assert rng.bit_generator.state == reference.bit_generator.state


def test_suites_make_no_per_call_generator_draws(monkeypatch):
    # The suites read every draw through one reader of raw words; a numpy
    # scalar draw on their generator would raise here.
    class NoScalarDraws(np.random.Generator):
        def integers(self, *args, **kwargs):
            raise AssertionError("integers called")

        def uniform(self, *args, **kwargs):
            raise AssertionError("uniform called")

        def choice(self, *args, **kwargs):
            raise AssertionError("choice called")

    expected = [
        verify.picture_equivalence_suite(n_circuits=30, seed=5),
        verify.locality_suite(n_circuits=15, seed=6),
    ]
    monkeypatch.setattr(
        verify.np.random, "default_rng", lambda seed: NoScalarDraws(np.random.PCG64(seed))
    )
    assert [
        verify.picture_equivalence_suite(n_circuits=30, seed=5),
        verify.locality_suite(n_circuits=15, seed=6),
    ] == expected


@pytest.mark.parametrize(
    "make_rng",
    [
        lambda: np.random.Generator(np.random.Philox(0)),
        lambda: np.random.Generator(np.random.MT19937(0)),
        lambda: np.random.Generator(np.random.PCG64DXSM(0)),
        lambda: np.random.RandomState(0),
        lambda: None,
    ],
    ids=["philox", "mt19937", "pcg64dxsm", "random-state", "none"],
)
def test_random_circuit_refuses_a_generator_it_cannot_follow(make_rng):
    rng = make_rng()
    with pytest.raises(ValueError, match=r"^rng must be a numpy Generator over PCG64, got "):
        verify.random_circuit(rng, 3, 5)
    if rng is not None:
        # Nothing was drawn: the next draw is a fresh generator's first.
        assert rng.random() == make_rng().random()


BAD_QUBIT_LISTS = [
    ([1.5], r"qubit must be an int, got 1\.5"),
    ([True], "qubit must be an int, got True"),
    ([-1], "qubit -1 out of range for n=3"),
    ([3], "qubit 3 out of range for n=3"),
    ([0, 0], r"outcome qubits must be distinct, got \[0, 0\]"),
    (1, "qubits must be a sequence, got 1"),
    (1.5, r"qubits must be a sequence, got 1\.5"),
    ([5, 1.5], "qubit 5 out of range for n=3"),
    ([2, 1, 2, 7], "qubit 7 out of range for n=3"),
]


@pytest.mark.parametrize("route", ["engine", "oracle"])
@pytest.mark.parametrize(
    "qubits, message", BAD_QUBIT_LISTS, ids=[repr(q) for q, _ in BAD_QUBIT_LISTS]
)
def test_both_routes_reject_a_bad_qubit_list_with_one_message(route, qubits, message):
    if route == "engine":
        batch, register = descriptors.record_measures, descriptors.init_network(3)
    else:
        batch, register = statevector.record_probabilities, statevector.init_state(3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        batch(register, qubits)
