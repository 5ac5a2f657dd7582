"""Randomized verification suites: picture equivalence and locality.

Both suites generate random circuits from a seeded generator and check the
descriptor engine against an independent standard.  Picture equivalence
compares every joint outcome measure with the state-vector oracle and
checks that each multi-qubit record gives the same measure in reversed
order (the outcome projectors commute); locality checks that gates avoiding
a watched qubit leave its stored descriptor untouched bit for bit.  These
are the audits the engine's hot path does not run on every call.  The CLI
`verify` subcommand and the acceptance tests both run these, so the suite
parameters and defaults live here, in one place.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import descriptors, statevector
from .descriptors import GateSpec
from .linalg import DEFAULT_TOL, MAX_QUBITS

#: Joint-measure agreement tolerance between the two pictures.
EQUIVALENCE_TOL = 1e-9

#: Default seed for suite circuit generation; fixed so runs are repeatable.
DEFAULT_SUITE_SEED = 20260816


class SuiteResult(NamedTuple):
    """Outcome of one verification suite."""

    passed: bool
    checked: int
    failures: int
    max_deviation: float
    detail: str


def check_circuit_count(n_circuits: int) -> None:
    """Reject a suite circuit count that would check nothing."""
    if n_circuits < 1:
        raise ValueError(f"n_circuits must be >= 1, got {n_circuits}")


def _check_suite_size(n_circuits: int, max_qubits: int, max_depth: int, min_qubits: int) -> None:
    """Reject a suite size that would check nothing or leave the dense routes' range."""
    check_circuit_count(n_circuits)
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if not min_qubits <= max_qubits <= MAX_QUBITS:
        raise ValueError(f"max_qubits must be in [{min_qubits}, {MAX_QUBITS}], got {max_qubits}")


def random_circuit(
    rng: np.random.Generator,
    n: int,
    depth: int,
    allowed: tuple[int, ...] | None = None,
) -> list[GateSpec]:
    """Random gate sequence on an n-qubit register.

    `allowed` restricts the qubits gates may target (default: all).  CNOTs
    appear only when two targets are available.
    """
    targets = tuple(range(n)) if allowed is None else tuple(allowed)
    if not targets:
        raise ValueError("need at least one allowed qubit")
    names = list(descriptors.GATE_NAMES) if len(targets) >= 2 else list(
        descriptors.GATE_NAMES[:-1]
    )
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


def picture_equivalence_suite(
    n_circuits: int = 1000,
    max_qubits: int = 4,
    max_depth: int = 20,
    tol: float = EQUIVALENCE_TOL,
    seed: int = DEFAULT_SUITE_SEED,
) -> SuiteResult:
    """Compare descriptor measures against the oracle on random circuits.

    For each circuit, every full joint outcome (all 2**n of them) and every
    single-qubit marginal is computed by both routes; any deviation beyond
    `tol` is a failure.  Every multi-qubit record is also evaluated by the
    engine in reversed order, and a change beyond the default tolerance is
    a failure as well: the order independence of commuting projectors.
    `n_circuits` and `max_depth` must be at least 1 and `max_qubits` in
    [1, MAX_QUBITS]; anything else is a ValueError.
    """
    _check_suite_size(n_circuits, max_qubits, max_depth, min_qubits=1)
    rng = np.random.default_rng(seed)
    failures = 0
    checked = 0
    max_deviation = 0.0
    worst = ""
    order_failures = []
    for index in range(n_circuits):
        n = int(rng.integers(1, max_qubits + 1))
        depth = int(rng.integers(1, max_depth + 1))
        gates = random_circuit(rng, n, depth)
        net = descriptors.apply_circuit(descriptors.init_network(n), gates)
        state = statevector.run_circuit(n, gates)
        joints = [
            [(k, o) for k, o in enumerate(bits)]
            for bits in itertools.product((0, 1), repeat=n)
        ]
        singles = [[(k, o)] for k in range(n) for o in (0, 1)]
        for outcomes in joints + singles:
            engine = descriptors.joint_measure(net, outcomes)
            oracle = statevector.outcome_probability(state, outcomes)
            deviation = abs(engine - oracle)
            checked += 1
            if deviation > max_deviation:
                max_deviation = deviation
                worst = f"circuit {index}, n={n}, outcomes {outcomes}"
            order_gap = 0.0
            if len(outcomes) > 1:
                order_gap = abs(descriptors.joint_measure(net, outcomes[::-1]) - engine)
            if order_gap > DEFAULT_TOL:
                order_failures.append(f"circuit {index}, outcomes {outcomes} by {order_gap:.3e}")
            if deviation > tol or order_gap > DEFAULT_TOL:
                failures += 1
    detail = (
        f"{checked} joint measures across {n_circuits} circuits, "
        f"max deviation {max_deviation:.3e}, {len(order_failures)} order failures"
    )
    if max_deviation > tol:
        detail += f"; worst at {worst}"
    if order_failures:
        detail += f"; reversed order changed {order_failures[0]}"
    return SuiteResult(failures == 0, checked, failures, max_deviation, detail)


def locality_suite(
    n_circuits: int = 500,
    max_qubits: int = 4,
    max_depth: int = 20,
    seed: int = DEFAULT_SUITE_SEED + 1,
) -> SuiteResult:
    """Audit descriptor locality against random remote circuits.

    Each trial draws a prelude of gates anywhere (so the watched descriptor
    is generally nontrivial) and a remote circuit avoiding the watched
    qubit; its stored sums must come back exactly unchanged and must match
    recomputation from the whole circuit's unitary.  `n_circuits` and
    `max_depth` must be at least 1 and `max_qubits` in [2, MAX_QUBITS]
    (a remote circuit needs a qubit besides the watched one); anything else
    is a ValueError.
    """
    _check_suite_size(n_circuits, max_qubits, max_depth, min_qubits=2)
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n_circuits):
        n = int(rng.integers(2, max_qubits + 1))
        watched = int(rng.integers(n))
        others = tuple(k for k in range(n) if k != watched)
        prelude_depth = int(rng.integers(0, max_depth + 1))
        remote_depth = int(rng.integers(1, max_depth + 1))
        prelude = random_circuit(rng, n, prelude_depth)
        remote_ops = random_circuit(rng, n, remote_depth, allowed=others)
        if not descriptors.locality_audit(n, prelude, watched, remote_ops):
            failures += 1
    detail = f"{n_circuits} remote circuits audited, {failures} locality violations"
    return SuiteResult(failures == 0, n_circuits, failures, 0.0, detail)
