"""Randomized verification suites: picture equivalence and locality.

Both suites generate random circuits from a seeded generator and check the
descriptor engine against an independent standard.  Picture equivalence
compares every joint outcome measure with the state-vector oracle and
checks that each multi-qubit record gives the same measure in reversed
order (the outcome projectors commute).  It takes each qubit order's
records from one batch call per route, :func:`descriptors.record_measures`
and :func:`statevector.record_probabilities`, each entry bit-identical to
the per-record :func:`descriptors.joint_measure` and
:func:`statevector.outcome_probability`.  Locality checks that gates avoiding
a watched qubit leave its stored descriptor untouched bit for bit.  These
are the audits the engine's hot path does not run on every call.  The CLI
`verify` subcommand, the benchmark and the acceptance tests all run these
at one circuit size, so a suite takes only a circuit count and a seed: the
register and depth bounds and the tolerance are the constants below.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import descriptors, statevector
from .descriptors import GateSpec
from .linalg import DEFAULT_TOL

#: Joint-measure agreement tolerance between the two pictures.
EQUIVALENCE_TOL = 1e-9

#: Largest register and deepest circuit a suite draws.  The registers stay
#: within the dense routes' MAX_QUBITS.
SUITE_MAX_QUBITS = 4
SUITE_MAX_DEPTH = 20

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
    """Reject a suite circuit count that is not an int or would check nothing."""
    if descriptors.as_index(n_circuits, "n_circuits") < 1:
        raise ValueError(f"n_circuits must be >= 1, got {n_circuits}")


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


def _record(qubits: list[int], j: int) -> list[tuple[int, int]]:
    """Record j on `qubits` as (qubit, outcome) pairs, qubits[0]'s bit most significant."""
    k = len(qubits)
    return [(q, (j >> (k - 1 - i)) & 1) for i, q in enumerate(qubits)]


def picture_equivalence_suite(
    n_circuits: int = 1000, seed: int = DEFAULT_SUITE_SEED
) -> SuiteResult:
    """Compare descriptor measures against the oracle on random circuits.

    Each circuit has 1 to SUITE_MAX_QUBITS qubits and 1 to SUITE_MAX_DEPTH
    gates.  Every full joint outcome (all 2**n of them, on qubits 0..n-1)
    and every single-qubit marginal is computed by both routes, one batch
    call per route and qubit order; any deviation beyond EQUIVALENCE_TOL is
    a failure.  Every multi-qubit record is also evaluated by the engine in
    reversed order (one more batch call on the reversed qubits), and a
    change beyond the default tolerance is a failure as well: the order
    independence of commuting projectors.  `n_circuits` must be an int of at
    least 1; anything else is a ValueError.
    """
    check_circuit_count(n_circuits)
    rng = np.random.default_rng(seed)
    failures = 0
    checked = 0
    max_deviation = 0.0
    worst = ""
    order_failures = []
    for index in range(n_circuits):
        n = int(rng.integers(1, SUITE_MAX_QUBITS + 1))
        depth = int(rng.integers(1, SUITE_MAX_DEPTH + 1))
        gates = random_circuit(rng, n, depth)
        net = descriptors.apply_circuit(descriptors.init_network(n), gates)
        state = statevector.run_circuit(n, gates)
        for qubits in [list(range(n))] + [[k] for k in range(n)]:
            k = len(qubits)
            engine = descriptors.record_measures(net, qubits)
            oracle = statevector.record_probabilities(state, qubits)
            backward = descriptors.record_measures(net, qubits[::-1]) if k > 1 else None
            for j, (measure, probability) in enumerate(zip(engine, oracle)):
                deviation = abs(measure - probability)
                checked += 1
                if deviation > max_deviation:
                    max_deviation = deviation
                    worst = f"circuit {index}, n={n}, outcomes {_record(qubits, j)}"
                order_gap = 0.0
                if backward is not None:
                    # The reversed record's index spells j's bits backwards.
                    order_gap = abs(backward[int(f"{j:0{k}b}"[::-1], 2)] - measure)
                if order_gap > DEFAULT_TOL:
                    order_failures.append(
                        f"circuit {index}, outcomes {_record(qubits, j)} by {order_gap:.3e}"
                    )
                if deviation > EQUIVALENCE_TOL or order_gap > DEFAULT_TOL:
                    failures += 1
    detail = (
        f"{checked} joint measures across {n_circuits} circuits, "
        f"max deviation {max_deviation:.3e}, {len(order_failures)} order failures"
    )
    if max_deviation > EQUIVALENCE_TOL:
        detail += f"; worst at {worst}"
    if order_failures:
        detail += f"; reversed order changed {order_failures[0]}"
    return SuiteResult(failures == 0, checked, failures, max_deviation, detail)


def locality_suite(n_circuits: int = 500, seed: int = DEFAULT_SUITE_SEED + 1) -> SuiteResult:
    """Audit descriptor locality against random remote circuits.

    Each trial draws 2 to SUITE_MAX_QUBITS qubits (a remote circuit needs a
    qubit besides the watched one), a prelude of up to SUITE_MAX_DEPTH gates
    anywhere (so the watched descriptor is generally nontrivial) and a
    remote circuit of 1 to SUITE_MAX_DEPTH gates avoiding the watched
    qubit; its stored sums must come back exactly unchanged and must match
    recomputation from the whole circuit's unitary.  `n_circuits` must be
    an int of at least 1; anything else is a ValueError.
    """
    check_circuit_count(n_circuits)
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n_circuits):
        n = int(rng.integers(2, SUITE_MAX_QUBITS + 1))
        watched = int(rng.integers(n))
        others = tuple(k for k in range(n) if k != watched)
        prelude_depth = int(rng.integers(0, SUITE_MAX_DEPTH + 1))
        remote_depth = int(rng.integers(1, SUITE_MAX_DEPTH + 1))
        prelude = random_circuit(rng, n, prelude_depth)
        remote_ops = random_circuit(rng, n, remote_depth, allowed=others)
        if not descriptors.locality_audit(n, prelude, watched, remote_ops):
            failures += 1
    detail = f"{n_circuits} remote circuits audited, {failures} locality violations"
    return SuiteResult(failures == 0, n_circuits, failures, 0.0, detail)
