"""Randomized verification suites: picture equivalence and locality.

Both suites generate random circuits from a seeded generator and check the
descriptor engine against an independent standard.  Picture equivalence
compares every joint outcome measure with the state-vector oracle and
checks that each multi-qubit record gives the same measure in reversed
order (the outcome projectors commute).  It takes each qubit order's
records from one batch call per route, :func:`descriptors.record_measures`
and :func:`statevector.record_probabilities`; the single-record
:func:`descriptors.joint_measure` and :func:`statevector.outcome_probability`
read their entries from these.  Locality checks that gates avoiding
a watched qubit leave its stored descriptor untouched bit for bit.  These
are the audits the engine's hot path does not run on every call.  The CLI
`verify` subcommand, the benchmark and the acceptance tests all run these
at one circuit size, so a suite takes only a circuit count and a seed: the
register and depth bounds and the tolerance are the constants below.

Each suite reads every draw (register size, depths, watched qubit and
gates) through one :class:`_Draws` over its seeded PCG64 generator, which
turns raw 64-bit words fetched in blocks into exactly the values numpy's
per-call ``integers``, ``uniform`` and ``choice`` would give, in the same
order, so the circuits are the ones those calls draw.
:func:`random_circuit` draws one circuit the same way and leaves its
generator where the per-call draws would.
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


def _suite_rng(n_circuits: int, seed: int) -> np.random.Generator:
    """A suite's generator, once its circuit count and its seed (an int >= 0) are checked."""
    check_circuit_count(n_circuits)
    seed = descriptors.as_index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


class _Draws:
    """Draws a PCG64 `Generator` would make, read from its raw 64-bit words.

    Words are fetched `block` at a time with ``bit_generator.random_raw`` and
    turned into exactly the values numpy's per-call methods give, in the
    same order: :meth:`bounded` is ``integers`` (Lemire's method on the
    generator's buffered 32-bit halves, low half first), :meth:`uniform` is
    ``uniform`` and :meth:`pair` is ``choice(m, 2, replace=False)``.  The
    generator runs ahead by up to a block meanwhile; :meth:`sync` sets it to
    the state the per-call draws would have left.  Nothing else may draw
    from the generator between construction and :meth:`sync`.
    """

    def __init__(self, rng: np.random.Generator, block: int = 256):
        # Another bit generator's words, or its 32-bit buffer, are not PCG64's.
        if not (
            isinstance(rng, np.random.Generator) and isinstance(rng.bit_generator, np.random.PCG64)
        ):
            raise ValueError(f"rng must be a numpy Generator over PCG64, got {rng!r}")
        self._bit_generator = rng.bit_generator
        self._start = self._bit_generator.state
        self._block = block
        self._words: list[int] = []
        self._at = 0
        self._fetched = 0
        self._has_half = bool(self._start["has_uint32"])
        self._half = self._start["uinteger"]

    def _word(self) -> int:
        """The next raw 64-bit word."""
        if self._at == len(self._words):
            self._words = self._bit_generator.random_raw(self._block).tolist()
            self._fetched += self._block
            self._at = 0
        self._at += 1
        return self._words[self._at - 1]

    def _uint32(self) -> int:
        """The next 32-bit half: a buffered high half, else a new word's low half."""
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._has_half, self._half = True, word >> 32
        return word & 0xFFFFFFFF

    def bounded(self, top: int) -> int:
        """An int in [0, top], for 0 <= top < 2**32; top == 0 draws nothing.

        ``integers(low, high)`` is ``low + bounded(high - 1 - low)``.  A
        product whose low 32 bits fall below 2**32 mod (top + 1) is rejected
        and drawn again, as in numpy.
        """
        if top == 0:
            return 0
        span = top + 1
        threshold = 0x100000000 % span
        while True:
            m = self._uint32() * span
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high) from one whole word; the 32-bit buffer is kept."""
        return low + (high - low) * ((self._word() >> 11) * 2**-53)

    def pair(self, m: int) -> tuple[int, int]:
        """Two distinct ints in [0, m), m >= 2: ``choice(m, 2, replace=False)``.

        Floyd's two steps, then the one-step shuffle, which swaps the pair
        when its draw is 0.
        """
        first = self.bounded(m - 2)
        second = self.bounded(m - 1)
        if second == first:
            second = m - 1
        return (second, first) if self.bounded(1) == 0 else (first, second)

    def sync(self) -> None:
        """Set the generator to the state the per-call draws would leave."""
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(self._fetched - len(self._words) + self._at)
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        bit_generator.state = state


def random_circuit(
    rng: np.random.Generator,
    n: int,
    depth: int,
    allowed: tuple[int, ...] | None = None,
) -> list[GateSpec]:
    """Random gate sequence on an n-qubit register.

    `allowed` restricts the qubits gates may target (default: all); it must
    hold distinct indices in [0, n).  CNOTs appear only when two targets are
    available.  `depth` must be an int >= 0, and `rng` a numpy `Generator`
    over `PCG64` (what ``np.random.default_rng`` returns): the draws are
    read from its raw words by :class:`_Draws`, and the generator is left
    where numpy's own per-gate calls would leave it.  Every check runs
    before the first draw, and each failure is a ValueError naming its
    argument.
    """
    n = descriptors.as_index(n, "n")
    depth = descriptors.as_index(depth, "depth")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if allowed is None:
        targets = tuple(range(n))
    else:
        targets = tuple([
            descriptors.as_index(q, "allowed") for q in descriptors.as_items(allowed, "allowed")
        ])
        if not all(0 <= q < n for q in targets):
            raise ValueError(f"allowed qubits must be in [0, {n}), got {list(targets)}")
        if len(set(targets)) < len(targets):
            raise ValueError(f"allowed qubits must be distinct, got {list(targets)}")
    if not targets:
        raise ValueError("need at least one allowed qubit")
    draws = _Draws(rng)
    gates = _draw_circuit(draws, targets, depth)
    draws.sync()
    return gates


def _draw_circuit(draws: _Draws, targets: tuple[int, ...], depth: int) -> list[GateSpec]:
    """`depth` random gates on `targets` (checked, nonempty), drawn through `draws`.

    Per gate: a name, then a CNOT's (control, target) pair, a ROTY's angle
    in [-pi, pi) and target, or another gate's target.
    """
    names = descriptors.GATE_NAMES if len(targets) >= 2 else descriptors.GATE_NAMES[:-1]
    gates = []
    for _ in range(depth):
        name = names[draws.bounded(len(names) - 1)]
        if name == "CNOT":
            control, target = draws.pair(len(targets))
            gates.append(GateSpec.cnot(targets[control], targets[target]))
        elif name == "ROTY":
            theta = draws.uniform(-math.pi, math.pi)
            gates.append(GateSpec.roty(theta, targets[draws.bounded(len(targets) - 1)]))
        else:
            gates.append(GateSpec(name, (targets[draws.bounded(len(targets) - 1)],)))
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
    least 1 and `seed` an int of at least 0; anything else is a ValueError.
    """
    draws = _Draws(_suite_rng(n_circuits, seed))
    failures = 0
    checked = 0
    max_deviation = 0.0
    worst = ""
    order_failures = []
    for index in range(n_circuits):
        n = 1 + draws.bounded(SUITE_MAX_QUBITS - 1)
        depth = 1 + draws.bounded(SUITE_MAX_DEPTH - 1)
        gates = _draw_circuit(draws, tuple(range(n)), depth)
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
    an int of at least 1 and `seed` an int of at least 0; anything else is
    a ValueError.
    """
    draws = _Draws(_suite_rng(n_circuits, seed))
    failures = 0
    for _ in range(n_circuits):
        n = 2 + draws.bounded(SUITE_MAX_QUBITS - 2)
        watched = draws.bounded(n - 1)
        others = tuple(k for k in range(n) if k != watched)
        prelude_depth = draws.bounded(SUITE_MAX_DEPTH)
        remote_depth = 1 + draws.bounded(SUITE_MAX_DEPTH - 1)
        prelude = _draw_circuit(draws, tuple(range(n)), prelude_depth)
        remote_ops = _draw_circuit(draws, others, remote_depth)
        if not descriptors.locality_audit(n, prelude, watched, remote_ops):
            failures += 1
    detail = f"{n_circuits} remote circuits audited, {failures} locality violations"
    return SuiteResult(failures == 0, n_circuits, failures, 0.0, detail)
