"""The CHSH game: classical ceiling, quantum protocol, and branch bookkeeping.

Two cooperating players each receive a uniformly random question bit and must
answer with one bit each, without communicating.  They win when their answers
agree, unless both questions are 1, in which case they must disagree.

Three results of the game live here, each with its own machinery:

* Classical analysis in exact rational arithmetic: every deterministic
  strategy is a 4-bit answer table, there are exactly 16 of them, and
  exhaustive enumeration shows none wins more than 3 of the 4 question
  pairs.  The 3/4 ceiling extends to arbitrary mixtures by convexity.
* The quantum protocol: a Bell pair plus question-dependent local basis
  rotations wins every question pair with probability (2+sqrt(2))/4, about
  0.8536.  The protocol object verifies this value against the state-vector
  oracle at construction, so a convention mismatch anywhere in the stack
  fails loudly instead of skewing statistics.
* Branch bookkeeping: per-round outcome measures arranged as a two-level
  tree (one player's split, then the other's conditional split), the raw
  material for the tournament harness and its reports.

The redundancy demo rounds out the module: copying one qubit's state to m
witness qubits kills the interference visibility for any m >= 1, the
mechanism that makes recorded outcomes behave classically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import descriptors, statevector
from .descriptors import DescriptorNetwork, GateSpec

#: Tolerance for the protocol's per-pair win probability at construction.
PROTOCOL_TOL = 1e-9

#: Tolerance for branch-tree measure conservation checks.
CONSERVATION_TOL = 1e-9

#: The quantum win rate (2+sqrt(2))/4 = cos^2(pi/8).  Never asserted blindly:
#: protocol construction re-derives it from the oracle.
QUANTUM_WIN_RATE = (2.0 + math.sqrt(2.0)) / 4.0

#: The classical ceiling as an exact rational.
CLASSICAL_CEILING = Fraction(3, 4)


class QuestionPair(NamedTuple):
    """One round's questions, a bit for each player."""

    qa: int
    qb: int


class DeterministicStrategy(NamedTuple):
    """A pre-agreed answer table: each player's answer to each question."""

    a0: int
    a1: int
    b0: int
    b1: int

    def answers(self, q: QuestionPair) -> tuple[int, int]:
        """Both players' answers to a question pair under this table."""
        aa = self.a1 if q.qa else self.a0
        ab = self.b1 if q.qb else self.b0
        return aa, ab


#: All four question pairs in lexicographic order.
QUESTION_PAIRS = (
    QuestionPair(0, 0),
    QuestionPair(0, 1),
    QuestionPair(1, 0),
    QuestionPair(1, 1),
)


def _check_bit(value, name: str) -> int:
    value = descriptors.as_index(value, name)
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return value


def win_predicate(q: QuestionPair, aa: int, ab: int) -> bool:
    """True iff the answers win: XOR of answers equals AND of questions."""
    qa, qb = q
    qa = _check_bit(qa, "qa")
    qb = _check_bit(qb, "qb")
    aa = _check_bit(aa, "aa")
    ab = _check_bit(ab, "ab")
    return (aa ^ ab) == (qa & qb)


def all_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 16 deterministic strategies, lexicographic in (a0, a1, b0, b1)."""
    return tuple(
        DeterministicStrategy(*bits) for bits in itertools.product((0, 1), repeat=4)
    )


def strategy_win_rate(s: DeterministicStrategy) -> Fraction:
    """Exact win rate of a strategy over uniformly random question pairs."""
    s = DeterministicStrategy(*(_check_bit(b, f"strategy bit {i}") for i, b in enumerate(s)))
    wins = sum(win_predicate(q, *s.answers(q)) for q in QUESTION_PAIRS)
    return Fraction(wins, len(QUESTION_PAIRS))


def classical_optimum() -> tuple[Fraction, list[DeterministicStrategy]]:
    """Best deterministic win rate and every strategy attaining it.

    Exhaustive scan of the 16 strategies in exact arithmetic; no strategy
    wins all four pairs, so the optimum is 3/4.
    """
    table = [(s, strategy_win_rate(s)) for s in all_strategies()]
    best = max(rate for _, rate in table)
    optima = [s for s, rate in table if rate == best]
    return best, optima


def mixed_strategy_rate(weights: Sequence) -> Fraction:
    """Exact win rate of a probability mixture over the 16 strategies.

    Weights follow :func:`all_strategies` order and may be ints, Fractions,
    floats, or strings like "1/16"; they must be nonnegative and sum to 1
    exactly.  By convexity the result never exceeds 3/4.
    """
    ws = [Fraction(w) for w in weights]
    if len(ws) != 16:
        raise ValueError(f"need one weight per strategy (16), got {len(ws)}")
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    total = sum(ws)
    if total != 1:
        raise ValueError(f"weights must sum to 1 exactly, got {total}")
    rate = sum(w * strategy_win_rate(s) for w, s in zip(ws, all_strategies()))
    if rate > CLASSICAL_CEILING:
        raise RuntimeError(f"convexity violated: mixture rate {rate} exceeds 3/4")
    return rate


@dataclass(frozen=True)
class QuantumProtocol:
    """Bell-pair protocol: question-dependent basis rotations before readout.

    Each player holds one qubit of a Bell pair prepared by H on qubit 0 and
    CNOT from 0 to 1.  On question q, Alice applies RotY(theta_a[q]) to her
    qubit and Bob RotY(theta_b[q]) to his, then both read out in the z
    basis; the outcome bit is the answer bit.

    Construction verifies, against the state-vector oracle, that every
    question pair wins with probability (2+sqrt(2))/4 within 1e-9.  A sign
    or factor-of-2 slip in any rotation convention fails here instead of
    quietly shifting every downstream statistic.
    """

    theta_a0: float
    theta_a1: float
    theta_b0: float
    theta_b1: float

    def __post_init__(self):
        angles = (self.theta_a0, self.theta_a1, self.theta_b0, self.theta_b1)
        if not all(math.isfinite(a) for a in angles):
            raise ValueError(f"protocol angles must be finite, got {angles}")
        for q in QUESTION_PAIRS:
            p_win = oracle_win_probability(self.alice_angle(q.qa), self.bob_angle(q.qb), q)
            if abs(p_win - QUANTUM_WIN_RATE) > PROTOCOL_TOL:
                raise ValueError(
                    f"construction error: question pair {tuple(q)} wins with "
                    f"probability {p_win:.12f}, expected {QUANTUM_WIN_RATE:.12f}; "
                    "rotation conventions have drifted between modules"
                )

    def alice_angle(self, qa: int) -> float:
        return self.theta_a1 if _check_bit(qa, "qa") else self.theta_a0

    def bob_angle(self, qb: int) -> float:
        return self.theta_b1 if _check_bit(qb, "qb") else self.theta_b0

    def round_gates(self, q: QuestionPair) -> list[GateSpec]:
        """Bell prep followed by this round's two local rotations."""
        return bell_prep_gates() + [
            GateSpec.roty(self.alice_angle(q.qa), 0),
            GateSpec.roty(self.bob_angle(q.qb), 1),
        ]


#: Canonical optimal angles: Alice measures at 0 or pi/2, Bob at +/- pi/4.
CANONICAL_ANGLES = (0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)


def default_protocol() -> QuantumProtocol:
    """The canonical optimal protocol; construction re-verifies the value."""
    return QuantumProtocol(*CANONICAL_ANGLES)


def bell_prep_gates() -> list[GateSpec]:
    """Preparation circuit for the shared Bell pair."""
    return [GateSpec.h(0), GateSpec.cnot(0, 1)]


def oracle_win_probability(alice_theta: float, bob_theta: float, q: QuestionPair) -> float:
    """Win probability of one round, computed by the state-vector oracle.

    Independent of the descriptor engine: prepares the Bell pair, applies
    the two given rotations, and sums Born-rule probabilities over the
    winning outcome pairs.
    """
    state = statevector.run_circuit(2, bell_prep_gates() + [
        GateSpec.roty(alice_theta, 0),
        GateSpec.roty(bob_theta, 1),
    ])
    probabilities = statevector.record_probabilities(state, [0, 1])
    total = 0.0
    for aa in (0, 1):
        for ab in (0, 1):
            if win_predicate(q, aa, ab):
                total += probabilities[2 * aa + ab]
    return total


def build_round_network(p: QuantumProtocol, q: QuestionPair) -> DescriptorNetwork:
    """Descriptor network for one round: Bell prep plus both local rotations.

    The two question-dependent rotations act on different qubits, and the
    local update rule rewrites only a gate's own targets, so either order
    gives bit-identical descriptors by construction; the network is built
    once.  The locality suite in :mod:`chsh_local.verify` checks that
    property on random circuits.
    """
    return descriptors.apply_circuit(descriptors.init_network(2), p.round_gates(q))


@dataclass(frozen=True)
class BranchLeaf:
    """One joint outcome: both answer bits, its measures, and the win tag.

    `conditional` is the leaf's share within its parent branch; `measure`
    is the absolute weight of the history.
    """

    alice_outcome: int
    bob_outcome: int
    conditional: float
    measure: float
    win: bool


@dataclass(frozen=True)
class BranchNode:
    """First-level branch: one player's outcome and its two refinements."""

    outcome: int
    measure: float
    leaves: tuple[BranchLeaf, BranchLeaf]


@dataclass(frozen=True)
class BranchTree:
    """Two-level branch structure of one round, measures conserved throughout.

    The first split follows `perspective`'s outcome, the second the other
    player's outcome conditioned on the first.  Leaves always carry
    (alice_outcome, bob_outcome) regardless of perspective.  Construction
    enforces conservation: children sum to their parent and leaves sum to
    the root within 1e-9.
    """

    question: QuestionPair
    perspective: str
    root_measure: float
    branches: tuple[BranchNode, BranchNode]

    def __post_init__(self):
        if abs(self.root_measure - 1.0) > CONSERVATION_TOL:
            raise ValueError(f"root measure must be 1, got {self.root_measure}")
        node_total = sum(node.measure for node in self.branches)
        if abs(node_total - self.root_measure) > CONSERVATION_TOL:
            raise ValueError(f"first-level measures sum to {node_total}, not the root")
        for node in self.branches:
            leaf_total = sum(leaf.measure for leaf in node.leaves)
            if abs(leaf_total - node.measure) > CONSERVATION_TOL:
                raise ValueError(
                    f"leaves of branch {node.outcome} sum to {leaf_total}, "
                    f"not the branch measure {node.measure}"
                )
            for leaf in node.leaves:
                if abs(leaf.measure - node.measure * leaf.conditional) > CONSERVATION_TOL:
                    raise ValueError(
                        f"leaf ({leaf.alice_outcome}, {leaf.bob_outcome}) measure "
                        "disagrees with parent times conditional"
                    )

    def leaves(self) -> tuple[BranchLeaf, ...]:
        """All four leaves, ordered by (alice_outcome, bob_outcome)."""
        flat = [leaf for node in self.branches for leaf in node.leaves]
        flat.sort(key=lambda leaf: (leaf.alice_outcome, leaf.bob_outcome))
        return tuple(flat)

    def leaf(self, alice_outcome: int, bob_outcome: int) -> BranchLeaf:
        for candidate in self.leaves():
            if (candidate.alice_outcome, candidate.bob_outcome) == (alice_outcome, bob_outcome):
                return candidate
        raise ValueError(f"no leaf ({alice_outcome}, {bob_outcome})")

    def win_measure(self) -> float:
        """Total measure of the winning leaves: the engine's route to the win probability."""
        return sum(leaf.measure for leaf in self.leaves() if leaf.win)


def branch_tree(p: QuantumProtocol, q: QuestionPair, perspective: str = "alice") -> BranchTree:
    """Branch structure of one round as seen from one player's split order.

    The first level carries the perspective player's marginal measures, the
    second the other player's conditional measures.  The comparison event is
    symmetric, so both perspectives yield the same four leaf measures.
    """
    if perspective not in ("alice", "bob"):
        raise ValueError(f"perspective must be 'alice' or 'bob', got {perspective!r}")
    net = build_round_network(p, q)
    first = 0 if perspective == "alice" else 1
    second = 1 - first
    joints = descriptors.record_measures(net, [first, second])
    nodes = []
    for first_outcome in (0, 1):
        parent = descriptors.branch_measure(net, (first, first_outcome))
        leaves = []
        for second_outcome in (0, 1):
            joint = joints[2 * first_outcome + second_outcome]
            # Exactly the quotient descriptors.conditional_measure would recompute.
            conditional = joint / parent
            if first == 0:
                aa, ab = first_outcome, second_outcome
            else:
                aa, ab = second_outcome, first_outcome
            leaves.append(
                BranchLeaf(
                    alice_outcome=aa,
                    bob_outcome=ab,
                    conditional=conditional,
                    measure=joint,
                    win=win_predicate(q, aa, ab),
                )
            )
        nodes.append(BranchNode(outcome=first_outcome, measure=parent, leaves=tuple(leaves)))
    return BranchTree(
        question=q, perspective=perspective, root_measure=1.0, branches=tuple(nodes)
    )


def redundancy_demo(m: int) -> float:
    """Interference visibility of a branch pair copied to m witness qubits.

    The circuit splits qubit 0 with H, copies its z record onto each of m
    witnesses with CNOTs, then tries to recombine with a second H.  With no
    witnesses the recombination is perfect (visibility 1); a single copied
    record already makes the branches orthogonal and drives the visibility
    to 0.  Returns |measure(outcome 0) - measure(outcome 1)| on qubit 0.
    """
    m = descriptors.as_index(m, "witness count")
    if not 0 <= m <= 10:
        raise ValueError(f"witness count must be in [0, 10], got {m}")
    gates = [GateSpec.h(0)]
    gates += [GateSpec.cnot(0, witness) for witness in range(1, m + 1)]
    gates += [GateSpec.h(0)]
    net = descriptors.apply_circuit(descriptors.init_network(1 + m), gates)
    return abs(
        descriptors.branch_measure(net, (0, 0)) - descriptors.branch_measure(net, (0, 1))
    )
