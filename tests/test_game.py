"""Tests for the CHSH game layer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chsh_local import descriptors, game
from chsh_local.game import (
    QUANTUM_WIN_RATE,
    QUESTION_PAIRS,
    DeterministicStrategy,
    QuantumProtocol,
    QuestionPair,
)

COS2_PI_8 = math.cos(math.pi / 8.0) ** 2
SIN2_PI_8 = math.sin(math.pi / 8.0) ** 2


class TestWinPredicate:
    def test_matching_answers_win_on_zero_questions(self):
        assert game.win_predicate(QuestionPair(0, 0), 0, 0)
        assert game.win_predicate(QuestionPair(0, 1), 1, 1)

    def test_one_one_requires_disagreement(self):
        assert game.win_predicate(QuestionPair(1, 1), 0, 1)
        assert not game.win_predicate(QuestionPair(1, 1), 1, 1)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            game.win_predicate(QuestionPair(0, 2), 0, 0)
        with pytest.raises(ValueError):
            game.win_predicate(QuestionPair(0, 0), -1, 0)


class TestStrategies:
    def test_sixteen_strategies_lexicographic(self):
        strategies = game.all_strategies()
        assert len(strategies) == 16
        assert strategies[0] == DeterministicStrategy(0, 0, 0, 0)
        assert strategies[-1] == DeterministicStrategy(1, 1, 1, 1)
        assert len(set(strategies)) == 16

    def test_all_zero_rate(self):
        assert game.strategy_win_rate(DeterministicStrategy(0, 0, 0, 0)) == Fraction(3, 4)

    def test_armlock_strategy_loses_exactly_one_pair(self):
        # a0=1, a1=0, b0=1, b1=1: wins three pairs, loses only (1, 0),
        # where both are forced to answer and the answers differ.
        s = DeterministicStrategy(1, 0, 1, 1)
        assert game.strategy_win_rate(s) == Fraction(3, 4)
        losses = [q for q in QUESTION_PAIRS if not game.win_predicate(q, *s.answers(q))]
        assert losses == [QuestionPair(1, 0)]

    def test_anticorrelated_bob_rate(self):
        # Frozen from exhaustive enumeration: (0,0,1,1) wins only (1,1).
        s = DeterministicStrategy(0, 0, 1, 1)
        assert game.strategy_win_rate(s) == Fraction(1, 4)
        wins = [q for q in QUESTION_PAIRS if game.win_predicate(q, *s.answers(q))]
        assert wins == [QuestionPair(1, 1)]

    def test_rates_are_exact_fractions(self):
        for s in game.all_strategies():
            rate = game.strategy_win_rate(s)
            assert isinstance(rate, Fraction)
            assert rate in (Fraction(1, 4), Fraction(3, 4))

    def test_rejects_non_bit_strategy(self):
        with pytest.raises(ValueError):
            game.strategy_win_rate(DeterministicStrategy(0, 0, 0, 2))


class TestClassicalOptimum:
    def test_optimum_is_exactly_three_quarters(self):
        best, optima = game.classical_optimum()
        assert best == Fraction(3, 4)
        assert isinstance(best, Fraction)

    def test_eight_optimal_strategies_including_all_zero(self):
        _, optima = game.classical_optimum()
        assert len(optima) == 8
        assert DeterministicStrategy(0, 0, 0, 0) in optima

    def test_no_strategy_wins_every_pair(self):
        assert all(game.strategy_win_rate(s) < 1 for s in game.all_strategies())

    def test_every_strategy_wins_odd_number_of_pairs(self):
        # Forcing wins on three pairs forces a loss on the fourth: the win
        # count of any answer table is odd.
        for s in game.all_strategies():
            wins = sum(game.win_predicate(q, *s.answers(q)) for q in QUESTION_PAIRS)
            assert wins in (1, 3)


class TestMixedStrategies:
    def test_uniform_mixture_is_half(self):
        assert game.mixed_strategy_rate([Fraction(1, 16)] * 16) == Fraction(1, 2)

    def test_point_mass_on_all_zero(self):
        weights = [Fraction(0)] * 16
        weights[0] = Fraction(1)
        assert game.mixed_strategy_rate(weights) == Fraction(3, 4)

    def test_even_split_of_two_optima_stays_at_ceiling(self):
        _, optima = game.classical_optimum()
        strategies = game.all_strategies()
        weights = [Fraction(0)] * 16
        weights[strategies.index(optima[0])] = Fraction(1, 2)
        weights[strategies.index(optima[1])] = Fraction(1, 2)
        assert game.mixed_strategy_rate(weights) <= Fraction(3, 4)

    def test_invalid_distributions_rejected(self):
        with pytest.raises(ValueError):
            game.mixed_strategy_rate([Fraction(1, 8)] * 8)
        with pytest.raises(ValueError):
            game.mixed_strategy_rate([Fraction(1, 15)] * 16)
        bad = [Fraction(1, 8)] * 16
        bad[0] = Fraction(-1, 8)
        bad[1] = Fraction(3, 8)
        with pytest.raises(ValueError):
            game.mixed_strategy_rate(bad)

    def test_string_and_float_weights_accepted(self):
        weights = ["1/16"] * 16
        assert game.mixed_strategy_rate(weights) == Fraction(1, 2)
        assert game.mixed_strategy_rate([0.0625] * 16) == Fraction(1, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=16, max_size=16))
    def test_random_mixtures_never_beat_ceiling(self, raw):
        total = sum(raw)
        if total == 0:
            raw[0] = 1
            total = 1
        weights = [Fraction(w, total) for w in raw]
        assert game.mixed_strategy_rate(weights) <= Fraction(3, 4)


class TestQuantumProtocol:
    def test_default_protocol_constructs(self):
        p = game.default_protocol()
        assert p.theta_a0 == 0.0
        assert p.theta_a1 == pytest.approx(math.pi / 2.0)

    def test_suboptimal_angles_rejected_at_construction(self):
        with pytest.raises(ValueError, match="construction error"):
            QuantumProtocol(0.0, 0.0, 0.0, 0.0)

    def test_nonfinite_angles_rejected(self):
        # Also a str, None or a bool: each bad angle is a ValueError naming it.
        for index, name, bad in [
            (1, "theta_a1", math.inf),
            (0, "theta_a0", "a"),
            (2, "theta_b0", None),
            (3, "theta_b1", True),
        ]:
            angles = list(game.CANONICAL_ANGLES)
            angles[index] = bad
            with pytest.raises(ValueError, match=f"{name} needs a finite real angle, got {bad!r}"):
                QuantumProtocol(*angles)

    def test_oracle_value_on_all_pairs(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            w = game.oracle_win_probability(p.alice_angle(q.qa), p.bob_angle(q.qb), q)
            assert w == pytest.approx(QUANTUM_WIN_RATE, abs=1e-12)

    def test_descriptor_route_agrees_with_oracle(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            engine = game.branch_tree(p, q).win_measure()
            oracle = game.oracle_win_probability(p.alice_angle(q.qa), p.bob_angle(q.qb), q)
            assert engine == pytest.approx(oracle, abs=1e-12)

    def test_quantum_beats_classical_ceiling(self):
        assert QUANTUM_WIN_RATE > 0.75
        assert QUANTUM_WIN_RATE == pytest.approx(COS2_PI_8, abs=1e-15)


class TestRoundNetwork:
    def test_marginals_are_even(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            net = game.build_round_network(p, q)
            for qubit in (0, 1):
                assert descriptors.branch_measure(net, (qubit, 0)) == pytest.approx(
                    0.5, abs=1e-10
                )

    def test_rotation_order_gives_identical_descriptors(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            net = game.build_round_network(p, q)
            gates = p.round_gates(q)
            prep, (rot_a, rot_b) = gates[:2], gates[2:]
            swapped = descriptors.apply_circuit(
                descriptors.init_network(2), prep + [rot_b, rot_a]
            )
            for d, d_swapped in zip(net.descriptors, swapped.descriptors):
                for c, c_swapped in ((d.qx, d_swapped.qx), (d.qz, d_swapped.qz)):
                    assert np.array_equal(
                        descriptors.to_dense(c, 2), descriptors.to_dense(c_swapped, 2)
                    )

    def test_swapped_rotations_give_an_equal_network(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            gates = p.round_gates(q)
            prep, (rot_a, rot_b) = gates[:2], gates[2:]
            swapped = descriptors.apply_circuit(
                descriptors.init_network(2), prep + [rot_b, rot_a]
            )
            assert swapped == game.build_round_network(p, q)

    def test_no_cross_qubit_gate_after_prep(self):
        gates = game.default_protocol().round_gates(QuestionPair(1, 0))
        assert len(gates) == 4
        for g in gates[2:]:
            assert len(g.targets) == 1

    def test_no_signalling_descriptors_are_exact(self):
        # Stronger than the marginals' 1e-10: each player's descriptor is
        # bit-identical whatever the other player was asked.
        p = game.default_protocol()
        nets = {q: game.build_round_network(p, q) for q in QUESTION_PAIRS}
        for own in (0, 1):
            alice = [nets[QuestionPair(own, qb)].descriptors[0] for qb in (0, 1)]
            bob = [nets[QuestionPair(qa, own)].descriptors[1] for qa in (0, 1)]
            assert alice[0] == alice[1]
            assert bob[0] == bob[1]

    def test_no_signalling_marginals(self):
        p = game.default_protocol()
        for qa in (0, 1):
            for outcome in (0, 1):
                measures = [
                    descriptors.branch_measure(
                        game.build_round_network(p, QuestionPair(qa, qb)), (0, outcome)
                    )
                    for qb in (0, 1)
                ]
                assert abs(measures[0] - measures[1]) < 1e-10
        for qb in (0, 1):
            for outcome in (0, 1):
                measures = [
                    descriptors.branch_measure(
                        game.build_round_network(p, QuestionPair(qa, qb)), (1, outcome)
                    )
                    for qa in (0, 1)
                ]
                assert abs(measures[0] - measures[1]) < 1e-10


class TestBranchTree:
    def test_conditionals_split_85_15(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            tree = game.branch_tree(p, q)
            for node in tree.branches:
                conditionals = sorted(leaf.conditional for leaf in node.leaves)
                assert conditionals[0] == pytest.approx(SIN2_PI_8, abs=1e-9)
                assert conditionals[1] == pytest.approx(COS2_PI_8, abs=1e-9)
                winner = max(node.leaves, key=lambda leaf: leaf.conditional)
                assert winner.win

    def test_conditionals_equal_conditional_measure_exactly(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            net = game.build_round_network(p, q)
            for perspective, first in (("alice", 0), ("bob", 1)):
                tree = game.branch_tree(p, q, perspective=perspective)
                for node in tree.branches:
                    for leaf in node.leaves:
                        second_outcome = leaf.bob_outcome if first == 0 else leaf.alice_outcome
                        assert leaf.conditional == descriptors.conditional_measure(
                            net, (first, node.outcome), (1 - first, second_outcome)
                        )

    def test_win_measure_equals_quantum_value(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            assert game.branch_tree(p, q).win_measure() == pytest.approx(
                QUANTUM_WIN_RATE, abs=1e-9
            )

    def test_leaf_measures_sum_to_one(self):
        tree = game.branch_tree(game.default_protocol(), QuestionPair(0, 1))
        assert sum(leaf.measure for leaf in tree.leaves()) == pytest.approx(1.0, abs=1e-9)

    def test_one_one_wins_on_disagreement(self):
        tree = game.branch_tree(game.default_protocol(), QuestionPair(1, 1))
        for leaf in tree.leaves():
            assert leaf.win == (leaf.alice_outcome != leaf.bob_outcome)

    def test_both_perspectives_agree_on_leaves(self):
        p = game.default_protocol()
        for q in QUESTION_PAIRS:
            alice = game.branch_tree(p, q, perspective="alice").leaves()
            bob = game.branch_tree(p, q, perspective="bob").leaves()
            for la, lb in zip(alice, bob):
                assert (la.alice_outcome, la.bob_outcome) == (lb.alice_outcome, lb.bob_outcome)
                assert la.measure == pytest.approx(lb.measure, abs=1e-9)
                assert la.win == lb.win

    def test_leaf_lookup(self):
        tree = game.branch_tree(game.default_protocol(), QuestionPair(0, 0))
        leaf = tree.leaf(1, 0)
        assert (leaf.alice_outcome, leaf.bob_outcome) == (1, 0)
        with pytest.raises(ValueError):
            tree.leaf(2, 0)

    def test_invalid_perspective_rejected(self):
        with pytest.raises(ValueError):
            game.branch_tree(game.default_protocol(), QuestionPair(0, 0), perspective="eve")

    def test_conservation_enforced_at_construction(self):
        good = game.branch_tree(game.default_protocol(), QuestionPair(0, 0))
        bad_node = game.BranchNode(
            outcome=0, measure=0.9, leaves=good.branches[0].leaves
        )
        with pytest.raises(ValueError):
            game.BranchTree(
                question=QuestionPair(0, 0),
                perspective="alice",
                root_measure=1.0,
                branches=(bad_node, good.branches[1]),
            )

    @staticmethod
    def hand_tree(root=1.0, measures=(0.5, 0.5), leaves=((0.25, 0.5), (0.25, 0.5))):
        """A tree on question (0, 0) whose branch 0 leaves are `(measure,
        conditional)` pairs; branch 1's leaves are half its measure each."""
        first = game.BranchNode(0, measures[0], tuple(
            game.BranchLeaf(0, b, conditional, measure, b == 0)
            for b, (measure, conditional) in enumerate(leaves)
        ))
        second = game.BranchNode(1, measures[1], tuple(
            game.BranchLeaf(1, b, 0.5, measures[1] / 2, b == 1) for b in (0, 1)
        ))
        return game.BranchTree(QuestionPair(0, 0), "alice", root, (first, second))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"root": 0.5}, "root measure must be 1, got 0.5"),
            ({"measures": (0.5, 0.25)}, "first-level measures sum to 0.75, not the root"),
            ({"leaves": ((0.25, 0.5), (0.125, 0.25))},
             "leaves of branch 0 sum to 0.375, not the branch measure 0.5"),
            ({"leaves": ((0.25, 0.75), (0.25, 0.25))},
             "leaf (0, 0) measure disagrees with parent times conditional"),
        ],
        ids=["root", "branches", "leaves", "leaf-conditional"],
    )
    def test_each_conservation_refusal_names_what_broke(self, kwargs, message):
        assert self.hand_tree().root_measure == 1.0
        with pytest.raises(ValueError) as got:
            self.hand_tree(**kwargs)
        assert str(got.value) == message


class TestRedundancyDemo:
    def test_no_witnesses_full_visibility(self):
        assert game.redundancy_demo(0) == pytest.approx(1.0, abs=1e-9)
        # H twice swaps (qx, qz) twice under the local update rule: exact.
        assert game.redundancy_demo(0) == 1.0

    def test_single_witness_kills_interference(self):
        assert game.redundancy_demo(1) == pytest.approx(0.0, abs=1e-9)

    def test_five_witnesses(self):
        assert game.redundancy_demo(5) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("m", [1000, descriptors.MAX_NETWORK_QUBITS - 1])
    def test_many_witnesses_up_to_the_network_cap(self, m):
        assert game.redundancy_demo(m) == 0.0

    def test_range_and_type_errors(self):
        with pytest.raises(ValueError, match="witness count must be >= 0, got -1"):
            game.redundancy_demo(-1)
        cap = descriptors.MAX_NETWORK_QUBITS
        message = f"qubit count {cap + 1} exceeds the network cap MAX_NETWORK_QUBITS = {cap}"
        with pytest.raises(ValueError, match=message):
            game.redundancy_demo(cap)
        with pytest.raises(ValueError):
            game.redundancy_demo(1.5)
        with pytest.raises(ValueError):
            game.redundancy_demo(True)
