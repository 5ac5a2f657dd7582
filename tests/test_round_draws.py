"""Vectorised round draws against numpy's per-round Philox streams.

`harness._round_uniforms` computes every round's draws at once; numpy's own
`Philox` generator, built once per round as the harness once did, is the
independent reference route.  `reference_play` keeps that round-by-round
loop so `play_rounds` can be compared with it record for record.
"""

from fractions import Fraction

import numpy as np
import pytest

from chsh_local import game, harness
from chsh_local.game import DeterministicStrategy, QuestionPair
from chsh_local.harness import BLOCK_ROUNDS, PairStats, RoundRecord, TournamentConfig

SEEDS = (0, 7, 2**64 - 1)

#: A valid protocol whose angles differ from the canonical ones.
SHIFTED = game.QuantumProtocol(*(theta + 0.3 for theta in game.CANONICAL_ANGLES))

#: Non-uniform mixture over the 16 strategies, with some zero weights.
WEIGHTS = tuple(Fraction(w, 40) for w in (5, 0, 3, 1, 0, 7, 2, 2, 4, 0, 1, 6, 3, 2, 4, 0))


def reference_uniforms(seed: int, round_id: int) -> np.ndarray:
    key = np.array([seed, round_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(3)


def reference_exact_rates(cfg: TournamentConfig) -> dict:
    """Analytic win rate of each question pair, worked out mode by mode."""
    if cfg.mode == "classical":
        return {q: float(game.win_predicate(q, *cfg.strategy.answers(q)))
                for q in game.QUESTION_PAIRS}
    if cfg.mode == "mixed":
        return {
            q: float(sum(w * game.win_predicate(q, *s.answers(q))
                         for w, s in zip(cfg.weights, game.all_strategies())))
            for q in game.QUESTION_PAIRS
        }
    return {q: game.branch_tree(cfg.protocol, q).win_measure() for q in game.QUESTION_PAIRS}


def reference_play(cfg: TournamentConfig) -> tuple[dict, list[RoundRecord]]:
    """Round-by-round loop with one numpy Philox generator per round."""
    counts = {q: 0 for q in game.QUESTION_PAIRS}
    wins = {q: 0 for q in game.QUESTION_PAIRS}
    records = []
    if cfg.mode == "quantum":
        trees = {q: game.branch_tree(cfg.protocol, q).leaves() for q in game.QUESTION_PAIRS}
    for round_id in range(cfg.rounds):
        u = reference_uniforms(cfg.seed, round_id)
        q = QuestionPair(int(2.0 * u[0]), int(2.0 * u[1]))
        counts[q] += 1
        if cfg.sampling == "exact_measure":
            continue
        leaf_measure = 1.0
        if cfg.mode == "classical":
            aa, ab = cfg.strategy.answers(q)
        elif cfg.mode == "mixed":
            cdf = np.cumsum([float(w) for w in cfg.weights])
            cdf[-1] = 1.0
            strategy = game.all_strategies()[int(np.searchsorted(cdf, u[2], side="right"))]
            aa, ab = strategy.answers(q)
        else:
            leaves = trees[q]
            edges = np.cumsum([leaf.measure for leaf in leaves])
            edges[-1] = 1.0
            leaf = leaves[int(np.searchsorted(edges, u[2], side="right"))]
            aa, ab, leaf_measure = leaf.alice_outcome, leaf.bob_outcome, leaf.measure
        win = game.win_predicate(q, aa, ab)
        wins[q] += win
        records.append(RoundRecord(round_id, q.qa, q.qb, aa, ab, win, leaf_measure))
    if cfg.sampling == "exact_measure":
        rates = reference_exact_rates(cfg)
        wins = {q: round(counts[q] * rates[q]) for q in game.QUESTION_PAIRS}
    else:
        rates = {q: wins[q] / counts[q] if counts[q] else None for q in game.QUESTION_PAIRS}
    per_pair = {
        f"{q.qa}{q.qb}": PairStats(counts[q], wins[q], rates[q]) for q in game.QUESTION_PAIRS
    }
    return per_pair, records


@pytest.mark.parametrize("seed", SEEDS)
def test_round_uniforms_match_numpy_philox(seed):
    last_of_run = 399_999
    round_ids = [0, 1, 2, BLOCK_ROUNDS - 2, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, BLOCK_ROUNDS + 1,
                 3 * BLOCK_ROUNDS - 1, 3 * BLOCK_ROUNDS, last_of_run, 2**64 - 1]
    got = harness._round_uniforms(seed, np.array(round_ids, dtype=np.uint64))
    expected = np.array([reference_uniforms(seed, r) for r in round_ids])
    assert got.shape == (len(round_ids), 3)
    assert np.array_equal(got, expected)


def test_round_uniforms_match_numpy_philox_on_a_whole_block_range():
    round_ids = np.arange(BLOCK_ROUNDS - 300, BLOCK_ROUNDS + 300, dtype=np.uint64)
    got = harness._round_uniforms(123456789, round_ids)
    expected = np.array([reference_uniforms(123456789, r) for r in round_ids])
    assert np.array_equal(got, expected)


CONFIGS = {
    "classical": dict(mode="classical", strategy=DeterministicStrategy(0, 1, 1, 0)),
    "mixed": dict(mode="mixed", weights=WEIGHTS),
    "quantum": dict(mode="quantum", protocol=SHIFTED),
}


@pytest.mark.parametrize("sampling", harness.SAMPLING)
@pytest.mark.parametrize("mode", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_play_rounds_matches_per_round_reference(monkeypatch, mode, sampling, seed):
    # Small blocks, so a short run crosses two block boundaries and ends in a
    # partial block.
    monkeypatch.setattr(harness, "BLOCK_ROUNDS", 64)
    cfg = TournamentConfig(rounds=2 * 64 + 37, seed=seed, sampling=sampling, **CONFIGS[mode])
    report, records = harness.play_rounds(cfg)
    per_pair, expected = reference_play(cfg)
    assert records == expected
    assert report.per_pair == per_pair
    assert report.wins == sum(stats.wins for stats in per_pair.values())
    # Records share the outcome table's float objects rather than each
    # holding a copy: one 1.0 for classical and mixed, at most 4 pairs x 4
    # leaves for quantum.
    assert len({id(r.leaf_measure) for r in records}) <= 16


def test_play_rounds_matches_reference_across_a_full_block():
    cfg = TournamentConfig(rounds=BLOCK_ROUNDS + 5, mode="quantum", seed=11)
    report, records = harness.play_rounds(cfg)
    per_pair, expected = reference_play(cfg)
    assert records == expected
    assert report.per_pair == per_pair
