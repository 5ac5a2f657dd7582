"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test computes its claim, prints `criterion N: PASS/FAIL ...` with the
measured runtime, then asserts.  Run with `pytest tests/test_acceptance.py
-v -s` to see the lines; without `-s` they surface only on failure.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from chsh_local import descriptors, game, harness, verify
from chsh_local.game import QUANTUM_WIN_RATE, QUESTION_PAIRS, QuestionPair

COS2_PI_8 = math.cos(math.pi / 8.0) ** 2
SIN2_PI_8 = math.sin(math.pi / 8.0) ** 2


def _criterion(num: int, ok: bool, description: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}: {status} - {description} [{elapsed:.3f}s]"
    print(line)
    assert ok, line


def test_criterion_01_classical_ceiling_exact():
    game.classical_optimum()  # warm caches before timing
    t0 = time.perf_counter()
    best, optima = game.classical_optimum()
    elapsed = time.perf_counter() - t0
    rates = [game.strategy_win_rate(s) for s in game.all_strategies()]
    ok = (
        best == Fraction(3, 4)
        and len(rates) == 16
        and all(r < 1 for r in rates)
        and len(optima) == 8
        and elapsed < 1e-3
    )
    _criterion(
        1, ok, f"classical optimum exactly {best}, no strategy wins all four pairs", elapsed
    )


def test_criterion_02_mixed_strategy_bound_exact():
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    ceiling = Fraction(3, 4)
    over = 0
    for _ in range(1000):
        raw = [rng.randint(0, 1000) for _ in range(16)]
        if sum(raw) == 0:
            raw[rng.randrange(16)] = 1
        total = sum(raw)
        rate = game.mixed_strategy_rate([Fraction(w, total) for w in raw])
        over += rate > ceiling
    uniform = game.mixed_strategy_rate([Fraction(1, 16)] * 16)
    elapsed = time.perf_counter() - t0
    ok = over == 0 and uniform == Fraction(1, 2) and elapsed < 1.0
    _criterion(
        2, ok, f"1000 random mixtures <= 3/4 exactly, uniform mixture = {uniform}", elapsed
    )


def test_criterion_03_quantum_value_dual_route():
    t0 = time.perf_counter()
    p = game.default_protocol()
    worst = 0.0
    for q in QUESTION_PAIRS:
        oracle = game.oracle_win_probability(p.alice_angle(q.qa), p.bob_angle(q.qb), q)
        engine = game.descriptor_win_measure(p, q)
        worst = max(worst, abs(oracle - QUANTUM_WIN_RATE), abs(engine - QUANTUM_WIN_RATE))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _criterion(
        3,
        ok,
        f"both routes give (2+sqrt(2))/4 on all four pairs, worst deviation {worst:.2e}",
        elapsed,
    )


def test_criterion_04_tournament_headline_scaled():
    t0 = time.perf_counter()
    cfg = harness.TournamentConfig(rounds=400_000, mode="quantum", seed=42)
    report = harness.run_tournament(cfg)
    elapsed = time.perf_counter() - t0
    expected = 341_421
    band = 3.0 * 224.0
    ok = abs(report.wins - expected) <= band and elapsed < 30.0
    _criterion(
        4,
        ok,
        f"400k rounds, seed 42: {report.wins} wins, expected {expected} +- {band:.0f}",
        elapsed,
    )


def test_criterion_05_branching_measures():
    t0 = time.perf_counter()
    p = game.default_protocol()
    ok = True
    for q in QUESTION_PAIRS:
        tree = game.branch_tree(p, q)
        for node in tree.branches:
            ok &= abs(node.measure - 0.5) <= 1e-10
            low, high = sorted(node.leaves, key=lambda leaf: leaf.conditional)
            ok &= abs(high.conditional - COS2_PI_8) <= 1e-9
            ok &= abs(low.conditional - SIN2_PI_8) <= 1e-9
            ok &= high.win and not low.win
        ok &= abs(sum(leaf.measure for leaf in tree.leaves()) - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    _criterion(
        5,
        ok,
        "first split 50/50 within 1e-10, conditionals 0.853553/0.146447 "
        "with the winning side dominant, leaves sum to 1",
        elapsed,
    )


def test_criterion_06_locality_suite():
    t0 = time.perf_counter()
    result = verify.locality_suite(n_circuits=500, max_qubits=4, max_depth=20)
    elapsed = time.perf_counter() - t0
    ok = (
        result.passed
        and result.checked == 500
        and result.detail == "500 remote circuits audited, 0 locality violations"
        and elapsed < 60.0
    )
    _criterion(6, ok, result.detail, elapsed)


def test_criterion_07_picture_equivalence():
    t0 = time.perf_counter()
    result = verify.picture_equivalence_suite(
        n_circuits=1000, max_qubits=4, max_depth=20, tol=1e-9
    )
    elapsed = time.perf_counter() - t0
    ok = (
        result.passed
        and result.max_deviation <= 1e-9
        and result.detail == (
            "12248 joint measures across 1000 circuits, "
            "max deviation 1.554e-15, 0 order failures"
        )
        and elapsed < 120.0
    )
    _criterion(7, ok, result.detail, elapsed)


def test_criterion_08_no_signalling_marginals():
    t0 = time.perf_counter()
    p = game.default_protocol()

    def marginal(qa, qb, qubit, outcome):
        net = game.build_round_network(p, QuestionPair(qa, qb))
        return descriptors.branch_measure(net, (qubit, outcome))

    worst = 0.0
    for own in (0, 1):
        for outcome in (0, 1):
            worst = max(
                worst,
                abs(marginal(own, 0, 0, outcome) - marginal(own, 1, 0, outcome)),
                abs(marginal(0, own, 1, outcome) - marginal(1, own, 1, outcome)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10
    _criterion(
        8, ok, f"marginals independent of the remote question, worst shift {worst:.2e}", elapsed
    )


def test_criterion_09_redundancy_demo():
    t0 = time.perf_counter()
    visibilities = [game.redundancy_demo(m) for m in range(11)]
    elapsed = time.perf_counter() - t0
    ok = abs(visibilities[0] - 1.0) <= 1e-9 and all(v < 1e-9 for v in visibilities[1:])
    _criterion(
        9,
        ok,
        f"visibility {visibilities[0]:.6f} at m=0, max {max(visibilities[1:]):.2e} for m>=1",
        elapsed,
    )


def test_criterion_10_grid_search_stays_below_bound():
    t0 = time.perf_counter()
    a0 = 0.0  # a common rotation of all four angles cancels in every pair
    _, a1c, b0c, b1c = game.CANONICAL_ANGLES
    half_span = math.pi / 2.0
    best = 0.0
    for a1 in np.linspace(a1c - half_span, a1c + half_span, 16):
        for b0 in np.linspace(b0c - half_span, b0c + half_span, 16):
            for b1 in np.linspace(b1c - half_span, b1c + half_span, 16):
                alice = (a0, float(a1))
                bob = (float(b0), float(b1))
                average = sum(
                    game.oracle_win_probability(alice[q.qa], bob[q.qb], q)
                    for q in QUESTION_PAIRS
                ) / 4.0
                best = max(best, average)
    elapsed = time.perf_counter() - t0
    ok = best <= QUANTUM_WIN_RATE + 1e-6
    _criterion(
        10,
        ok,
        f"16^3 angle grid: best average {best:.9f} <= {QUANTUM_WIN_RATE:.9f} + 1e-6",
        elapsed,
    )
