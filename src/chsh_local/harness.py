"""Tournament harness: seeded round sampling, geometry audit, and reports.

Rounds draw their randomness from per-round counter-based streams keyed by
(seed, round_id), so results are reproducible bit for bit regardless of
execution order.  Two sampling modes cover the two kinds of claim the game
supports: `monte_carlo` actually samples outcomes round by round, while
`exact_measure` keeps the sampled questions but replaces outcome sampling
with analytic per-pair win measures (win counts are then expected values
rounded to the nearest integer, and the report says so).

The geometry audit is bookkeeping, not transport simulation: it checks that
the stations' answer window closes before light could carry a message
between them, which is the whole point of the layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import game
from .game import (
    CLASSICAL_CEILING,
    QUANTUM_WIN_RATE,
    QUESTION_PAIRS,
    DeterministicStrategy,
    QuantumProtocol,
    QuestionPair,
    win_predicate,
)

MODES = ("classical", "mixed", "quantum")
SAMPLING = ("exact_measure", "monte_carlo")

#: Fixed header of the per-round table.
ROUND_TABLE_HEADER = "round_id,qa,qb,aa,ab,win,leaf_measure"

_MAX_SEED = 2**64


@dataclass(frozen=True)
class Geometry:
    """Station separation and answer deadline, both in light-minutes/minutes."""

    distance_light_minutes: float = 30.0
    answer_window_minutes: float = 5.0


@dataclass(frozen=True)
class TournamentConfig:
    """Everything one tournament run depends on.

    The mode carries its own payload: a strategy table for `classical`,
    sixteen weights for `mixed`, a protocol for `quantum` (defaulting to
    the canonical one).
    """

    rounds: int
    mode: str
    seed: int = 0
    sampling: str = "monte_carlo"
    strategy: DeterministicStrategy | None = None
    weights: tuple | None = None
    protocol: QuantumProtocol | None = None
    geometry: Geometry = Geometry()
    output_path: str | None = None

    def __post_init__(self):
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sampling not in SAMPLING:
            raise ValueError(f"sampling must be one of {SAMPLING}, got {self.sampling!r}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.mode == "classical":
            if self.strategy is None:
                raise ValueError("classical mode needs a strategy")
            object.__setattr__(self, "strategy", DeterministicStrategy(*self.strategy))
        if self.mode == "mixed":
            if self.weights is None:
                raise ValueError("mixed mode needs 16 strategy weights")
            # Validates the distribution as a side effect.
            game.mixed_strategy_rate(self.weights)
            object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if self.mode == "quantum" and self.protocol is None:
            object.__setattr__(self, "protocol", game.default_protocol())


@dataclass(slots=True)
class RoundRecord:
    """One played round; `leaf_measure` is the sampled branch's weight (1.0
    when the mode is deterministic given the questions)."""

    round_id: int
    qa: int
    qb: int
    aa: int
    ab: int
    win: bool
    leaf_measure: float


@dataclass(frozen=True)
class PairStats:
    """Per-question-pair tallies; `rate` is None for a pair never asked."""

    count: int
    wins: int
    rate: float | None


@dataclass(frozen=True)
class TournamentReport:
    """Summary of one tournament, with the two reference values alongside."""

    total_rounds: int
    wins: int
    win_rate: float
    per_pair: dict[str, PairStats]
    classical_ceiling: float
    quantum_value: float
    seed: int
    mode: str
    sampling: str
    analytic: bool
    isolation: bool

    def to_dict(self) -> dict:
        """JSON-ready form; floats rounded to 9 decimals for stable output.

        The rate of a pair never asked is None, written as JSON null.
        """
        return {
            "total_rounds": self.total_rounds,
            "wins": self.wins,
            "win_rate": round(self.win_rate, 9),
            "per_pair": {
                key: {
                    "count": stats.count,
                    "wins": stats.wins,
                    "rate": None if stats.rate is None else round(stats.rate, 9),
                }
                for key, stats in self.per_pair.items()
            },
            "classical_ceiling": round(self.classical_ceiling, 9),
            "quantum_value": round(self.quantum_value, 9),
            "seed": self.seed,
            "mode": self.mode,
            "sampling": self.sampling,
            "analytic": self.analytic,
            "isolation": self.isolation,
        }


def _pair_key(q: QuestionPair) -> str:
    return f"{q.qa}{q.qb}"


def _round_rng(seed: int, round_id: int) -> np.random.Generator:
    """Independent per-round stream: counter-based, keyed by (seed, round)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, round_id], dtype=np.uint64)))


def _exact_pair_rates(cfg: TournamentConfig) -> dict[QuestionPair, float]:
    """Analytic win measure of each question pair under the configured mode."""
    rates = {}
    for q in QUESTION_PAIRS:
        if cfg.mode == "classical":
            rates[q] = float(win_predicate(q, *cfg.strategy.answers(q)))
        elif cfg.mode == "mixed":
            rate = sum(
                w * Fraction(win_predicate(q, *s.answers(q)))
                for w, s in zip(cfg.weights, game.all_strategies())
            )
            rates[q] = float(rate)
        else:
            rates[q] = game.branch_tree(cfg.protocol, q).win_measure()
    return rates


def _strategy_cdf(weights: Sequence[Fraction]) -> np.ndarray:
    cdf = np.cumsum(np.array([float(w) for w in weights]))
    cdf[-1] = 1.0
    return cdf


def play_rounds(cfg: TournamentConfig) -> tuple[TournamentReport, list[RoundRecord]]:
    """Run a tournament and return the report plus the per-round records.

    Questions are sampled per round in both sampling modes.  In
    `exact_measure` mode no outcomes are sampled: per-pair wins are the
    expected values of the analytic rates (rounded to nearest integer) and
    the record list is empty.
    """
    strategies = game.all_strategies()
    counts = {q: 0 for q in QUESTION_PAIRS}
    wins = {q: 0 for q in QUESTION_PAIRS}
    records: list[RoundRecord] = []

    trees = None
    cdf = None
    if cfg.mode == "quantum" and cfg.sampling == "monte_carlo":
        trees = {}
        for q in QUESTION_PAIRS:
            leaves = game.branch_tree(cfg.protocol, q).leaves()
            edges = np.cumsum([leaf.measure for leaf in leaves])
            edges[-1] = 1.0
            trees[q] = (leaves, edges)
    if cfg.mode == "mixed" and cfg.sampling == "monte_carlo":
        cdf = _strategy_cdf(cfg.weights)

    for round_id in range(cfg.rounds):
        u = _round_rng(cfg.seed, round_id).random(3)
        q = QuestionPair(int(2.0 * u[0]), int(2.0 * u[1]))
        counts[q] += 1
        if cfg.sampling == "exact_measure":
            continue
        if cfg.mode == "classical":
            aa, ab = cfg.strategy.answers(q)
            leaf_measure = 1.0
        elif cfg.mode == "mixed":
            s = strategies[int(np.searchsorted(cdf, u[2], side="right"))]
            aa, ab = s.answers(q)
            leaf_measure = 1.0
        else:
            leaves, edges = trees[q]
            leaf = leaves[int(np.searchsorted(edges, u[2], side="right"))]
            aa, ab = leaf.alice_outcome, leaf.bob_outcome
            leaf_measure = leaf.measure
        win = win_predicate(q, aa, ab)
        wins[q] += win
        records.append(RoundRecord(round_id, q.qa, q.qb, aa, ab, win, leaf_measure))

    if cfg.sampling == "exact_measure":
        rates = _exact_pair_rates(cfg)
        for q in QUESTION_PAIRS:
            wins[q] = round(counts[q] * rates[q])
        per_pair = {
            _pair_key(q): PairStats(counts[q], wins[q], rates[q]) for q in QUESTION_PAIRS
        }
    else:
        per_pair = {
            _pair_key(q): PairStats(
                counts[q], wins[q], wins[q] / counts[q] if counts[q] else None
            )
            for q in QUESTION_PAIRS
        }

    total_wins = sum(wins.values())
    isolated, _ = audit_geometry(cfg.geometry)
    report = TournamentReport(
        total_rounds=cfg.rounds,
        wins=total_wins,
        win_rate=total_wins / cfg.rounds,
        per_pair=per_pair,
        classical_ceiling=float(CLASSICAL_CEILING),
        quantum_value=QUANTUM_WIN_RATE,
        seed=cfg.seed,
        mode=cfg.mode,
        sampling=cfg.sampling,
        analytic=cfg.sampling == "exact_measure",
        isolation=isolated,
    )
    return report, records


def run_tournament(cfg: TournamentConfig) -> TournamentReport:
    """Play a tournament; write report files when the config names a path."""
    report, records = play_rounds(cfg)
    if cfg.output_path is not None:
        write_report(report, records, cfg.output_path)
    return report


def audit_geometry(geometry: Geometry) -> tuple[bool, dict]:
    """Check that the answer window closes before light can cross the gap.

    Passing requires a strict inequality: a signal arriving exactly at the
    deadline is not isolation.  The report carries the margin, the spare
    light-minutes between deadline and earliest possible arrival.
    """
    if geometry.distance_light_minutes <= 0 or geometry.answer_window_minutes <= 0:
        raise ValueError(
            f"geometry must be positive, got distance {geometry.distance_light_minutes}, "
            f"window {geometry.answer_window_minutes}"
        )
    isolated = geometry.answer_window_minutes < geometry.distance_light_minutes
    report = {
        "distance_light_minutes": geometry.distance_light_minutes,
        "answer_window_minutes": geometry.answer_window_minutes,
        "margin_light_minutes": geometry.distance_light_minutes - geometry.answer_window_minutes,
        "isolated": isolated,
    }
    return isolated, report


def write_report(report: TournamentReport, records: Sequence[RoundRecord], path: str) -> None:
    """Write `{path}.json` (summary) and `{path}.csv` (per-round table).

    The table format is fixed: the exact header, booleans as 0/1, measures
    with 9 decimals, and newline line endings, so identical runs produce
    byte-identical files.
    """
    with open(f"{path}.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(f"{path}.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ROUND_TABLE_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.round_id},{r.qa},{r.qb},{r.aa},{r.ab},{int(r.win)},{r.leaf_measure:.9f}\n"
            )


def read_round_table(path: str) -> list[RoundRecord]:
    """Read a per-round table back, re-checking every row.

    Round ids must count 0, 1, 2, ... as :func:`write_report` writes them,
    the win tag must be exactly 0 or 1 and agree with the game rule, and
    `leaf_measure` must lie in [0, 1]; a violation names `path:line`.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != ROUND_TABLE_HEADER:
            raise ValueError(f"unexpected round-table header in {path}: {header!r}")
        for line_no, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 7:
                raise ValueError(f"{path}:{line_no}: expected 7 fields, got {len(fields)}")
            round_id, qa, qb, aa, ab = (int(x) for x in fields[:5])
            win_bit, leaf_measure = fields[5], float(fields[6])
            if round_id != len(records):
                raise ValueError(f"{path}:{line_no}: round_id {round_id}, expected {len(records)}")
            if win_bit not in ("0", "1"):
                raise ValueError(f"{path}:{line_no}: win tag must be 0 or 1, got {win_bit!r}")
            if not 0.0 <= leaf_measure <= 1.0:
                raise ValueError(f"{path}:{line_no}: leaf_measure {leaf_measure} is not in [0, 1]")
            record = RoundRecord(round_id, qa, qb, aa, ab, win_bit == "1", leaf_measure)
            if record.win != win_predicate(QuestionPair(qa, qb), aa, ab):
                raise ValueError(
                    f"{path}:{line_no}: win tag {win_bit} contradicts the game rule "
                    f"for questions ({qa}, {qb}) and answers ({aa}, {ab})"
                )
            records.append(record)
    return records
