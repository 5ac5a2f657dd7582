"""Tournament harness: seeded round sampling, geometry audit, and reports.

Rounds draw their randomness from per-round counter-based streams keyed by
(seed, round_id), so results are reproducible bit for bit regardless of
execution order; a numpy Philox4x64-10 computes a whole block of rounds at
once, bit-identical to numpy's per-round
`Generator(Philox(key=[seed, round_id]))`.  Both sampling modes read one
table of each question pair's outcomes and their probabilities:
`monte_carlo` samples an outcome per round from it, while `exact_measure`
keeps the sampled questions but sums each pair's winning probabilities
instead (win counts are then expected values rounded to the nearest
integer, and the report says so).

A played tournament is a :class:`RoundTable`: one outcome code per round,
`pair * width + choice`, indexing a short table of record rows.  Rounds stay
codes from the draw to the CSV and back; a :class:`RoundRecord` is built
only when a caller indexes or iterates the table.  The CSV is written from
one prebuilt text per code, and read back with one check per distinct
row text.

The geometry audit is bookkeeping, not transport simulation: it checks that
the stations' answer window closes before light could carry a message
between them, which is the whole point of the layout.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import game
from .descriptors import as_index
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

#: Rounds drawn and tallied together.  The Philox pass keeps about twenty
#: uint64 columns of this length alive, so 4096 rounds hold its temporaries
#: near 0.6 MiB however long the run; larger blocks raised peak memory and
#: were no faster.
BLOCK_ROUNDS = 4096

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class Geometry:
    """Station separation and answer deadline, both in light-minutes/minutes."""

    distance_light_minutes: float = 30.0
    answer_window_minutes: float = 5.0

    def __post_init__(self):
        distance, window = self.distance_light_minutes, self.answer_window_minutes
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v > 0
            for v in (distance, window)
        ):
            raise ValueError(
                f"geometry must be finite positive numbers, got distance {distance!r}, "
                f"window {window!r}"
            )


def _is_weight(w) -> bool:
    """True for an int, Fraction, finite float or fraction string."""
    if isinstance(w, bool) or not isinstance(w, (int, float, Fraction, str)):
        return False
    try:
        Fraction(w)
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
    return True


@dataclass(frozen=True)
class TournamentConfig:
    """Everything one tournament run depends on.

    The mode carries its own payload: a strategy table for `classical`,
    sixteen weights for `mixed`, a protocol for `quantum` (defaulting to
    the canonical one).  A strategy, weights or protocol given to another
    mode are checked all the same.
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
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sampling not in SAMPLING:
            raise ValueError(f"sampling must be one of {SAMPLING}, got {self.sampling!r}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.mode == "classical" or self.strategy is not None:
            bits = self.strategy
            if not isinstance(bits, (list, tuple)) or len(bits) != 4 or not all(
                isinstance(b, int) and not isinstance(b, bool) and b in (0, 1) for b in bits
            ):
                raise ValueError(f"strategy must be 4 bits 0 or 1, got {bits!r}")
            object.__setattr__(self, "strategy", DeterministicStrategy(*bits))
        if self.mode == "mixed" or self.weights is not None:
            weights = self.weights
            if not isinstance(weights, (list, tuple)) or not all(map(_is_weight, weights)):
                raise ValueError(
                    f"weights must be a list of 16 numbers or fraction strings, got {weights!r}"
                )
            # Validates the distribution as a side effect.
            game.mixed_strategy_rate(self.weights)
            object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if not isinstance(self.geometry, Geometry):
            raise ValueError(f"geometry must be a Geometry, got {self.geometry!r}")
        if self.protocol is not None and not isinstance(self.protocol, QuantumProtocol):
            raise ValueError(f"protocol must be a QuantumProtocol, got {self.protocol!r}")
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


class RoundTable(Sequence):
    """Played rounds as outcome codes: round i is `RoundRecord(i, *rows[codes[i]])`.

    `codes` is one unsigned integer array and `rows` holds the
    `(qa, qb, aa, ab, win, leaf_measure)` tuples the codes index.  The codes
    are `np.uint8` for every table :func:`play_rounds` returns, and for every
    file :func:`write_report` writes and :func:`read_round_table` reads back;
    a table read from a file with more distinct rows gets a wider type.
    Records are built on indexing and iteration and share the rows' float
    objects.  A table compares equal, element by element, to any sequence
    of the same records, so `table == []` holds for an empty one.
    """

    __slots__ = ("codes", "rows")

    def __init__(self, codes: np.ndarray, rows: Sequence[tuple]):
        self.codes = codes
        self.rows = rows

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> RoundRecord:
        index, n = operator.index(index), len(self.codes)
        round_id = index + n if index < 0 else index
        if not 0 <= round_id < n:
            raise IndexError(f"round {index} out of range for a table of {n} rounds")
        return RoundRecord(round_id, *self.rows[self.codes[round_id]])

    def __iter__(self):
        rows = self.rows
        return (RoundRecord(i, *rows[c]) for i, c in enumerate(self.codes.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


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


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products `a * b`, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> 32
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = ((lo_lo >> 32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> 32
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + carry, np.uint64(a) * b


def _round_uniforms(seed: int, round_ids: np.ndarray) -> np.ndarray:
    """The first three uniforms of each round's stream, shape (rounds, 3).

    Row i equals `Generator(Philox(key=[seed, round_ids[i]])).random(3)`:
    numpy's first Philox4x64-10 block, counter (1, 0, 0, 0) under key
    (seed, round_id), whose first three words become doubles as
    `(word >> 11) * 2**-53`.
    """
    key1 = np.asarray(round_ids, dtype=np.uint64)
    zero = np.zeros_like(key1)
    c0, c1, c2, c3 = zero + np.uint64(1), zero, zero, zero
    for i in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + i * _PHILOX_W[0]) % 2**64)
        k1 = key1 + np.uint64(i * _PHILOX_W[1] % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2), axis=1)
    return (words >> 11).astype(np.float64) * 2.0**-53


def _outcome_table(cfg: TournamentConfig) -> list[list[tuple]]:
    """Every outcome of each question pair as `(probability, aa, ab, leaf_measure)`.

    One list per pair, in `QUESTION_PAIRS` order: the strategy's answers with
    probability 1 under `classical`, each of the 16 strategies with its
    `Fraction` weight under `mixed`, and each branch leaf with its measure
    under `quantum`.
    """
    if cfg.mode == "classical":
        return [[(1, *cfg.strategy.answers(q), 1.0)] for q in QUESTION_PAIRS]
    if cfg.mode == "mixed":
        return [
            [(w, *s.answers(q), 1.0) for w, s in zip(cfg.weights, game.all_strategies())]
            for q in QUESTION_PAIRS
        ]
    return [
        [(leaf.measure, leaf.alice_outcome, leaf.bob_outcome, leaf.measure)
         for leaf in game.branch_tree(cfg.protocol, q).leaves()]
        for q in QUESTION_PAIRS
    ]


def play_rounds(cfg: TournamentConfig) -> tuple[TournamentReport, RoundTable]:
    """Run a tournament and return the report plus the per-round table.

    All rounds' draws are computed at once, `BLOCK_ROUNDS` round ids at a
    time, bit-identical to numpy's per-round `Philox` streams, so reports
    match a round-by-round loop byte for byte.  Both sampling modes read
    :func:`_outcome_table`.  A round asked `pair = 2*qa + qb` takes the
    outcome its third uniform falls in on the pair's cumulative
    probabilities; its code `pair * width + outcome` (below 4 * 16) is
    stored as one byte and indexes the table's record rows, so no
    per-round object is built.  `exact_measure` keeps no rounds and returns
    an empty table: a pair's rate is the sum of its winning probabilities
    and its wins are rate x count, rounded.
    """
    analytic = cfg.sampling == "exact_measure"
    isolated, _ = audit_geometry(cfg.geometry)
    table = _outcome_table(cfg)
    width = len(table[0])
    edges = [np.cumsum([float(p) for p, *_ in outcomes]) for outcomes in table]
    for pair_edges in edges:
        pair_edges[-1] = 1.0
    rows = [
        (q.qa, q.qb, aa, ab, win_predicate(q, aa, ab), measure)
        for q, outcomes in zip(QUESTION_PAIRS, table)
        for _, aa, ab, measure in outcomes
    ]
    counts = np.zeros(4 * width, dtype=np.int64)
    played = np.empty(0 if analytic else cfg.rounds, dtype=np.uint8)
    for start in range(0, cfg.rounds, BLOCK_ROUNDS):
        stop = min(start + BLOCK_ROUNDS, cfg.rounds)
        u = _round_uniforms(cfg.seed, np.arange(start, stop, dtype=np.uint64))
        questions = (2.0 * u[:, :2]).astype(np.int64)
        pair = 2 * questions[:, 0] + questions[:, 1]
        codes = pair * width
        for p, pair_edges in enumerate(edges):
            asked = pair == p
            codes[asked] += np.searchsorted(pair_edges, u[asked, 2], side="right")
        if not analytic:
            played[start:stop] = codes
        counts += np.bincount(codes, minlength=counts.size)

    counts = counts.reshape(4, width)
    pair_counts = dict(zip(QUESTION_PAIRS, counts.sum(axis=1).tolist()))
    if analytic:
        rates = {
            q: float(sum(p for p, aa, ab, _ in outcomes if win_predicate(q, aa, ab)))
            for q, outcomes in zip(QUESTION_PAIRS, table)
        }
        wins = {q: round(n * rates[q]) for q, n in pair_counts.items()}
    else:
        won = np.array([row[4] for row in rows]).reshape(4, width)
        wins = dict(zip(QUESTION_PAIRS, (counts * won).sum(axis=1).tolist()))
        rates = {q: wins[q] / n if n else None for q, n in pair_counts.items()}

    total_wins = sum(wins.values())
    report = TournamentReport(
        total_rounds=cfg.rounds,
        wins=total_wins,
        win_rate=total_wins / cfg.rounds,
        per_pair={f"{q.qa}{q.qb}": PairStats(n, wins[q], rates[q]) for q, n in pair_counts.items()},
        classical_ceiling=float(CLASSICAL_CEILING),
        quantum_value=QUANTUM_WIN_RATE,
        seed=cfg.seed,
        mode=cfg.mode,
        sampling=cfg.sampling,
        analytic=analytic,
        isolation=isolated,
    )
    return report, RoundTable(played, rows)


def run_tournament(cfg: TournamentConfig) -> TournamentReport:
    """Play a tournament; write report files when the config names a path."""
    report, rounds = play_rounds(cfg)
    if cfg.output_path is not None:
        write_report(report, rounds, cfg.output_path)
    return report


def audit_geometry(geometry: Geometry) -> tuple[bool, dict]:
    """Check that the answer window closes before light can cross the gap.

    Passing requires a strict inequality: a signal arriving exactly at the
    deadline is not isolation.  The report carries the margin, the spare
    light-minutes between deadline and earliest possible arrival.
    """
    isolated = geometry.answer_window_minutes < geometry.distance_light_minutes
    report = {
        "distance_light_minutes": geometry.distance_light_minutes,
        "answer_window_minutes": geometry.answer_window_minutes,
        "margin_light_minutes": geometry.distance_light_minutes - geometry.answer_window_minutes,
        "isolated": isolated,
    }
    return isolated, report


def write_report(report: TournamentReport, rounds: RoundTable, path: str) -> None:
    """Write `{path}.json` (summary) and `{path}.csv` (per-round table).

    The table format is fixed: the exact header, booleans as 0/1, measures
    with 9 decimals, and newline line endings, so identical runs produce
    byte-identical files.  The text of a row after its round id is
    formatted once per code of the table, not once per round.
    """
    with open(f"{path}.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    suffixes = [
        f"{qa},{qb},{aa},{ab},{int(win)},{measure:.9f}\n"
        for qa, qb, aa, ab, win, measure in rounds.rows
    ]
    with open(f"{path}.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ROUND_TABLE_HEADER + "\n")
        fh.writelines(f"{i},{suffixes[c]}" for i, c in enumerate(rounds.codes.tolist()))


#: Every well-formed `(qa, qb, aa, ab, win)` field tuple of a table row: the
#: parsed bits and win tag, and whether the tag agrees with the game rule.
_ROW_FIELDS = {
    (*(str(b) for b in bits), str(int(win))): (
        (*bits, win), win == win_predicate(QuestionPair(*bits[:2]), *bits[2:])
    )
    for bits in itertools.product((0, 1), repeat=4)
    for win in (False, True)
}


#: A `leaf_measure` as :func:`write_report` writes it.
_PLAIN_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def read_round_table(path: str) -> RoundTable:
    """Read a per-round table back, re-checking every row.

    Round ids must count 0, 1, 2, ... in plain decimal as :func:`write_report`
    writes them, the question and answer bits and the win tag must each be
    exactly 0 or 1, the tag must agree with the game rule, and
    `leaf_measure` must be a plain decimal numeral (digits, then optionally
    a point and digits) in [0, 1]; a violation names `path:line` and the
    field.  The five bit fields are checked with one lookup in a table of the
    32 well-formed tuples.  Every line's round id is compared with the
    expected one; the rest of the line is checked once per distinct text,
    which then becomes one code of the returned table.
    """
    codes_by_suffix: dict[str, int] = {}
    rows: list[tuple] = []

    def checked_code(line: str, line_no: int) -> int:
        """Check one row in full; a new valid row text gets the next code."""
        def bad(message: str) -> ValueError:
            return ValueError(f"{path}:{line_no}: {message}")

        fields = line.rstrip("\n").split(",")
        if len(fields) != 7:
            raise bad(f"expected 7 fields, got {len(fields)}")
        entry = _ROW_FIELDS.get(tuple(fields[1:6]))
        if entry is None:
            for name, value in zip(("qa", "qb", "aa", "ab", "win tag"), fields[1:6]):
                if value not in ("0", "1"):
                    raise bad(f"{name} must be 0 or 1, got {value!r}")
        (qa, qb, aa, ab, win), agrees = entry
        round_id = line_no - 2
        if fields[0] != str(round_id):
            if fields[0].isascii() and fields[0].isdigit():
                raise bad(f"round_id {fields[0]}, expected {round_id}")
            raise bad(f"round_id must be an integer, got {fields[0]!r}")
        if _PLAIN_DECIMAL.fullmatch(fields[6]) is None:
            raise bad(f"leaf_measure must be a number, got {fields[6]!r}")
        leaf_measure = float(fields[6])
        if leaf_measure > 1.0:
            raise bad(f"leaf_measure {leaf_measure} is not in [0, 1]")
        if not agrees:
            raise bad(
                f"win tag {fields[5]} contradicts the game rule "
                f"for questions ({qa}, {qb}) and answers ({aa}, {ab})"
            )
        code = codes_by_suffix[line.partition(",")[2]] = len(rows)
        rows.append((qa, qb, aa, ab, win, leaf_measure))
        return code

    codes = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != ROUND_TABLE_HEADER:
            raise ValueError(f"unexpected round-table header in {path}: {header!r}")
        for round_id, line in enumerate(fh):
            text_id, _, suffix = line.partition(",")
            code = codes_by_suffix.get(suffix)
            if code is None or text_id != str(round_id):
                code = checked_code(line, round_id + 2)
            codes.append(code)
    return RoundTable(np.array(codes, dtype=np.min_scalar_type(len(rows))), rows)
