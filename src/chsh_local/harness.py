"""Tournament harness: seeded round sampling, station geometry, and reports.

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
only when a caller indexes or iterates the table.  The writer checks each
row's text with the reader's own row check before it opens a file, so it
writes only files the reader accepts, and every valid row text has one
length.  The CSV is rendered in numpy byte blocks: each block is a matrix
of round-id digits followed by one prebuilt text per code.  Reading a file
back takes one pass: each block is split at its newlines, its round ids are
checked against the same digit matrix, and equal row texts are grouped by
sorting them on exact 8-byte keys, so each distinct text is checked once.

`Geometry.isolated` is bookkeeping, not transport simulation: it says
whether the stations' answer window closes before light could carry a
message between them, which is the whole point of the layout.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import re
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from decimal import Decimal
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

#: Most rounds one tournament plays.  `play_rounds` runs at 2.3-3.7 M
#: rounds/s in every mode and sampling at 4 M rounds (2-vCPU Xeon, numpy
#: 2.4), and `monte_carlo` keeps 1 byte per round, so the cap is 5-8
#: minutes and 1 GiB of codes.  `exact_measure` keeps no rounds, so
#: without the cap nothing would bound its run time.
MAX_ROUNDS = 2**30

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

    @property
    def margin_light_minutes(self) -> float:
        """Spare light-minutes between the deadline and the earliest arrival."""
        return self.distance_light_minutes - self.answer_window_minutes

    @property
    def isolated(self) -> bool:
        """Whether the answer window closes before light can cross the gap.

        The inequality is strict: a signal arriving exactly at the deadline
        is not isolation.
        """
        return self.answer_window_minutes < self.distance_light_minutes


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

    def __post_init__(self):
        for name in ("rounds", "seed"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must be in [1, MAX_ROUNDS = {MAX_ROUNDS}], got {self.rounds}")
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
    """Per-question-pair tallies.

    Under `monte_carlo` sampling `rate` is None for a pair never asked;
    under `exact_measure` it is the pair's winning measure whether or not
    the pair was asked.
    """

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
        """JSON-ready form: the fields by `dataclasses.asdict`, floats rounded
        to 9 decimals for stable output.

        Under `monte_carlo` sampling the rate of a pair never asked is None,
        written as JSON null.
        """
        return asdict(self, dict_factory=lambda items: {
            key: round(value, 9) if isinstance(value, float) else value for key, value in items
        })

    def to_json(self) -> str:
        """:meth:`to_dict` as strict JSON (no NaN or Infinity), keys sorted,
        indented by 2: the summary `chsh-local play` prints and
        :func:`write_report` writes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


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
    an empty table: it counts only the pairs asked (code `pair * width`,
    with no outcome sampled), a pair's rate is the sum of its winning
    probabilities and its wins are rate x count, rounded.
    """
    analytic = cfg.sampling == "exact_measure"
    table = _outcome_table(cfg)
    width = len(table[0])
    edges = np.cumsum([[float(p) for p, *_ in outcomes] for outcomes in table], axis=1)
    edges[:, -1] = 1.0
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
        if not analytic:
            codes += (edges[pair] <= u[:, 2, None]).sum(axis=1)
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
        isolation=cfg.geometry.isolated,
    )
    return report, RoundTable(played, rows)


#: `_BYTE_MASKS[n]` keeps the first n bytes of a little-endian uint64 word.
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)

#: Characters of a CSV decoded and checked at a time by
#: :func:`read_round_table`: about 4.7k rows of the 28-byte lines a table
#: with 5-digit round ids has.  Half as many read a 20k-round table about
#: 10 % slower; twice as many are no faster.
_READ_CHARS = 1 << 17


def _digit_runs(start: int, stop: int):
    """Split round ids `[start, stop)` into runs `(lo, hi, digits)` of one length."""
    while start < stop:
        digits = len(str(start))
        hi = min(stop, 10**digits)
        yield start, hi, digits
        start = hi


def _id_digits(ids: np.ndarray, digits: int) -> np.ndarray:
    """Round ids of `digits` digits each as a uint8 matrix of ASCII digits.

    Filled a column at a time by `// 10` in the narrowest unsigned type that
    holds them, faster than `np.divmod` in int64.  The writer renders round
    ids from it and the reader checks them against it.
    """
    ids = ids.astype(np.min_scalar_type(10**digits - 1))
    matrix = np.empty((len(ids), digits), dtype=np.uint8)
    for column in range(digits - 1, -1, -1):
        tens = ids // 10
        matrix[:, column] = ids - 10 * tens + ord("0")
        ids = tens
    return matrix


def _render_rows(codes: np.ndarray, text_table: np.ndarray, start: int) -> bytes:
    """The CSV lines of rounds `start, start + 1, ...` with these codes.

    `text_table` holds one row text per code, all of one length.  Each run
    of round ids with the same number of digits is one uint8 matrix:
    :func:`_id_digits`, then `text_table[codes]`.
    """
    texts = np.take(text_table, codes, axis=0)
    lines = []
    for lo, hi, digits in _digit_runs(start, start + len(codes)):
        ids = np.arange(lo, hi, dtype=np.int64)
        matrix = np.concatenate((_id_digits(ids, digits), texts[lo - start : hi - start]), axis=1)
        lines.append(matrix.tobytes())
    return b"".join(lines)


def write_report(report: TournamentReport, rounds: RoundTable, path: str) -> None:
    """Write `{path}.json` (summary) and `{path}.csv` (per-round table).

    The table format is fixed: the exact header, booleans as 0/1, measures
    with 9 decimals, and newline line endings, so identical runs produce
    byte-identical files.  The text of a row after its round id is
    formatted once per row of the table and checked by :func:`_checked_row`,
    the reader's own check, and the summary is rendered as strict JSON,
    before either file is opened: a row :func:`read_round_table` would
    reject, a non-finite float in the summary, or `codes` that are not one
    unsigned integer array indexing `rows`, is a `ValueError` and writes
    nothing.  A valid row text is always 23 bytes, so the CSV is
    rendered `BLOCK_ROUNDS` rounds at a time as numpy byte blocks
    (:func:`_render_rows`) and no per-round Python object is built.
    A `path` that is not a string or whose last component is empty (`""`,
    `"runs/"`) names no file and is a `ValueError` too.
    """
    if not isinstance(path, str) or not os.path.basename(path):
        raise ValueError(f"report path must name a file, got {path!r}")
    summary = report.to_json()
    texts = [
        f",{qa},{qb},{aa},{ab},{int(win)},{measure:.9f}\n"
        for qa, qb, aa, ab, win, measure in rounds.rows
    ]
    for c, text in enumerate(texts):
        _checked_row(f"0{text}", 0, f"{path}.csv rows[{c}]")
    text_table = np.array([np.frombuffer(text.encode(), np.uint8) for text in texts])
    codes = rounds.codes
    if not isinstance(codes, np.ndarray) or codes.ndim != 1 or codes.dtype.kind != "u":
        raise ValueError(f"{path}.csv codes must be one unsigned integer array, got {codes!r}")
    if len(codes) and codes.max() >= len(texts):
        raise ValueError(f"{path}.csv codes must index the {len(texts)} rows, got {codes.max()}")
    with open(f"{path}.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{summary}\n")
    with open(f"{path}.csv", "wb") as fh:
        fh.write(f"{ROUND_TABLE_HEADER}\n".encode())
        for start in range(0, len(codes), BLOCK_ROUNDS):
            fh.write(_render_rows(codes[start : start + BLOCK_ROUNDS], text_table, start))


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


def _checked_row(line: str, round_id: int, where: str) -> tuple:
    """Check one CSV line of round `round_id` in full and return its record row.

    The row is `(qa, qb, aa, ab, win, leaf_measure)`; a violation raises
    `ValueError` naming `where` (such as `path:line`) and the field.
    """
    def bad(message: str) -> ValueError:
        return ValueError(f"{where}: {message}")

    fields = line.rstrip("\n").split(",")
    if len(fields) != 7:
        raise bad(f"expected 7 fields, got {len(fields)}")
    entry = _ROW_FIELDS.get(tuple(fields[1:6]))
    if entry is None:
        for name, value in zip(("qa", "qb", "aa", "ab", "win tag"), fields[1:6]):
            if value not in ("0", "1"):
                raise bad(f"{name} must be 0 or 1, got {value!r}")
    (qa, qb, aa, ab, win), agrees = entry
    if fields[0] != str(round_id):
        if fields[0].isascii() and fields[0].isdigit():
            raise bad(f"round_id {fields[0]}, expected {round_id}")
        raise bad(f"round_id must be an integer, got {fields[0]!r}")
    if _PLAIN_DECIMAL.fullmatch(fields[6]) is None:
        raise bad(f"leaf_measure must be a number, got {fields[6]!r}")
    leaf_measure = float(fields[6])
    # A numeral just above 1 can round to 1.0; its exact value decides, and
    # then the message names the numeral.
    if leaf_measure >= 1.0 and Decimal(fields[6]) > 1:
        shown = fields[6] if leaf_measure == 1.0 else leaf_measure
        raise bad(f"leaf_measure {shown} is not in [0, 1]")
    if not agrees:
        raise bad(
            f"win tag {fields[5]} contradicts the game rule "
            f"for questions ({qa}, {qb}) and answers ({aa}, {ab})"
        )
    return qa, qb, aa, ab, win, leaf_measure


def _line_blocks(fh):
    """The rest of a text file as UTF-8 bytes, `_READ_CHARS` characters at a
    time, each block cut after its last newline; text after the file's last
    newline comes last.  A block may be empty."""
    tail = ""
    while chunk := fh.read(_READ_CHARS):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        yield text[:cut].encode()
        tail = text[cut:]
    yield tail.encode()


def _equal_text_runs(data: bytes, starts: np.ndarray, lengths: np.ndarray):
    """An order of the texts `data[starts[i] : starts[i] + lengths[i]]` that
    makes equal texts neighbours, and where in it each run of equal texts
    starts.

    The texts are ordered by a series of exact keys: their first 8 bytes as
    a little-endian uint64 masked to the text's length, then the length,
    then the word at byte `min(k, length - 8)` for k = 8, 16, ..., which
    lies inside any text longer than k.  A later key re-sorts the texts
    within their runs only where it is out of order.  Runs of one text and
    texts no later key can split are set aside, so a key is read only for
    texts longer than k and costs O(lines) whatever the texts' lengths.
    """
    words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=data + bytes(8), strides=(1,))
    key = words[starts] & _BYTE_MASKS[np.minimum(lengths, 8)]
    texts = np.argsort(key)
    key = key[texts]
    fresh = np.concatenate(([True], key[1:] != key[:-1]))
    begin, size = starts[texts], lengths[texts]
    done = []
    for k in itertools.count(0, 8):
        key = size if k == 0 else words[begin + np.minimum(size - 8, k)]
        if resorted := ((key[1:] < key[:-1]) & ~fresh[1:]).any():
            resort = np.lexsort((key, np.cumsum(fresh)))
            texts, begin, size, key = texts[resort], begin[resort], size[resort], key[resort]
        fresh[1:] |= key[1:] != key[:-1]
        # Set aside the runs of one text and those the next key cannot split.
        # Only a re-sort or the end of some texts calls for it, and the
        # latter also ends the loop.
        if resorted or size.min() <= k + 8:
            keep = ~(fresh & np.concatenate((fresh[1:], [True]))) & (size > k + 8)
            done.append((texts[~keep], fresh[~keep]))
            texts, begin, size, fresh = texts[keep], begin[keep], size[keep], fresh[keep]
        if not len(texts):
            order, new = map(np.concatenate, zip(*done))
            return order, np.flatnonzero(new)


def _raise_first_bad_line(lines: bytes, start: int, path: str) -> None:
    """Raise the row error of the first bad line among `lines`, rounds `start, ...`.

    Every line is checked in full by :func:`_checked_row`, in order.
    """
    for i, line in enumerate(lines.decode().removesuffix("\n").split("\n")):
        _checked_row(line, start + i, f"{path}:{start + i + 2}")
    raise RuntimeError(f"{path}: lines from {start + 2} failed a check but each line passes")


def read_round_table(path: str) -> RoundTable:
    """Read a per-round table back, re-checking every row.

    Round ids must count 0, 1, 2, ... in plain decimal as :func:`write_report`
    writes them, the question and answer bits and the win tag must each be
    exactly 0 or 1, the tag must agree with the game rule, and
    `leaf_measure` must be a plain decimal numeral (digits, then optionally
    a point and digits) in [0, 1]; a violation names `path:line` and the
    field.  The five bit fields are checked with one lookup in a table of the
    32 well-formed tuples.  Each distinct row text after the round id is
    checked once and becomes one code of the returned table.

    The file is opened and decoded once (UTF-8, universal newlines, so a
    CRLF file reads as LF) and read a block of whole lines at a time.  A
    block is split at its newlines, so a last line without a newline and
    measures of several lengths are ordinary lines, and every round id is
    checked against :func:`_id_digits`.  Equal row texts are grouped
    exactly by :func:`_equal_text_runs`: no hash, so no collision.  The
    first line of each new text is checked by :func:`_checked_row` at its
    own line number, in line order, so an error names the first bad line
    and field.
    """
    codes_by_text: dict[bytes, int] = {}
    rows: list[tuple] = []
    blocks = [np.empty(0, dtype=np.uint8)]
    start = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != ROUND_TABLE_HEADER:
            raise ValueError(f"unexpected round-table header in {path}: {header!r}")
        for data in filter(None, _line_blocks(fh)):
            # Each newline (byte 10) ends a line, and so does the block's last byte.
            ends = np.flatnonzero(np.append(np.frombuffer(data, np.uint8)[:-1] == 10, True)) + 1
            starts = np.append(0, ends[:-1])
            text_starts = np.empty_like(starts)
            for lo, hi, digits in _digit_runs(start, start + len(ends)):
                at = slice(lo - start, hi - start)
                text_starts[at] = starts[at] + digits
                # A line shorter than its id ends in a newline or the zero pad.
                items = np.ndarray(len(data) + 1, f"V{digits}", data + bytes(digits), strides=(1,))
                if items[starts[at]].tobytes() != _id_digits(np.arange(lo, hi), digits).tobytes():
                    _raise_first_bad_line(data, start, path)
            order, run_starts = _equal_text_runs(data, text_starts, ends - text_starts)
            run_codes = np.empty(len(run_starts), dtype=np.intp)
            # Each run is looked up at its first line, in line order, so the
            # first bad line is the one an error names.
            first_lines = np.minimum.reduceat(order, run_starts).tolist()
            for i, run in sorted(zip(first_lines, itertools.count())):
                text = data[text_starts[i] : ends[i]]
                if text not in codes_by_text:
                    line = f"{start + i}{text.decode()}"
                    rows.append(_checked_row(line, start + i, f"{path}:{start + i + 2}"))
                    codes_by_text[text] = len(rows) - 1
                run_codes[run] = codes_by_text[text]
            codes = np.empty(len(ends), dtype=np.min_scalar_type(len(rows)))
            codes[order] = np.repeat(run_codes, np.diff(run_starts, append=len(ends)))
            blocks.append(codes)
            start += len(ends)
    return RoundTable(np.concatenate(blocks, dtype=np.min_scalar_type(len(rows))), rows)
