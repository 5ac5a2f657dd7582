"""Tests for the tournament harness, station geometry, and report files."""

import dataclasses
import functools
import json
import math
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chsh_local import game, harness
from chsh_local.game import DeterministicStrategy, QuestionPair
from chsh_local.harness import BLOCK_ROUNDS, Geometry, RoundRecord, RoundTable, TournamentConfig

ALL_ZERO = DeterministicStrategy(0, 0, 0, 0)
UNIFORM = tuple(Fraction(1, 16) for _ in range(16))

#: One config per mode; the mixture is non-uniform with some zero weights.
MODE_CONFIGS = {
    "classical": dict(mode="classical", strategy=DeterministicStrategy(0, 1, 1, 0)),
    "mixed": dict(mode="mixed", weights=tuple(
        Fraction(w, 40) for w in (5, 0, 3, 1, 0, 7, 2, 2, 4, 0, 1, 6, 3, 2, 4, 0))),
    "quantum": dict(mode="quantum"),
}


def classical_cfg(**overrides):
    base = dict(rounds=1000, mode="classical", seed=5, strategy=ALL_ZERO)
    base.update(overrides)
    return TournamentConfig(**base)


class TestConfigValidation:
    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            classical_cfg(rounds=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            classical_cfg(mode="psychic")

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ValueError):
            classical_cfg(sampling="guess")

    def test_seed_range(self):
        with pytest.raises(ValueError):
            classical_cfg(seed=-1)
        with pytest.raises(ValueError):
            classical_cfg(seed=2**64)
        classical_cfg(seed=2**64 - 1)

    def test_rounds_and_seed_must_be_ints(self):
        for bad in (2.5, True, "10"):
            with pytest.raises(ValueError):
                TournamentConfig(rounds=bad, mode="quantum")
        for bad in (1.5, True, "5"):
            with pytest.raises(ValueError):
                classical_cfg(seed=bad)

    @pytest.mark.parametrize("sampling", harness.SAMPLING)
    def test_rounds_are_capped_in_both_sampling_modes(self, sampling):
        assert classical_cfg(rounds=harness.MAX_ROUNDS, sampling=sampling).rounds == 2**30
        with pytest.raises(ValueError) as got:
            classical_cfg(rounds=harness.MAX_ROUNDS + 1, sampling=sampling)
        assert str(got.value) == f"rounds must be in [1, MAX_ROUNDS = {2**30}], got {2**30 + 1}"

    def test_classical_needs_strategy(self):
        with pytest.raises(ValueError):
            TournamentConfig(rounds=10, mode="classical")

    def test_mixed_needs_valid_weights(self):
        with pytest.raises(ValueError):
            TournamentConfig(rounds=10, mode="mixed")
        with pytest.raises(ValueError):
            TournamentConfig(rounds=10, mode="mixed", weights=(Fraction(1, 8),) * 16)

    @pytest.mark.parametrize(
        "strategy", [5, "0110", (0, 1, 1), (0, 1, 1, 0, 0), (0, 2, 1, 0), (0, 1, 1, -1),
                     (0, 1.0, 1, 0), (False, True, True, False)],
    )
    def test_strategy_must_be_four_bits(self, strategy):
        with pytest.raises(ValueError, match="strategy must be 4 bits"):
            TournamentConfig(rounds=10, mode="classical", strategy=strategy)

    def test_strategy_list_becomes_a_table(self):
        cfg = TournamentConfig(rounds=10, mode="classical", strategy=[0, 1, 1, 0])
        assert cfg.strategy == DeterministicStrategy(0, 1, 1, 0)

    @pytest.mark.parametrize(
        "weights",
        [5, "1/16", None, {"a": 1}, [None] * 16, [math.nan] * 16, [math.inf] + [0] * 15,
         ["x"] * 16, ["1/0"] * 16, [True] + [0] * 15, [object()] * 16],
    )
    def test_weights_must_be_a_sequence(self, weights):
        with pytest.raises(ValueError, match="weights must be a list of 16"):
            TournamentConfig(rounds=10, mode="mixed", weights=weights)

    @pytest.mark.parametrize(
        "overrides, message",
        [({"geometry": {"d": 1}}, "geometry must be a Geometry"),
         ({"geometry": None}, "geometry must be a Geometry"),
         ({"protocol": "x"}, "protocol must be a QuantumProtocol"),
         ({"mode": "classical", "strategy": ALL_ZERO, "protocol": 1.0},
          "protocol must be a QuantumProtocol")],
    )
    def test_geometry_and_protocol_must_have_their_types(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TournamentConfig(**{"rounds": 10, "mode": "quantum", **overrides})

    def test_quantum_defaults_to_canonical_protocol(self):
        cfg = TournamentConfig(rounds=10, mode="quantum")
        assert cfg.protocol is not None
        assert cfg.protocol.theta_a0 == 0.0


class TestCausalityAudit:
    def test_default_geometry_isolates(self):
        geometry = Geometry()
        assert geometry.isolated
        assert geometry.margin_light_minutes == pytest.approx(25.0)

    def test_boundary_is_not_isolation(self):
        geometry = Geometry(30.0, 30.0)
        assert not geometry.isolated
        assert geometry.margin_light_minutes == 0.0

    def test_window_longer_than_distance(self):
        geometry = Geometry(4.0, 5.0)
        assert not geometry.isolated
        assert geometry.margin_light_minutes == pytest.approx(-1.0)

    def test_nonpositive_geometry_rejected(self):
        with pytest.raises(ValueError):
            Geometry(0.0, 5.0)
        with pytest.raises(ValueError):
            Geometry(30.0, -1.0)

    @pytest.mark.parametrize(
        "distance, window",
        [(math.nan, 5.0), (30.0, math.inf), (-math.inf, 5.0), ("30", 5.0), (30.0, None),
         (True, 5.0)],
    )
    def test_geometry_is_checked_at_construction(self, distance, window):
        with pytest.raises(ValueError, match="geometry must be finite positive numbers"):
            Geometry(distance, window)


class TestClassicalTournament:
    def test_hundred_thousand_rounds_near_ceiling(self):
        report, _ = harness.play_rounds(classical_cfg(rounds=100_000, seed=7))
        sigma = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(report.win_rate - 0.75) <= 3.0 * sigma
        assert report.total_rounds == 100_000
        assert sum(stats.count for stats in report.per_pair.values()) == 100_000

    def test_all_zero_loses_only_on_one_one(self):
        _, records = harness.play_rounds(classical_cfg(rounds=2000))
        for r in records:
            assert r.win == ((r.qa, r.qb) != (1, 1))
            assert (r.aa, r.ab) == (0, 0)
            assert r.leaf_measure == 1.0

    def test_exact_sampling_rates_are_indicator_values(self):
        report, _ = harness.play_rounds(classical_cfg(rounds=1000, sampling="exact_measure"))
        assert report.analytic
        assert {k: stats.rate for k, stats in report.per_pair.items()} == {
            "00": 1.0,
            "01": 1.0,
            "10": 1.0,
            "11": 0.0,
        }
        wins_11 = report.per_pair["11"].wins
        assert wins_11 == 0
        assert report.wins == sum(s.wins for s in report.per_pair.values())


class TestMixedTournament:
    def test_uniform_mixture_converges_to_half(self):
        cfg = TournamentConfig(rounds=40_000, mode="mixed", seed=11, weights=UNIFORM)
        report, _ = harness.play_rounds(cfg)
        sigma = math.sqrt(0.5 * 0.5 / 40_000)
        assert abs(report.win_rate - 0.5) <= 3.0 * sigma

    def test_exact_rates_match_weighted_predicates(self):
        cfg = TournamentConfig(
            rounds=100, mode="mixed", seed=1, weights=UNIFORM, sampling="exact_measure"
        )
        report, _ = harness.play_rounds(cfg)
        for stats in report.per_pair.values():
            assert stats.rate == pytest.approx(0.5)

    def test_point_mass_mixture_reduces_to_strategy(self):
        weights = [Fraction(0)] * 16
        weights[0] = Fraction(1)
        cfg = TournamentConfig(rounds=500, mode="mixed", seed=3, weights=tuple(weights))
        _, records = harness.play_rounds(cfg)
        for r in records:
            assert (r.aa, r.ab) == ALL_ZERO.answers(QuestionPair(r.qa, r.qb))

    def test_uniform_above_a_short_cumsum_takes_the_last_outcome(self, monkeypatch):
        # Seven weights of 1/7 have a float cumsum of 1 - 2**-52, below this
        # uniform; the pinned last edge keeps such a round on its own pair.
        weights = [Fraction(0)] * 9 + [Fraction(1, 7)] * 7
        top = 1.0 - 2.0**-53
        draws = np.array([[0.0, 0.0, top], [0.9, 0.9, top]])
        monkeypatch.setattr(harness, "_round_uniforms", lambda seed, ids: draws[: len(ids)])
        cfg = TournamentConfig(rounds=2, mode="mixed", weights=weights)
        _, records = harness.play_rounds(cfg)
        last = game.all_strategies()[-1]
        assert [(r.qa, r.qb, r.aa, r.ab) for r in records] == [
            (q.qa, q.qb, *last.answers(q)) for q in (QuestionPair(0, 0), QuestionPair(1, 1))
        ]

    @pytest.mark.parametrize("halves, expected", [((0, 1), 1), ((0, 2), 2), ((5, 11), 11)])
    def test_a_uniform_on_an_interior_edge_takes_the_next_outcome(
        self, monkeypatch, halves, expected
    ):
        # Two weights of 1/2 put an edge at exactly 0.5; zero weights between
        # them repeat it, and `searchsorted(side="right")` steps past them all.
        weights = [Fraction(0)] * 16
        for i in halves:
            weights[i] = Fraction(1, 2)
        draws = np.array([[0.0, 0.75, 0.5], [0.75, 0.0, 0.5]])
        monkeypatch.setattr(harness, "_round_uniforms", lambda seed, ids: draws[: len(ids)])
        _, records = harness.play_rounds(TournamentConfig(rounds=2, mode="mixed", weights=weights))
        edges = np.cumsum([float(w) for w in weights])
        assert np.searchsorted(edges, 0.5, side="right") == expected
        strategy = game.all_strategies()[expected]
        assert [(r.qa, r.qb, r.aa, r.ab) for r in records] == [
            (q.qa, q.qb, *strategy.answers(q)) for q in (QuestionPair(0, 1), QuestionPair(1, 0))
        ]


class TestQuantumTournament:
    def test_a_uniform_on_an_interior_edge_takes_the_next_outcome(self, monkeypatch):
        # A third uniform on the edge after leaf k takes leaf k + 1.
        draws, expected = [], []
        for q in game.QUESTION_PAIRS:
            leaves = game.branch_tree(game.default_protocol(), q).leaves()
            edges = np.cumsum([leaf.measure for leaf in leaves])
            for k, edge in enumerate(edges[:-1]):
                assert np.searchsorted(edges, edge, side="right") == k + 1
                draws.append([0.25 + 0.5 * q.qa, 0.25 + 0.5 * q.qb, edge])
                leaf = leaves[k + 1]
                expected.append((q.qa, q.qb, leaf.alice_outcome, leaf.bob_outcome, leaf.measure))
        draws = np.array(draws)
        monkeypatch.setattr(harness, "_round_uniforms", lambda seed, ids: draws[: len(ids)])
        _, records = harness.play_rounds(TournamentConfig(rounds=len(draws), mode="quantum"))
        assert len(records) == 12
        assert [(r.qa, r.qb, r.aa, r.ab, r.leaf_measure) for r in records] == expected

    def test_exact_measure_reproduces_quantum_value(self):
        cfg = TournamentConfig(rounds=1000, mode="quantum", seed=2, sampling="exact_measure")
        report, records = harness.play_rounds(cfg)
        assert records == []
        assert report.analytic
        for stats in report.per_pair.values():
            assert stats.rate == pytest.approx(game.QUANTUM_WIN_RATE, abs=1e-9)
            assert stats.wins == round(stats.count * stats.rate)

    def test_monte_carlo_converges_to_exact(self):
        cfg = TournamentConfig(rounds=50_000, mode="quantum", seed=13)
        report, _ = harness.play_rounds(cfg)
        p = game.QUANTUM_WIN_RATE
        sigma = math.sqrt(p * (1.0 - p) / 50_000)
        assert abs(report.win_rate - p) <= 3.0 * sigma
        assert not report.analytic

    def test_records_satisfy_win_rule_and_leaf_measures(self):
        _, records = harness.play_rounds(
            TournamentConfig(rounds=1000, mode="quantum", seed=17)
        )
        trees = {
            q: game.branch_tree(game.default_protocol(), q) for q in game.QUESTION_PAIRS
        }
        for r in records:
            q = QuestionPair(r.qa, r.qb)
            assert r.win == game.win_predicate(q, r.aa, r.ab)
            expected = trees[q].leaf(r.aa, r.ab).measure
            assert r.leaf_measure == pytest.approx(expected, abs=1e-12)

    def test_isolation_flag_reflects_geometry(self):
        cfg = TournamentConfig(
            rounds=10, mode="quantum", seed=1, geometry=Geometry(4.0, 5.0)
        )
        report, _ = harness.play_rounds(cfg)
        assert not report.isolation
        assert harness.play_rounds(TournamentConfig(rounds=10, mode="quantum", seed=1))[0].isolation


def reference_uniforms(seed: int, round_id: int) -> np.ndarray:
    key = np.array([seed, round_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(3)


class TestRoundDraws:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**64 - 1),
           count=st.integers(1, 40))
    @example(seed=2**63 + 12345, first=2**64 - 1, count=1)
    @example(seed=2**64 - 1, first=2**64 - 40, count=40)
    @example(seed=1, first=0, count=1)
    def test_round_uniforms_match_numpy_philox_for_any_seed(self, seed, first, count):
        round_ids = range(first, min(first + count, 2**64))
        got = harness._round_uniforms(seed, np.array(round_ids, dtype=np.uint64))
        expected = np.array([reference_uniforms(seed, r) for r in round_ids])
        assert got.shape == (len(round_ids), 3)
        assert np.array_equal(got, expected)

    def test_one_block_of_draws_peaks_under_twelve_columns(self):
        round_ids = np.arange(BLOCK_ROUNDS, dtype=np.uint64)
        harness._round_uniforms(5, round_ids)
        tracemalloc.start()
        try:
            harness._round_uniforms(5, round_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * BLOCK_ROUNDS


class TestDeterminism:
    def test_identical_config_gives_identical_reports(self):
        cfg = TournamentConfig(rounds=5000, mode="quantum", seed=123)
        r1, rec1 = harness.play_rounds(cfg)
        r2, rec2 = harness.play_rounds(cfg)
        assert r1 == r2
        assert rec1 == rec2

    def test_identical_config_gives_byte_identical_files(self, tmp_path):
        for name in ("a", "b"):
            cfg = TournamentConfig(rounds=2000, mode="quantum", seed=99)
            harness.write_report(*harness.play_rounds(cfg), str(tmp_path / name))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seeds_differ(self):
        _, rec1 = harness.play_rounds(classical_cfg(seed=1))
        _, rec2 = harness.play_rounds(classical_cfg(seed=2))
        assert [(r.qa, r.qb) for r in rec1] != [(r.qa, r.qb) for r in rec2]


class TestRoundTable:
    ROWS = [(0, 0, 0, 0, True, 1.0), (1, 1, 0, 1, True, 0.5), (1, 0, 1, 1, True, 0.25)]
    CODES = [1, 0, 2, 1]

    def table(self):
        return RoundTable(np.array(self.CODES, dtype=np.uint8), self.ROWS)

    def expected(self):
        return [RoundRecord(i, *self.ROWS[c]) for i, c in enumerate(self.CODES)]

    def test_length_and_indexing_from_either_end(self):
        table, expected = self.table(), self.expected()
        assert len(table) == 4
        for i in range(-4, 4):
            assert table[i] == expected[i]
        assert table[-1].round_id == 3
        assert table[np.int64(2)] == expected[2]

    @pytest.mark.parametrize("index", [4, 5, -5, -100])
    def test_index_past_either_end_raises(self, index):
        with pytest.raises(IndexError):
            self.table()[index]
        with pytest.raises(IndexError):
            RoundTable(np.empty(0, dtype=np.uint8), self.ROWS)[0]

    @pytest.mark.parametrize("index", [
        slice(0, 2), slice(None), slice(1, None), slice(-3, None), slice(None, -1),
        slice(None, None, 2), slice(1, None, 2), slice(None, None, -1), slice(3, 0, -2),
        slice(-1, -5, -1), slice(2, 2), slice(10, 20), slice(-100, 100),
    ])
    def test_a_slice_is_the_list_of_those_rounds_records(self, index):
        table = self.table()
        got = table[index]
        assert type(got) is list
        assert got == list(table)[index] == self.expected()[index]
        assert [r.round_id for r in got] == list(range(4))[index]

    def test_iteration_yields_records_in_round_order(self):
        assert list(self.table()) == self.expected()
        assert [r.round_id for r in self.table()] == [0, 1, 2, 3]

    def test_equality_is_element_by_element_with_any_sequence(self):
        table, expected = self.table(), self.expected()
        assert table == expected and expected == table
        assert table == tuple(expected)
        assert table == self.table()
        assert table != expected[:3]
        changed = list(expected)
        changed[2] = dataclasses.replace(changed[2], leaf_measure=0.5)
        assert table != changed
        empty = RoundTable(np.empty(0, dtype=np.uint8), self.ROWS)
        assert empty == [] and [] == empty
        assert empty != table
        assert table != "abcd"
        assert (table == 5) is False

    def test_records_share_at_most_sixteen_leaf_measure_objects(self, tmp_path):
        report, played = harness.play_rounds(
            TournamentConfig(rounds=3 * BLOCK_ROUNDS, mode="quantum", seed=21)
        )
        assert len({id(r.leaf_measure) for r in played}) <= 16
        harness.write_report(report, played, str(tmp_path / "run"))
        loaded = harness.read_round_table(str(tmp_path / "run.csv"))
        assert loaded.codes.dtype == np.uint8
        assert len({id(r.leaf_measure) for r in loaded}) <= 16


def as_written(played):
    """The played records with each leaf measure at the 9 decimals the CSV keeps."""
    return [dataclasses.replace(r, leaf_measure=float(f"{r.leaf_measure:.9f}")) for r in played]


def reference_csv(table):
    """The CSV bytes of a table, one f-string per round."""
    lines = [
        f"{i},{qa},{qb},{aa},{ab},{int(win)},{measure:.9f}\n"
        for i, (qa, qb, aa, ab, win, measure) in enumerate(table.rows[c] for c in table.codes)
    ]
    return (harness.ROUND_TABLE_HEADER + "\n" + "".join(lines)).encode()


def assert_same_table(table, reference):
    """Equal codes, code type and rows, not only equal records."""
    assert table.codes.dtype == reference.codes.dtype
    assert np.array_equal(table.codes, reference.codes)
    assert table.rows == reference.rows


def read_lines_reference(path):
    """Read a table one line at a time, checking each new row text in full.

    The reference for :func:`harness.read_round_table`: the same codes,
    code type and rows, or the same row error.
    """
    codes_by_suffix = {}
    rows = []
    codes = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != harness.ROUND_TABLE_HEADER:
            raise ValueError(f"unexpected round-table header in {path}: {header!r}")
        for round_id, line in enumerate(fh):
            text_id, _, suffix = line.partition(",")
            code = codes_by_suffix.get(suffix)
            if code is None or text_id != str(round_id):
                rows.append(harness._checked_row(line, round_id, f"{path}:{round_id + 2}"))
                code = codes_by_suffix[suffix] = len(rows) - 1
            codes.append(code)
    return RoundTable(np.array(codes, dtype=np.min_scalar_type(len(rows))), rows)


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(sorted(MODE_CONFIGS)),
    seed=st.integers(0, 2**64 - 1),
    rounds=st.integers(1, 3 * BLOCK_ROUNDS),
)
def test_written_table_reads_back_as_played(mode, seed, rounds):
    cfg = TournamentConfig(rounds=rounds, seed=seed, **MODE_CONFIGS[mode])
    report, played = harness.play_rounds(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        harness.write_report(report, played, str(base / "run"))
        loaded = harness.read_round_table(str(base / "run.csv"))
        assert (base / "run.csv").read_bytes() == reference_csv(played)
        assert_same_table(loaded, read_lines_reference(str(base / "run.csv")))
        harness.write_report(report, loaded, str(base / "again"))
        assert (base / "again.csv").read_bytes() == (base / "run.csv").read_bytes()
    assert len(loaded) == rounds
    assert loaded == as_written(played)


#: Texts that make one field of a written row invalid wherever they land.
BAD_FIELD_TEXTS = {
    "round_id": ["x", "", "-1", "1.0", "0,0"],
    "bit": ["2", "", "x", "-0", " 1", "00", "0,0"],
    "win": ["2", "", "true", "0,0"],
    "leaf_measure": [
        "", "x", "1.5", "-0.5", "nan", "1e0", "+1.0", "1.000000001", "1.00000000000000001", "0,0"
    ],
}
FIELD_KINDS = ("round_id", "bit", "bit", "bit", "bit", "win", "leaf_measure")


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(sorted(MODE_CONFIGS)),
    seed=st.integers(0, 2**64 - 1),
    rounds=st.integers(1, 3 * BLOCK_ROUNDS),
    data=st.data(),
)
def test_a_corrupted_field_is_rejected_with_its_line(mode, seed, rounds, data):
    cfg = TournamentConfig(rounds=rounds, seed=seed, **MODE_CONFIGS[mode])
    report, played = harness.play_rounds(cfg)
    row = data.draw(st.integers(0, rounds - 1), label="row")
    field = data.draw(st.integers(0, 6), label="field")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "run"
        harness.write_report(report, played, str(base))
        path = Path(f"{base}.csv")
        lines = path.read_text(encoding="utf-8").split("\n")
        fields = lines[row + 1].split(",")
        bad = BAD_FIELD_TEXTS[FIELD_KINDS[field]]
        if field == 0:
            bad = bad + [str(row + 1), f"0{row}", f"+{row}", f" {row}"]
        if field == 5:
            bad = bad + ["1" if fields[5] == "0" else "0"]  # contradicts the game rule
        fields[field] = data.draw(st.sampled_from(bad), label="text")
        lines[row + 1] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{row + 2}: ")):
            harness.read_round_table(str(path))


#: Characters the fuzz test writes into a table: those of a valid row and
#: some no field accepts.
FUZZ_CHARS = "0123456789,.\n\rx+-e "


#: Measures of several lengths that share their first digits, so that row
#: texts share their first 8 bytes and are told apart only by later keys.
SHARED_PREFIX_MEASURES = ("0.1", "0.2", "0.25", "0.250", "0.125", "0.1250001", "1", "0.99")


@functools.cache
def fuzz_base(shape: str) -> bytes:
    """A table of three blocks' rounds, as bytes.

    `written` is a quantum table as :func:`harness.write_report` writes it;
    `shared-prefix` has all bits 0 and measures from `SHARED_PREFIX_MEASURES`.
    """
    if shape == "shared-prefix":
        picks = np.random.default_rng(43).integers(0, len(SHARED_PREFIX_MEASURES), 3 * BLOCK_ROUNDS)
        return (harness.ROUND_TABLE_HEADER + "\n" + "".join(
            f"{i},0,0,0,0,1,{SHARED_PREFIX_MEASURES[m]}\n" for i, m in enumerate(picks.tolist())
        )).encode()
    report, played = harness.play_rounds(
        TournamentConfig(rounds=3 * BLOCK_ROUNDS, mode="quantum", seed=41)
    )
    with tempfile.TemporaryDirectory() as tmp:
        harness.write_report(report, played, f"{tmp}/run")
        return Path(f"{tmp}/run.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(("written", "shared-prefix")),
    edits=st.lists(
        st.tuples(
            st.sampled_from(("replace", "insert", "delete")),
            st.integers(0, 2**32),
            st.sampled_from(FUZZ_CHARS),
        ),
        min_size=1,
        max_size=4,
    ),
    drop_final_newline=st.booleans(),
    crlf=st.booleans(),
)
def test_a_fuzzed_table_reads_as_the_reference_reads_it(shape, edits, drop_final_newline, crlf):
    data = bytearray(fuzz_base(shape))
    header = len(harness.ROUND_TABLE_HEADER) + 1
    for kind, position, char in edits:
        at = header + position % (len(data) - header)
        if kind == "replace":
            data[at] = ord(char)
        elif kind == "insert":
            data.insert(at, ord(char))
        else:
            del data[at]
    if drop_final_newline and data.endswith(b"\n"):
        del data[-1]
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes(bytes(data))
        try:
            reference = read_lines_reference(str(path))
        except ValueError as error:
            with pytest.raises(ValueError) as got:
                harness.read_round_table(str(path))
            assert str(got.value) == str(error)
        else:
            assert_same_table(harness.read_round_table(str(path)), reference)


class TestReportFiles:
    def test_csv_format_is_fixed(self, tmp_path):
        base = tmp_path / "run"
        harness.write_report(*harness.play_rounds(classical_cfg(rounds=3)), str(base))
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "round_id,qa,qb,aa,ab,win,leaf_measure"
        assert len(lines) == 4
        row = re.compile(r"^\d+,[01],[01],[01],[01],[01],\d\.\d{9}$")
        for line in lines[1:]:
            assert row.match(line), line

    def test_json_field_names_and_reference_values(self, tmp_path):
        base = tmp_path / "run"
        harness.write_report(*harness.play_rounds(classical_cfg(rounds=3)), str(base))
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["classical_ceiling"] == 0.75
        assert summary["quantum_value"] == 0.853553391
        assert set(summary) == {
            "total_rounds",
            "wins",
            "win_rate",
            "per_pair",
            "classical_ceiling",
            "quantum_value",
            "seed",
            "mode",
            "sampling",
            "analytic",
            "isolation",
        }
        assert set(summary["per_pair"]) == {"00", "01", "10", "11"}

    def test_exact_mode_writes_header_only_table(self, tmp_path):
        base = tmp_path / "exact"
        cfg = TournamentConfig(rounds=50, mode="quantum", seed=4, sampling="exact_measure")
        harness.write_report(*harness.play_rounds(cfg), str(base))
        lines = (tmp_path / "exact.csv").read_text().splitlines()
        assert lines == ["round_id,qa,qb,aa,ab,win,leaf_measure"]

    def test_round_table_roundtrip(self, tmp_path):
        base = tmp_path / "run"
        _, records = harness.play_rounds(classical_cfg(rounds=20))
        report, _ = harness.play_rounds(classical_cfg(rounds=20))
        harness.write_report(report, records, str(base))
        loaded = harness.read_round_table(str(base) + ".csv")
        assert [(r.round_id, r.qa, r.qb, r.aa, r.ab, r.win) for r in loaded] == [
            (r.round_id, r.qa, r.qb, r.aa, r.ab, r.win) for r in records
        ]

    def test_read_back_rejects_inconsistent_win_tag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "round_id,qa,qb,aa,ab,win,leaf_measure\n0,1,1,0,0,1,1.000000000\n"
        )
        with pytest.raises(ValueError, match="win tag"):
            harness.read_round_table(str(path))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,0,0,0,0,1,1.000000000\n", r"bad\.csv:2: round_id 1, expected 0"),
            ("0,0,0,0,0,1,1.0\n2,0,0,0,0,1,1.0\n", r"bad\.csv:3: round_id 2, expected 1"),
            ("0,0,0,0,0,1,1.0\n0,0,0,0,0,1,1.0\n", r"bad\.csv:3: round_id 0, expected 1"),
        ],
        ids=["starts-at-one", "skips-an-id", "repeats-an-id"],
    )
    def test_read_back_rejects_out_of_order_round_ids(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("round_id,qa,qb,aa,ab,win,leaf_measure\n" + rows)
        with pytest.raises(ValueError, match=message):
            harness.read_round_table(str(path))

    @pytest.mark.parametrize("win", ["2", "-1", "01", " 1", "true"])
    def test_read_back_rejects_win_field_other_than_0_or_1(self, tmp_path, win):
        path = tmp_path / "bad.csv"
        path.write_text(f"round_id,qa,qb,aa,ab,win,leaf_measure\n0,0,0,0,0,{win},1.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: win tag must be 0 or 1"):
            harness.read_round_table(str(path))

    @pytest.mark.parametrize(
        "measure", ["nan", "inf", "-inf", "-0.000000001", "1.000000001", "1.00000000000000001"]
    )
    def test_read_back_rejects_leaf_measure_outside_unit_interval(self, tmp_path, measure):
        path = tmp_path / "bad.csv"
        path.write_text(f"round_id,qa,qb,aa,ab,win,leaf_measure\n0,0,0,0,0,1,{measure}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: leaf_measure") as caught:
            harness.read_round_table(str(path))
        if float(measure) == 1.0:
            # The measure reads as 1.0, so the message names the numeral.
            assert f"leaf_measure {measure} is not in [0, 1]" in str(caught.value)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,2,0,0,0,1,1.0", r"bad\.csv:2: qa must be 0 or 1, got '2'"),
            ("0,0,x,0,0,1,1.0", r"bad\.csv:2: qb must be 0 or 1, got 'x'"),
            ("0,0,0,-1,0,1,1.0", r"bad\.csv:2: aa must be 0 or 1, got '-1'"),
            ("0,0,0,0,01,1,1.0", r"bad\.csv:2: ab must be 0 or 1, got '01'"),
            ("0.5,0,0,0,0,1,1.0", r"bad\.csv:2: round_id must be an integer, got '0\.5'"),
            ("x,0,0,0,0,1,1.0", r"bad\.csv:2: round_id must be an integer, got 'x'"),
            ("0,0,0,0,0,1,half", r"bad\.csv:2: leaf_measure must be a number, got 'half'"),
            ("0,0,0,0,0,1,", r"bad\.csv:2: leaf_measure must be a number, got ''"),
            ("0,0,0,0,0,1", r"bad\.csv:2: expected 7 fields, got 6"),
            ("0,0,0,0,0,1,1.0,1", r"bad\.csv:2: expected 7 fields, got 8"),
            ("+0,0,0,0,0,1,1.0", r"bad\.csv:2: round_id must be an integer, got '\+0'"),
            (" 0,0,0,0,0,1,1.0", r"bad\.csv:2: round_id must be an integer, got ' 0'"),
            ("0_0,0,0,0,0,1,1.0", r"bad\.csv:2: round_id must be an integer, got '0_0'"),
            ("00,0,0,0,0,1,1.0", r"bad\.csv:2: round_id 00, expected 0"),
            ("0,0,0,0,0,1, 1e0", r"bad\.csv:2: leaf_measure must be a number, got ' 1e0'"),
            ("0,0,0,0,0,1,1e0", r"bad\.csv:2: leaf_measure must be a number, got '1e0'"),
            ("0,0,0,0,0,1,+1.0", r"bad\.csv:2: leaf_measure must be a number, got '\+1\.0'"),
            ("0,0,0,0,0,1,1_0", r"bad\.csv:2: leaf_measure must be a number, got '1_0'"),
        ],
        ids=["qa", "qb", "aa", "ab", "round-id-float", "round-id-word", "leaf-word",
             "leaf-empty", "six-fields", "eight-fields", "round-id-plus", "round-id-space",
             "round-id-underscore", "round-id-leading-zero", "leaf-space-exponent",
             "leaf-exponent", "leaf-plus", "leaf-underscore"],
    )
    def test_read_back_names_the_bad_field_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"round_id,qa,qb,aa,ab,win,leaf_measure\n{row}\n")
        with pytest.raises(ValueError, match=message):
            harness.read_round_table(str(path))

    def test_read_back_names_a_bad_field_after_good_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "round_id,qa,qb,aa,ab,win,leaf_measure\n"
            "0,0,0,0,0,1,1.000000000\n1,1,1,0,1,1,0.500000000\n2,1,3,0,0,1,1.000000000\n"
        )
        with pytest.raises(ValueError, match=r"bad\.csv:4: qb must be 0 or 1, got '3'"):
            harness.read_round_table(str(path))

    def test_read_back_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("round,qa,qb\n")
        with pytest.raises(ValueError, match="header"):
            harness.read_round_table(str(path))

    def test_unwritable_output_path_raises(self, tmp_path):
        played = harness.play_rounds(classical_cfg(rounds=2))
        with pytest.raises(OSError):
            harness.write_report(*played, str(tmp_path / "no" / "such" / "dir" / "x"))


#: Rounds 0-9 of a valid table.
TEN_ROWS = "".join(f"{i},0,0,0,0,1,1.0\n" for i in range(10))


class TestBlockReader:
    """The block reader against the test-side per-line reference reader."""

    HEADER = "round_id,qa,qb,aa,ab,win,leaf_measure\n"

    def written(self, tmp_path):
        report, played = harness.play_rounds(
            TournamentConfig(rounds=3 * BLOCK_ROUNDS, mode="quantum", seed=31)
        )
        harness.write_report(report, played, str(tmp_path / "run"))
        return tmp_path / "run.csv"

    @pytest.mark.parametrize(
        "rows, codes, records",
        [
            ("0,0,0,0,0,1,1.0\n1,1,1,0,1,1,0.5", [0, 1],
             [(0, 0, 0, 0, True, 1.0), (1, 1, 0, 1, True, 0.5)]),
            ("0,0,0,0,0,1,1.0\r\n1,1,1,0,1,1,0.5\r\n", [0, 1],
             [(0, 0, 0, 0, True, 1.0), (1, 1, 0, 1, True, 0.5)]),
            ("0,0,0,0,0,1,1.0\n1,1,1,0,1,1,0.500000000\n2,0,0,0,0,1,1\n3,0,0,0,0,1,1.0\n",
             [0, 1, 2, 0],
             [(0, 0, 0, 0, True, 1.0), (1, 1, 0, 1, True, 0.5), (0, 0, 0, 0, True, 1.0)]),
            ("0,1,1,0,1,1,0.5\n1,1,1,0,1,1,0.50\n2,1,1,0,1,1,0.5\n", [0, 1, 0],
             [(1, 1, 0, 1, True, 0.5), (1, 1, 0, 1, True, 0.5)]),
            ("0,1,1,0,1,1,0.5\n1,1,1,0,1,1,0.5", [0, 1],
             [(1, 1, 0, 1, True, 0.5), (1, 1, 0, 1, True, 0.5)]),
            ("0,0,0,0,0,1,0." + "0" * (harness._READ_CHARS + 5) + "\n1,0,0,0,0,1,1.0\n", [0, 1],
             [(0, 0, 0, 0, True, 0.0), (0, 0, 0, 0, True, 1.0)]),
            ("0,0,0,0,0,1,0.1\n1,0,0,0,0,1,0.2\n2,0,0,0,0,1,0.1\n3,0,0,0,0,1,0.2\n",
             [0, 1, 0, 1], [(0, 0, 0, 0, True, 0.1), (0, 0, 0, 0, True, 0.2)]),
        ],
        ids=["no-final-newline", "crlf", "mixed-length-measures", "0.5-and-0.50",
             "last-text-without-newline", "line-longer-than-a-read", "one-first-word-two-texts"],
    )
    def test_irregular_valid_files_read_as_line_by_line(self, tmp_path, rows, codes, records):
        path = tmp_path / "odd.csv"
        path.write_bytes((self.HEADER + rows).encode())
        table = harness.read_round_table(str(path))
        assert_same_table(table, read_lines_reference(str(path)))
        assert table.codes.tolist() == codes
        assert table.rows == records

    def test_crlf_copy_of_a_written_table_reads_the_same(self, tmp_path):
        path = self.written(tmp_path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert_same_table(harness.read_round_table(str(crlf)), read_lines_reference(str(path)))

    @pytest.mark.parametrize("form", ["canonical", "crlf", "no-final-newline", "mixed-widths"])
    def test_the_file_is_opened_once(self, tmp_path, monkeypatch, form):
        path = self.written(tmp_path)
        data = path.read_bytes()
        if form == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif form == "no-final-newline":
            data = data[:-1]
        elif form == "mixed-widths":
            # Rounds asked qa = 1 lose their measure's last digit.
            data = re.sub(rb"(?m)^([0-9]+,1,.*)[0-9]$", rb"\1", data)
            assert len({len(line.partition(b",")[2]) for line in data.splitlines()[1:]}) == 2
        path.write_bytes(data)
        reference = read_lines_reference(str(path))
        opened = []
        monkeypatch.setattr(
            harness, "open", lambda *args, **kw: opened.append(args[0]) or open(*args, **kw),
            raising=False,
        )
        assert_same_table(harness.read_round_table(str(path)), reference)
        assert opened == [str(path)]

    @pytest.mark.parametrize(
        "texts",
        [
            [b",0,0,0,0,1,0.1\n", b",0,0,0,0,1,0.2\n", b",0,0,0,0,1,0.1\n", b",0,0,0,0,1,0.2\n"],
            [b",1,1,0,1,1,0.25\n", b",1,1,0,1,1,0.250\n", b",1,1,0,1,1,0.25\n",
             b",1,1,0,1,1,0.2500\n"],
            [b",1\n", b",1,0\n", b",1\n", b"\n", b",1,0\n", b",1,0.5\n", b"\n", b",1\n"],
            [b",0,0,0,0,1,1.0\n", b",0,0,0,0,1,1.0\n", b",0,0,0,0,1,1.0"],
            [b",1,1,0,1,1,0." + b"7" * 40 + b"\n", b",1,1,0,1,1,0." + b"7" * 39 + b"8\n",
             b",1,1,0,1,1,0." + b"7" * 40 + b"\n"],
            # Equal first words, and the second text's word at byte 8 is the
            # first text's at byte 7: only their lengths tell them apart.
            [b",0,0,0,0,1,0.5\n", b",0,0,0,00,1,0.5\n", b",0,0,0,0,1,0.5\n"],
        ],
        ids=["shared-first-word", "prefix", "shorter-than-a-word", "last-without-newline",
             "differ-in-the-last-byte", "same-word-one-byte-later"],
    )
    def test_each_equal_text_run_holds_the_lines_of_one_text(self, texts):
        # Round ids of varying length lie between the texts, as in a block.
        data = b"".join(f"{i * 37}".encode() + text for i, text in enumerate(texts))
        ends = np.cumsum([len(f"{i * 37}") + len(text) for i, text in enumerate(texts)])
        lengths = np.array([len(text) for text in texts])
        order, run_starts = harness._equal_text_runs(data, ends - lengths, lengths)
        assert sorted(order.tolist()) == list(range(len(texts)))
        runs = [{texts[i] for i in run} for run in np.split(order, run_starts[1:])]
        assert all(len(run) == 1 for run in runs)
        assert len(runs) == len(set(texts))

    @pytest.mark.parametrize(
        "bad_fields, message",
        [({5: (1, "2"), 3 * BLOCK_ROUNDS - 2: (0, "x")}, ":7: qa must be 0 or 1, got '2'"),
         ({BLOCK_ROUNDS + 7: (1, "2"), 9: (6, "2.0")}, ":11: leaf_measure 2.0 is not in [0, 1]")],
        ids=["earlier-block", "later-block"],
    )
    def test_of_two_bad_lines_the_earlier_is_named(self, tmp_path, bad_fields, message):
        path = self.written(tmp_path)
        lines = path.read_text(encoding="utf-8").split("\n")
        for row, (field, text) in bad_fields.items():
            fields = lines[row + 1].split(",")
            fields[field] = text
            lines[row + 1] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            harness.read_round_table(str(path))

    @pytest.mark.parametrize(
        "rows, message",
        [("\n", r"bad\.csv:2: expected 7 fields, got 1"),
         # A line break moved one line on: each half of the first line
         # looks like a row.
         ("0,0,0,0,0,1,1.0001,0,0,0,0,1,1.0\n\n", r"bad\.csv:2: expected 7 fields, got 13"),
         ("0,0,0,0,0,1,1.0\n1", r"bad\.csv:3: expected 7 fields, got 1"),
         # Round 10's line is shorter than its id, inside a block and at its end.
         (TEN_ROWS + "1\n11,0,0,0,0,1,1.0\n", r"bad\.csv:12: expected 7 fields, got 1"),
         (TEN_ROWS + "1", r"bad\.csv:12: expected 7 fields, got 1")],
        ids=["blank-line", "line-break-moved", "only-a-round-id", "shorter-than-its-id",
             "last-line-shorter-than-its-id"],
    )
    def test_bytes_that_only_look_canonical_are_rejected(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + rows, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            harness.read_round_table(str(path))

    def test_a_file_that_is_not_utf8_fails_with_a_decode_error(self, tmp_path):
        path = self.written(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(UnicodeDecodeError) as got:
            harness.read_round_table(str(path))
        assert isinstance(got.value, ValueError)
        assert got.value.object[got.value.start] == 0xFF
        assert "invalid start byte" in str(got.value)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((1, 1, 0, 1, True, 12.5), "leaf_measure 12.5 is not in [0, 1]"),
            ((1, 1, 0, 1, True, -0.0), "leaf_measure must be a number, got '-0.000000000'"),
            ((1, 1, 0, 1, True, math.nan), "leaf_measure must be a number, got 'nan'"),
            ((1, 1, 0, 0, True, 0.5), "win tag 1 contradicts the game rule"),
            ((True, 1, 0, 1, True, 0.5), "qa must be 0 or 1, got 'True'"),
        ],
        ids=["measure-12.5", "measure-minus-zero", "measure-nan", "contradicting-win-tag",
             "qa-True"],
    )
    def test_a_row_the_reader_would_reject_is_refused_before_either_file_opens(
        self, tmp_path, row, message
    ):
        rows = [(0, 0, 0, 0, True, 1.0), row, (0, 1, 1, 1, True, 0.25)]
        codes = np.random.default_rng(3).integers(0, 3, 2 * BLOCK_ROUNDS + 5).astype(np.uint8)
        report, _ = harness.play_rounds(classical_cfg(rounds=1))
        base = tmp_path / "run"
        with pytest.raises(ValueError, match=re.escape(f"{base}.csv rows[1]: {message}")):
            harness.write_report(report, RoundTable(codes, rows), str(base))
        assert not (tmp_path / "run.json").exists()
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("path", ["", "runs/", 5, None])
    def test_a_path_naming_no_file_is_refused_before_either_file_opens(
        self, tmp_path, monkeypatch, path
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs").mkdir()
        played = harness.play_rounds(classical_cfg(rounds=10))
        with pytest.raises(ValueError) as got:
            harness.write_report(*played, path)
        assert str(got.value) == f"report path must name a file, got {path!r}"
        assert [p.name for p in tmp_path.iterdir()] == ["runs"]
        assert list((tmp_path / "runs").iterdir()) == []

    def test_the_summary_file_is_the_report_json_and_a_newline(self, tmp_path):
        report, played = harness.play_rounds(TournamentConfig(rounds=10, mode="quantum", seed=3))
        harness.write_report(report, played, str(tmp_path / "run"))
        text = report.to_json()
        assert (tmp_path / "run.json").read_text() == f"{text}\n"
        assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True)
        with pytest.raises(ValueError, match="not JSON compliant"):
            dataclasses.replace(report, win_rate=math.inf).to_json()

    def test_a_summary_that_is_not_strict_json_is_refused_before_either_file_opens(
        self, tmp_path
    ):
        report, played = harness.play_rounds(classical_cfg(rounds=10))
        report = dataclasses.replace(report, win_rate=math.nan)
        with pytest.raises(ValueError, match="not JSON compliant"):
            harness.write_report(report, played, str(tmp_path / "run"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "codes, message",
        [
            (np.array([0, 5], np.uint8), "codes must index the 1 rows, got 5"),
            (np.array([0, -1]), "codes must be one unsigned integer array, got array([ 0, -1])"),
        ],
        ids=["past-the-rows", "signed"],
    )
    def test_codes_that_do_not_index_the_rows_are_refused_before_either_file_opens(
        self, tmp_path, codes, message
    ):
        report, _ = harness.play_rounds(classical_cfg(rounds=1))
        base = tmp_path / "run"
        with pytest.raises(ValueError, match=re.escape(f"{base}.csv {message}")):
            harness.write_report(report, RoundTable(codes, [(0, 0, 0, 0, True, 1.0)]), str(base))
        assert not (tmp_path / "run.json").exists()
        assert not (tmp_path / "run.csv").exists()

    def test_a_table_with_no_rows_writes_the_header_only_csv(self, tmp_path):
        report, _ = harness.play_rounds(classical_cfg(rounds=1))
        base = tmp_path / "run"
        harness.write_report(report, RoundTable(np.empty(0, dtype=np.uint8), []), str(base))
        assert (tmp_path / "run.csv").read_bytes() == f"{harness.ROUND_TABLE_HEADER}\n".encode()
        assert harness.read_round_table(f"{base}.csv") == []

    def test_writing_and_reading_keep_bounded_buffers(self, tmp_path):
        def peak(rounds):
            report, played = harness.play_rounds(
                TournamentConfig(rounds=rounds, mode="quantum", seed=8)
            )
            base = str(tmp_path / f"run{rounds}")
            tracemalloc.start()
            try:
                harness.write_report(report, played, base)
                harness.read_round_table(f"{base}.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 3 * BLOCK_ROUNDS, 30 * BLOCK_ROUNDS
        assert peak(large) - peak(small) < 4 * (large - small)

    def test_a_very_long_measure_keeps_the_read_buffers_small(self, tmp_path):
        report, played = harness.play_rounds(TournamentConfig(rounds=4000, mode="quantum", seed=8))
        harness.write_report(report, played, str(tmp_path / "run"))
        path = tmp_path / "run.csv"
        lines = path.read_bytes().split(b"\n")
        fields = lines[11].split(b",")
        fields[6] = b"0." + b"3" * 99_999
        lines[11] = b",".join(fields)
        path.write_bytes(b"\n".join(lines))
        tracemalloc.start()
        try:
            table = harness.read_round_table(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_table(table, read_lines_reference(str(path)))
        assert table[10].leaf_measure == float(b"0." + b"3" * 99_999)
        # Padding the first block's texts to its widest one would take about 100 MiB.
        assert peak < 4 * 2**20
