"""Tests for the tournament harness, geometry audit, and report files."""

import json
import math
import re
from fractions import Fraction

import pytest

from chsh_local import game, harness
from chsh_local.game import DeterministicStrategy, QuestionPair
from chsh_local.harness import Geometry, TournamentConfig

ALL_ZERO = DeterministicStrategy(0, 0, 0, 0)
UNIFORM = tuple(Fraction(1, 16) for _ in range(16))


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

    def test_classical_needs_strategy(self):
        with pytest.raises(ValueError):
            TournamentConfig(rounds=10, mode="classical")

    def test_mixed_needs_valid_weights(self):
        with pytest.raises(ValueError):
            TournamentConfig(rounds=10, mode="mixed")
        with pytest.raises(ValueError):
            TournamentConfig(rounds=10, mode="mixed", weights=(Fraction(1, 8),) * 16)

    def test_quantum_defaults_to_canonical_protocol(self):
        cfg = TournamentConfig(rounds=10, mode="quantum")
        assert cfg.protocol is not None
        assert cfg.protocol.theta_a0 == 0.0


class TestCausalityAudit:
    def test_default_geometry_isolates(self):
        ok, report = harness.audit_geometry(Geometry())
        assert ok
        assert report["margin_light_minutes"] == pytest.approx(25.0)

    def test_boundary_is_not_isolation(self):
        ok, _ = harness.audit_geometry(Geometry(30.0, 30.0))
        assert not ok

    def test_window_longer_than_distance(self):
        ok, report = harness.audit_geometry(Geometry(4.0, 5.0))
        assert not ok
        assert report["margin_light_minutes"] == pytest.approx(-1.0)

    def test_nonpositive_geometry_rejected(self):
        with pytest.raises(ValueError):
            harness.audit_geometry(Geometry(0.0, 5.0))
        with pytest.raises(ValueError):
            harness.audit_geometry(Geometry(30.0, -1.0))


class TestClassicalTournament:
    def test_hundred_thousand_rounds_near_ceiling(self):
        report = harness.run_tournament(classical_cfg(rounds=100_000, seed=7))
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
        report = harness.run_tournament(
            classical_cfg(rounds=1000, sampling="exact_measure")
        )
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
        report = harness.run_tournament(cfg)
        sigma = math.sqrt(0.5 * 0.5 / 40_000)
        assert abs(report.win_rate - 0.5) <= 3.0 * sigma

    def test_exact_rates_match_weighted_predicates(self):
        cfg = TournamentConfig(
            rounds=100, mode="mixed", seed=1, weights=UNIFORM, sampling="exact_measure"
        )
        report = harness.run_tournament(cfg)
        for stats in report.per_pair.values():
            assert stats.rate == pytest.approx(0.5)

    def test_point_mass_mixture_reduces_to_strategy(self):
        weights = [Fraction(0)] * 16
        weights[0] = Fraction(1)
        cfg = TournamentConfig(rounds=500, mode="mixed", seed=3, weights=tuple(weights))
        _, records = harness.play_rounds(cfg)
        for r in records:
            assert (r.aa, r.ab) == ALL_ZERO.answers(QuestionPair(r.qa, r.qb))


class TestQuantumTournament:
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
        report = harness.run_tournament(cfg)
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
        report = harness.run_tournament(cfg)
        assert not report.isolation
        assert harness.run_tournament(TournamentConfig(rounds=10, mode="quantum", seed=1)).isolation


class TestDeterminism:
    def test_identical_config_gives_identical_reports(self):
        cfg = TournamentConfig(rounds=5000, mode="quantum", seed=123)
        r1, rec1 = harness.play_rounds(cfg)
        r2, rec2 = harness.play_rounds(cfg)
        assert r1 == r2
        assert rec1 == rec2

    def test_identical_config_gives_byte_identical_files(self, tmp_path):
        for name in ("a", "b"):
            cfg = TournamentConfig(
                rounds=2000,
                mode="quantum",
                seed=99,
                output_path=str(tmp_path / name),
            )
            harness.run_tournament(cfg)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seeds_differ(self):
        _, rec1 = harness.play_rounds(classical_cfg(seed=1))
        _, rec2 = harness.play_rounds(classical_cfg(seed=2))
        assert [(r.qa, r.qb) for r in rec1] != [(r.qa, r.qb) for r in rec2]


class TestReportFiles:
    def test_csv_format_is_fixed(self, tmp_path):
        base = tmp_path / "run"
        harness.run_tournament(classical_cfg(rounds=3, output_path=str(base)))
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "round_id,qa,qb,aa,ab,win,leaf_measure"
        assert len(lines) == 4
        row = re.compile(r"^\d+,[01],[01],[01],[01],[01],\d\.\d{9}$")
        for line in lines[1:]:
            assert row.match(line), line

    def test_json_field_names_and_reference_values(self, tmp_path):
        base = tmp_path / "run"
        harness.run_tournament(classical_cfg(rounds=3, output_path=str(base)))
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
        cfg = TournamentConfig(
            rounds=50, mode="quantum", seed=4, sampling="exact_measure", output_path=str(base)
        )
        harness.run_tournament(cfg)
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

    @pytest.mark.parametrize("measure", ["nan", "inf", "-inf", "-0.000000001", "1.000000001"])
    def test_read_back_rejects_leaf_measure_outside_unit_interval(self, tmp_path, measure):
        path = tmp_path / "bad.csv"
        path.write_text(f"round_id,qa,qb,aa,ab,win,leaf_measure\n0,0,0,0,0,1,{measure}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: leaf_measure"):
            harness.read_round_table(str(path))

    def test_read_back_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("round,qa,qb\n")
        with pytest.raises(ValueError, match="header"):
            harness.read_round_table(str(path))

    def test_unwritable_output_path_raises(self, tmp_path):
        cfg = classical_cfg(rounds=2, output_path=str(tmp_path / "no" / "such" / "dir" / "x"))
        with pytest.raises(OSError):
            harness.run_tournament(cfg)
