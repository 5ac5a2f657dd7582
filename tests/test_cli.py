"""Tests for the command-line interface."""

import json
import re
from fractions import Fraction

import pytest

from chsh_local import cli, harness, verify
from chsh_local.game import DeterministicStrategy

COS2_PI_8 = 0.8535533905932737


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


#: Per `play` option: a config value, a flag value, the config field the
#: option resolves to, and that field's value with neither, from the config
#: alone, and with the flag as well.
PLAY_OPTIONS = {
    "rounds": (50, "20", lambda c: c.rounds, (1000, 50, 20)),
    "mode": ("classical", "mixed", lambda c: c.mode, ("quantum", "classical", "mixed")),
    "seed": (9, "3", lambda c: c.seed, (0, 9, 3)),
    "sampling": ("exact", "mc", lambda c: c.sampling,
                 ("monte_carlo", "exact_measure", "monte_carlo")),
    "out": ("from-config", "from-flag", lambda c: c.output_path,
            (None, "from-config", "from-flag")),
    "strategy": ([0, 1, 1, 0], "1001", lambda c: c.strategy,
                 (None, DeterministicStrategy(0, 1, 1, 0), DeterministicStrategy(1, 0, 0, 1))),
    "weights": ([1] + [0] * 15, ",".join(["0"] * 15 + ["1"]), lambda c: c.weights,
                (None, (1,) + (0,) * 15, (0,) * 15 + (Fraction(1),))),
    "distance": (40, "50", lambda c: c.geometry.distance_light_minutes, (30.0, 40, 50.0)),
    "window": (2, "3", lambda c: c.geometry.answer_window_minutes, (5.0, 2, 3.0)),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "conjure")
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "audit", "--sideways")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "enumerate" in out


class TestEnumerate:
    def test_table_and_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 18
        rates = [float(line.split("=")[1]) for line in lines[1:17]]
        assert max(rates) == 0.75
        assert rates.count(0.75) == 8
        assert "optimum: 3/4 = 0.75" in lines[-1]


class TestAudit:
    def test_default_geometry_passes(self, capsys):
        code, out, _ = run_cli(capsys, "audit")
        assert code == 0
        assert "margin: 25.0 light-minutes" in out
        assert "isolated: yes" in out

    def test_boundary_fails(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--distance", "30", "--window", "30")
        assert code == 1
        assert "isolated: no" in out

    def test_bad_geometry_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--distance", "-2")
        assert code == 1
        assert "error:" in err


class TestBranch:
    def test_one_one_leaf_measures(self, capsys):
        code, out, _ = run_cli(capsys, "branch", "--qa", "1", "--qb", "1")
        assert code == 0
        leaves = {}
        for match in re.finditer(r"leaf \((\d), (\d)\) measure (\d\.\d+)\s+(win|lose)", out):
            leaves[(int(match.group(1)), int(match.group(2)))] = (
                float(match.group(3)),
                match.group(4),
            )
        assert leaves[(0, 1)][0] == pytest.approx(0.426777, abs=1e-6)
        assert leaves[(1, 0)][0] == pytest.approx(0.426777, abs=1e-6)
        assert leaves[(0, 0)][0] == pytest.approx(0.073223, abs=1e-6)
        assert leaves[(1, 1)][0] == pytest.approx(0.073223, abs=1e-6)
        assert leaves[(0, 1)][1] == "win"
        assert leaves[(0, 0)][1] == "lose"

    def test_question_bits_validated(self, capsys):
        code, _, _ = run_cli(capsys, "branch", "--qa", "2", "--qb", "0")
        assert code == 2


class TestPlay:
    def test_classical_play_writes_report(self, capsys, tmp_path):
        base = tmp_path / "out"
        code, out, _ = run_cli(
            capsys,
            "play",
            "--mode", "classical",
            "--rounds", "100",
            "--seed", "6",
            "--out", str(base),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["total_rounds"] == 100
        assert summary["mode"] == "classical"
        assert (tmp_path / "out.json").exists()
        assert (tmp_path / "out.csv").exists()

    def test_a_round_count_too_large_to_hold_is_an_error(self, capsys):
        # 2**62 one-byte codes exceed any 64-bit address space, so the
        # allocation is refused at once and nothing is allocated.
        code, out, err = run_cli(capsys, "play", "--mode", "classical", "--rounds", str(2**62))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_quantum_exact_rates(self, capsys):
        code, out, _ = run_cli(
            capsys, "play", "--mode", "quantum", "--sampling", "exact", "--rounds", "400"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["analytic"] is True
        for stats in summary["per_pair"].values():
            assert stats["rate"] == pytest.approx(COS2_PI_8, abs=1e-8)

    def test_config_file_supplies_defaults_and_flags_win(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rounds": 50, "mode": "classical", "seed": 9}))
        code, out, _ = run_cli(
            capsys, "play", "--config", str(config), "--rounds", "20"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["total_rounds"] == 20
        assert summary["mode"] == "classical"
        assert summary["seed"] == 9

    def test_config_with_unknown_key_is_an_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"roundz": 50}))
        code, _, err = run_cli(capsys, "play", "--config", str(config))
        assert code == 1
        assert "unknown config keys" in err

    def test_config_rounds_must_be_an_int(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rounds": 2.5}))
        code, _, err = run_cli(capsys, "play", "--config", str(config))
        assert code == 1
        assert "rounds must be an int" in err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"mode": "classical", "strategy": 5}, "strategy must be 4 bits"),
            ({"mode": "classical", "strategy": [0, 2, 1, 0]}, "strategy must be 4 bits"),
            ({"mode": "classical", "strategy": [0, 1, 1]}, "strategy must be 4 bits"),
            ({"mode": "classical", "strategy": [True, False, True, True]}, "must be 4 bits"),
            ({"mode": "mixed", "weights": 5}, "weights must be a list of 16"),
            ({"mode": "mixed", "weights": {"a": 1}}, "weights must be a list of 16"),
            ({"mode": "quantum", "strategy": 5}, "strategy must be 4 bits"),
            ({"mode": "quantum", "weights": 5}, "weights must be a list of 16"),
            ({"distance": [1]}, "geometry must be"),
            ({"window": "5"}, "geometry must be"),
            ({"sampling": ["mc"]}, "sampling must be one of"),
            ({"out": 5}, "output_path must be a string, got 5"),
            ({"out": True}, "output_path must be a string, got True"),
            ({"out": ["run"]}, "output_path must be a string, got ['run']"),
        ],
        ids=["strategy-int", "strategy-bit-2", "strategy-three-bits", "strategy-bools",
             "weights-int", "weights-object", "quantum-strategy-int", "quantum-weights-int",
             "distance-list", "window-string", "sampling-list", "out-int", "out-bool",
             "out-list"],
    )
    def test_config_value_of_the_wrong_type_is_an_error(
        self, capsys, monkeypatch, tmp_path, config, message
    ):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted `out` writes here
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "play", "--config", str(path), "--rounds", "10")
        assert code == 1
        assert err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize("flags", [("--distance", "-1"), ("--distance", "nan"),
                                       ("--window", "inf"), ("--window", "0")])
    def test_bad_geometry_fails_before_any_round_is_drawn(self, capsys, monkeypatch, flags):
        def no_draws(*_):
            raise AssertionError("rounds were drawn")

        monkeypatch.setattr(harness, "_round_uniforms", no_draws)
        code, out, err = run_cli(capsys, "play", "--rounds", "100000", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: geometry must be finite positive numbers")

    def test_single_round_report_is_strict_json(self, capsys, tmp_path):
        # Three of the four question pairs go unseen; their rate is null, not NaN.
        base = tmp_path / "r"
        code, out, _ = run_cli(capsys, "play", "--rounds", "1", "--out", str(base))
        assert code == 0
        for text in (out, (tmp_path / "r.json").read_text()):
            summary = json.loads(text, parse_constant=_reject_constant)
            rates = [stats["rate"] for stats in summary["per_pair"].values()]
            assert rates.count(None) == 3

    def test_mixed_mode_with_fraction_weights(self, capsys):
        weights = ",".join(["1/16"] * 16)
        code, out, _ = run_cli(
            capsys, "play", "--mode", "mixed", "--rounds", "200", "--weights", weights
        )
        assert code == 0
        assert json.loads(out)["mode"] == "mixed"

    def test_bad_weights_are_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "play", "--mode", "mixed", "--rounds", "10", "--weights", "1,1"
        )
        assert code == 1
        assert "error:" in err

    def test_bad_strategy_string(self, capsys):
        code, _, err = run_cli(
            capsys, "play", "--mode", "classical", "--rounds", "10", "--strategy", "012"
        )
        assert code == 1
        assert "strategy" in err

    def test_non_isolated_geometry_warns(self, capsys):
        code, out, err = run_cli(
            capsys,
            "play",
            "--mode", "quantum",
            "--rounds", "10",
            "--distance", "4",
            "--window", "5",
        )
        assert code == 0
        assert json.loads(out)["isolation"] is False
        assert "not isolated" in err

    def test_the_option_table_holds_every_play_option(self):
        dests = set(vars(cli._parser().parse_args(["play"]))) - {"command", "config"}
        assert set(cli._PLAY_DEFAULTS) == dests == set(PLAY_OPTIONS)

    @pytest.mark.parametrize("key", list(cli._PLAY_DEFAULTS))
    def test_each_option_reads_its_config_key_and_its_flag_wins(
        self, capsys, tmp_path, monkeypatch, key
    ):
        config_value, flag, field, expected = PLAY_OPTIONS[key]
        played = []

        def play(cfg):
            played.append(cfg)
            return harness.play_rounds(cfg)[0]

        monkeypatch.setattr(harness, "run_tournament", play)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: config_value}))
        for argv in ([], ["--config", str(path)], ["--config", str(path), f"--{key}", flag]):
            assert run_cli(capsys, "play", *argv)[0] == 0
        assert tuple(map(field, played)) == expected


class TestVerify:
    def test_reduced_suites_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--circuits", "40", "--locality-circuits", "20"
        )
        assert code == 0
        assert out.count("PASS") == 2
        assert "0 order failures" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--circuits", "-5"), "n_circuits must be >= 1, got -5"),
            (("--circuits", "0"), "n_circuits must be >= 1, got 0"),
            (("--circuits", "5", "--locality-circuits", "0"), "n_circuits must be >= 1, got 0"),
        ],
    )
    def test_empty_suites_are_an_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert "PASS (0 " not in out
        assert err == f"error: {message}\n"

    def test_bad_locality_count_fails_before_the_equivalence_suite(self, capsys, monkeypatch):
        def equivalence_suite(**kwargs):
            raise AssertionError("the equivalence suite ran before the counts were checked")

        monkeypatch.setattr(verify, "picture_equivalence_suite", equivalence_suite)
        code, out, err = run_cli(capsys, "verify", "--locality-circuits", "0")
        assert code == 1
        assert out == ""
        assert err == "error: n_circuits must be >= 1, got 0\n"


class TestInvariantViolation:
    def test_runtime_error_is_named_with_its_own_exit_code(self, capsys, monkeypatch):
        def drift(cfg):
            raise RuntimeError("protocol drift: engine and oracle disagree")

        monkeypatch.setattr(harness, "run_tournament", drift)
        code, out, err = run_cli(capsys, "play", "--rounds", "10")
        assert code == 3
        assert out == ""
        assert err == "error: invariant violated: protocol drift: engine and oracle disagree\n"
