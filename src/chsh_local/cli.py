"""Command-line entry point.

Subcommands:

* `enumerate` prints the 16-strategy table with exact win rates and the
  classical optimum.
* `play` runs a tournament; every knob is available as a flag and as a key
  in a JSON config file (flags win on conflict).
* `audit` checks the station geometry and exits 0 only when the stations
  are isolated.
* `branch` prints the branch tree of one question pair.
* `verify` runs the picture-equivalence and locality suites and exits 0
  only when both pass; a circuit count below 1 is a bad input.

Exit codes: 0 success; 1 a failed check, a bad input or a round count too
large to hold in memory (`error: ...`);
2 a usage error; 3 a violated internal invariant, such as protocol drift
or broken commutation (`error: invariant violated: ...`).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import game, harness, verify
from .game import DeterministicStrategy, QuestionPair
from .harness import Geometry, TournamentConfig

#: Flag spellings of the sampling modes.
_SAMPLING_BY_FLAG = {"exact": "exact_measure", "mc": "monte_carlo"}

#: Each `play` option and its default.  An option is resolved as its flag,
#: else the config key of the same name, else this default; a config file
#: may hold no other key.
_PLAY_DEFAULTS = {
    "rounds": 1000,
    "mode": "quantum",
    "seed": 0,
    "sampling": "mc",
    "out": None,
    "strategy": None,
    "weights": None,
    "distance": Geometry.distance_light_minutes,
    "window": Geometry.answer_window_minutes,
}


def _parse_strategy(text: str) -> DeterministicStrategy:
    if len(text) != 4 or any(c not in "01" for c in text):
        raise ValueError(f"strategy must be 4 bits like 0000, got {text!r}")
    return DeterministicStrategy(*(int(c) for c in text))


def _parse_weights(raw):
    if isinstance(raw, str):
        raw = raw.split(",")
    # JSON numbers go through their decimal text; TournamentConfig rejects a non-list.
    return tuple(Fraction(str(w)) for w in raw) if isinstance(raw, list) else raw


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(config) - set(_PLAY_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
    return config


def _cmd_enumerate(_args: argparse.Namespace) -> int:
    print("a0 a1 b0 b1  win rate")
    for s in game.all_strategies():
        rate = game.strategy_win_rate(s)
        print(f" {s.a0}  {s.a1}  {s.b0}  {s.b1}  {rate} = {float(rate):.2f}")
    best, optima = game.classical_optimum()
    print(f"optimum: {best} = {float(best):.2f}, attained by {len(optima)} of 16 strategies")
    return 0


def _cmd_play(args: argparse.Namespace) -> int:
    config = _load_config(args.config) if args.config else {}
    opts = {
        key: config.get(key, default) if getattr(args, key) is None else getattr(args, key)
        for key, default in _PLAY_DEFAULTS.items()
    }
    mode, strategy, weights = opts["mode"], opts["strategy"], opts["weights"]
    if isinstance(strategy, str):
        strategy = _parse_strategy(strategy)
    if weights is not None:
        weights = _parse_weights(weights)
    if mode == "classical" and strategy is None:
        strategy = DeterministicStrategy(0, 0, 0, 0)
    if mode == "mixed" and weights is None:
        weights = tuple(Fraction(1, 16) for _ in range(16))
    cfg = TournamentConfig(
        rounds=opts["rounds"],
        mode=mode,
        seed=opts["seed"],
        # A config value may be any JSON value; a list is not a dict key.
        sampling=_SAMPLING_BY_FLAG.get(str(opts["sampling"]), opts["sampling"]),
        strategy=strategy,
        weights=weights,
        geometry=Geometry(opts["distance"], opts["window"]),
        output_path=opts["out"],
    )
    report = harness.run_tournament(cfg)
    if cfg.mode == "quantum" and not report.isolation:
        print(
            "warning: stations are not isolated; the win rate cannot be read "
            "as a violation under isolation",
            file=sys.stderr,
        )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    isolated, report = harness.audit_geometry(
        Geometry(
            distance_light_minutes=args.distance,
            answer_window_minutes=args.window,
        )
    )
    print(f"distance: {report['distance_light_minutes']} light-minutes")
    print(f"answer window: {report['answer_window_minutes']} minutes")
    print(f"margin: {report['margin_light_minutes']} light-minutes")
    print(f"isolated: {'yes' if isolated else 'no'}")
    return 0 if isolated else 1


def _cmd_branch(args: argparse.Namespace) -> int:
    q = QuestionPair(args.qa, args.qb)
    tree = game.branch_tree(game.default_protocol(), q)
    print(f"question pair ({q.qa}, {q.qb})")
    print(f"root measure {tree.root_measure:.9f}")
    for node in tree.branches:
        print(f"alice outcome {node.outcome}  measure {node.measure:.9f}")
        for leaf in node.leaves:
            tag = "win" if leaf.win else "lose"
            print(
                f"  bob outcome {leaf.bob_outcome}  conditional {leaf.conditional:.9f}"
                f"  leaf ({leaf.alice_outcome}, {leaf.bob_outcome})"
                f" measure {leaf.measure:.9f}  {tag}"
            )
    print(f"win measure {tree.win_measure():.9f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # Both counts are checked before either suite runs, so a bad one prints no result.
    for n_circuits in (args.circuits, args.locality_circuits):
        verify.check_circuit_count(n_circuits)
    equivalence = verify.picture_equivalence_suite(n_circuits=args.circuits)
    print(f"picture equivalence: {'PASS' if equivalence.passed else 'FAIL'} ({equivalence.detail})")
    locality = verify.locality_suite(n_circuits=args.locality_circuits)
    print(f"locality: {'PASS' if locality.passed else 'FAIL'} ({locality.detail})")
    return 0 if equivalence.passed and locality.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chsh-local",
        description="CHSH game simulator: classical ceiling, quantum protocol, local engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("enumerate", help="print the 16-strategy table and the classical optimum")

    play = sub.add_parser("play", help="run a tournament")
    play.add_argument("--rounds", type=int, default=None, help="number of rounds (default 1000)")
    play.add_argument(
        "--mode",
        choices=("classical", "mixed", "quantum"),
        default=None,
        help="answer source (default quantum)",
    )
    play.add_argument("--seed", type=int, default=None, help="tournament seed (default 0)")
    play.add_argument(
        "--sampling",
        choices=("exact", "mc"),
        default=None,
        help="exact analytic measures or Monte Carlo sampling (default mc)",
    )
    play.add_argument("--out", default=None, help="base path for the .json/.csv report files")
    play.add_argument("--config", default=None, help="JSON config file; flags take precedence")
    play.add_argument(
        "--strategy",
        default=None,
        help="classical strategy as 4 bits a0a1b0b1 (default 0000)",
    )
    play.add_argument(
        "--weights",
        default=None,
        help="16 comma-separated strategy weights, fractions allowed (default uniform)",
    )
    play.add_argument(
        "--distance", type=float, default=None, help="station separation in light-minutes"
    )
    play.add_argument(
        "--window", type=float, default=None, help="answer window in minutes"
    )

    audit = sub.add_parser("audit", help="check the station isolation geometry")
    audit.add_argument("--distance", type=float, default=Geometry.distance_light_minutes)
    audit.add_argument("--window", type=float, default=Geometry.answer_window_minutes)

    branch = sub.add_parser("branch", help="print the branch tree for one question pair")
    branch.add_argument("--qa", type=int, choices=(0, 1), required=True)
    branch.add_argument("--qb", type=int, choices=(0, 1), required=True)

    check = sub.add_parser("verify", help="run the picture-equivalence and locality suites")
    check.add_argument("--circuits", type=int, default=1000)
    check.add_argument("--locality-circuits", type=int, default=500)

    return parser


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "play": _cmd_play,
    "audit": _cmd_audit,
    "branch": _cmd_branch,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: invariant violated: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
