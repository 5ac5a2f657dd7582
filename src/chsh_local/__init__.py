"""CHSH game simulator with a strictly local Heisenberg-picture engine.

The package splits into five layers:

* :mod:`chsh_local.linalg` — dense complex matrix utilities and the shared
  gate constants, including the global qubit-ordering convention.
* :mod:`chsh_local.descriptors` — the Heisenberg-picture engine: per-qubit
  descriptor pairs evolved against a fixed reference state, with locality
  built into gate application.
* :mod:`chsh_local.statevector` — the independent Schrodinger-picture
  oracle used to cross-check every measure the engine produces.
* :mod:`chsh_local.game` — the CHSH game itself: exact classical analysis,
  the quantum protocol, branch trees, and the redundancy demo.
* :mod:`chsh_local.harness` — seeded tournaments, the station geometry,
  and report files; :mod:`chsh_local.cli` exposes it all as a command line.
"""

from .descriptors import (
    Descriptor,
    DescriptorNetwork,
    GateSpec,
    apply_circuit,
    apply_gate,
    branch_measure,
    conditional_measure,
    init_network,
    joint_measure,
    locality_audit,
    record_measures,
)
from .game import (
    CLASSICAL_CEILING,
    QUANTUM_WIN_RATE,
    QUESTION_PAIRS,
    BranchLeaf,
    BranchNode,
    BranchTree,
    DeterministicStrategy,
    QuantumProtocol,
    QuestionPair,
    all_strategies,
    branch_tree,
    build_round_network,
    classical_optimum,
    default_protocol,
    mixed_strategy_rate,
    oracle_win_probability,
    redundancy_demo,
    strategy_win_rate,
    win_predicate,
)
from .harness import (
    Geometry,
    RoundRecord,
    RoundTable,
    TournamentConfig,
    TournamentReport,
    play_rounds,
    read_round_table,
    write_report,
)
from .statevector import (
    StateVector,
    apply_circuit_sv,
    apply_gate_sv,
    init_state,
    outcome_probability,
    record_probabilities,
    run_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "BranchLeaf",
    "BranchNode",
    "BranchTree",
    "CLASSICAL_CEILING",
    "Descriptor",
    "DescriptorNetwork",
    "DeterministicStrategy",
    "GateSpec",
    "Geometry",
    "QUANTUM_WIN_RATE",
    "QUESTION_PAIRS",
    "QuantumProtocol",
    "QuestionPair",
    "RoundRecord",
    "RoundTable",
    "StateVector",
    "TournamentConfig",
    "TournamentReport",
    "all_strategies",
    "apply_circuit",
    "apply_circuit_sv",
    "apply_gate",
    "apply_gate_sv",
    "branch_measure",
    "branch_tree",
    "build_round_network",
    "classical_optimum",
    "conditional_measure",
    "default_protocol",
    "init_network",
    "init_state",
    "joint_measure",
    "locality_audit",
    "mixed_strategy_rate",
    "oracle_win_probability",
    "outcome_probability",
    "play_rounds",
    "read_round_table",
    "record_measures",
    "record_probabilities",
    "redundancy_demo",
    "run_circuit",
    "strategy_win_rate",
    "win_predicate",
    "write_report",
]
