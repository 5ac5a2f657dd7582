"""Golden byte-identity of seeded `play` reports and of the engine's measures.

The digests below pin `BASE.json` and `BASE.csv` for a few (mode, sampling,
seed, rounds) cases, some with a strategy or mixture flag.  Any change to
the engine, the sampler or the report writer that moves a single byte of a
seeded report fails here, so a refactor that claims to keep every number
can prove it.  The engine's own numbers are pinned bit for bit as well, by
``float.hex``: every branch tree's parent and leaf measures, the redundancy
visibilities, and digests of ``record_measures`` and of the state-vector
oracle (``run_circuit`` amplitudes and ``record_probabilities``) on seeded
random circuits.
"""

import hashlib

import numpy as np
import pytest

from chsh_local import cli, descriptors, game, statevector, verify

GOLDEN = [
    (
        "quantum", "mc", 0, 5000, (),
        "83fa14c706cc1980c7ef5e72a650e965a3ccbbc9bac1dad639b2fc8a001105cd",
        "fb190288067c0c263a4479da3a03c3b02eb3d4e3770d0287fd1f336cf5449733",
    ),
    (
        "quantum", "exact", 7, 5000, (),
        "613a384c78a09c05a33193df3cc891e0fab4b2082a41cbe564ef8f817af6696e",
        "33ab91839f0c8beacfb6b07425a49fff6b9df626f3aae7184c11a539b1c885e9",
    ),
    (
        "mixed", "mc", 3, 2000, (),
        "41612ea320b129bd7eadcad625a1e4d3a0f2e834cb9934d70272b2aef3c8fbc9",
        "486a7dde1552ae5eb90d6d35b9122a150adc4efb89978c9e0d5693e65150474a",
    ),
    (
        "classical", "mc", 1, 500, (),
        "f7957cb544ce17a28a921d7cbaff31dcd41af89122901966ee14f67b59bd334b",
        "b869ebdb01dc060cb6f22c0ccfeccd5d9cfd7667cf76530f3483c60480e7015d",
    ),
    (
        "quantum", "mc", 2**64 - 1, 1, (),
        "b6b3cb975b6892b8aaf6acdfd539db46ca1343620cdcb5f73eb6fc168eaf39df",
        "e09c6980461b79a41537a3aab1d7f346adc37b38b4a25b375d9a14d31282b141",
    ),
    # Several harness.BLOCK_ROUNDS blocks and a partial one.
    (
        "quantum", "mc", 11, 40000, (),
        "d49cb0944d4406d7eead981ae26dade0482dd21d08b022c11109ab21e2b2de88",
        "8fe4336b2494b36fa52b2b74bcc962288a2da7872ab7da30a800522ca7c97832",
    ),
    # Six-digit round ids; the CSV block of rounds 98304-102400 crosses 10**5.
    (
        "quantum", "mc", 4, 100_001, (),
        "ad410cadd44fd531eb3c81b60bffb10eff1da33a5ad033a3e502e39f5cf91cd1",
        "62a6c18585a04e322c169eee94dd17af1332f63528e61d3fa775615c016d0698",
    ),
    # Exact-mode rates of a deterministic table and of a non-uniform mixture
    # with zero weights.
    (
        "classical", "exact", 5, 3000, ("--strategy", "0110"),
        "9d2ae43382982dd303587fc347b656cc88abc2fc96a49d6d746c935284a26f52",
        "33ab91839f0c8beacfb6b07425a49fff6b9df626f3aae7184c11a539b1c885e9",
    ),
    (
        "mixed", "exact", 9, 4000,
        ("--weights", "5/40,0,3/40,1/40,0,7/40,2/40,2/40,4/40,0,1/40,6/40,3/40,2/40,4/40,0"),
        "940b2eb06cafa1732d1c9918c59241224b7f0f8f2c582aaf987bb530eb965ce1",
        "33ab91839f0c8beacfb6b07425a49fff6b9df626f3aae7184c11a539b1c885e9",
    ),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "mode, sampling, seed, rounds, flags, json_digest, csv_digest",
    GOLDEN,
    ids=[f"{m}-{s}-seed{seed}-{r}" for m, s, seed, r, *_ in GOLDEN],
)
def test_seeded_report_bytes_are_pinned(
    tmp_path, capsys, mode, sampling, seed, rounds, flags, json_digest, csv_digest
):
    base = tmp_path / "BASE"
    code = cli.main([
        "play", "--mode", mode, "--sampling", sampling,
        "--seed", str(seed), "--rounds", str(rounds), "--out", str(base), *flags,
    ])
    capsys.readouterr()
    assert code == 0
    assert _sha256(tmp_path / "BASE.json") == json_digest
    assert _sha256(tmp_path / "BASE.csv") == csv_digest


# Leaf measures of the canonical protocol's branch trees, (alice, bob)
# outcomes in order 00, 01, 10, 11; every parent measure is exactly 1/2.
_HI, _LO, _LO_ULP = "0x1.b504f333f9de6p-2", "0x1.2bec333018866p-4", "0x1.2bec333018868p-4"
LEAF_MEASURES = {
    (0, 0): (_HI, _LO, _LO, _HI),
    (0, 1): (_HI, _LO, _LO, _HI),
    (1, 0): (_HI, _LO_ULP, _LO_ULP, _HI),
    (1, 1): (_LO_ULP, _HI, _HI, _LO_ULP),
}


@pytest.mark.parametrize("perspective", ["alice", "bob"])
@pytest.mark.parametrize("q", game.QUESTION_PAIRS, ids=lambda q: f"q{q.qa}{q.qb}")
def test_branch_and_leaf_measures_are_pinned_bit_for_bit(q, perspective):
    tree = game.branch_tree(game.default_protocol(), q, perspective)
    assert [node.measure.hex() for node in tree.branches] == ["0x1.0000000000000p-1"] * 2
    assert tuple(leaf.measure.hex() for leaf in tree.leaves()) == LEAF_MEASURES[tuple(q)]


def test_redundancy_visibilities_are_pinned_bit_for_bit():
    visibilities = [game.redundancy_demo(m).hex() for m in range(11)]
    assert visibilities == ["0x1.0000000000000p+0"] + ["0x0.0p+0"] * 10


def test_record_measures_of_seeded_circuits_are_pinned_bit_for_bit():
    # Both qubit orders of every register, on 200 circuits of 1-4 qubits and
    # 1-20 gates; one text line of float.hex values per record_measures call.
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for _ in range(200):
        n = int(rng.integers(1, 5))
        gates = verify.random_circuit(rng, n, int(rng.integers(1, 21)))
        net = descriptors.apply_circuit(descriptors.init_network(n), gates)
        for order in (list(range(n)), list(range(n))[::-1]):
            measures = descriptors.record_measures(net, order)
            digest.update(" ".join(m.hex() for m in measures).encode() + b"\n")
    assert digest.hexdigest() == (
        "0a555ed295fbea63dfe1b8e7d3aff8dfeddcf7abb4448bcd68e25bada9ee7007"
    )


def test_oracle_of_seeded_circuits_is_pinned_bit_for_bit():
    # On 200 circuits of 1-4 qubits and 1-20 gates: one text line of
    # float.hex values for the amplitudes (real and imaginary parts), then
    # one per record_probabilities call, the full register in both orders
    # and each single qubit.
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for _ in range(200):
        n = int(rng.integers(1, 5))
        state = statevector.run_circuit(n, verify.random_circuit(rng, n, int(rng.integers(1, 21))))
        parts = [x for a in state.amplitudes.tolist() for x in (a.real, a.imag)]
        digest.update(" ".join(x.hex() for x in parts).encode() + b"\n")
        for qubits in [list(range(n)), list(range(n))[::-1]] + [[k] for k in range(n)]:
            probabilities = statevector.record_probabilities(state, qubits)
            digest.update(" ".join(p.hex() for p in probabilities).encode() + b"\n")
    assert digest.hexdigest() == (
        "22259f3ff10ac7246b73775d6fcaaa81a023c7413a0ea85ac337aa3f4918c0bf"
    )
