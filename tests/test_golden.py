"""Golden byte-identity of seeded `play` reports.

The digests below pin `BASE.json` and `BASE.csv` for a few (mode, sampling,
seed, rounds) cases.  Any change to the engine, the sampler or the report
writer that moves a single byte of a seeded report fails here, so a
refactor that claims to keep every number can prove it.
"""

import hashlib

import pytest

from chsh_local import cli

GOLDEN = [
    (
        "quantum", "mc", 0, 5000,
        "83fa14c706cc1980c7ef5e72a650e965a3ccbbc9bac1dad639b2fc8a001105cd",
        "fb190288067c0c263a4479da3a03c3b02eb3d4e3770d0287fd1f336cf5449733",
    ),
    (
        "quantum", "exact", 7, 5000,
        "613a384c78a09c05a33193df3cc891e0fab4b2082a41cbe564ef8f817af6696e",
        "33ab91839f0c8beacfb6b07425a49fff6b9df626f3aae7184c11a539b1c885e9",
    ),
    (
        "mixed", "mc", 3, 2000,
        "41612ea320b129bd7eadcad625a1e4d3a0f2e834cb9934d70272b2aef3c8fbc9",
        "486a7dde1552ae5eb90d6d35b9122a150adc4efb89978c9e0d5693e65150474a",
    ),
    (
        "classical", "mc", 1, 500,
        "f7957cb544ce17a28a921d7cbaff31dcd41af89122901966ee14f67b59bd334b",
        "b869ebdb01dc060cb6f22c0ccfeccd5d9cfd7667cf76530f3483c60480e7015d",
    ),
    (
        "quantum", "mc", 2**64 - 1, 1,
        "b6b3cb975b6892b8aaf6acdfd539db46ca1343620cdcb5f73eb6fc168eaf39df",
        "e09c6980461b79a41537a3aab1d7f346adc37b38b4a25b375d9a14d31282b141",
    ),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "mode, sampling, seed, rounds, json_digest, csv_digest",
    GOLDEN,
    ids=[f"{m}-{s}-seed{seed}-{r}" for m, s, seed, r, _, _ in GOLDEN],
)
def test_seeded_report_bytes_are_pinned(
    tmp_path, capsys, mode, sampling, seed, rounds, json_digest, csv_digest
):
    base = tmp_path / "BASE"
    code = cli.main([
        "play", "--mode", mode, "--sampling", sampling,
        "--seed", str(seed), "--rounds", str(rounds), "--out", str(base),
    ])
    capsys.readouterr()
    assert code == 0
    assert _sha256(tmp_path / "BASE.json") == json_digest
    assert _sha256(tmp_path / "BASE.csv") == csv_digest
