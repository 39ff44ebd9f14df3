"""Golden SHA-256 hashes of the tiny-config CLI artifacts.

Refactors of the coefficient tables, the kernel derivation and the solver must
leave every artifact byte-identical; a change of the numerics re-pins them and
records the old and new hashes with its largest difference per column.  The hashes were captured with numpy 2.4
and scipy 1.17 on x86-64 OpenBLAS; a different BLAS or numpy may round the
last bit differently, in which case recapture them from a known-good tree
with `python tests/test_golden.py` (it prints the table below).
`manifest.json` is excluded because it holds timestamps.
"""
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from spikedrf import cli

TINY = {
    "d": 60, "p": 90, "n": 48, "n0": 300, "eta_tilde": 1.0, "lambda": 0.1, "seed": 77,
    "activation": "tanh", "link": "sin",
}
VOCABS = {"k1": {"zeta": [1.0], "pi": [1.0]}, "k2": {"zeta": [1.0, -0.5], "pi": [0.6, 0.4]}}
COMMANDS = {
    "theory_spectrum.csv": ("theory-spectrum", "--grid", "0.02:2.0:20"),
    "theory_generror.csv": ("theory-generror", "--alpha-sweep", "0.5:2:3"),
    "run_seed000.json": ("simulate", "--seeds", "1", "--spectrum"),
}

GOLDEN = {
    "k1": {
        "theory_spectrum.csv": "1a95222c4644e529b09cc30264cfc57603e3f1cfe5ce677a743d2903cc148954",
        "theory_generror.csv": "0e29ea0b8bce058398e85de937c1f1cca9fe2453452361e4fc5dfa628c1d94c1",
        "run_seed000.json": "8d69cef0739820f9b3b53c66177d5ee75c237660841a976bb7ad2535f76951c5",
    },
    "k2": {
        "theory_spectrum.csv": "6254d0f4f3c4e5a873f42f9f3ad837cbde43b68fa6a0ef204377cdb8993ce14c",
        "theory_generror.csv": "ce496c2f752e19e6f0738960f39b4d3dab090f2a7b4dcd6acf4cabbc72a409b7",
        "run_seed000.json": "e6eeb4624759913c9aee6941396692627d5da815e07a274f7ce53fb3be24a6af",
    },
}


def artifact_hashes(vocab: str, workdir: Path) -> dict:
    config = workdir / f"{vocab}.json"
    config.write_text(json.dumps({**TINY, "vocab": VOCABS[vocab]}))
    hashes = {}
    for artifact, (command, *flags) in COMMANDS.items():
        out = workdir / f"{vocab}_{command}"
        assert cli.main([command, str(config), *flags, "--out", str(out)]) == cli.EXIT_OK
        hashes[artifact] = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("vocab", sorted(VOCABS))
def test_cli_artifacts_match_golden_hashes(vocab, tmp_path):
    assert artifact_hashes(vocab, tmp_path) == GOLDEN[vocab]


if __name__ == "__main__":
    # the CLI's own "wrote ..." lines go to stderr, so stdout is the JSON table alone
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        table = {vocab: artifact_hashes(vocab, Path(tmp)) for vocab in sorted(VOCABS)}
    json.dump(table, sys.stdout, indent=4)
    print()
