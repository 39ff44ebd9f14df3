"""Golden SHA-256 hashes of the tiny-config CLI artifacts.

Refactors of the coefficient tables, the kernel derivation and the solver must
leave every artifact byte-identical; a change of the numerics re-pins them and
records the old and new hashes with its largest difference per column.  The
hashes were captured with numpy 2.4 on x86-64 OpenBLAS (the quadrature rules
and every theory number come from numpy; scipy 1.17 solves the simulation's
ridge); a different BLAS or numpy may round the last bit differently, in which
case recapture them from a known-good tree with `python tests/test_golden.py`
(it prints the table below).
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
        "theory_spectrum.csv": "0becfbe2f41ab78ee92ed31793c99ca8a6936ca0673d8251426c0d615d9cadaf",
        "theory_generror.csv": "072ef1383fee67ee977f7c7313476ace6420c424b83613db44eb546263b94fd6",
        "run_seed000.json": "6e0a4ce8278ee9daaf4c85cd78c811ab3e4dc620fb088f2bce01040615331fc8",
    },
    "k2": {
        "theory_spectrum.csv": "22a2e43bc3bc95d393f20276f655744190000709e0301d8e266cf8c0c918a580",
        "theory_generror.csv": "23f3e8a7363f6a7344b1eb2e1653455ca6be93ccbe635af2504b3c329f4e6e12",
        "run_seed000.json": "5051d423f4c310293df9326ddfccf996b743577c6d82c7b6a09de6a10a07f164",
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
