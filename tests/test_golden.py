"""Golden SHA-256 hashes of the tiny-config CLI artifacts.

Refactors of the coefficient tables, the kernel derivation and the solver must
leave every artifact byte-identical.  The hashes were captured with numpy 2.4
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
        "theory_spectrum.csv": "6884e62426e72d77f0525c301b95656d22cc79a277a14f2af49cd5d3bc05f3aa",
        "theory_generror.csv": "69b1c162a4c484cc031fa9e578d6c3212ade232cb5cc769a16ed24b495eaf5e9",
        "run_seed000.json": "19521e8b98463b59904cec9c7910cbe31a9fc80fffdf3c746da06f320a7c444e",
    },
    "k2": {
        "theory_spectrum.csv": "e5c03bcb5954a85f5d0fb0f62b2b4543388dde2fbdea24b83b9ee74d3e205257",
        "theory_generror.csv": "ac6cf4978f89aab67394a72f891ab7925160ee0ff531e63ae63ed4649480aff1",
        "run_seed000.json": "2c30d35c4d24446aa91770901d02d42d13254aa7b1a0ccc25d3dac5fadd4c949",
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
