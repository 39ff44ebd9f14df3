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
# the artifacts of each command run
COMMANDS = {
    ("theory_spectrum.csv",): ("theory-spectrum", "--grid", "0.02:2.0:20"),
    ("theory_generror.csv",): ("theory-generror", "--alpha-sweep", "0.5:2:3"),
    ("run_seed000.json", "aggregate.json"): ("simulate", "--seeds", "1", "--spectrum"),
}

GOLDEN = {
    "k1": {
        "theory_spectrum.csv": "0dec45f6623ce696880c1f62578d0e879ab458a4710878abbd0b039b5c4221ef",
        "theory_generror.csv": "715c175aef44ea9f87db1169e9b3d143ff5d1271b03b609335c5a125ae3dc144",
        "run_seed000.json": "26716f5a7b2aba84e62c2087ef2270b4db5d17c6d18ed6885269b4d803b1211c",
        "aggregate.json": "3f7b31b853858146f6ca6698521159bdf3943c74fcd8870f27e1df70a5535bf5",
    },
    "k2": {
        "theory_spectrum.csv": "02d56a93fe7092a732fe3984e88baf4e80a819ef218a1df4ffd0f9d05b56a0b0",
        "theory_generror.csv": "7b944272fc5776ba3e7f9695e6564297b2df76d6a479dbfeb751e6400963982b",
        "run_seed000.json": "69db7b3d57a9ba9b544277ca799ea59271104cbe99f846bb94dceee5a01e1cff",
        "aggregate.json": "9004ae7e20ca8d13405faf90ce66c74f4087d65356373315735fef07a51c0d4e",
    },
}


def artifact_hashes(vocab: str, workdir: Path) -> dict:
    config = workdir / f"{vocab}.json"
    config.write_text(json.dumps({**TINY, "vocab": VOCABS[vocab]}))
    hashes = {}
    for artifacts, (command, *flags) in COMMANDS.items():
        out = workdir / f"{vocab}_{command}"
        assert cli.main([command, str(config), *flags, "--out", str(out)]) == cli.EXIT_OK
        for artifact in artifacts:
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
