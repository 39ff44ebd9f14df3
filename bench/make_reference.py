"""Regenerate the committed references in bench/reference/ from the current program.

    python3 bench/make_reference.py            # theory CSVs
    python3 bench/make_reference.py --counters # also the integer counters of a traced run

The theory CSVs are written without their metadata line, which carries the
seed-dependent config hash.  Regenerate them only when a change is meant to
move the theory's numbers, and say so in the change.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from spikedrf import cli  # noqa: E402

COMMANDS = {
    "theory-spectrum": ("spectrum", ["theory-spectrum", "--grid", wl.SPECTRUM_GRID], "theory_spectrum.csv"),
    "generror-sweep": ("generror", ["theory-generror", "--alpha-sweep", wl.ALPHA_SWEEP], "theory_generror.csv"),
}


def theory_references(tmp: Path) -> None:
    for workload, (prefix, argv, artifact) in COMMANDS.items():
        for name, path in wl.write_inputs(workload, 0, tmp / workload).items():
            out = tmp / workload / name
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([argv[0], str(path), *argv[1:], "--out", str(out)])
            if code != 0:
                sys.exit(f"{workload} {name}: exit code {code}")
            lines = [line for line in (out / artifact).read_text().splitlines() if not line.startswith("#")]
            (REFERENCE / f"{prefix}_{name}.csv").write_text("\n".join(lines) + "\n")
            print(f"wrote {REFERENCE / f'{prefix}_{name}.csv'}")


def counter_references() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counters = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"} - {"trace.counter_mismatches"}
    reference = {}
    for workload in wl.WORKLOADS:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                        "--seconds", "1", "--trace", "1"], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        result = json.loads((ROOT / ".bench_out" / workload / "result_seed0_trace1.json").read_text())
        reference[workload] = {name: m["value"] for name, m in result["metrics"].items() if name in counters}
    (REFERENCE / "counters.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE / 'counters.json'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--counters", action="store_true", help="also record the integer counters of traced runs")
    args = parser.parse_args()
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        theory_references(Path(tmp))
    if args.counters:
        counter_references()
    return 0


if __name__ == "__main__":
    sys.exit(main())
