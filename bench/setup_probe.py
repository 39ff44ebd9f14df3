"""One set-up: import the package and load and validate the workload's configs.

run.py times this script from process start to exit, in a fresh interpreter,
as the benchmark's `setup_s`.  Usage: setup_probe.py FOR_THEORY CONFIG...
"""
import sys

from spikedrf import cli  # noqa: F401  (imports every layer, as the CLI does)
from spikedrf.model import ExperimentConfig, validate_config

for_theory = sys.argv[1] == "1"
for path in sys.argv[2:]:
    if not validate_config(ExperimentConfig.from_file(path), for_theory=for_theory).valid:
        sys.exit(f"config {path} failed validation")
