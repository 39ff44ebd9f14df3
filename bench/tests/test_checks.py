"""The benchmark's output checks count damaged outputs as failed operations.

    python3 -m pytest bench/tests -q
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

REFERENCE = Path(__file__).resolve().parents[1] / "reference"


@pytest.fixture(scope="module")
def density_reference():
    return (REFERENCE / "spectrum_fig1_k1.csv").read_text()


def as_artifact(reference: str) -> str:
    """The CLI artifact a correct program writes: a metadata line, then the reference rows."""
    return '# {"config_hash": "0123456789ab"}\n' + reference


def test_matching_density_csv_passes(density_reference):
    tally = checks.check_density_csv(as_artifact(density_reference), density_reference)
    assert (tally.attempted, tally.failed) == (400, 0)


def test_truncated_density_csv_counts_missing_points(density_reference):
    lines = as_artifact(density_reference).splitlines()
    truncated = "\n".join(lines[:-10]) + "\n" + lines[-10][:7]  # ten rows gone, one of them torn
    tally = checks.check_density_csv(truncated, density_reference)
    assert (tally.attempted, tally.failed) == (400, 10)
    assert sum("missing" in r for r in tally.reasons) == 9 and sum("cells" in r for r in tally.reasons) == 1


def test_wrong_density_value_fails_its_point(density_reference):
    lines = as_artifact(density_reference).splitlines()
    lam, rho, eps, conv = lines[100].split(",")
    lines[100] = ",".join([lam, repr(float(rho) + 3 * checks.DENSITY_ATOL), eps, conv])
    tally = checks.check_density_csv("\n".join(lines) + "\n", density_reference)
    assert (tally.attempted, tally.failed) == (400, 1)
    assert tally.reasons[0].startswith("density row 98: density")


def test_unconverged_point_fails_even_with_the_right_value(density_reference):
    lines = as_artifact(density_reference).splitlines()
    lines[50] = lines[50].rsplit(",", 1)[0] + ",0"
    tally = checks.check_density_csv("\n".join(lines) + "\n", density_reference)
    assert (tally.attempted, tally.failed) == (400, 1)
    assert "converged=0" in tally.reasons[0]


def test_extra_columns_are_accepted(density_reference):
    lines = density_reference.splitlines()
    widened = [lines[0] + ",map_calls"] + [line + ",46" for line in lines[1:]]
    tally = checks.check_density_csv("\n".join(widened) + "\n", density_reference)
    assert (tally.attempted, tally.failed) == (400, 0)


def test_generror_rows_checked_per_column():
    reference = (REFERENCE / "generror_fig2_k4.csv").read_text()
    assert checks.check_generror_csv(as_artifact(reference), reference).failed == 0
    lines = reference.splitlines()
    cells = lines[3].split(",")
    cells[-2] = repr(float(cells[-2]) * (1 + 10 * checks.TAU23_RTOL))  # tau2 of the third alpha
    lines[3] = ",".join(cells)
    tally = checks.check_generror_csv("\n".join(lines) + "\n", reference)
    assert (tally.attempted, tally.failed) == (8, 1)
    assert "tau2" in tally.reasons[0]


def test_simulation_invariants():
    good = {"gen_error": {"mean": 0.3, "stderr": 0.01}, "tau": {"tau0": [0.1], "tau1": [0.2], "tau2": 0.1, "tau3": 0.0},
            "spike_deviation": 0.5, "eigenvalues": [0.0, 0.5, 1.0]}
    assert checks.simulation_problems(good, p=3) == []
    assert checks.simulation_problems(good, p=4)  # not exactly p eigenvalues
    assert checks.simulation_problems({**good, "eigenvalues": [-0.1, 0.5, 1.0]}, p=3)
    assert checks.simulation_problems({**good, "gen_error": {"mean": float("nan"), "stderr": 0.0}}, p=3)


def test_failed_point_also_fails_its_command(density_reference, tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import worker

    lines = as_artifact(density_reference).splitlines()
    lines[50] = lines[50].rsplit(",", 1)[0] + ",0"
    run = worker.Pass(tmp_path, log=None)
    run.account("first", True, checks.check_density_csv("\n".join(lines) + "\n", density_reference))
    run.account("second", True, checks.check_density_csv(as_artifact(density_reference), density_reference))
    assert (run.tally.attempted, run.tally.failed) == (2 * 401, 2)
