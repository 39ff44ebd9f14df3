"""Output checks that hold for any correct program.

Theory outputs are compared with references committed in `bench/reference/`
(the density CSV rows and the generror rows, without the metadata line that
carries the seed-dependent config hash).  Tolerances are no looser than the
ones the test suite uses for the same quantities:

* density: absolute 1e-8, the warm/cold agreement bound on the fixed point
  (tests/test_detequiv.py::test_warm_cold_agreement_and_tail);
* generror, tau0, tau1: absolute 1e-6, the vocabulary-split bound on the
  asymptotic test error (tests/test_generror.py);
* tau2, tau3: relative 1e-5, the rho-step bound on the finite-difference
  derivatives (tests/test_generror.py).

Simulation outputs are checked by invariants only (finite values, exactly p
non-negative eigenvalues, a bit-identical rerun), because the simulation
protocol of the CLI is expected to change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

DENSITY_ATOL = 1e-8
GENERROR_ATOL = 1e-6
TAU23_RTOL = 1e-5
GRID_RTOL = 1e-12


@dataclass
class Tally:
    """Operations attempted and failed, with one reason per failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)


def _table(text: str) -> tuple:
    """(column names, rows of cells) of a CSV artifact, skipping `# {...}` metadata lines."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def _compare_rows(text: str, reference: str, what: str, row_problem) -> Tally:
    """One operation per reference row; `row_problem(row, ref)` returns "" for a good row.

    Rows are matched by position and cells by column name, so a program that
    adds columns still passes.  Missing, short and unparsable rows fail, and
    so does any row beyond the reference.
    """
    tally = Tally()
    cols, rows = _table(text)
    ref_cols, ref_rows = _table(reference)
    absent = [c for c in ref_cols if c not in cols]
    if absent:
        tally.reasons.append(f"{what}: columns {absent} missing")
        rows = []
    for i, ref_row in enumerate(ref_rows):
        where = f"{what} row {i}"
        if i >= len(rows):
            tally.add(False, f"{where}: missing")
            continue
        if len(rows[i]) != len(cols):
            tally.add(False, f"{where}: {len(rows[i])} cells, expected {len(cols)}")
            continue
        row = dict(zip(cols, rows[i]))
        try:
            problem = row_problem(row, dict(zip(ref_cols, ref_row)))
        except ValueError as exc:
            problem = f"unparsable ({exc})"
        tally.add(not problem, f"{where}: {problem}")
    if len(rows) > len(ref_rows):
        tally.add(False, f"{what}: {len(rows) - len(ref_rows)} rows beyond the reference")
    return tally


def _density_problem(row: dict, ref: dict) -> str:
    if int(row["converged"]) != 1:
        return f"converged={row['converged']}"
    for col in ("lambda", "eps_used"):
        if not _close(float(row[col]), float(ref[col]), rtol=GRID_RTOL):
            return f"{col} {row[col]} != reference {ref[col]}"
    if not _close(float(row["density"]), float(ref["density"]), atol=DENSITY_ATOL):
        return f"density {row['density']} vs reference {ref['density']} (atol {DENSITY_ATOL})"
    return ""


def check_density_csv(text: str, reference: str) -> Tally:
    """One operation per grid point: present, converged, on the grid, density within DENSITY_ATOL."""
    return _compare_rows(text, reference, "density", _density_problem)


def _generror_problem(row: dict, ref: dict) -> str:
    bad = []
    for col, want in ref.items():
        if want == "" or row[col] == "":  # the simulation columns are empty in a theory sweep
            if row[col] != want:
                bad.append(f"{col}={row[col]!r}")
            continue
        value, want = float(row[col]), float(want)
        if col == "alpha":
            ok = _close(value, want, rtol=GRID_RTOL)
        elif col in ("tau2", "tau3"):
            ok = _close(value, want, atol=1e-12, rtol=TAU23_RTOL)
        else:
            ok = _close(value, want, atol=GENERROR_ATOL)
        if not ok:
            bad.append(f"{col}={value!r} (reference {want!r})")
    return ", ".join(bad)


def check_generror_csv(text: str, reference: str) -> Tally:
    """One operation per alpha row: every reference column within its tolerance."""
    return _compare_rows(text, reference, "generror", _generror_problem)


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def simulation_problems(run: dict, p: int) -> list:
    """Invariant violations of one `run_seedNNN.json` artifact (empty when it is sound)."""
    problems = []
    ge = run.get("gen_error", {})
    if not (_finite([ge.get("mean"), ge.get("stderr")]) and ge["mean"] > 0 and ge["stderr"] >= 0):
        problems.append(f"gen_error not finite and positive: {ge}")
    tau = run.get("tau", {})
    tau_values = [*tau.get("tau0", [None]), *tau.get("tau1", [None]), tau.get("tau2"), tau.get("tau3")]
    if not _finite(tau_values):
        problems.append(f"tau not finite: {tau}")
    if not _finite([run.get("spike_deviation")]):
        problems.append(f"spike_deviation not finite: {run.get('spike_deviation')}")
    eigs = run.get("eigenvalues") or []
    if len(eigs) != p:
        problems.append(f"{len(eigs)} eigenvalues, expected p={p}")
    elif not (_finite(eigs) and min(eigs) >= 0.0):
        problems.append("eigenvalues not finite and non-negative")
    return problems
