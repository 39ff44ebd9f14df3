"""Fixed-point cache.

The cache is a JSON-lines file keyed by (problem digest, z).  The digest
covers everything the fixed-point map reads (alpha, beta, rho, pi, the
kappa weights, the c1 and residual tables) and everything else that shapes
a converged state: the source of `detequiv`, `spectrum` and this module (the
solver, the density grid's eps levels, whose later levels start from the
earlier levels' states, and the record format), and the values of every
upper-case constant of `detequiv` and `spectrum` as the process sees them.
So a rerun of the same theory under another seed or n0 reuses the file, and
a changed theory, solver or record never reads a stale state, with no list
of settings or version to keep by hand.  Density grid reruns hit it for
every point.  A record's `state` is the hex text of one little-endian
complex128 vector [z, V (row-major), nu, b, residual], k*k + 2k + 2 numbers
that round-trip every bit.  A file may hold the records of several problems;
loading keeps only this problem's.  `put` appends its new records in one
write: the density grid puts each eps level's new states at once, so a killed
run loses at most the level in flight.  A writer killed mid-line leaves a torn
line; loading skips (and counts) every line that is not a record (an object
with a string `key` and a `state`), and the next write starts on a fresh
line; `get` drops (and counts) a record whose state is not hex text of the
problem's length.  Only the density grid (Im z > 0) uses the cache: states
on z < 0 are never cached, nor the real ladder's settings.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import detequiv, spectrum
from .detequiv import DetEquivProblem, FixedPointState


def _problem_digest(problem: DetEquivProblem) -> str:
    """Digest of the theory content the fixed-point map reads, the solver's source and its constants."""
    h = hashlib.sha256()
    for source in (detequiv.__file__, spectrum.__file__, __file__):
        h.update(Path(source).read_bytes())
    constants = sorted((name, repr(value)) for module in (detequiv, spectrum)
                       for name, value in vars(module).items() if name.isupper())
    scalars = [problem.alpha, problem.beta, list(problem.rho), list(problem.c1.shape)]
    h.update(json.dumps([constants, scalars]).encode())
    for arr in (problem.pi, problem.kappa_w, problem.c1, problem.resid):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]


class FixedPointCache:
    """Append-only JSONL store of converged fixed points; `torn_lines` counts skipped lines and dropped records."""

    def __init__(self, path: Path | str, problem: DetEquivProblem):
        self.path = Path(path)
        self.digest = _problem_digest(problem)
        self.k = problem.k
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.torn_lines = 0
        self._open_line = False  # the file ends without a newline
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            prefix = self.digest + "|"
            with self.path.open(encoding="utf-8", errors="replace") as fh:  # a line of bad bytes is one torn line
                for line in fh:
                    self._open_line = not line.endswith("\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        rec = None
                    if not (isinstance(rec, dict) and isinstance(rec.get("key"), str) and "state" in rec):
                        self.torn_lines += 1
                    elif rec["key"].startswith(prefix):  # another problem's record stays in the file, unloaded
                        self._entries[rec["key"]] = rec["state"]

    def _key(self, z: complex) -> str:
        return f"{self.digest}|{z.real:.12e}|{z.imag:.12e}"

    def get(self, z: complex) -> FixedPointState | None:
        key, k = self._key(complex(z)), self.k
        if key in self._entries:
            try:
                x = np.frombuffer(bytes.fromhex(self._entries[key]), "<c16")
            except (TypeError, ValueError):  # not hex text, or not whole complex128 numbers
                x = np.empty(0)
            if x.size == k * k + 2 * k + 2:
                self.hits += 1
                return FixedPointState(z=complex(x[0]), V=x[1:k * k + 1].reshape(k, k), nu=x[k * k + 1:-k - 1],
                                       b=x[-k - 1:-1], residual=float(x[-1].real))
            del self._entries[key]  # not a state of this problem: the point is solved again
            self.torn_lines += 1
        self.misses += 1
        return None

    def put(self, *states: FixedPointState) -> None:
        """Append, in order and in one write, the records of the states not yet held; all held opens no file."""
        lines = []
        for state in states:
            key = self._key(complex(state.z))
            if key in self._entries:
                continue
            rec = np.concatenate([[state.z], np.ravel(state.V), state.nu, state.b, [state.residual]]).astype("<c16").tobytes().hex()
            self._entries[key] = rec
            lines.append(json.dumps({"key": key, "state": rec}) + "\n")
        if lines:
            with self.path.open("a") as fh:
                fh.write(("\n" if self._open_line else "") + "".join(lines))
            self._open_line = False
