"""Fixed-point cache.

The cache is a text file of lines `<digest> <hex>`.  The digest covers
everything the fixed-point map reads of the problem (alpha, beta, pi, the
kappa weights, the c1 and residual tables) and everything else that shapes a
converged state: the source of `detequiv`, `spectrum` and this module (the
solver, the density grid's eps levels, whose later levels start from the
earlier levels' states, and the record format), and the values of every
upper-case constant of `detequiv` and `spectrum` as the process sees them.
So a rerun of the same theory under another seed or n0 reuses the file, and
a changed theory, solver or record never reads a stale state.  The hex is
little-endian complex128 records, each one state's [z, V (row-major), nu,
b, residual], k*k + 2k + 2 numbers that keep every bit; a state is keyed by
its own z, bit for bit.  Loading decodes only this problem's lines.  Each
`put` appends one line of its new records, and the density grid puts each
eps level's new states at once, so a killed run loses at most the level in
flight.  Loading keeps the whole records of a torn line and counts it, as
it counts every other line that is not a record line; the next write starts
on a fresh line.  Only the density grid's untilted rows (Im z > 0) are cached.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import detequiv, spectrum
from .detequiv import DetEquivProblem, FixedPointState

_HEX = frozenset("0123456789abcdef")


def _problem_digest(problem: DetEquivProblem) -> str:
    """Digest of the problem content the map reads (the tilt is a row input), the solver's source and constants."""
    h = hashlib.sha256()
    for source in (detequiv.__file__, spectrum.__file__, __file__):
        h.update(Path(source).read_bytes())
    constants = sorted((name, repr(value)) for module in (detequiv, spectrum)
                       for name, value in vars(module).items() if name.isupper())
    scalars = [problem.alpha, problem.beta, list(problem.c1.shape)]
    h.update(json.dumps([constants, scalars]).encode())
    for arr in (problem.pi, problem.kappa_w, problem.c1, problem.resid):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]


class FixedPointCache:
    """Append-only store of converged fixed points by z; `torn_lines` counts lines that are not whole records."""

    def __init__(self, path: Path | str, problem: DetEquivProblem):
        self.path = Path(path)
        self.digest = _problem_digest(problem)
        self.k = problem.k
        size = self.k * self.k + 2 * self.k + 2
        self._entries: dict = {}  # z -> its record
        self.hits = self.misses = self.torn_lines = 0
        self._open_line = False  # the file ends without a newline
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            with self.path.open(encoding="utf-8", errors="replace") as fh:  # a line of bad bytes is one torn line
                for line in fh:
                    self._open_line = not line.endswith("\n")
                    head, _, text = line.strip().partition(" ")
                    if head != self.digest:  # blank, or another problem's line, which stays in the file unread
                        if head and not (len(head) == 16 and _HEX.issuperset(head) and text):
                            self.torn_lines += 1
                        continue
                    whole = len(text) - len(text) % (32 * size)
                    try:
                        records = np.frombuffer(bytes.fromhex(text[:whole]), "<c16").reshape(-1, size)
                    except ValueError:  # not hex text
                        records, whole = np.empty((0, size)), -1
                    if not whole or whole != len(text):  # no record, or a partial one
                        self.torn_lines += 1
                    self._entries.update(zip(records[:, 0].tolist(), records))

    def get(self, z: complex) -> FixedPointState | None:
        x, k = self._entries.get(complex(z)), self.k
        if x is None:
            self.misses += 1
            return None
        self.hits += 1
        return FixedPointState(z=complex(x[0]), V=x[1:k * k + 1].reshape(k, k), nu=x[k * k + 1:-k - 1],
                               b=x[-k - 1:-1], residual=float(x[-1].real))

    def put(self, *states: FixedPointState) -> None:
        """Append, in order and as one line, the records of the states not yet held; all held opens no file."""
        records = []
        for state in states:
            z = complex(state.z)
            if z not in self._entries:
                self._entries[z] = x = np.concatenate([[z], np.ravel(state.V), state.nu, state.b, [state.residual]])
                records.append(x.astype("<c16"))
        if records:
            with self.path.open("a") as fh:
                fh.write(("\n" if self._open_line else "") + f"{self.digest} {np.concatenate(records).tobytes().hex()}\n")
            self._open_line = False
