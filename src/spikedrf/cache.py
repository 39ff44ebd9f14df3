"""Fixed-point cache and run manifests.

The cache is a JSON-lines file keyed by (config hash, z, rho); density grids
and rho-derivatives revisit nearby spectral points, so warm reuse across CLI
invocations is nearly free.  A writer killed mid-line leaves a torn line;
loading skips (and counts) lines that do not parse, and the next write starts
on a fresh line.  Every output artifact embeds the config hash it was
produced from.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .detequiv import FixedPointState

_VERSION = "spikedrf-0.1.0"


def _key(config_hash: str, z: complex, rho: tuple) -> str:
    return f"{config_hash}|{z.real:.12e}|{z.imag:.12e}|{rho[0]:.12e}|{rho[1]:.12e}"


class FixedPointCache:
    """Append-only JSONL store of converged fixed points; `torn_lines` counts skipped unparsable lines."""

    def __init__(self, path: Path | str, config_hash: str):
        self.path = Path(path)
        self.config_hash = config_hash
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0
        self.torn_lines = 0
        self._open_line = False  # the file ends without a newline
        if self.path.exists():
            with self.path.open() as fh:
                for line in fh:
                    self._open_line = not line.endswith("\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        self.torn_lines += 1
                        continue
                    self._entries[rec["key"]] = rec["state"]

    def get(self, z: complex, rho: tuple = (0.0, 0.0)) -> FixedPointState | None:
        rec = self._entries.get(_key(self.config_hash, complex(z), rho))
        if rec is None:
            self.misses += 1
            return None
        self.hits += 1
        return FixedPointState.from_json_dict(rec)

    def put(self, state: FixedPointState) -> None:
        key = _key(self.config_hash, complex(state.z), state.rho)
        if key in self._entries:
            return
        rec = state.to_json_dict()
        self._entries[key] = rec
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            if self._open_line:
                fh.write("\n")
                self._open_line = False
            fh.write(json.dumps({"key": key, "state": rec}) + "\n")


@dataclass
class RunManifest:
    """What produced which artifacts; written next to every output set."""

    config_hash: str
    command: str
    outputs: list = field(default_factory=list)
    version: str = _VERSION
    started: float = field(default_factory=time.time)
    extra: dict = field(default_factory=dict)

    def write(self, path: Path | str) -> None:
        payload = {
            "config_hash": self.config_hash,
            "command": self.command,
            "version": self.version,
            "started": self.started,
            "finished": time.time(),
            "outputs": [str(o) for o in self.outputs],
            **self.extra,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
