"""Output checks and the determinism ledger.

Two kinds of check back the ``correct`` verdict:

- *Output checks* compare what a request produced with a reference
  that does not come from the request: the committed
  ``expected.json`` (each original program's stdout and simulated
  cycles per input), an independently computed value, or the same
  request answered in-process.
- *Determinism checks* go through :class:`Ledger`.  Simulated counts,
  chosen layouts and output digests must repeat exactly, within a run
  and across the benchmark's runs in one checkout; a drift is a
  failure, never noise.  Entries are keyed by a fingerprint of the
  program's and the benchmark's sources, so editing either starts a
  fresh ledger instead of reporting a false drift.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_expected() -> dict:
    with open(HERE / "expected.json") as f:
        return json.load(f)


def digest(value) -> str:
    """SHA-256 of a JSON-able value (sorted keys)."""
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def tree_fingerprint(*roots: Path) -> str:
    """SHA-256 over every ``.py`` file under ``roots`` (path + bytes)."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Facts that must repeat exactly, persisted in the checkout."""

    def __init__(self, path: Path, code_fp: str):
        self.path = path
        self.prefix = code_fp + ":"
        self.drifts: list[str] = []
        try:
            with open(path) as f:
                self.entries: dict = json.load(f)
        except (OSError, ValueError):
            self.entries = {}

    def fact(self, key: str, value) -> bool:
        """Record ``value`` under ``key``; False (and a recorded
        drift) when an earlier run or request saw a different one."""
        value = json.loads(json.dumps(value, sort_keys=True,
                                      default=str))
        full = self.prefix + key
        if full not in self.entries:
            self.entries[full] = value
            return True
        if self.entries[full] == value:
            return True
        self.drifts.append(f"{key}: {self.entries[full]!r} -> "
                           f"{value!r}")
        return False

    def memo(self, key: str):
        return self.entries.get(self.prefix + "memo:" + key)

    def remember(self, key: str, value) -> None:
        self.entries[self.prefix + "memo:" + key] = value

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(self.entries, f, sort_keys=True)
        os.replace(tmp, self.path)
