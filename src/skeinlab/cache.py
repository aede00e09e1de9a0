"""On-disk structure-constant cache for the diagram reduction engine.

JSON-lines format: a header record carrying a fingerprint of the engine's
sign conventions, then one record per memoized reduction (key = canonical
stated-matching string, value = canonical element string).  A cache whose
fingerprint disagrees with the running engine is ignored wholesale: under a
changed convention stale entries would silently corrupt results.

The cache is semantically transparent: enabling it changes nothing but time.
Writes merge with whatever is on disk at flush time.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from . import diagram
from .diagram import CROSS_PARALLEL, CROSS_TURNBACK, SkeinElement
from .scalar import LOOP

CACHE_ENV_VAR = "SKEINLAB_CACHE"
_FORMAT = "skeinlab-cache-v1"


def convention_fingerprint() -> str:
    """Hash of every sign convention the reduction engine depends on."""
    from .bigon_skein import HALF_TWIST_CROSSING, HALF_TWIST_INVERSE_CROSSING

    parts = [
        _FORMAT,
        f"loop={LOOP}",
        f"cross={CROSS_PARALLEL}|{CROSS_TURNBACK}",
        f"C={diagram.C[(1, -1)]}|{diagram.C[(-1, 1)]}",
        f"Cbar={diagram.CBAR[(1, -1)]}|{diagram.CBAR[(-1, 1)]}",
        f"xch-e={diagram.EAST_EXCHANGE_SWAP}|{diagram.EAST_EXCHANGE_ARC}",
        f"xch-w={diagram.WEST_EXCHANGE_SWAP}|{diagram.WEST_EXCHANGE_ARC}",
        f"ht={HALF_TWIST_CROSSING}|{HALF_TWIST_INVERSE_CROSSING}",
    ]
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


class ReductionCache:
    """Load/persist the reduction memo; thread-safe collection of new entries."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._new: dict[str, SkeinElement] = {}

    def load(self) -> int:
        """Preload the engine memo from disk; returns number of entries used."""
        from .syntax import parse_element

        if not self.path.exists():
            return 0
        entries: dict[str, SkeinElement] = {}
        with self.path.open() as fh:
            header = fh.readline()
            try:
                head = json.loads(header) if header.strip() else {}
            except json.JSONDecodeError:
                return 0
            if head.get("format") != _FORMAT or head.get("fingerprint") != convention_fingerprint():
                return 0
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    entries[rec["key"]] = parse_element(rec["value"])
                except (json.JSONDecodeError, KeyError, ValueError):
                    continue
        diagram.memo_preload(entries)
        return len(entries)

    def attach(self) -> None:
        """Start collecting fresh reductions for the next flush."""

        def listener(key: str, value: SkeinElement) -> None:
            with self._lock:
                self._new[key] = value

        diagram.set_memo_listener(listener)

    def detach(self) -> None:
        diagram.set_memo_listener(None)

    def flush(self) -> int:
        """Merge-on-write: re-read the file, merge new entries, atomic replace."""
        from .syntax import format_element

        with self._lock:
            fresh = dict(self._new)
            self._new.clear()
        existing: dict[str, str] = {}
        if self.path.exists():
            with self.path.open() as fh:
                header = fh.readline()
                try:
                    head = json.loads(header) if header.strip() else {}
                except json.JSONDecodeError:
                    head = {}
                if head.get("fingerprint") == convention_fingerprint():
                    for line in fh:
                        line = line.strip()
                        if line:
                            try:
                                rec = json.loads(line)
                                existing[rec["key"]] = rec["value"]
                            except (json.JSONDecodeError, KeyError):
                                continue
        for key, value in fresh.items():
            existing[key] = format_element(value)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w") as fh:
            fh.write(
                json.dumps({"format": _FORMAT, "fingerprint": convention_fingerprint()})
                + "\n"
            )
            for key in sorted(existing):
                fh.write(json.dumps({"key": key, "value": existing[key]}) + "\n")
        tmp.replace(self.path)
        return len(existing)


def default_cache_path() -> str | None:
    return os.environ.get(CACHE_ENV_VAR)
