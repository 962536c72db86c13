"""Content-addressed persistence for CLI reports.

Entries are keyed by a hash of the canonical run parameters and carry a
checksum of the stored exit code and report; a corrupted entry is
deleted and treated as a miss, so the next run recomputes and repairs it.
An entry that cannot be read at all is an OSError, which the caller
treats as a miss, leaving the entry in place.
Entries are written to a temporary file and renamed into place, so a
reader never sees a half-written one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["cache_key", "cache_get", "cache_put"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _entry_checksum(report: str, exit_code: int) -> str:
    return _sha256(f"{exit_code}\n{report}")


def cache_key(payload: dict) -> str:
    """Hash of the canonical JSON encoding of the run parameters."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _sha256(blob)


def cache_get(root: str | Path, key: str) -> dict | None:
    """Return the stored entry ({'report': str, 'exit_code': int}) or None.

    Raises OSError, and deletes nothing, when the directory or the entry
    cannot be read."""
    path = Path(root) / f"{key}.json"
    if not path.is_file():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(entry, dict) or not isinstance(entry.get("report"), str):
            raise ValueError("not an entry with a text report")
        report, exit_code = entry["report"], entry["exit_code"]
        if type(exit_code) is not int:
            raise ValueError("exit code is not an int")
        if _entry_checksum(report, exit_code) != entry["checksum"]:
            raise ValueError("checksum mismatch")
    except (ValueError, KeyError, TypeError, json.JSONDecodeError):
        path.unlink(missing_ok=True)
        return None
    return {"report": report, "exit_code": exit_code}


def cache_put(root: str | Path, key: str, report: str, exit_code: int) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    entry = {
        "checksum": _entry_checksum(report, exit_code),
        "exit_code": exit_code,
        "report": report,
    }
    tmp = root / f"{key}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True))
        os.replace(tmp, root / f"{key}.json")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
