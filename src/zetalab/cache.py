"""Result cache used by the grid runner: one append-only log per directory.

A cache directory holds `grid.log`, lines `<key>\\t<record>\\n`, each appended
by one write on an O_APPEND descriptor.  A reader counts a line only if it
ends in a newline, has a tab and its record parses, so processes sharing a
local directory see a complete entry or none (NFS does not promise O_APPEND).
The last line of a key is read; files of the old `<sha256>.json` layout are not.
"""

from __future__ import annotations

import json
import os

from . import __version__
from .errors import DomainError
from .records import loads_record

ENV_CACHE_DIR = "ZETALAB_CACHE_DIR"


def _canonical(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"record is not serializable: {exc}") from None


def cache_key(selector: str, params: dict, quadrature: dict) -> str:
    """The canonical JSON text of everything that determines a value:
    selector, parameters, quadrature settings and the package version.  It
    holds no tab or newline (JSON escapes them inside strings)."""
    return _canonical({"selector": selector, "params": params,
                       "quadrature": quadrature, "version": __version__})


def resolve_cache_dir(flag_value: str | None) -> str | None:
    """--cache-dir wins over ZETALAB_CACHE_DIR; empty string disables."""
    return (os.environ.get(ENV_CACHE_DIR) if flag_value is None
            else flag_value) or None


class CacheLog:
    """A directory's log, read once (the directory is made if missing):
    `entries` maps each key to the record text of its last complete line."""

    def __init__(self, cache_dir: str):
        self.path = os.path.join(cache_dir, "grid.log")
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            os.makedirs(cache_dir, exist_ok=True)
            data = b""
        *lines, torn = data.decode("utf-8", "replace").split("\n")
        self._torn = torn != ""     # a write cut short: end it before the next
        self.entries = dict(line.split("\t", 1) for line in lines if "\t" in line)

    def append(self, key: str, text: str) -> None:
        data = (("\n" if self._torn else "") + f"{key}\t{text}\n").encode()
        with open(self.path, "ab", buffering=0) as fh:  # one os.write
            self._torn = fh.write(data) < len(data)
        self.entries[key] = text


def get_or_compute(log: CacheLog | None, key: str, compute) -> dict:
    """The record the log holds for key, or compute()'s, appended as a line
    (two processes missing on one key both append it).  No log: compute()."""
    if log is None:
        return compute()
    try:
        return loads_record(log.entries[key])
    except (KeyError, ValueError):
        pass
    record = compute()
    log.append(key, _canonical(record))
    return record
