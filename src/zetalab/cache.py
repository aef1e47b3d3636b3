"""Content-addressed result cache used by the grid runner.

The key hashes everything that determines a value: selector, parameters,
quadrature settings, and the package version.  Entries are whole JSON
records written atomically (temp file + rename), so processes sharing a
cache directory either see a complete entry or none at all.
"""

from __future__ import annotations

import json
import os
import tempfile

from . import __version__
from .records import dumps_record, loads_record

ENV_CACHE_DIR = "ZETALAB_CACHE_DIR"


def cache_key(selector: str, params: dict, quadrature: dict) -> str:
    payload = json.dumps(
        {"selector": selector, "params": params, "quadrature": quadrature,
         "version": __version__},
        sort_keys=True, separators=(",", ":"), allow_nan=False)
    import hashlib  # here, not at the top: it loads OpenSSL, and only grid hashes
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def resolve_cache_dir(flag_value: str | None) -> str | None:
    """--cache-dir wins over ZETALAB_CACHE_DIR; empty string disables."""
    if flag_value is not None:
        return flag_value or None
    env = os.environ.get(ENV_CACHE_DIR)
    return env or None


def has_entry(cache_dir: str | None, key: str) -> bool:
    """Whether cache_dir holds a file for key (it may still fail to read)."""
    return cache_dir is not None and os.path.exists(
        os.path.join(cache_dir, key + ".json"))


def get_or_compute(cache_dir: str | None, key: str, compute) -> dict:
    """Return the cached record for key, computing and storing on miss.

    Without a cache directory this is just compute().  Writes go through a
    temp file in the same directory followed by os.replace, so two processes
    missing on one key both compute it and the last rename wins.
    """
    if cache_dir is None:
        return compute()
    path = os.path.join(cache_dir, key + ".json")
    cached = _read(path)
    if cached is not None:
        return cached
    record = compute()
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps_record(record))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return record


def _read(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return loads_record(fh.read())
    except (OSError, ValueError):
        return None
