"""Content-addressed cache: keying, hit/miss behavior, resolution order."""

import math
import os

import pytest

from zetalab.cache import cache_key, get_or_compute, resolve_cache_dir
from zetalab.errors import DomainError


def test_key_is_stable_and_sensitive():
    base = cache_key("eval:zeta", {"s": "2+0i"}, {"abs_tol": 1e-12})
    assert base == cache_key("eval:zeta", {"s": "2+0i"}, {"abs_tol": 1e-12})
    assert len(base) == 64 and all(c in "0123456789abcdef" for c in base)
    assert base != cache_key("eval:xi", {"s": "2+0i"}, {"abs_tol": 1e-12})
    assert base != cache_key("eval:zeta", {"s": "3+0i"}, {"abs_tol": 1e-12})
    assert base != cache_key("eval:zeta", {"s": "2+0i"}, {"abs_tol": 1e-10})


def test_key_ignores_dict_order():
    a = cache_key("x", {"p": 1, "q": 2}, {})
    b = cache_key("x", {"q": 2, "p": 1}, {})
    assert a == b


def test_get_or_compute_miss_then_hit(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return {"value": 42.0}

    d = str(tmp_path / "cache")
    key = cache_key("eval:test", {}, {})
    assert get_or_compute(d, key, compute) == {"value": 42.0}
    assert get_or_compute(d, key, compute) == {"value": 42.0}
    assert len(calls) == 1
    files = os.listdir(d)
    assert files == [key + ".json"]


def test_no_cache_dir_always_computes():
    calls = []

    def compute():
        calls.append(1)
        return {"value": 1.0}

    get_or_compute(None, "whatever", compute)
    get_or_compute(None, "whatever", compute)
    assert len(calls) == 2


def test_corrupt_entry_is_recomputed(tmp_path):
    d = str(tmp_path)
    key = cache_key("eval:corrupt", {}, {})
    path = os.path.join(d, key + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    assert get_or_compute(d, key, lambda: {"ok": True}) == {"ok": True}


def test_unserializable_record_leaves_nothing_behind(tmp_path):
    # dumps_record rejects NaN after the temp file exists; the write must
    # remove it and store no entry
    d = str(tmp_path / "cache")
    key = cache_key("eval:nan", {}, {})
    with pytest.raises(DomainError):
        get_or_compute(d, key, lambda: {"value": math.nan})
    assert os.listdir(d) == []


def test_resolve_cache_dir(monkeypatch):
    monkeypatch.delenv("ZETALAB_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir("/tmp/x") == "/tmp/x"
    monkeypatch.setenv("ZETALAB_CACHE_DIR", "/tmp/from-env")
    assert resolve_cache_dir(None) == "/tmp/from-env"
    # the flag wins over the environment; empty flag disables caching
    assert resolve_cache_dir("/tmp/flag") == "/tmp/flag"
    assert resolve_cache_dir("") is None
