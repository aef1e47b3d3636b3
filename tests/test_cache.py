"""Grid cache log: keying, hit/miss behavior, line validity, resolution order."""

import json
import math
import os

import pytest

from zetalab import __version__
from zetalab.cache import CacheLog, cache_key, get_or_compute, resolve_cache_dir
from zetalab.errors import DomainError


def test_key_is_stable_and_sensitive():
    base = cache_key("eval:zeta", {"s": "2+0i"}, {"abs_tol": 1e-12})
    assert base == cache_key("eval:zeta", {"s": "2+0i"}, {"abs_tol": 1e-12})
    # the key is its own canonical text: one line, no tab, reads back whole
    assert "\t" not in base and "\n" not in base
    assert json.loads(base) == {"selector": "eval:zeta", "params": {"s": "2+0i"},
                                "quadrature": {"abs_tol": 1e-12},
                                "version": __version__}
    assert "\t" not in cache_key("x\ty\nz", {"p": "\t"}, {})
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
    log = CacheLog(d)
    assert get_or_compute(log, key, compute) == {"value": 42.0}
    assert get_or_compute(log, key, compute) == {"value": 42.0}
    # a process opening the log later reads the entry too
    assert get_or_compute(CacheLog(d), key, compute) == {"value": 42.0}
    assert len(calls) == 1
    assert os.listdir(d) == ["grid.log"]
    with open(os.path.join(d, "grid.log"), encoding="utf-8") as fh:
        assert fh.read() == key + '\t{"value":42.0}\n'


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
    path = os.path.join(d, "grid.log")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(key + "\t{ not json\n")
    assert get_or_compute(CacheLog(d), key, lambda: {"ok": True}) == {"ok": True}
    # the recomputed line comes later and wins over the unreadable one
    assert CacheLog(d).entries == {key: '{"ok":true}'}


@pytest.mark.parametrize("tail", ["", "\n", "no tab at all\n"])
def test_a_line_counts_only_when_complete(tmp_path, tail):
    d = str(tmp_path)
    key = cache_key("eval:torn", {}, {})
    with open(os.path.join(d, "grid.log"), "w", encoding="utf-8") as fh:
        fh.write('A\t{"a":1}\nB\t{"b":2}\n' + tail + key + '\t{"value":')
    log = CacheLog(d)
    assert log.entries == {"A": '{"a":1}', "B": '{"b":2}'}
    assert get_or_compute(log, key, lambda: {"value": 1.0}) == {"value": 1.0}
    # the torn line was ended before the new one, which reads back
    assert CacheLog(d).entries[key] == '{"value":1.0}'
    assert get_or_compute(CacheLog(d), key, lambda: 1 / 0) == {"value": 1.0}


def test_unserializable_record_leaves_nothing_behind(tmp_path):
    # a record the log cannot hold (NaN) raises before any byte is written
    d = str(tmp_path / "cache")
    key = cache_key("eval:nan", {}, {})
    with pytest.raises(DomainError):
        get_or_compute(CacheLog(d), key, lambda: {"value": math.nan})
    path = os.path.join(d, "grid.log")
    assert not os.path.exists(path) or os.path.getsize(path) == 0


def test_resolve_cache_dir(monkeypatch):
    monkeypatch.delenv("ZETALAB_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir("/tmp/x") == "/tmp/x"
    monkeypatch.setenv("ZETALAB_CACHE_DIR", "/tmp/from-env")
    assert resolve_cache_dir(None) == "/tmp/from-env"
    # the flag wins over the environment; empty flag disables caching
    assert resolve_cache_dir("/tmp/flag") == "/tmp/flag"
    assert resolve_cache_dir("") is None
