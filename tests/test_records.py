"""Serialization round-trips and the formatting contract the CLI leans on."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from zetalab.errors import DomainError
from zetalab.records import (
    complex_to_obj,
    csv_text,
    dumps_record,
    format_float,
    loads_record,
    parse_complex,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(finite_floats)
def test_float_17g_round_trips(x):
    assert float(format_float(x)) == x


@given(finite_floats, finite_floats)
def test_complex_cli_round_trips(re, im):
    # the a+bi text a user would type, with each part in its repr form
    sign = "-" if math.copysign(1.0, im) < 0.0 else "+"
    assert parse_complex(f"{re!r}{sign}{abs(im)!r}i") == complex(re, im)


def test_parse_complex_forms():
    assert parse_complex("2") == 2.0 + 0.0j
    assert parse_complex("-1.5") == -1.5 + 0.0j
    assert parse_complex("0.5+14.1i") == 0.5 + 14.1j
    assert parse_complex("2-3i") == 2.0 - 3.0j
    assert parse_complex("1e-3+2e-4I") == 1e-3 + 2e-4j


def test_parse_complex_rejects():
    for bad in ("", "1 + 2i", "abc", "inf", "nan+1i", "1+nani"):
        with pytest.raises(DomainError):
            parse_complex(bad)


@given(finite_floats, finite_floats)
def test_complex_obj_round_trips(re, im):
    obj = loads_record(dumps_record(complex_to_obj(complex(re, im))))
    assert obj == {"re": re, "im": im}


def test_dumps_record_canonical():
    text = dumps_record({"b": 1, "a": {"im": -0.5, "re": 2.0}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert loads_record(text) == {"b": 1, "a": {"im": -0.5, "re": 2.0}}
    # byte-for-byte stability, not just value equality
    assert text == dumps_record(json.loads(text))


def test_dumps_record_rejects_nan():
    with pytest.raises(DomainError):
        dumps_record({"x": math.nan})
    with pytest.raises(DomainError):
        dumps_record({"x": object()})


def test_csv_shape():
    text = csv_text(["t_lo", "t_hi", "value"], [[1.0, 2.0, 0.1], [2.0, 3.0, -0.2]])
    lines = text.split("\n")
    assert lines[0] == "t_lo,t_hi,value"
    assert len(lines) == 4 and lines[-1] == ""  # trailing LF
    assert "\r" not in text


def test_csv_17_digits():
    third = 1.0 / 3.0
    text = csv_text(["x"], [[third]])
    cell = text.split("\n")[1]
    assert float(cell) == third
    assert cell == "0.33333333333333331"


def test_csv_escaping_and_types():
    text = csv_text(["a", "b", "c", "d"], [['say "hi", ok', 7, True, "plain"]])
    assert text.split("\n")[1] == '"say ""hi"", ok",7,true,plain'
