"""Stable text forms for every value the CLI emits.

JSON floats use Python's shortest round-trip rendering (exact and
deterministic); CSV cells use 17 significant digits, which also
round-trips binary64 exactly.  Complex values travel as {"re", "im"}
objects in JSON and paired _re/_im columns in CSV.  Files are UTF-8 with
LF line endings regardless of platform.  Keeping all of that here is what
makes "same inputs, same bytes" a property instead of an accident.
"""

from __future__ import annotations

import json
import math

from .errors import DomainError

_FLOAT_FMT = "{:.17g}"


def format_float(x: float) -> str:
    return _FLOAT_FMT.format(float(x))


def parse_complex(text: str) -> complex:
    """Parse the CLI complex syntax: 2, -1.5, 0.5+14.1i, 2-3i, 1e-3+2e-4i."""
    raw = text.strip()
    if not raw or " " in raw:
        raise DomainError(f"cannot parse complex value from {text!r}")
    try:
        z = complex(raw.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise DomainError(f"cannot parse complex value from {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"complex value must be finite, got {text!r}")
    return z


def complex_to_obj(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def dumps_record(record: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, LF-terminated."""
    try:
        text = json.dumps(record, sort_keys=True, indent=2, ensure_ascii=False,
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"record is not serializable: {exc}") from None
    return text + "\n"


def loads_record(text: str) -> dict:
    return json.loads(text)


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with a mandatory header, 17-digit floats, LF line endings."""
    lines = [",".join(_csv_cell(c) for c in header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return format_float(cell)
    if isinstance(cell, int):
        return str(cell)
    text = str(cell)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text
