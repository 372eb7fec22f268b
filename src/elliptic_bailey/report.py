"""Structured verification reports with lossless canonical serialization.

Canonical JSON encodes every float as its hex representation (``float.hex``)
and every complex as a two-element ``[hex_re, hex_im]`` list, so a report
round-trips bit for bit.  One writer, :func:`_text`, writes it directly,
reports and campaign summaries alike.  Wall time is measurement noise, not a result, and is
excluded from canonical output so that repeated runs of the same seeded
campaign are byte-identical; pass ``include_timing=True`` to keep it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_TAG = "elliptic-bailey-report/1"
SUMMARY_SCHEMA_TAG = "elliptic-bailey-summary/1"

RESIDUAL_FLOOR = 1e-300


def _residual_ratio(lhs, rhs) -> np.ndarray:
    """Entrywise |lhs - rhs| / max(|lhs|, |rhs|, floor)."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    return np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), RESIDUAL_FLOOR)


def worst(*residuals: float) -> float:
    """The verdict's fold of a check's component residuals: the first NaN
    among them, bits kept, else their max.  Python's max alone drops a NaN
    that follows a number, and the draw would pass."""
    for r in residuals:
        if r != r:
            return r
    return max(residuals)


def relative_residual(lhs, rhs) -> float:
    """max entrywise |lhs - rhs| / max(|lhs|, |rhs|, floor)."""
    return float(np.max(_residual_ratio(lhs, rhs)))


def identity_deviation(mat) -> float:
    """max entrywise |mat - I| (absolute; the right scale for inversion checks,
    where exact zeros off the diagonal would defeat a relative measure)."""
    mat = np.asarray(mat, dtype=complex)
    eye = np.eye(mat.shape[0])
    return float(np.max(np.abs(mat - eye)))


_string = json.encoder.encode_basestring_ascii


def _list(items) -> str:
    return "[" + ",".join([_text(v) for v in items]) + "]"


def _dict(mapping) -> str:
    keyed = {str(k): v for k, v in mapping.items()}
    return "{" + ",".join([f"{_string(k)}:{_text(keyed[k])}" for k in sorted(keyed)]) + "}"


# each value type's canonical text, tried in this order: a bool is not an int,
# and numpy's float64 and complex128 are a float and a complex
_KINDS = (
    (bool, lambda v: "true" if v else "false"),
    (type(None), lambda v: "null"),
    (int, int.__repr__),
    (str, _string),
    (float, lambda v: f'{{"f":"{float.hex(v)}"}}'),
    (complex, lambda v: f'{{"c":["{float.hex(v.real)}","{float.hex(v.imag)}"]}}'),
    (np.floating, lambda v: _text(float(v))),
    (np.complexfloating, lambda v: _text(complex(v))),
    (np.integer, lambda v: int.__repr__(int(v))),
    # a 0-d array's scalar is no sequence, and raises TypeError
    (np.ndarray, lambda v: _list(v.tolist())),
    ((list, tuple), _list),
    (dict, _dict),
)
_WRITERS: dict = {}  # a cache: type -> the writer of its entry in _KINDS


def _text(value) -> str:
    """The canonical JSON text of a report value, written directly: floats
    as ``{"f": float.hex}``, complex numbers as ``{"c": [hex_re, hex_im]}``,
    integers, strings (ASCII, as ``json.dumps`` escapes them), bools and None
    as themselves, arrays and sequences as lists, and dicts with their keys
    as strings, sorted, with no spaces.  A value takes the first entry of
    ``_KINDS`` its type is a subclass of; any other type raises TypeError."""
    kind = type(value)
    write = _WRITERS.get(kind)
    if write is None:
        write = next((w for types, w in _KINDS if issubclass(kind, types)), None)
        if write is None:
            raise TypeError(f"cannot encode {kind!r} in a report")
        _WRITERS[kind] = write
    return write(value)


def _encode(value):
    """The canonical form of a report value as JSON data: the parse of its
    canonical text."""
    return json.loads(_text(value))


def _decode(value):
    if isinstance(value, dict):
        if set(value) == {"f"}:
            return float.fromhex(value["f"])
        if set(value) == {"c"}:
            return complex(float.fromhex(value["c"][0]), float.fromhex(value["c"][1]))
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


@dataclass
class VerificationReport:
    """Record of one identity check: inputs, both sides, residual, verdict."""

    identity: str
    params: dict
    lhs: complex | None
    rhs: complex | None
    residual: float
    tolerance: float
    settings: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    error: str | None = None
    draw_index: int | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual < self.tolerance

    def to_json(self, include_timing: bool = False) -> str:
        """The report's canonical JSON line; its keys are written in sorted
        order, as :func:`_text` writes a dict's."""
        timing = f',"wall_time_s":{_text(float(self.wall_time_s))}' if include_timing else ""
        return (f'{{"details":{_text(self.details)},"draw_index":{_text(self.draw_index)},'
                f'"error":{_text(self.error)},"identity":{_text(self.identity)},'
                f'"lhs":{_text(self.lhs)},"params":{_text(self.params)},'
                f'"pass":{_text(self.passed)},"residual":{_text(float(self.residual))},'
                f'"rhs":{_text(self.rhs)},"schema":{_text(SCHEMA_TAG)},'
                f'"settings":{_text(self.settings)},"tolerance":{_text(float(self.tolerance))}'
                f'{timing}}}')

    @classmethod
    def from_json(cls, line: str) -> "VerificationReport":
        doc = json.loads(line)
        if doc.get("schema") != SCHEMA_TAG:
            raise ValueError(f"unknown report schema {doc.get('schema')!r}")
        return cls(
            identity=doc["identity"],
            params=_decode(doc["params"]),
            lhs=_decode(doc["lhs"]),
            rhs=_decode(doc["rhs"]),
            residual=_decode(doc["residual"]),
            tolerance=_decode(doc["tolerance"]),
            settings=_decode(doc["settings"]),
            details=_decode(doc["details"]),
            wall_time_s=_decode(doc.get("wall_time_s", 0.0)) if "wall_time_s" in doc else 0.0,
            error=doc["error"],
            draw_index=doc["draw_index"],
        )
