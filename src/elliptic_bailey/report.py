"""Structured verification reports with lossless canonical serialization.

Canonical JSON encodes every float as its hex representation (``float.hex``)
and every complex as a two-element ``[hex_re, hex_im]`` list, so a report
round-trips bit for bit.  Wall time is measurement noise, not a result, and is
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


def _encode(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return {"f": value.hex()}
    if isinstance(value, complex):
        return {"c": [value.real.hex(), value.imag.hex()]}
    if isinstance(value, (np.floating,)):
        return {"f": float(value).hex()}
    if isinstance(value, (np.complexfloating,)):
        v = complex(value)
        return {"c": [v.real.hex(), v.imag.hex()]}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value)!r} in a report")


def _canonical(doc: dict) -> str:
    """The one canonical JSON line: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
        doc = {
            "schema": SCHEMA_TAG,
            "identity": self.identity,
            "draw_index": self.draw_index,
            "params": _encode(self.params),
            "lhs": _encode(self.lhs),
            "rhs": _encode(self.rhs),
            "residual": _encode(float(self.residual)),
            "tolerance": _encode(float(self.tolerance)),
            "pass": self.passed,
            "settings": _encode(self.settings),
            "details": _encode(self.details),
            "error": self.error,
        }
        if include_timing:
            doc["wall_time_s"] = _encode(float(self.wall_time_s))
        return _canonical(doc)

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
