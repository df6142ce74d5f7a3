"""Deterministic text output helpers: CSV tables of named columns, JSON manifests."""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["format_value", "write_csv", "write_json"]


def _json_default(v):
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v).__name__}")


# cell formatters by exact type (int and str are listed so that the common
# cells skip the numpy-scalar check); any other type is str() of its native value
_FORMATS = {
    bool: lambda v: "true" if v else "false",
    float: lambda v: repr(v) if v == v else "",  # NaN, the estimators' excluded value
    int: str,
    str: str,
}

_KINDS = {"b": bool, "i": int, "u": int, "f": float, "U": str}  # .tolist() types by dtype kind
_BLOCK_ROWS = 1024  # rows formatted per write, which bounds the text held at once


def format_value(v) -> str:
    """Render a cell deterministically; floats use shortest round-trip form."""
    fmt = _FORMATS.get(type(v))
    if fmt is None:
        if isinstance(v, np.generic):
            v = v.item()
        fmt = _FORMATS.get(type(v), str)
    return fmt(v)


def write_csv(path: str | os.PathLike, table: dict[str, np.ndarray | list]) -> None:
    """Write a dict from header name to a 1-D bool, int, float or str column as
    CSV: ',' separated, '.' decimals, LF endings, no quoting (no free text)."""
    columns = [np.asarray(column) for column in table.values()]
    if (any(values.ndim != 1 or values.dtype.kind not in _KINDS for values in columns)
            or len({values.size for values in columns}) > 1):
        raise ValueError("columns must be 1-D bool, int, uint, float or str, of one length")
    formats = [_FORMATS[_KINDS[values.dtype.kind]] for values in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(table) + "\n")
        for start in range(0, columns[0].size if columns else 0, _BLOCK_ROWS):
            block = [map(fmt, values[start:start + _BLOCK_ROWS].tolist())
                     for fmt, values in zip(formats, columns)]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def write_json(path: str | os.PathLike, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
