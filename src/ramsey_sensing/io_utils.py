"""Deterministic text output helpers shared by table writers."""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

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
    float: repr,
    int: str,
    str: str,
    type(None): lambda v: "",
}


def format_value(v) -> str:
    """Render a cell deterministically; floats use shortest round-trip form."""
    fmt = _FORMATS.get(type(v))
    if fmt is None:
        if isinstance(v, np.generic):
            v = v.item()
        fmt = _FORMATS.get(type(v), str)
    return fmt(v)


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Comma-separated, '.' decimals, LF endings, no quoting (no free text)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str | os.PathLike, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
