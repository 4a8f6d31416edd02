"""Column coercion and typing helpers for the columnar table layer.

The table layer stores each column as a 1-D :class:`numpy.ndarray`.  This
module centralizes the rules for turning arbitrary Python sequences into
well-typed column arrays and for classifying column kinds (numeric,
string, boolean), so the rest of the layer never needs per-dtype special
cases scattered around.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ColumnTypeError

__all__ = [
    "as_column",
    "is_numeric",
    "is_string",
    "is_boolean",
    "common_kind",
    "factorize",
    "ensure_string_values",
]


def as_column(values: Sequence | np.ndarray, name: str = "<column>") -> np.ndarray:
    """Coerce ``values`` into a 1-D column array.

    Numeric sequences become ``int64`` / ``float64`` arrays, booleans stay
    boolean, and anything containing strings becomes an ``object`` array of
    ``str`` (object dtype keeps heterogeneous string lengths cheap to
    mutate and join on).

    Raises
    ------
    ValueError
        If the input is not one-dimensional.
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        materialized = list(values)
        if any(isinstance(v, str) for v in materialized):
            arr = np.array([str(v) for v in materialized], dtype=object)
        else:
            arr = np.asarray(materialized)
    if arr.ndim != 1:
        raise ValueError(
            f"column {name!r} must be one-dimensional, got shape {arr.shape}"
        )
    if arr.dtype.kind in ("U", "S"):
        arr = arr.astype(object)
    if arr.dtype.kind == "i" and arr.dtype != np.int64:
        arr = arr.astype(np.int64)
    if arr.dtype.kind == "f" and arr.dtype != np.float64:
        arr = arr.astype(np.float64)
    return arr


def is_numeric(arr: np.ndarray) -> bool:
    """Return True for integer and floating columns."""
    return arr.dtype.kind in ("i", "u", "f")


def is_boolean(arr: np.ndarray) -> bool:
    """Return True for boolean columns."""
    return arr.dtype.kind == "b"


def is_string(arr: np.ndarray) -> bool:
    """Return True for string-valued (object dtype) columns."""
    return arr.dtype.kind == "O"


def common_kind(arrays: Iterable[np.ndarray]) -> str:
    """Return the widest dtype kind ('O' > 'f' > 'i' > 'b') among columns.

    Used when concatenating tables whose columns were inferred separately.
    """
    order = {"b": 0, "i": 1, "u": 1, "f": 2, "O": 3}
    best = "b"
    for arr in arrays:
        kind = arr.dtype.kind
        if order.get(kind, 3) > order[best]:
            best = kind if kind in order else "O"
    return best


def ensure_string_values(arr: np.ndarray, context: str) -> None:
    """Reject object-dtype columns holding anything but ``str``.

    The columnar arena stores object columns as strings only — it
    dictionary-encodes UTF-8 — so a non-string value must fail loudly at
    *write* time instead of silently round-tripping through ``str()``.

    Raises
    ------
    ColumnTypeError
        Naming ``context`` (e.g. ``"jobs.user"``), the offending row,
        and the value's type.
    """
    for i, value in enumerate(arr):
        if not isinstance(value, str):
            raise ColumnTypeError(
                f"{context}: object column must contain only str values; "
                f"found {type(value).__name__} at row {i}"
            )


def factorize(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode a column as integer codes plus the array of unique values.

    Returns ``(codes, uniques)`` such that ``uniques[codes]`` reconstructs
    the column.  Works for both numeric and object-dtype string columns;
    object columns are factorized through a dict to avoid the cost of
    ``np.unique`` on object arrays.
    """
    if arr.dtype.kind == "O":
        mapping: dict = {}
        codes = np.empty(len(arr), dtype=np.int64)
        for i, value in enumerate(arr):
            code = mapping.get(value)
            if code is None:
                code = len(mapping)
                mapping[value] = code
            codes[i] = code
        uniques = np.array(list(mapping.keys()), dtype=object)
        return codes, uniques
    uniques, codes = np.unique(arr, return_inverse=True)
    return codes.astype(np.int64), uniques
