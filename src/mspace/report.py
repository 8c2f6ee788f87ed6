"""A command's report as text: JSON, with every float at full precision, or TSV.

A report is a dict of scalars, a ``parameters`` dict and, under
``results``, a table given as columns. The scalars and ``parameters`` go
through a generic walk, one exact-type table per format; the table is
formatted a column at a time and joined through one row template, giving
the same text as the walk would give for its rows. Any value that is not
finite fails as ``report-nonfinite``, naming the first such value in
emission order.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any

import numpy as np

from .linalg import ValidationError


def _finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError("report-nonfinite", f"the report holds the non-finite value {value!r}")
    return value


def _json_literal(value: Any) -> str:
    return "null" if value is None else "true" if value else "false"


# what json.dumps calls for a str
_json_string = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    # 17 significant digits: exact round-trip for doubles
    return format(_finite(value), ".16e")


def _tsv_float(value: float) -> str:
    return format(_finite(value), ".12g")


# exact type -> text, one table per format, for the Python scalars a report holds
_LITERALS = {bool: _json_literal, type(None): _json_literal}
_JSON = {**_LITERALS, int: str, float: _json_float, str: _json_string}
# a TSV header line may also hold the parameters, printed as JSON, or map's outcome structure
_TSV = {**_LITERALS, int: str, float: _tsv_float, str: str, dict: json.dumps, list: str}


def _numpy_scalar(value: Any, table: dict) -> str:
    """``value``, which no entry of ``table`` formats, as text: a numpy scalar prints as its
    ``.item()``; any other type is a programming error."""
    if isinstance(value, np.generic):
        text = table.get(type(item := value.item()))
        if text is not None:
            return text(item)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit_json(value: Any, indent: int = 0) -> str:
    text = _JSON.get(type(value))
    if text is not None:
        return text(value)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_json_string(str(k))}: {_emit_json(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{inner}{_emit_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _numpy_scalar(value, _JSON)


def _tsv_cell(value: Any) -> str:
    text = _TSV.get(type(value))
    return text(value) if text is not None else _numpy_scalar(value, _TSV)


# per format: the exact-type table, and the row-template field of a float column
_TABLE_FORMATS = {"json": (_JSON, "%.16e"), "tsv": (_TSV, "%.12g")}


def _cell(fmt: str, indent: int):
    """What prints one value of a table at ``indent``: the generic walk or the TSV cell."""
    return functools.partial(_emit_json, indent=indent) if fmt == "json" else _tsv_cell


def _table(columns: dict, fmt: str, indent: int) -> tuple[tuple[str, ...], list[tuple]]:
    """The row-template field of every column, and the rows, each column formatted once.

    A float column is checked finite and left to its ``%`` field, as is an
    int column, since ``"%d"`` prints an int as ``str`` does. A column of
    any other single exact type goes through that type's entry of the
    format's table; a mixed column, numpy scalars included, value by value
    through the generic walk. A value that cannot be printed is named as the
    walk names it: the first one in emission order, row by row.
    """
    table, float_field = _TABLE_FORMATS[fmt]
    fields, cells = [], []
    try:
        for values in columns.values():
            if isinstance(values, np.ndarray):
                values = values.tolist()
            kinds = set(map(type, values))
            kind = kinds.pop() if len(kinds) == 1 else None
            if kind is float:
                if not all(map(math.isfinite, values)):
                    raise ValidationError("report-nonfinite", "a float column holds a non-finite value")
                fields.append(float_field)
            elif kind is int:
                fields.append("%d")
            else:
                fields.append("%s")
                values = list(map(table.get(kind) or _cell(fmt, indent), values))
            cells.append(values)
    except (ValidationError, TypeError):
        cell = _cell(fmt, indent)
        for row in zip(*columns.values()):
            for value in row:
                cell(value)
        raise
    return tuple(fields), list(zip(*cells))


@functools.lru_cache(maxsize=64)
def _json_row_template(keys: tuple, fields: tuple, indent: int) -> str:
    """One row object at ``indent``, its values left to ``fields``; a ``%`` in a key is doubled."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    items = [f"{inner}{_json_string(str(k)).replace('%', '%%')}: {f}" for k, f in zip(keys, fields)]
    return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"


def _json_table(columns: dict, indent: int) -> str:
    """``columns`` as the list of row objects the generic walk prints at ``indent``."""
    fields, rows = _table(columns, "json", indent + 2)
    if not rows:
        return "[]"
    template = _json_row_template(tuple(columns), fields, indent + 1)
    return "[\n" + ",\n".join([template % row for row in rows]) + "\n" + "  " * indent + "]"


def _tsv_table(columns: dict) -> list[str]:
    """``columns`` as a header line and one line per row; no lines at all without rows."""
    fields, rows = _table(columns, "tsv", 0)
    if not rows:
        return []
    template = "\t".join(fields)
    return ["\t".join(columns), *[template % row for row in rows]]


def emit(report: dict, fmt: str) -> str:
    """The whole report as text, built before any of it is printed.

    ``report["results"]`` is the report's table, as columns: one sequence per
    field, in field order, each with one value per row. The table is
    formatted a column at a time; every other value goes through the
    generic walk.
    """
    if fmt == "json":
        items = [
            f"  {_json_string(str(key))}: "
            + (_json_table(value, 1) if key == "results" else _emit_json(value, 1))
            for key, value in report.items()
        ]
        return "{\n" + ",\n".join(items) + "\n}"
    lines = [f"# {key}={_tsv_cell(value)}" for key, value in report.items() if key != "results"]
    return "\n".join(lines + _tsv_table(report.get("results", {})))
