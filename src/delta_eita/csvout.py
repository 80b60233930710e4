"""The one CSV layout of every mode: ``# key = repr(value)`` preamble
lines, a header, then one line of comma-joined ``repr`` values per row,
each line ending in ``\\n``, in UTF-8.

``repr`` is the specification of every data cell.  orjson writes the
same shortest round-trip digits as ``repr`` for zeros and for finite
values with ``1e-4 <= |x| < 1e16``, ~10x faster, so those cells come
from one ``orjson.dumps`` of the whole table; every other cell (smaller
or larger magnitudes, nan, +-inf) is written as ``null`` there and
replaced by its ``repr``.
"""

from __future__ import annotations

import numpy as np


def write_csv(path, header, columns, meta: dict | None = None) -> None:
    """Write equal-length float ``columns`` under the names ``header``,
    after a ``#`` line per ``meta`` entry; ``repr`` round-trips every float."""
    import orjson  # only the modes that write a CSV pay its import

    table = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    magnitude = np.abs(table)
    odd = ~((table == 0.0) | ((magnitude >= 1e-4) & (magnitude < 1e16)))
    lines = [f"# {key} = {value!r}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    text = ("\n".join(lines) + "\n").encode()
    if len(table):
        rows = orjson.dumps(np.where(odd, np.nan, table), option=orjson.OPT_SERIALIZE_NUMPY)
        rows = b"\n".join(rows[2:-2].split(b"],["))
        if odd.any():
            rows = rows.replace(b"null", b"%b") % tuple(
                repr(x).encode() for x in table[odd].tolist())
        text += rows + b"\n"
    with open(path, "wb") as fh:
        fh.write(text)
