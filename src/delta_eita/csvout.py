"""The one CSV layout of every mode: ``# key = repr(value)`` preamble
lines, a header, then one line of comma-joined ``repr`` values per row,
each line ending in ``\\n``, in UTF-8.

``repr`` is the specification of every data cell.  orjson writes the
same shortest round-trip digits as ``repr`` for every finite value, ~10x
faster, and the same notation for zeros and for ``1e-4 <= |x| < 1e16``,
so those cells come from one ``orjson.dumps`` of the whole table.  The
other cells are ``null`` there, and are spliced in from a second
``orjson.dumps`` of their values alone, respelled in ``repr``'s
notation: fixed byte replacements turn a one-digit exponent ``e-7``
into ``e-07`` and ``e16`` into ``e+16``, and one vectorized byte edit
turns each ``[-]0.0000dddd`` (``1e-5 <= |x| < 1e-4``) into
``[-]d.ddde-05``, or ``de-05`` for one digit.  Only nan and +-inf cells
are spelled by ``repr`` itself.
"""

from __future__ import annotations

import numpy as np

#: orjson's exponents to ``repr``'s, in order, on cells each followed by
#: a comma: a sign on positive ones, two digits on negative ones.
_EXPONENTS = ([(b"e", b"e+"), (b"+-", b"-")]
              + [(b"e-%d," % d, b"e-0%d," % d) for d in range(6, 10)])

_E05 = np.frombuffer(b"e-05", np.uint8)


def _odd_cells(values: np.ndarray) -> list[bytes]:
    """``repr`` of each of ``values``, all nonzero and outside
    ``1e-4 <= |x| < 1e16``, from one ``orjson.dumps``."""
    import orjson

    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    if b"e" in text:
        for old, new in _EXPONENTS:
            text = text.replace(old, new)
    # 0.0000dddd, the only cells with a zero before the point: its first
    # digit moves before the point, the zeros are dropped (set to NUL,
    # then deleted), and e-05 goes before its comma
    text = np.frombuffer(text, np.uint8)
    point = np.flatnonzero(text == ord("."))
    point = point[text[point - 1] == ord("0")]
    comma = np.flatnonzero(text == ord(","))
    end = comma[np.searchsorted(comma, point)]
    text = text.copy()
    text[point + 4] = text[point + 5]
    text[point + 5] = np.where(end == point + 6, 0, ord("."))
    text[point[:, None] + np.arange(-1, 4)] = 0
    text = np.insert(text, np.repeat(end, len(_E05)), np.tile(_E05, point.size))
    cells = text.tobytes().translate(None, b"\0")[:-1].split(b",")
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[k] = repr(values[k].item()).encode()
    return cells


def _rows(table: np.ndarray) -> bytes:
    """The data lines of the float64 ``table``, one per row, without the
    last newline."""
    import orjson  # only the modes that write a CSV pay its import

    magnitude = np.abs(table)
    odd = ~((table == 0.0) | ((magnitude >= 1e-4) & (magnitude < 1e16)))
    del magnitude  # freed before the text is built, where the writer peaks
    rows = orjson.dumps(np.where(odd, np.nan, table), option=orjson.OPT_SERIALIZE_NUMPY)
    rows = b"\n".join(rows[2:-2].split(b"],["))
    if not odd.any():
        return rows
    pieces = rows.split(b"null")
    del rows  # the text is held once, as the pieces between its null cells
    spliced = [b""] * (2 * len(pieces) - 1)
    spliced[0::2] = pieces
    spliced[1::2] = _odd_cells(table[odd])
    return b"".join(spliced)


def write_csv(path, header, columns, meta: dict | None = None) -> None:
    """Write equal-length float ``columns`` under the names ``header``,
    after a ``#`` line per ``meta`` entry; ``repr`` round-trips every float."""
    table = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    lines = [f"# {key} = {value!r}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    rows = _rows(table) if len(table) else b""
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        if rows:
            fh.write(rows)
            fh.write(b"\n")
