"""The one CSV layout of every mode: ``# key = repr(value)`` preamble
lines, a header, then one line of comma-joined ``repr`` values per row,
each line ending in ``\\n``, in UTF-8."""

from __future__ import annotations

import numpy as np


def write_csv(path, header, columns, meta: dict | None = None) -> None:
    """Write equal-length ``columns`` under the names ``header``, after a
    ``#`` line per ``meta`` entry; ``repr`` round-trips every float."""
    lines = [f"# {key} = {value!r}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    cells = (map(repr, np.asarray(column).tolist()) for column in columns)
    lines.extend(map(",".join, zip(*cells, strict=True)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
