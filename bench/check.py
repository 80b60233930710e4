"""Correctness gate: compare one op's exit code, stdout and CSVs with the
stored reference.

Tolerances (none of them is a program tolerance changed to fit):

* exit codes, CSV headers, row counts and every non-numeric part of a
  stdout summary or CSV metadata line (the ``class=`` label, key names,
  the number of peaks) must match exactly;
* numbers printed in summary and metadata lines agree within two units
  of their last printed digit: one for the value, one for print
  rounding.  For ``balanced_bias`` (printed to 1e-5) that is the 1e-5
  bisection tolerance plus rounding;
* CSV numbers agree within an absolute tolerance per column, chosen by
  the CSV header: 1e-10 for probe spectra and reflection (the
  steady-state residual scale), 1e-6 for fluxonium levels in GHz and for
  the charge couplings, 1e-8 for evolve samples (the integration trace
  gate).  Sampled rows are compared value by value, and each column sum
  over all rows within rows x tolerance.
"""

from __future__ import annotations

import math
import re

#: Rows kept per CSV in the reference, evenly spaced, first and last included.
SAMPLE_ROWS = 20

_SPECTRUM = "delta13,re_rho31,im_rho31,pop1,pop2,pop3,inversion"
_REFLECT = "delta13,re_aout,im_aout,homodyne_I,homodyne_Q"
_FLUXONIUM = "flux,w1,w2,t12,t13,t23"
_EVOLVE = "t,pop1,pop2,pop3,re_rho31,im_rho31"

CSV_TOLERANCE = {
    _SPECTRUM: (1e-10,) * 7,
    _REFLECT: (1e-10,) * 5,
    _FLUXONIUM: (1e-10, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6),
    _EVOLVE: (1e-8,) * 6,
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")

#: Under numpy 2 the evolve and reflect writers print some values as
#: ``np.float64(x)``; the gate compares the number, not its spelling.
_NUMPY_SCALAR = re.compile(r"np\.float64\(([^()]*)\)")


def _printed_unit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (int(exponent or 0) - decimals)


def line_mismatch(expected: str, actual: str) -> str | None:
    """Why a printed line differs from its reference, or None."""
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return f"text differs: {actual!r} vs reference {expected!r}"
    exp_nums, act_nums = _NUMBER.findall(expected), _NUMBER.findall(actual)
    for e, a in zip(exp_nums, act_nums):
        slack = 2.0 * max(_printed_unit(e), _printed_unit(a)) * (1 + 1e-9)
        if not abs(float(e) - float(a)) <= slack:
            return f"{a} vs reference {e} (allowed {slack:g}) in {actual!r}"
    return None


def _split_csv(text: str):
    lines = _NUMPY_SCALAR.sub(r"\1", text).splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0] if body else ""
    return meta, header, body[1:]


def data_rows(text: str) -> int:
    """CSV data rows: lines that are neither metadata nor the header."""
    return len(_split_csv(text)[2])


def _sample_index(n: int, stride: int) -> list[int]:
    idx = list(range(0, n, stride))
    if idx and idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def csv_reference(text: str) -> dict:
    meta, header, rows = _split_csv(text)
    values = [[float(x) for x in row.split(",")] for row in rows]
    n = len(values)
    stride = max(1, -(-(n - 1) // SAMPLE_ROWS))
    return {"meta": meta, "header": header, "rows": n, "stride": stride,
            "sample": [values[i] for i in _sample_index(n, stride)],
            "colsum": [math.fsum(col) for col in zip(*values)]}


def _csv_problems(name: str, ref: dict, text: str) -> list[str]:
    meta, header, rows = _split_csv(text)
    if header != ref["header"]:
        return [f"{name}: header {header!r} vs reference {ref['header']!r}"]
    if header not in CSV_TOLERANCE:
        return [f"{name}: no tolerance for CSV layout {header!r}"]
    if len(rows) != ref["rows"]:
        return [f"{name}: {len(rows)} rows vs reference {ref['rows']}"]
    if len(meta) != len(ref["meta"]):
        return [f"{name}: {len(meta)} metadata lines vs reference {len(ref['meta'])}"]
    problems = [f"{name}: {why}" for e, a in zip(ref["meta"], meta)
                if (why := line_mismatch(e, a))]
    tol = CSV_TOLERANCE[header]
    try:
        values = [[float(x) for x in row.split(",")] for row in rows]
    except ValueError as exc:
        return problems + [f"{name}: unparsable row: {exc}"]
    if any(len(v) != len(tol) for v in values):
        return problems + [f"{name}: row width differs from {len(tol)} columns"]
    for i, ref_row in zip(_sample_index(len(values), ref["stride"]), ref["sample"]):
        for col, (e, a, t) in enumerate(zip(ref_row, values[i], tol)):
            if not abs(e - a) <= t:
                problems.append(f"{name}: row {i} column {col}: {a!r} vs reference {e!r} (tol {t:g})")
                break
    for col, (e, a, t) in enumerate(zip(ref["colsum"], map(math.fsum, zip(*values)), tol)):
        if not abs(e - a) <= t * len(values):
            problems.append(f"{name}: column {col} sum {a!r} vs reference {e!r}")
    return problems


def extract_reference(rc, stdout: str, files: dict) -> dict:
    """Reference entry for one op (stdout with the output dir normalized)."""
    return {"rc": rc, "stdout": stdout.splitlines(),
            "files": {name: csv_reference(text) for name, text in sorted(files.items())}}


def op_problems(ref: dict | None, rc, stdout: str, files: dict) -> list[str]:
    """Everything wrong with one op's result; empty when it passes."""
    if ref is None:
        return ["no reference output for this input"]
    problems = []
    if rc != 0 or rc != ref["rc"]:
        problems.append(f"exit code {rc} (reference {ref['rc']})")
    lines = stdout.splitlines()
    if len(lines) != len(ref["stdout"]):
        problems.append(f"{len(lines)} stdout lines vs reference {len(ref['stdout'])}")
    else:
        problems += [why for e, a in zip(ref["stdout"], lines) if (why := line_mismatch(e, a))]
    if sorted(files) != sorted(ref["files"]):
        problems.append(f"output files {sorted(files)} vs reference {sorted(ref['files'])}")
    else:
        for name, text in sorted(files.items()):
            problems += _csv_problems(name, ref["files"][name], text)
    return problems
