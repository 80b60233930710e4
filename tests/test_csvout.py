from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delta_eita import cli, csvout, fluxonium, inout, spectroscopy
from delta_eita.csvout import write_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def reference_csv(path, header, columns, meta=None):
    """The specification of ``write_csv``: every cell spelled by ``repr``."""
    lines = [f"# {key} = {value!r}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    cells = (map(repr, np.asarray(column).tolist()) for column in columns)
    lines.extend(map(",".join, zip(*cells, strict=True)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def assert_same_bytes(tmp_path, header, columns, meta=None):
    write_csv(tmp_path / "fast.csv", header, columns, meta)
    reference_csv(tmp_path / "ref.csv", header, columns, meta)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def neighbourhood(x, steps=64):
    """``x`` and its ``steps`` float64 neighbours on each side, both signs."""
    up = [x]
    down = [x]
    for _ in range(steps):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    values = np.array(down[::-1] + up[1:])
    return np.concatenate([values, -values])


#: Where orjson's notation could part from ``repr``'s: around the edges
#: 1e-4 and 1e16 of the range both write in positional notation, around
#: 1e-7 and 1e15 inside and outside it, around 1e-5, where orjson's
#: positional notation ends, and where the exponent gains a digit.
EDGES = np.concatenate([neighbourhood(x) for x in
                        (1e-100, 1e-10, 1e-7, 1e-5, 1e-4, 1e15, 1e16, 1e100)])

FLOATS = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGES.tolist()),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, np.nan, np.inf, -np.inf]),
)


def test_preamble_header_and_repr_rows(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), (np.array([0.1, -0.0]), [1.0, 2.5e-17]),
              {"units": "gamma13", "a_in": 1 + 0j})
    assert path.read_bytes() == (b"# units = 'gamma13'\n# a_in = (1+0j)\n"
                                 b"a,b\n0.1,1.0\n-0.0,2.5e-17\n")


def test_without_preamble(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("t", "pop1"), (np.linspace(0.0, 1.0, 3), np.ones(3)))
    assert path.read_text(encoding="utf-8") == "t,pop1\n0.0,1.0\n0.5,1.0\n1.0,1.0\n"


def test_unequal_columns_write_nothing(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), ([1.0], [1.0, 2.0]))
    assert not path.exists()


def test_zero_rows_write_only_preamble_and_header(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), (np.array([]), []), {"units": "gamma13"})
    assert path.read_bytes() == b"# units = 'gamma13'\na,b\n"
    assert_same_bytes(tmp_path, ("a", "b"), (np.array([]), []), {"units": "gamma13"})


def test_every_kind_of_cell(tmp_path):
    column = [0.0, -0.0, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
              1e-7, 5e-324, -1e300, np.nan, np.inf, -np.inf, 0.1, -123456.789,
              1e-05, 5e-06, -5e-06, 1e+16, -2.5e-05, 1.5e-10, 3e+100]
    assert_same_bytes(tmp_path, ("x",), (column,))
    assert_same_bytes(tmp_path, [f"c{k}" for k in range(len(column))],
                      [[x] for x in column])


def test_edges_of_orjsons_range(tmp_path):
    assert_same_bytes(tmp_path, ("x", "y"), (EDGES, EDGES[::-1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 12).flatmap(
    lambda rows: st.lists(arrays(np.float64, rows, elements=FLOATS), min_size=1, max_size=7)))
def test_same_bytes_as_repr(tmp_path_factory, columns):
    tmp_path = tmp_path_factory.mktemp("csv")
    header = [f"c{k}" for k in range(len(columns))]
    assert_same_bytes(tmp_path, header, columns, {"units": "gamma13"})


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(1, 400), st.integers(1, 7))
def test_same_bytes_as_repr_on_random_bit_patterns(tmp_path_factory, seed, rows, cols):
    bits = np.random.default_rng(seed).integers(0, 2**64, size=(cols, rows),
                                                dtype=np.uint64, endpoint=False)
    tmp_path = tmp_path_factory.mktemp("csv")
    assert_same_bytes(tmp_path, [f"c{k}" for k in range(cols)], list(bits.view(np.float64)))


def test_stock_kramers_kronig_sweep(tmp_path, stock_drives, stock_dec):
    # thousands of tiny populations per CSV, where a shipped config has
    # at most one cell outside orjson's range
    table = spectroscopy.sweep_detuning(stock_drives, stock_dec,
                                        spectroscopy.kramers_kronig_grid())
    columns = [table.detunings, table.dispersion, table.absorption,
               *table.populations.T, table.inversions]
    magnitude = np.abs(np.column_stack(columns))
    assert np.count_nonzero((magnitude > 0.0) & (magnitude < 1e-4)) > 1000
    assert_same_bytes(tmp_path, [f"c{k}" for k in range(len(columns))], columns)


#: Every shipped config in its own mode, and the stock config in evolve mode.
SHIPPED = [("eita", None), ("eit", None), ("lwi", None), ("reflect", None),
           ("phase_scan", None), ("fluxonium", None), ("eita", "evolve")]


@pytest.mark.parametrize("config, mode", SHIPPED,
                         ids=[c if m is None else f"{c}-{m}" for c, m in SHIPPED])
def test_shipped_runs_write_reference_bytes(tmp_path, monkeypatch, config, mode):
    written = []

    def both(path, header, columns, meta=None):
        columns = list(columns)
        write_csv(path, header, columns, meta)
        reference_csv(f"{path}.ref", header, columns, meta)
        written.append(Path(path))

    for module in (csvout, fluxonium, inout, spectroscopy):
        monkeypatch.setattr(module, "write_csv", both)
    argv = ["--config", str(CONFIG_DIR / f"{config}.ini"), "--out", str(tmp_path)]
    assert cli.main(argv + (["--mode", mode] if mode else [])) == 0
    # every CSV the run wrote went through the patched writer
    assert written and sorted(written) == sorted(tmp_path.glob("*.csv"))
    for path in written:
        assert path.read_bytes() == Path(f"{path}.ref").read_bytes(), path.name
