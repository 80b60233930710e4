import numpy as np
import pytest

from delta_eita.csvout import write_csv


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
