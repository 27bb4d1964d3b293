"""The datasets shipped under out/ regenerate byte for byte, with each
log-series computed once, through a table writer that matches the per-cell
format."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from buildlag import boundary, cli, kummer
from buildlag.scenarios import OutputSettings

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    path = ROOT / "scripts" / "make_figure_data.py"
    spec = importlib.util.spec_from_file_location("make_figure_data_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


DIAGNOSTICS = [
    "[ok] cir-fast: post-jump growth of committed capacity is 0.17% of the initial "
    "jump (200 paths, 40 years)",
    "[ok] abm-power: mean committed-minus-demand gap over years 10-40 is 2496.8 MW "
    "vs threshold bias 1873.1 MW (band +-1162)",
]


def test_figure_data_is_byte_identical_to_out(tmp_path, capsys):
    assert load_script().main(["--out-dir", str(tmp_path)]) == 0
    shipped = sorted(p.name for p in (ROOT / "out").iterdir())
    assert len(shipped) == 17
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name
    # the two diagnostic lines close the run
    assert capsys.readouterr().out.splitlines()[-2:] == DIAGNOSTICS


def test_figure_run_computes_each_log_series_once(tmp_path, monkeypatch, capsys):
    # the lag does not enter psi''/psi': the boundary tables at h = 1 and
    # h = 8 share their ratios, so 8 tables and 2 rule tables need 6
    # log-series calls (one per psi''/psi' grid), not 10
    calls = []
    original = kummer._series_log

    def counting(a, b, z):
        calls.append(z.size)
        return original(a, b, z)

    monkeypatch.setattr(kummer, "_series_log", counting)
    boundary._psi_ratios.cache_clear()
    assert load_script().main(["--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 6


def _per_cell_csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


FLOATS = [(0.1, -0.0, 5e-324, 1e22), (1.0 / 3.0, 3.0, -2.5e-300, float("inf")),
          (123456789.12345679, 1e-7, 2.0**60, float("nan"))]
MIXED = [("c_hat", "h", -0.25, "elasticity", "ok"),
         ("A", "sigma", 1.0 / 7.0, "elasticity", "violated")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header, rows", [(["a", "b", "c", "d"], FLOATS),
                                          (["quantity", "wrt", "value", "kind", "verdict"],
                                           MIXED)], ids=["floats", "mixed"])
def test_emit_table_matches_the_per_cell_join(tmp_path, header, rows, fmt):
    dest = tmp_path / "table"
    cli._emit_table(header, rows, OutputSettings(format=fmt, path=str(dest)))
    if fmt == "csv":
        expected = _per_cell_csv(header, rows)
    else:
        expected = json.dumps([dict(zip(header, r)) for r in rows], indent=2,
                              sort_keys=True) + "\n"
    assert dest.read_text() == expected


def test_rows_hold_the_floats_of_each_cell():
    cols = [np.linspace(0.0, 1.0, 7), np.geomspace(1e-300, 1e300, 7), -np.arange(7.0)]
    rows = cli._rows(cols)
    assert rows == [tuple(float(c[i]) for c in cols) for i in range(7)]
    assert {type(v) for row in rows for v in row} == {float}


@pytest.mark.parametrize("scenario", ["gbm-growth", "abm-power", "cir-fast"])
def test_statics_table_matches_the_per_cell_join(scenario, tmp_path, monkeypatch):
    # statics rows mix strings and floats, so they take the per-cell path
    written = []
    original = cli._emit_table

    def capturing(header, rows, outputs):
        written.append((header, rows))
        original(header, rows, outputs)

    monkeypatch.setattr(cli, "_emit_table", capturing)
    dest = tmp_path / "statics.csv"
    assert cli.main(["statics", "--scenario", scenario, "--out", str(dest)]) == 0
    (header, rows), = written
    assert {type(row[-1]) for row in rows} == {str}
    assert dest.read_text() == _per_cell_csv(header, rows)
