"""The datasets shipped under out/ regenerate byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    path = ROOT / "scripts" / "make_figure_data.py"
    spec = importlib.util.spec_from_file_location("make_figure_data_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_figure_data_is_byte_identical_to_out(tmp_path, capsys):
    assert load_script().main(["--out-dir", str(tmp_path)]) == 0
    shipped = sorted(p.name for p in (ROOT / "out").iterdir())
    assert len(shipped) == 17
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name
