"""The CLI's artifacts from a committed seeded CSV match the committed
goldens byte for byte; tests/data/make_goldens.py regenerates them."""

import importlib.util
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def test_cli_artifacts_match_the_goldens(tmp_path):
    spec = importlib.util.spec_from_file_location("make_goldens", DATA / "make_goldens.py")
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    assert (DATA / goldens.RAW).read_text() == goldens.raw_csv_text()
    names = goldens.write_artifacts(DATA / goldens.RAW, tmp_path)
    assert len(names) == 7
    for name in names:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
