"""README's Python examples run as written, so a rename or deletion that
breaks the documented API fails the suite."""

import csv
import re
from pathlib import Path

import numpy as np

from conftest import random_raw

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks()
    assert len(blocks) == 2
    raw = random_raw(np.random.default_rng(0), 300, 4)
    with open(tmp_path / "train.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(raw.feature_names) + ["label"])
        for x, y in zip(raw.features, raw.labels):
            w.writerow([repr(float(v)) for v in x] + [int(y)])
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(compile(blocks[0], f"{README}:quick-start", "exec"), ns)
    assert ns["result"].status == "optimal"
    assert capsys.readouterr().out.startswith("optimal ")
    exec(compile(blocks[1], f"{README}:guessed-pipeline", "exec"), ns)
    assert ns["result"].status == "guess-certified"
