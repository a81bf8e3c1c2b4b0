"""Regenerate the golden CLI artifacts in this directory.

golden.csv is a seeded raw CSV: 60 rows of three features (one-decimal
values in [-1, 1], and two small integer features) whose label is a noisy
function of all three, drawn with Python's random module.  The other files
are what `sparsetree binarize` writes from it and what `sparsetree train`
writes from it or from that binary CSV.
tests/test_goldens.py rebuilds them and compares them byte for byte, so a
change that means to alter an artifact regenerates them with

    PYTHONPATH=src python tests/data/make_goldens.py

and says why.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RAW = "golden.csv"
BINARY = "golden.bin.csv"
# output prefix of each train run: its input file and its flags past the
# input and lambda
TRAINS = {
    "golden.depth3": (RAW, ["--depth", "3"]),
    "golden.unbounded": (RAW, ["--depth", "none"]),
    "golden.records20": (RAW, ["--max-records", "20"]),
    # a guessed solve: only the reference's predictions rest on boosting's
    # float arithmetic, and no float of it reaches the artifacts
    "golden.guessed4": (BINARY, ["--pre-binarized", "--lb-guess", "--depth", "4"]),
    # the same solve cut by a record budget: a cut run whose records were
    # closed by the guess
    "golden.guessed4cut": (BINARY, ["--pre-binarized", "--lb-guess", "--depth", "4",
                                    "--max-records", "1600"]),
}


def raw_csv_text(seed=0, n=60) -> str:
    rng = random.Random(seed)
    lines = ["x0,x1,x2,label"]
    for _ in range(n):
        x0 = round(rng.uniform(-1, 1), 1)
        x1 = rng.randrange(5)
        x2 = rng.randrange(3)
        y = int(x0 + 0.5 * x1 * (x2 - 1) > 0)
        if rng.random() < 0.1:
            y = 1 - y
        lines.append(f"{x0},{x1},{x2},{y}")
    return "\n".join(lines) + "\n"


def write_artifacts(raw_path, out_dir) -> list[str]:
    """Run binarize on raw_path and each train on raw_path or the binary
    CSV, writing into out_dir, and return the names of the files written."""
    from sparsetree import cli

    out_dir = Path(out_dir)
    inputs = {RAW: raw_path, BINARY: out_dir / BINARY}
    names = [BINARY]
    if cli.main(["binarize", str(raw_path), "--out", str(inputs[BINARY])]) != 0:
        raise RuntimeError("binarize failed")
    for prefix, (source, flags) in TRAINS.items():
        if cli.main(["train", str(inputs[source]), "--lambda", "1/100", *flags,
                     "--out", str(out_dir / prefix)]) != 0:
            raise RuntimeError(f"train {prefix} failed")
        names += [f"{prefix}.tree.json", f"{prefix}.report.json"]
    return names


if __name__ == "__main__":
    (HERE / RAW).write_text(raw_csv_text())
    print("\n".join(write_artifacts(HERE / RAW, HERE)))
