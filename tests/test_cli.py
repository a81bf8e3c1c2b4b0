import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsetree
from sparsetree import cli
from sparsetree.evaluation import kfold


def _write_xor(path):
    path.write_text("a,b,label\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
    return str(path)


def _write_synthetic(path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["a,b,label"]
    for _ in range(n):
        x0 = round(float(rng.normal()), 1)
        x1 = int(rng.integers(0, 4))
        lines.append(f"{x0},{x1},{int(x1 >= 2)}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------- depth-bound

def test_depth_bound_reference_points(capsys):
    assert cli.main(["depth-bound", "--n-estimators", "10", "--weak-vc", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "n_estimators": 10,
        "weak_vc": 8,
        "inner_product": pytest.approx(1394.9486109891716),
        "suggested_depth": 11,
    }
    assert cli.main(["depth-bound", "--n-estimators", "100", "--weak-vc", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["suggested_depth"] == 15


def test_depth_bound_weak_depth_converts(capsys):
    assert cli.main(["depth-bound", "--n-estimators", "10", "--weak-depth", "3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["depth-bound", "--n-estimators", "10", "--weak-vc", "8"]) == 0
    assert json.loads(first) == json.loads(capsys.readouterr().out)


def test_depth_bound_rejects_tiny_ensemble(capsys):
    assert cli.main(["depth-bound", "--n-estimators", "2", "--weak-vc", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


# ---------------------------------------------------------------- binarize

def test_binarize_round_trip(tmp_path, capsys):
    data = _write_synthetic(tmp_path / "raw.csv")
    out = tmp_path / "bin.csv"
    assert cli.main(["binarize", data, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    got = sparsetree.read_binary_csv(out)
    want = sparsetree.full_binarize(sparsetree.load_csv(data))
    assert got.columns == want.columns
    assert got.pos_mask == want.pos_mask


def test_binarize_missing_file(tmp_path, capsys):
    rc = cli.main(["binarize", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- guess

def test_guess_artifacts_and_determinism(tmp_path, capsys):
    data = _write_synthetic(tmp_path / "raw.csv")
    args = [
        "guess", data, "--n-est", "5", "--max-depth", "2", "--lr", "0.3",
        "--out-data", str(tmp_path / "red.csv"), "--out-trace", str(tmp_path / "trace.json"),
    ]
    assert cli.main(args) == 0
    red1 = (tmp_path / "red.csv").read_bytes()
    trace1 = (tmp_path / "trace.json").read_bytes()
    assert cli.main(args) == 0
    assert (tmp_path / "red.csv").read_bytes() == red1
    assert (tmp_path / "trace.json").read_bytes() == trace1
    capsys.readouterr()

    reduced = sparsetree.read_binary_csv(tmp_path / "red.csv")
    trace = json.loads(trace1)
    assert reduced.n_columns == len(trace["thresholds"])
    assert {"initial_correct", "stopping_bar", "steps", "ensemble"} <= set(trace)


# ---------------------------------------------------------------- train

def test_train_xor_exact(tmp_path, capsys):
    data = _write_xor(tmp_path / "xor.csv")
    out = tmp_path / "run"
    rc = cli.main(["train", data, "--lambda", "0", "--depth", "2", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # machine output is files only
    assert "status optimal" in captured.err

    tree = json.loads((tmp_path / "run.tree.json").read_text())
    assert tree == {
        "feature": "a", "threshold": 0.5, "relation": "<=",
        "true": {
            "feature": "b", "threshold": 0.5, "relation": "<=",
            "true": {"prediction": 0}, "false": {"prediction": 1},
        },
        "false": {
            "feature": "b", "threshold": 0.5, "relation": "<=",
            "true": {"prediction": 1}, "false": {"prediction": 0},
        },
    }
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["status"] == "optimal"
    assert report["objective"]["value"] == "0"
    assert report["objective"]["loss_count"] == 0


def test_train_xor_heavy_penalty(tmp_path):
    data = _write_xor(tmp_path / "xor.csv")
    out = tmp_path / "run"
    assert cli.main(["train", data, "--lambda", "0.3", "--depth", "2", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["objective"]["value"] == "4/5"
    assert report["objective"]["leaves"] == 1


def test_train_record_budget_writes_the_best_tree_so_far(tmp_path, capsys):
    data = _write_xor(tmp_path / "xor.csv")
    out = tmp_path / "run"
    rc = cli.main(["train", data, "--lambda", "0", "--depth", "2", "--max-records", "1",
                   "--out", str(out)])
    assert rc == 0
    assert "status record-limit" in capsys.readouterr().err
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["status"] == "record-limit"
    assert report["objective"]["value"] == "1/2"
    assert json.loads((tmp_path / "run.tree.json").read_text()) == {"prediction": 0}


def test_train_rerun_is_byte_identical(tmp_path):
    data = _write_synthetic(tmp_path / "raw.csv")
    args = [
        "train", data, "--lambda", "1/100", "--depth", "2",
        "--guess-thresholds", "--lb-guess", "--n-est", "5", "--max-depth", "2", "--lr", "0.3",
    ]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.tree.json").read_bytes() == (tmp_path / "b.tree.json").read_bytes()
    assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()


def test_train_pre_binarized_with_lb_guess(tmp_path):
    data = _write_synthetic(tmp_path / "raw.csv")
    bin_path = tmp_path / "bin.csv"
    assert cli.main(["binarize", data, "--out", str(bin_path)]) == 0
    rc = cli.main([
        "train", str(bin_path), "--pre-binarized", "--lb-guess",
        "--n-est", "5", "--max-depth", "2", "--lr", "0.3",
        "--lambda", "1/100", "--depth", "2", "--out", str(tmp_path / "run"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["status"] in ("optimal", "guess-certified")
    assert report["lb_guess"]["active"] or report["lb_guess"]["refused_single_class"]


def test_train_flag_conflict_exits_2(tmp_path, capsys):
    data = _write_xor(tmp_path / "xor.csv")
    rc = cli.main([
        "train", data, "--pre-binarized", "--guess-thresholds",
        "--lambda", "0", "--out", str(tmp_path / "run"),
    ])
    assert rc == 2
    assert "--guess-thresholds" in capsys.readouterr().err


def test_train_input_errors_exit_1(tmp_path, capsys):
    rc = cli.main([
        "train", str(tmp_path / "absent.csv"), "--lambda", "0", "--out", str(tmp_path / "r"),
    ])
    assert rc == 1
    data = _write_xor(tmp_path / "xor.csv")
    rc = cli.main(["train", data, "--lambda", "nonsense", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    for header in ("", "feature0≤0.5,feature-1≤0.5,label"):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n1,0,0\n")
        rc = cli.main(["train", str(bad), "--pre-binarized", "--lambda", "0", "--depth", "2",
                       "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "error: " in capsys.readouterr().err


def _forbid_fitting(monkeypatch):
    def fitting(*args, **kwargs):
        raise AssertionError("fitting ran before the solver options were checked")

    monkeypatch.setattr(sparsetree.boosting, "fit", fitting)
    monkeypatch.setattr(sparsetree.guessing, "column_eliminate", fitting)


@pytest.mark.parametrize("bad", [
    ["--time-limit-s", "-1"],
    ["--max-records", "0"],
    ["--lambda=-1/10"],
    ["--lambda", "nonsense"],
])
def test_train_checks_solver_options_before_fitting(tmp_path, capsys, monkeypatch, bad):
    data = _write_synthetic(tmp_path / "syn.csv")
    _forbid_fitting(monkeypatch)
    runs = [
        [data, "--guess-thresholds", "--lb-guess"],
        [data, "--lb-guess"],
    ]
    binarized = tmp_path / "bin.csv"
    assert cli.main(["binarize", data, "--out", str(binarized)]) == 0
    runs.append([str(binarized), "--pre-binarized", "--lb-guess"])
    for run in runs:
        argv = ["train", *run, "--lambda", "1/100", "--out", str(tmp_path / "r"), *bad]
        assert cli.main(argv) == 1, run
        assert "error" in capsys.readouterr().err
    assert not (tmp_path / "r.tree.json").exists()


def test_train_unbounded_depth_flag(tmp_path):
    data = _write_xor(tmp_path / "xor.csv")
    assert cli.main([
        "train", data, "--lambda", "0", "--depth", "none", "--out", str(tmp_path / "run"),
    ]) == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["depth_limit"] is None
    assert report["objective"]["value"] == "0"


# ---------------------------------------------------------------- benchmark

def test_benchmark_cli_round_trip(tmp_path):
    data = _write_synthetic(tmp_path / "raw.csv")
    args = [
        "benchmark", data, "--folds", "3", "--n-est", "5", "--max-depth", "2",
        "--lr", "0.3", "--lambda", "1/100", "--depth", "2",
        "--out-json", str(tmp_path / "bench.json"), "--out-csv", str(tmp_path / "bench.csv"),
    ]
    assert cli.main(args) == 0
    first = (tmp_path / "bench.json").read_bytes()
    report = json.loads(first)
    assert report["summary"]["completed_folds"] == 3
    assert (tmp_path / "bench.csv").read_text().startswith("fold,")
    assert cli.main(args) == 0
    assert (tmp_path / "bench.json").read_bytes() == first


def test_benchmark_cli_fails_on_failed_fold(tmp_path, capsys):
    labels = [1, 1, 0, 0, 0, 0]
    raw = sparsetree.make_raw([[10.0 * y + i] for i, y in enumerate(labels)], labels)
    seed = next(
        s for s in range(60)
        if sum(
            len({labels[i] for i in kfold(raw, 3, seed=s).train_indices(f)}) == 1
            for f in range(3)
        ) == 1
    )
    lines = ["a,label"] + [f"{10.0 * y + i},{y}" for i, y in enumerate(labels)]
    data = tmp_path / "nearly.csv"
    data.write_text("\n".join(lines) + "\n")
    rc = cli.main([
        "benchmark", str(data), "--folds", "3", "--seed", str(seed),
        "--n-est", "3", "--max-depth", "2", "--lr", "0.3",
        "--lambda", "1/100", "--depth", "2",
        "--out-json", str(tmp_path / "bench.json"),
    ])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["summary"]["failed_folds"] == 1


# ---------------------------------------------------------------- entry point

def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_console_script_smoke(tmp_path):
    exe = shutil.which("sparsetree")
    cmd = [exe] if exe else [sys.executable, "-m", "sparsetree.cli"]
    # the child imports the package under test, installed or not
    src = str(Path(sparsetree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        cmd + ["depth-bound", "--n-estimators", "10", "--weak-vc", "8"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suggested_depth"] == 11
