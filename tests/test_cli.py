import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sparsetree
from sparsetree import cli, evaluation, solver
from sparsetree.evaluation import kfold


def _child_env(**extra):
    """Environment for a CLI subprocess that imports the package under test,
    installed or not."""
    src = str(Path(sparsetree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


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


def test_depth_bound_rejects_an_oversized_vc(capsys):
    # a 401-digit VC dimension: the bound does not fit in a float
    assert cli.main(["depth-bound", "--n-estimators", "10", "--weak-vc", str(10**400)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float" in captured.err


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


def test_train_says_what_it_will_search_before_it_starts(tmp_path, capsys):
    data = _write_synthetic(tmp_path / "syn.csv")
    n_columns = sparsetree.full_binarize(sparsetree.load_csv(data)).n_columns
    for flags, budget in (
        ([], "depth limit none, record budget none, time budget none"),
        (["--depth", "2", "--max-records", "30", "--time-limit-s", "5"],
         "depth limit 2, record budget 30, time budget 5.0"),
    ):
        rc = cli.main(["train", data, "--lambda", "1/100", *flags, "--out", str(tmp_path / "run")])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        said = err.index(f"searching {n_columns} columns, {budget}")
        status = next(i for i, line in enumerate(err) if line.startswith("status "))
        assert said < status, err


def test_train_warns_that_an_unbounded_search_without_a_budget_may_not_end(tmp_path, capsys):
    data = _write_synthetic(tmp_path / "syn.csv")
    guessed = ("with no depth limit and no budget the search may not end: --max-records or "
               "--time-limit-s ends it with the best tree so far")
    # a run that already guesses thresholds is not told to
    advice = guessed + ", --guess-thresholds searches fewer columns"
    for flags, said_line in (
        ([], advice),
        (["--depth", "none"], advice),
        (["--guess-thresholds"], guessed),
        (["--depth", "none", "--guess-thresholds", "--lb-guess"], guessed),
        (["--max-records", "1000000"], None),
        (["--time-limit-s", "60"], None),
        (["--depth", "3"], None),
        (["--depth", "3", "--guess-thresholds"], None),
    ):
        rc = cli.main(["train", data, "--lambda", "1/100", *flags, "--out", str(tmp_path / "run")])
        assert rc == 0, flags
        err = capsys.readouterr().err.splitlines()
        said = next(i for i, line in enumerate(err) if line.startswith("searching "))
        if said_line is not None:
            assert err[said + 1] == said_line, flags
        else:
            assert not any(line.startswith(guessed) for line in err), flags


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


def test_train_raw_lb_guess_and_timing(tmp_path):
    # a reference fit on the raw features, without threshold guessing; wall
    # time enters the report only with --timing
    data = _write_synthetic(tmp_path / "raw.csv")
    args = [
        "train", data, "--lb-guess", "--n-est", "5", "--max-depth", "2", "--lr", "0.3",
        "--lambda", "1/100", "--depth", "2",
    ]
    assert cli.main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert cli.main(args + ["--timing", "--out", str(tmp_path / "timed")]) == 0
    plain = json.loads((tmp_path / "plain.report.json").read_text())
    timed = json.loads((tmp_path / "timed.report.json").read_text())
    assert plain["status"] == "guess-certified"
    assert plain["lb_guess"] == {"active": True, "refused_single_class": False}
    assert "wall_time_s" not in plain
    assert timed.pop("wall_time_s") >= 0.0
    assert timed == plain
    assert (tmp_path / "plain.tree.json").read_bytes() == (tmp_path / "timed.tree.json").read_bytes()


def test_binary_csv_is_utf8_under_an_ascii_locale(tmp_path):
    # binarized headers hold "≤": writing and reading them must not depend
    # on the locale's encoding
    data = _write_synthetic(tmp_path / "raw.csv")
    bin_path = tmp_path / "bin.csv"
    env = _child_env(LC_ALL="POSIX", PYTHONUTF8="0")
    cmd = [sys.executable, "-m", "sparsetree.cli"]
    runs = [
        ["binarize", data, "--out", str(bin_path)],
        ["train", str(bin_path), "--pre-binarized", "--lambda", "1/100", "--depth", "2",
         "--out", str(tmp_path / "run")],
    ]
    for argv in runs:
        proc = subprocess.run(cmd + argv, capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert "≤" in bin_path.read_text(encoding="utf-8").splitlines()[0]
    report = (tmp_path / "run.report.json").read_text()
    assert '"status": "optimal"' in report


def test_raw_csv_is_utf8_under_an_ascii_locale(tmp_path):
    # a raw header may name a feature outside ASCII, with or without a
    # byte-order mark ahead of it
    rows = "".join(f"{i % 4},{i % 3},{int(i % 4 >= 2)}\n" for i in range(12))
    env = _child_env(LC_ALL="POSIX", PYTHONUTF8="0")
    cmd = [sys.executable, "-m", "sparsetree.cli"]
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        data = tmp_path / f"{name}.csv"
        data.write_text(f"{bom}âge,x1,label\n{rows}", encoding="utf-8")
        runs = [
            ["binarize", str(data), "--out", str(tmp_path / f"{name}.bin.csv")],
            ["train", str(data), "--lambda", "1/100", "--depth", "2",
             "--out", str(tmp_path / name)],
        ]
        for argv in runs:
            proc = subprocess.run(cmd + argv, capture_output=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert json.loads((tmp_path / f"{name}.tree.json").read_text())["feature"] == "âge"


def test_train_rejects_a_repeated_indicator_header(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("feature0≤0.5,feature0≤0.5,label\n"
                    "1,0,1\n1,0,1\n0,1,0\n0,1,0\n1,1,1\n0,0,0\n", encoding="utf-8")
    rc = cli.main(["train", str(data), "--pre-binarized", "--lambda", "1/100",
                   "--depth", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: header columns 1 and 2 are both ")
    assert not (tmp_path / "run.tree.json").exists()


def test_train_refuses_a_tree_that_does_not_score_its_objective(tmp_path, capsys, monkeypatch):
    data = _write_synthetic(tmp_path / "syn.csv")

    def off_by_one_unit(bin_data, cfg):
        res = solver.optimize(bin_data, cfg)
        units = res.objective_units + 1
        return replace(res, objective_units=units, objective=cfg.regularizer.fraction(units))

    monkeypatch.setattr(cli, "optimize", off_by_one_unit)
    rc = cli.main(["train", data, "--lambda", "1/100", "--depth", "2",
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: the tree scores ")
    assert "Traceback" not in err
    assert not (tmp_path / "run.tree.json").exists()
    assert not (tmp_path / "run.report.json").exists()


def test_train_lb_guess_refused_on_a_single_class_reference(tmp_path, capsys):
    # one stage of a depth-1 weak tree at a small learning rate leaves every
    # margin on the majority's side, so the reference predicts one class
    data = tmp_path / "skewed.csv"
    data.write_text("a,label\n" + "".join(f"{i},{int(i >= 9)}\n" for i in range(12)))
    rc = cli.main(["train", str(data), "--lb-guess", "--n-est", "1", "--max-depth", "1",
                   "--lr", "0.1", "--lambda", "1/100", "--depth", "2",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    assert "lb guessing refused: reference predicts a single class\n" in capsys.readouterr().err
    report = json.loads((tmp_path / "run.report.json").read_text())
    assert report["lb_guess"] == {"active": False, "refused_single_class": True}
    assert report["status"] == "optimal"


def test_train_flag_conflict_exits_2(tmp_path, capsys):
    data = _write_xor(tmp_path / "xor.csv")
    with pytest.raises(SystemExit) as e:
        cli.main([
            "train", data, "--pre-binarized", "--guess-thresholds",
            "--lambda", "0", "--out", str(tmp_path / "run"),
        ])
    assert e.value.code == 2
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
    for header in ("", "feature0≤0.5,feature-1≤0.5,label", "feature0≤nan,feature0≤nan,label"):
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
    ["--lambda", "1e400"],
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


@pytest.mark.parametrize("flag, value", [
    ("--max-depth", "0"), ("--n-est", "0"), ("--lr", "0"), ("--drop-tolerance", "2"),
])
def test_train_checks_reference_options_before_binarizing(tmp_path, capsys, monkeypatch,
                                                          flag, value):
    # a large raw CSV was binarized in full before the fit refused the option
    def binarizing(*args, **kwargs):
        raise AssertionError("the CSV was binarized before the reference options were checked")

    monkeypatch.setattr(cli, "full_binarize", binarizing)
    _forbid_fitting(monkeypatch)
    data = _write_synthetic(tmp_path / "raw.csv")
    # an option no reference reads is refused too, as guess and benchmark do
    for run in [["--guess-thresholds"], ["--guess-thresholds", "--lb-guess"], ["--lb-guess"], []]:
        rc = cli.main(["train", data, *run, "--lambda", "1/100", flag, value,
                       "--out", str(tmp_path / "r")])
        assert rc == 1, run
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "r.tree.json").exists()
    assert not (tmp_path / "r.report.json").exists()


def test_lambda_with_no_finite_float_is_an_input_error(tmp_path):
    # 1e400 is an exact rational, but the report gives the objective as a
    # float too: it used to overflow after the whole solve, with a traceback
    data = _write_synthetic(tmp_path / "syn.csv")
    cmd = [sys.executable, "-m", "sparsetree.cli"]
    runs = [
        ["train", data, "--depth", "2", "--out", str(tmp_path / "run")],
        ["benchmark", data, "--folds", "2", "--depth", "2", "--out-json", str(tmp_path / "b.json")],
    ]
    for run in runs:
        proc = subprocess.run(cmd + run + ["--lambda", "1e400"],
                              capture_output=True, text=True, timeout=120, env=_child_env())
        assert proc.returncode == 1, run
        assert proc.stderr.startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
    assert not (tmp_path / "run.tree.json").exists()
    assert not (tmp_path / "b.json").exists()
    # a large lambda that a float holds still solves: one leaf
    xor = _write_xor(tmp_path / "xor.csv")
    assert cli.main(["train", xor, "--lambda", "1e300", "--depth", "2", "--out", str(tmp_path / "big")]) == 0
    report = json.loads((tmp_path / "big.report.json").read_text())
    assert report["objective"]["leaves"] == 1
    assert report["objective"]["float"] == 1e300


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


def test_benchmark_no_compare_solves_once_per_guessed_fold(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solver.optimize(*args, **kwargs)

    monkeypatch.setattr(evaluation, "optimize", counting)
    data = _write_synthetic(tmp_path / "raw.csv")
    assert cli.main([
        "benchmark", data, "--folds", "3", "--n-est", "5", "--max-depth", "2",
        "--lr", "0.3", "--lambda", "1/100", "--depth", "2", "--no-compare",
        "--out-json", str(tmp_path / "bench.json"), "--out-csv", str(tmp_path / "bench.csv"),
    ]) == 0
    folds = json.loads((tmp_path / "bench.json").read_text())["folds"]
    # every fold's guess is active, so only --no-compare spares its plain solve
    assert [f["status"] for f in folds] == ["guess-certified"] * 3
    assert len(calls) == 3
    assert [f["counters_no_guess"] for f in folds] == [None] * 3
    assert [f["objective_no_guess"] for f in folds] == [None] * 3
    with open(tmp_path / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))[:3]
    assert [r["fold"] for r in rows] == ["0", "1", "2"]
    assert all(r["expanded"] and r["expanded_no_guess"] == "" for r in rows)


@pytest.mark.parametrize("flag, value", [
    ("--max-depth", "0"), ("--n-est", "0"), ("--lr", "0"), ("--drop-tolerance", "2"),
])
def test_benchmark_invalid_reference_option_is_an_input_error(tmp_path, capsys, monkeypatch, flag, value):
    # one error line before any fold fits, and no report of failed folds
    def fitting(*args, **kwargs):
        raise AssertionError("a fold fitted before the reference options were checked")

    monkeypatch.setattr(evaluation.guessing, "column_eliminate", fitting)
    data = _write_synthetic(tmp_path / "raw.csv")
    rc = cli.main([
        "benchmark", data, "--folds", "2", flag, value,
        "--out-json", str(tmp_path / "bad.json"), "--out-csv", str(tmp_path / "bad.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "bad.json").exists()
    assert not (tmp_path / "bad.csv").exists()


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
    # the equivalence-points bound is always on; there is no flag to drop it
    with pytest.raises(SystemExit) as info:
        cli.main(["train", "x.csv", "--lambda", "0", "--no-equiv-bound", "--out", "o"])
    assert info.value.code == 2
    for depth in ("0", "x"):
        with pytest.raises(SystemExit) as info:
            cli.main(["train", "x.csv", "--lambda", "0", "--depth", depth, "--out", "o"])
        assert info.value.code == 2


def test_console_script_smoke(tmp_path):
    exe = shutil.which("sparsetree")
    cmd = [exe] if exe else [sys.executable, "-m", "sparsetree.cli"]
    proc = subprocess.run(
        cmd + ["depth-bound", "--n-estimators", "10", "--weak-vc", "8"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suggested_depth"] == 11
